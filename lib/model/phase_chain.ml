type t = {
  bins : int;
  drift : float;
  diffusion : float;
  kernel : float array;     (* kernel.(d): probability of advancing d bins *)
  high : bool array;        (* bin center in the high half-period? *)
}

let two_pi = 2.0 *. Float.pi

let create ?(bins = 256) ~drift ~diffusion () =
  if bins < 8 then invalid_arg "Phase_chain.create: bins < 8";
  if diffusion < 0.0 then invalid_arg "Phase_chain.create: negative diffusion";
  let width = two_pi /. float_of_int bins in
  let kernel = Array.make bins 0.0 in
  let point_mass () =
    let d =
      int_of_float (Float.round (drift /. width)) mod bins
    in
    kernel.((d + bins) mod bins) <- 1.0
  in
  (* Near-zero diffusion must take the point-mass branch: the wrapped
     Gaussian underflows to an all-zero kernel (then 0/0) long before
     diffusion reaches 0.0 exactly.  Above the near-zero threshold it
     still underflows at every bin centre when the diffusion is far
     below the bin width (e.g. 1e-3 rad with 64 bins and the drift
     between two centres); that kernel is a point mass too. *)
  if Ptrng_stats.Float_cmp.near_zero diffusion then point_mass ()
  else begin
    (* Wrapped Gaussian, integrated per bin by the midpoint rule. *)
    let wraps = 2 + int_of_float (Float.ceil ((4.0 *. diffusion) /. two_pi)) in
    for d = 0 to bins - 1 do
      let centre = (float_of_int d *. width) -. drift in
      let acc = ref 0.0 in
      for w = -wraps to wraps do
        let x = centre +. (two_pi *. float_of_int w) in
        acc := !acc +. exp (-0.5 *. x *. x /. (diffusion *. diffusion))
      done;
      kernel.(d) <- !acc
    done;
    let total = Array.fold_left ( +. ) 0.0 kernel in
    if total > 0.0 then Array.iteri (fun d v -> kernel.(d) <- v /. total) kernel
    else point_mass ()
  end;
  let high =
    Array.init bins (fun i ->
        let theta = (float_of_int i +. 0.5) *. width in
        theta < Float.pi)
  in
  { bins; drift; diffusion; kernel; high }

let drift t = t.drift
let diffusion t = t.diffusion

let stationary t =
  (* Power iteration; the circulant, doubly-stochastic kernel converges
     to uniform, but we compute rather than assume. *)
  let b = t.bins in
  let dist = ref (Array.make b (1.0 /. float_of_int b)) in
  for _ = 1 to 64 do
    let next = Array.make b 0.0 in
    Array.iteri
      (fun i p ->
        if p > 0.0 then
          Array.iteri
            (fun d k -> next.((i + d) mod b) <- next.((i + d) mod b) +. (p *. k))
            t.kernel)
      !dist;
    dist := next
  done;
  !dist

let bit_probability_of_state t i =
  if i < 0 || i >= t.bins then invalid_arg "Phase_chain.bit_probability_of_state";
  let acc = ref 0.0 in
  Array.iteri
    (fun d k -> if t.high.((i + d) mod t.bins) then acc := !acc +. k)
    t.kernel;
  !acc

let marginal_bit_probability t =
  let pi_dist = stationary t in
  let acc = ref 0.0 in
  Array.iteri (fun i p -> acc := !acc +. (p *. bit_probability_of_state t i)) pi_dist;
  !acc

let entropy_rate_given_state t =
  let pi_dist = stationary t in
  let acc = ref 0.0 in
  Array.iteri
    (fun i p -> acc := !acc +. (p *. Entropy.shannon (bit_probability_of_state t i)))
    pi_dist;
  !acc

let simulate rng t ~bits =
  if bits <= 0 then invalid_arg "Phase_chain.simulate: bits <= 0";
  (* Inverse-CDF table for the advance kernel. *)
  let cdf = Array.make t.bins 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun d k ->
      acc := !acc +. k;
      cdf.(d) <- !acc)
    t.kernel;
  let step () =
    let u = Ptrng_prng.Rng.float rng in
    let rec find lo hi =
      if lo >= hi then lo
      else begin
        let mid = (lo + hi) / 2 in
        if cdf.(mid) < u then find (mid + 1) hi else find lo mid
      end
    in
    find 0 (t.bins - 1)
  in
  let state = ref (Ptrng_prng.Rng.int_below rng t.bins) in
  Array.init bits (fun _ ->
      state := (!state + step ()) mod t.bins;
      t.high.(!state))

(* Monte-Carlo sweep: independent chains, one child stream per run. *)
let simulate_many ?domains rng t ~runs ~bits =
  if runs <= 0 then invalid_arg "Phase_chain.simulate_many: runs <= 0";
  Ptrng_exec.Pool.parallel_map_streams ?domains ~rng
    (fun _ child -> simulate child t ~bits)
    runs
