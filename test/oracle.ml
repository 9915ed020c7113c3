(* Reference implementations of the assessment kernels, kept as they
   were before the dense rewrite: hash tables keyed by packed contexts,
   contexts rebuilt bit by bit, every lag scored at every bit, a
   Berlekamp-Massey that copies its connection polynomial, T5 by direct
   comparison.  Slow but obviously
   faithful to the standards' text; the property tests check the
   library's kernels against them on random inputs.  The noise FFT's
   grouped-twiddle stage loop, as it was before the twiddle table, is
   kept at the end on the same terms. *)

module Est = Ptrng_sp90b.Estimators

let z99 = 2.5758293035489004

(* --- SP 800-90B t-tuple estimator ----------------------------------- *)

let t_tuple ?(max_t = 16) (bits : bool array) =
  let n = Array.length bits in
  let worst = ref 0.0 in
  (try
     for t = 1 to max_t do
       let windows = n - t + 1 in
       let counts = Hashtbl.create 1024 in
       let key = ref 0 in
       for j = 0 to t - 1 do
         key := (!key lsl 1) lor (if bits.(j) then 1 else 0)
       done;
       let mask = (1 lsl t) - 1 in
       let bump k =
         Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
       in
       bump !key;
       for i = 1 to windows - 1 do
         key := ((!key lsl 1) lor (if bits.(i + t - 1) then 1 else 0)) land mask;
         bump !key
       done;
       let max_count = Hashtbl.fold (fun _ c acc -> max c acc) counts 0 in
       if max_count < 35 then raise Exit;
       let p_hat = float_of_int max_count /. float_of_int windows in
       let p_u =
         p_hat +. (z99 *. sqrt (p_hat *. (1.0 -. p_hat) /. float_of_int (windows - 1)))
       in
       let per_bit = Float.max 1e-12 (Float.min 1.0 p_u) ** (1.0 /. float_of_int t) in
       if per_bit > !worst then worst := per_bit
     done
   with Exit -> ());
  let p_max = Float.max 1e-12 (Float.min 1.0 !worst) in
  { Est.name = "t-tuple"; p_max; min_entropy = Float.max 0.0 (-.(log p_max /. log 2.0)) }

(* --- SP 800-90B predictors ------------------------------------------ *)

let score ~name ~correct ~n ~longest_run =
  let fn = float_of_int n in
  let p_global = float_of_int correct /. fn in
  let p_global_u =
    if correct = 0 then 1.0 -. (0.01 ** (1.0 /. fn))
    else
      Float.min 1.0
        (p_global +. (z99 *. sqrt (p_global *. (1.0 -. p_global) /. (fn -. 1.0))))
  in
  let p_local = Ptrng_sp90b.Predictors.local_bound ~n ~longest_run in
  let p_max = Float.max 0.5 (Float.max p_global_u p_local) in
  { Est.name; p_max; min_entropy = Float.max 0.0 (Float.min 1.0 (-.(log p_max /. log 2.0))) }

let run_predictor ~name ~start (bits : bool array) predict update =
  let n = Array.length bits in
  let correct = ref 0 and made = ref 0 in
  let run = ref 0 and longest = ref 0 in
  for i = start to n - 1 do
    (match predict i with
    | Some guess ->
      incr made;
      if guess = bits.(i) then begin
        incr correct;
        incr run;
        if !run > !longest then longest := !run
      end
      else run := 0
    | None -> ());
    update i
  done;
  score ~name ~correct:!correct ~n:!made ~longest_run:!longest

let lag ?(max_lag = 128) (bits : bool array) =
  let scoreboard = Array.make max_lag 0 in
  let predict i =
    let best = ref 0 in
    for j = 1 to max_lag - 1 do
      if scoreboard.(j) > scoreboard.(!best) then best := j
    done;
    Some bits.(i - (!best + 1))
  in
  let update i =
    for j = 0 to max_lag - 1 do
      if bits.(i - (j + 1)) = bits.(i) then scoreboard.(j) <- scoreboard.(j) + 1
    done
  in
  run_predictor ~name:"lag" ~start:max_lag bits predict update

(* Bits i-d .. i-1 packed behind a leading marker bit. *)
let context (bits : bool array) d i =
  let acc = ref 1 in
  for j = i - d to i - 1 do
    acc := (!acc lsl 1) lor (if bits.(j) then 1 else 0)
  done;
  !acc

let multi_mmc ?(max_order = 16) (bits : bool array) =
  let tables = Array.init max_order (fun _ -> Hashtbl.create 1024) in
  let scoreboard = Array.make max_order 0 in
  let sub_predict d i =
    match Hashtbl.find_opt tables.(d - 1) (context bits d i) with
    | Some (c0, c1) when c0 <> c1 -> Some (c1 > c0)
    | Some _ | None -> None
  in
  let predict i =
    let best = ref 0 in
    for j = 1 to max_order - 1 do
      if scoreboard.(j) > scoreboard.(!best) then best := j
    done;
    sub_predict (!best + 1) i
  in
  let update i =
    for d = 1 to min max_order i do
      (match sub_predict d i with
      | Some guess when guess = bits.(i) -> scoreboard.(d - 1) <- scoreboard.(d - 1) + 1
      | _ -> ());
      let key = context bits d i in
      let c0, c1 = Option.value ~default:(0, 0) (Hashtbl.find_opt tables.(d - 1) key) in
      Hashtbl.replace tables.(d - 1) key (if bits.(i) then (c0, c1 + 1) else (c0 + 1, c1))
    done
  in
  run_predictor ~name:"multi-mmc" ~start:2 bits predict update

let lz78y_max_entries = 65536

(* The estimate, and the dictionary's final size. *)
let lz78y (bits : bool array) =
  let max_depth = 16 in
  let dict : (int, int * int) Hashtbl.t = Hashtbl.create 4096 in
  let predict i =
    let rec deepest d =
      if d = 0 then None
      else
        match Hashtbl.find_opt dict (context bits d i) with
        | Some (c0, c1) when c0 <> c1 -> Some (c1 > c0)
        | _ -> deepest (d - 1)
    in
    deepest (min max_depth i)
  in
  let update i =
    for d = 1 to min max_depth i do
      let k = context bits d i in
      match Hashtbl.find_opt dict k with
      | Some (c0, c1) -> Hashtbl.replace dict k (if bits.(i) then (c0, c1 + 1) else (c0 + 1, c1))
      | None ->
        if Hashtbl.length dict < lz78y_max_entries then
          Hashtbl.add dict k (if bits.(i) then (0, 1) else (1, 0))
    done
  in
  let e = run_predictor ~name:"lz78y" ~start:1 bits predict update in
  (e, Hashtbl.length dict)

(* --- SP 800-22 Berlekamp-Massey ------------------------------------- *)

let berlekamp_massey (bits : bool array) =
  let s = Array.map (fun b -> if b then 1 else 0) bits in
  let n = Array.length s in
  let b = Array.make n 0 and c = Array.make n 0 in
  b.(0) <- 1;
  c.(0) <- 1;
  let l = ref 0 and m = ref (-1) in
  for i = 0 to n - 1 do
    let d = ref s.(i) in
    for j = 1 to !l do
      d := !d lxor (c.(j) land s.(i - j))
    done;
    if !d = 1 then begin
      let t = Array.copy c in
      let shift = i - !m in
      for j = 0 to n - 1 - shift do
        c.(j + shift) <- c.(j + shift) lxor b.(j)
      done;
      if 2 * !l <= i then begin
        l := i + 1 - !l;
        m := i;
        Array.blit t 0 b 0 n
      end
    end
  done;
  !l

let linear_complexity ~block (bits : bool array) =
  let n = Array.length bits in
  let blocks = n / block in
  let fm = float_of_int block in
  let sign = if block land 1 = 0 then 1.0 else -1.0 in
  let mu =
    (fm /. 2.0) +. ((9.0 +. sign) /. 36.0) -. (((fm /. 3.0) +. (2.0 /. 9.0)) /. (2.0 ** fm))
  in
  let pis = [| 0.010417; 0.03125; 0.125; 0.5; 0.25; 0.0625; 0.020833 |] in
  let counts = Array.make 7 0 in
  for b = 0 to blocks - 1 do
    let lc = berlekamp_massey (Array.sub bits (b * block) block) in
    let t = (sign *. (float_of_int lc -. mu)) +. (2.0 /. 9.0) in
    let bin =
      if t <= -2.5 then 0
      else if t <= -1.5 then 1
      else if t <= -0.5 then 2
      else if t <= 0.5 then 3
      else if t <= 1.5 then 4
      else if t <= 2.5 then 5
      else 6
    in
    counts.(bin) <- counts.(bin) + 1
  done;
  let fb = float_of_int blocks in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun i c ->
      let e = fb *. pis.(i) in
      let d = float_of_int c -. e in
      chi2 := !chi2 +. (d *. d /. e))
    counts;
  let p_value =
    Float.max 0.0 (Float.min 1.0 (Ptrng_stats.Special.gamma_q ~a:3.0 ~x:(!chi2 /. 2.0)))
  in
  { Ptrng_nist22.Sp80022.name = "linear-complexity"; statistic = !chi2; p_value;
    pass = p_value >= 0.01 }

(* --- AIS31 T5 ------------------------------------------------------- *)

(* The decision statistic Z and the selected shift of T5. *)
let t5_autocorrelation (block : bool array) =
  let z_tau offset tau =
    let acc = ref 0 in
    for j = 0 to 4999 do
      if block.(offset + j) <> block.(offset + j + tau) then incr acc
    done;
    !acc
  in
  let best_tau = ref 1 and best_dep = ref (-1.0) in
  for tau = 1 to 5000 do
    let dep = Float.abs (float_of_int (z_tau 0 tau) -. 2500.0) in
    if dep > !best_dep then begin
      best_dep := dep;
      best_tau := tau
    end
  done;
  (z_tau 10000 !best_tau, !best_tau)

(* --- random sources for the property tests -------------------------- *)

type source = { kind : [ `Bernoulli | `Sticky | `Periodic ]; p : float; n : int; seed : int }

let print_source s =
  Printf.sprintf "%s p=%g n=%d seed=%d"
    (match s.kind with `Bernoulli -> "bernoulli" | `Sticky -> "sticky" | `Periodic -> "periodic")
    s.p s.n s.seed

(* Bernoulli(p) bits; bits that repeat their predecessor with
   probability p; or a random pattern of 1..40 bits (ones with
   probability p) repeated. *)
let gen_source ~min_len ~max_len =
  QCheck2.Gen.(
    map
      (fun (kind, p, n, seed) -> { kind; p; n; seed })
      (quad
         (oneofl [ `Bernoulli; `Sticky; `Periodic ])
         (float_range 0.05 0.95) (int_range min_len max_len) (int_bound 1_000_000)))

let bits_of s =
  let rng = Testkit.rng ~seed:(Int64.of_int s.seed) () in
  let draw () = Ptrng_prng.Rng.float rng < s.p in
  match s.kind with
  | `Bernoulli -> Array.init s.n (fun _ -> draw ())
  | `Sticky ->
    let out = Array.make s.n (draw ()) in
    for i = 1 to s.n - 1 do
      out.(i) <- (if draw () then out.(i - 1) else not out.(i - 1))
    done;
    out
  | `Periodic ->
    let pattern = Array.init (1 + Ptrng_prng.Rng.int_below rng 40) (fun _ -> draw ()) in
    Array.init s.n (fun i -> pattern.(i mod Array.length pattern))

(* --- Noise FFT, every stage grouped ----------------------------------- *)

(* Each stage restarts its twiddle recurrence, and its re-anchoring
   cos/sin, at the top of every group. *)
let fft_grouped ~sign re im =
  let module FA = Float.Array in
  let n = FA.length re in
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = FA.get re i and ti = FA.get im i in
      FA.set re i (FA.get re !j);
      FA.set re !j tr;
      FA.set im i (FA.get im !j);
      FA.set im !j ti
    end;
    let bit = ref (n lsr 1) in
    while !j land !bit <> 0 do
      j := !j lxor !bit;
      bit := !bit lsr 1
    done;
    j := !j lor !bit
  done;
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let ang = sign *. 2.0 *. Float.pi /. float_of_int !len in
    let step_r = cos ang and step_i = sin ang in
    let i = ref 0 in
    while !i < n do
      let wr = ref 1.0 and wi = ref 0.0 in
      for k = 0 to half - 1 do
        if k land 63 = 0 then begin
          let a = ang *. float_of_int k in
          wr := cos a;
          wi := sin a
        end;
        let p = !i + k in
        let q = p + half in
        let vr = (FA.get re q *. !wr) -. (FA.get im q *. !wi) in
        let vi = (FA.get re q *. !wi) +. (FA.get im q *. !wr) in
        let rp = FA.get re p and ip = FA.get im p in
        FA.set re q (rp -. vr);
        FA.set im q (ip -. vi);
        FA.set re p (rp +. vr);
        FA.set im p (ip +. vi);
        let nwr = (!wr *. step_r) -. (!wi *. step_i) in
        wi := (!wr *. step_i) +. (!wi *. step_r);
        wr := nwr
      done;
      i := !i + !len
    done;
    len := !len * 2
  done;
  if sign > 0.0 then begin
    let inv = 1.0 /. float_of_int n in
    for i = 0 to n - 1 do
      FA.set re i (FA.get re i *. inv);
      FA.set im i (FA.get im i *. inv)
    done
  end
