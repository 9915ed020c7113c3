let max_fourier_terms = 200

(* Everything from here to [midpoint_terms] is inlined into that
   kernel.  The wrapped sum hands its CDF arguments to Special in a
   Float.Array rather than one boxed float per call, so no float
   crosses a call boundary and the kernel allocates nothing. *)

(* The wrapped sum runs for phase std s < 3, so it needs at most
   2 + ceil (3/2) = 4 wraps each side: 9 terms, two CDF values each. *)
let cdf_scratch = 18

(* P(mu + s Z mod 2pi in (0, pi)): direct wrapped-Gaussian sum.  Exact
   for any s but needs ~s/pi wraps; used below the series' comfort
   zone, including the s = 0 step function the Fourier series cannot
   represent without Gibbs error.  [cdf] holds [cdf_scratch] floats. *)
let[@inline] probability_wrapped ~cdf ~mu ~s =
  let two_pi = 2.0 *. Float.pi in
  (* Sub-epsilon jitter is a step function; the wrapped sum would only
     saturate its CDFs at huge arguments anyway.  (Float_cmp.near_zero's
     test, spelled out: its defaulted optional argument is a closure
     on the hot path.) *)
  if Float.abs s < Ptrng_stats.Float_cmp.default_eps then begin
    let m = mu -. (two_pi *. Float.floor (mu /. two_pi)) in
    if m < Float.pi then 1.0 else 0.0
  end
  else begin
    let wraps = 2 + int_of_float (Float.ceil (s /. 2.0)) in
    let terms = (2 * wraps) + 1 in
    for t = 0 to terms - 1 do
      let base = (two_pi *. float_of_int (t - wraps)) -. mu in
      Float.Array.set cdf (2 * t) ((base +. Float.pi) /. s);
      Float.Array.set cdf ((2 * t) + 1) (base /. s)
    done;
    Ptrng_stats.Special.normal_cdf_in_place cdf ~len:(2 * terms);
    let acc = ref 0.0 in
    for t = 0 to terms - 1 do
      acc := !acc +. Float.Array.get cdf (2 * t) -. Float.Array.get cdf ((2 * t) + 1)
    done;
    !acc
  end

(* [Float.max 0.0 (Float.min 1.0 p)], bit for bit (a NaN passes
   through, -0.0 becomes 0.0), without the boxed float calls. *)
let[@inline] clamp_unit p =
  if p > 1.0 then 1.0 else if p > 0.0 || Float.is_nan p then p else 0.0

let[@inline] bit_probability_with ~cdf ~mu ~phase_std =
  if phase_std < 0.0 then invalid_arg "Entropy.bit_probability: negative phase_std";
  if phase_std < 3.0 then clamp_unit (probability_wrapped ~cdf ~mu ~s:phase_std)
  else begin
    (* Large diffusion: the Fourier series converges in a few terms. *)
    let acc = ref 0.5 in
    let k = ref 1 in
    while !k <= max_fourier_terms do
      let fk = float_of_int !k in
      let damp = exp (-0.5 *. fk *. fk *. phase_std *. phase_std) in
      if damp < 1e-18 then k := max_fourier_terms + 1
      else begin
        acc := !acc +. (2.0 /. (Float.pi *. fk) *. damp *. sin (fk *. mu));
        k := !k + 2
      end
    done;
    clamp_unit !acc
  end

let bit_probability ~mu ~phase_std =
  bit_probability_with ~cdf:(Float.Array.create cdf_scratch) ~mu ~phase_std

let[@inline] shannon p =
  if p < 0.0 || p > 1.0 then invalid_arg "Entropy.shannon: p outside [0,1]";
  if not (0.0 < p && p < 1.0) then 0.0
  else begin
    let q = 1.0 -. p in
    -.((p *. log p) +. (q *. log q)) /. log 2.0
  end

(* Average h(p(mu)) over one period of the drifting mean; p has period
   2 pi and the entropy is symmetric, so integrate a half period.
   Midpoint rule with enough points for the sharp low-jitter
   transitions. *)
let steps = 2048

(* Midpoint terms [lo, hi) of [avg_entropy]: terms.(i) = h(p(mu_i)),
   with [cdf] as the wrapped sum's scratch. *)
let midpoint_terms ~phase_std ~cdf terms ~lo ~hi =
  for i = lo to hi - 1 do
    let mu = Float.pi *. (float_of_int i +. 0.5) /. float_of_int steps in
    Float.Array.set terms i (shannon (bit_probability_with ~cdf ~mu ~phase_std))
  done

(* Each half of the terms is one task of a 2-task section; the sum
   runs in index order afterwards, so the result does not depend on
   the domain count.  Inside a pool worker the section is sequential,
   and so is the Fourier branch (phase_std >= 3): its 2048 terms are
   cheap enough that splitting them saves less than the domain spawn
   costs. *)
let avg_entropy ~phase_std =
  let terms = Float.Array.create steps in
  let half = steps / 2 in
  let domains = if phase_std < 3.0 then Ptrng_exec.Pool.resolve () else 1 in
  Ptrng_exec.Pool.run_tasks ~domains ~n_tasks:2
    (fun k ->
      midpoint_terms ~phase_std ~cdf:(Float.Array.create cdf_scratch) terms
        ~lo:(k * half) ~hi:((k + 1) * half));
  let acc = ref 0.0 in
  for i = 0 to steps - 1 do
    acc := !acc +. Float.Array.get terms i
  done;
  !acc /. float_of_int steps

let min_entropy ~phase_std =
  let p_max = bit_probability ~mu:(Float.pi /. 2.0) ~phase_std in
  let p_max = Float.max p_max (1.0 -. p_max) in
  -.(log p_max /. log 2.0)

let entropy_lower_bound ~phase_std =
  if phase_std < 0.0 then invalid_arg "Entropy.entropy_lower_bound: negative phase_std";
  let defect = 4.0 /. (Float.pi *. Float.pi *. log 2.0) *. exp (-.(phase_std *. phase_std)) in
  Float.max 0.0 (Float.min 1.0 (1.0 -. defect))

let phase_std_of_accumulated_jitter ~sigma_acc ~f0 =
  if sigma_acc < 0.0 || f0 <= 0.0 then
    invalid_arg "Entropy.phase_std_of_accumulated_jitter: bad arguments";
  2.0 *. Float.pi *. f0 *. sigma_acc

let phase_std_thermal ~sigma_period ~k ~f0 =
  if k <= 0 then invalid_arg "Entropy.phase_std_thermal: k <= 0";
  phase_std_of_accumulated_jitter ~sigma_acc:(sigma_period *. sqrt (float_of_int k)) ~f0
