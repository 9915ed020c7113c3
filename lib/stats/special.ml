(* Lanczos approximation, g = 7, n = 9 coefficients (Boost/GSL grade:
   ~15 significant digits for x > 0). *)
let lanczos_g = 7.0

let lanczos_coeffs =
  [|
    0.99999999999980993;
    676.5203681218851;
    -1259.1392167224028;
    771.32342877765313;
    -176.61502916214059;
    12.507343278686905;
    -0.13857109526572012;
    9.9843695780195716e-6;
    1.5056327351493116e-7;
  |]

let rec log_gamma x =
  if x <= 0.0 then invalid_arg "Special.log_gamma: x <= 0";
  if x < 0.5 then
    (* Reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x). *)
    log (Float.pi /. sin (Float.pi *. x)) -. log_gamma (1.0 -. x)
  else begin
    let x = x -. 1.0 in
    let acc = ref lanczos_coeffs.(0) in
    for i = 1 to Array.length lanczos_coeffs - 1 do
      acc := !acc +. (lanczos_coeffs.(i) /. (x +. float_of_int i))
    done;
    let t = x +. lanczos_g +. 0.5 in
    (0.5 *. log (2.0 *. Float.pi)) +. ((x +. 0.5) *. log t) -. t +. log !acc
  end

(* log Gamma(1/2), for erf and erfc: the same Lanczos sum evaluated
   once instead of on every call. *)
let log_gamma_half = log_gamma 0.5

(* The two kernels below take [lga = log_gamma a] from the caller and
   keep every float in an eliminated [ref], so an inlined call boxes
   nothing. *)

(* Series representation of P(a,x), converges fast for x < a + 1. *)
let[@inline] gamma_p_series ~a ~x ~lga =
  let eps = 1e-15 in
  let term = ref (1.0 /. a) in
  let sum = ref !term in
  let n = ref 1 in
  while not (Float.abs !term < Float.abs !sum *. eps || !n > 1000) do
    term := !term *. x /. (a +. float_of_int !n);
    sum := !sum +. !term;
    incr n
  done;
  !sum *. exp ((a *. log x) -. x -. lga)

(* Lentz continued fraction for Q(a,x), converges fast for x >= a + 1.
   Q(a, +inf) = 0 exactly; the fraction itself would meet inf - inf. *)
let[@inline] gamma_q_cf ~a ~x ~lga =
  if x = Float.infinity then 0.0
  else begin
    let eps = 1e-15 and tiny = 1e-300 in
    let b = ref (x +. 1.0 -. a) in
    let c = ref (1.0 /. tiny) in
    let d = ref (1.0 /. !b) in
    let h = ref !d in
    let i = ref 1 in
    while !i <= 1000 do
      let an = -.float_of_int !i *. (float_of_int !i -. a) in
      b := !b +. 2.0;
      d := (an *. !d) +. !b;
      if Float.abs !d < tiny then d := tiny;
      c := !b +. (an /. !c);
      if Float.abs !c < tiny then c := tiny;
      d := 1.0 /. !d;
      let delta = !d *. !c in
      h := !h *. delta;
      if Float.abs (delta -. 1.0) < eps then i := 1001 else incr i
    done;
    !h *. exp ((a *. log x) -. x -. lga)
  end

let gamma_p ~a ~x =
  if a <= 0.0 then invalid_arg "Special.gamma_p: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_p: x < 0";
  if x = 0.0 then 0.0
  else begin
    let lga = log_gamma a in
    if x < a +. 1.0 then gamma_p_series ~a ~x ~lga
    else 1.0 -. gamma_q_cf ~a ~x ~lga
  end

let gamma_q ~a ~x =
  if a <= 0.0 then invalid_arg "Special.gamma_q: a <= 0";
  if x < 0.0 then invalid_arg "Special.gamma_q: x < 0";
  if x = 0.0 then 1.0
  else begin
    let lga = log_gamma a in
    if x < a +. 1.0 then 1.0 -. gamma_p_series ~a ~x ~lga
    else gamma_q_cf ~a ~x ~lga
  end

(* erf x = sign(x) P(1/2, x^2) and erfc x = Q(1/2, x^2) for x >= 0,
   through gamma_p/gamma_q's own branches at a = 1/2 (series below
   x^2 = a + 1 = 1.5). *)
let erf x =
  if x = 0.0 then 0.0
  else begin
    let x2 = x *. x in
    let p =
      if x2 = 0.0 then 0.0
      else if x2 < 1.5 then gamma_p_series ~a:0.5 ~x:x2 ~lga:log_gamma_half
      else 1.0 -. gamma_q_cf ~a:0.5 ~x:x2 ~lga:log_gamma_half
    in
    if x > 0.0 then p else -.p
  end

let[@inline] erfc_pos x =
  if x = 0.0 then 1.0
  else begin
    let x2 = x *. x in
    if x2 = 0.0 then 1.0
    else if x2 < 1.5 then 1.0 -. gamma_p_series ~a:0.5 ~x:x2 ~lga:log_gamma_half
    else gamma_q_cf ~a:0.5 ~x:x2 ~lga:log_gamma_half
  end

(* Saturated tails, returning the bits the full evaluation gives: for
   x >= 27.5 the continued fraction's exp factor is below exp (-753)
   and underflows to 0, and for x <= -6.4, erfc_pos (-x) < 1e-18 is
   under half an ulp of 2, so 2 - it rounds to 2. *)
let[@inline] erfc x =
  if x >= 27.5 then 0.0
  else if x <= -6.4 then 2.0
  else if x < 0.0 then 2.0 -. erfc_pos (-.x)
  else erfc_pos x

let sqrt2 = sqrt 2.0

let[@inline] normal_cdf x = 0.5 *. erfc (-.x /. sqrt2)
let[@inline] normal_sf x = 0.5 *. erfc (x /. sqrt2)

let normal_cdf_in_place buf ~len =
  for i = 0 to len - 1 do
    Float.Array.set buf i (normal_cdf (Float.Array.get buf i))
  done

(* Acklam's rational approximation to the normal quantile, then one
   step of Halley refinement using the exact CDF above. *)
let normal_ppf p =
  if p <= 0.0 || p >= 1.0 then invalid_arg "Special.normal_ppf: p outside (0,1)";
  let a =
    [| -3.969683028665376e+01; 2.209460984245205e+02; -2.759285104469687e+02;
       1.383577518672690e+02; -3.066479806614716e+01; 2.506628277459239e+00 |]
  in
  let b =
    [| -5.447609879822406e+01; 1.615858368580409e+02; -1.556989798598866e+02;
       6.680131188771972e+01; -1.328068155288572e+01 |]
  in
  let c =
    [| -7.784894002430293e-03; -3.223964580411365e-01; -2.400758277161838e+00;
       -2.549732539343734e+00; 4.374664141464968e+00; 2.938163982698783e+00 |]
  in
  let d =
    [| 7.784695709041462e-03; 3.224671290700398e-01; 2.445134137142996e+00;
       3.754408661907416e+00 |]
  in
  let p_low = 0.02425 in
  let x =
    if p < p_low then begin
      let q = sqrt (-2.0 *. log p) in
      (((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
      /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0)
    end
    else if p <= 1.0 -. p_low then begin
      let q = p -. 0.5 in
      let r = q *. q in
      (((((a.(0) *. r +. a.(1)) *. r +. a.(2)) *. r +. a.(3)) *. r +. a.(4)) *. r +. a.(5)) *. q
      /. (((((b.(0) *. r +. b.(1)) *. r +. b.(2)) *. r +. b.(3)) *. r +. b.(4)) *. r +. 1.0)
    end
    else begin
      let q = sqrt (-2.0 *. log (1.0 -. p)) in
      -.((((((c.(0) *. q +. c.(1)) *. q +. c.(2)) *. q +. c.(3)) *. q +. c.(4)) *. q +. c.(5))
         /. ((((d.(0) *. q +. d.(1)) *. q +. d.(2)) *. q +. d.(3)) *. q +. 1.0))
    end
  in
  (* Halley polish. *)
  let e = normal_cdf x -. p in
  let u = e *. sqrt (2.0 *. Float.pi) *. exp (x *. x /. 2.0) in
  x -. (u /. (1.0 +. (x *. u /. 2.0)))

let chi2_cdf ~df x =
  if df <= 0.0 then invalid_arg "Special.chi2_cdf: df <= 0";
  if x <= 0.0 then 0.0 else gamma_p ~a:(df /. 2.0) ~x:(x /. 2.0)

let chi2_sf ~df x =
  if df <= 0.0 then invalid_arg "Special.chi2_sf: df <= 0";
  if x <= 0.0 then 1.0 else gamma_q ~a:(df /. 2.0) ~x:(x /. 2.0)

let ks_sf lambda =
  if lambda <= 0.0 then 1.0
  else begin
    let acc = ref 0.0 in
    (try
       for j = 1 to 100 do
         let sign = if j land 1 = 1 then 1.0 else -1.0 in
         let term = sign *. exp (-2.0 *. float_of_int (j * j) *. lambda *. lambda) in
         acc := !acc +. term;
         if Float.abs term < 1e-16 then raise Exit
       done
     with Exit -> ());
    Float.max 0.0 (Float.min 1.0 (2.0 *. !acc))
  end
