module Tm = Ptrng_telemetry.Registry

let samples_total =
  Tm.Counter.v ~help:"1/f^alpha samples synthesized by the Kasdin-Walter filter."
    "ptrng_noise_kasdin_samples_total"

let coefficients ~alpha n =
  if n <= 0 then invalid_arg "Kasdin.coefficients: n <= 0";
  let h = Array.make n 0.0 in
  h.(0) <- 1.0;
  for k = 1 to n - 1 do
    let fk = float_of_int k in
    h.(k) <- h.(k - 1) *. (fk -. 1.0 +. (alpha /. 2.0)) /. fk
  done;
  h

type stream = {
  g : Ptrng_prng.Gaussian.t;
  sigma_w : float;
  taps : float array;
  buf : float array;  (* ring buffer of past white inputs *)
  mutable pos : int;
}

let stream_create g ~alpha ~sigma_w ~taps =
  if taps <= 0 then invalid_arg "Kasdin.stream_create: taps <= 0";
  {
    g;
    sigma_w;
    taps = coefficients ~alpha taps;
    buf = Array.make taps 0.0;
    pos = 0;
  }

let stream_next s =
  Tm.Counter.incr samples_total;
  let k = Array.length s.taps in
  s.buf.(s.pos) <- s.sigma_w *. Ptrng_prng.Gaussian.draw s.g;
  let acc = ref 0.0 in
  for j = 0 to k - 1 do
    (* taps.(j) multiplies the input from j steps ago. *)
    let idx = s.pos - j in
    let idx = if idx < 0 then idx + k else idx in
    acc := !acc +. (s.taps.(j) *. s.buf.(idx))
  done;
  s.pos <- (s.pos + 1) mod k;
  !acc
