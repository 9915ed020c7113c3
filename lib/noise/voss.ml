module Tm = Ptrng_telemetry.Registry

let samples_total =
  Tm.Counter.v ~help:"Pink-noise samples synthesized by the Voss-McCartney stack."
    "ptrng_noise_voss_samples_total"

type t = {
  g : Ptrng_prng.Gaussian.t;
  sources : float array;
  mutable counter : int;
}

let create rng ~octaves =
  if octaves < 1 || octaves > 62 then invalid_arg "Voss.create: octaves outside [1,62]";
  let g = Ptrng_prng.Gaussian.create rng in
  let sources = Array.init octaves (fun _ -> Ptrng_prng.Gaussian.draw g) in
  { g; sources; counter = 0 }

(* [@inline] erases the boxed float return at fill-loop call sites;
   the accumulator ref is erased by Simplif.eliminate_ref (summing
   with Array.fold_left would box every partial sum instead). *)
let[@inline] next t =
  Tm.Counter.incr samples_total;
  let octaves = Array.length t.sources in
  for j = 0 to octaves - 1 do
    (* Source j holds its value for 2^j consecutive samples. *)
    if t.counter land ((1 lsl j) - 1) = 0 then
      t.sources.(j) <- Ptrng_prng.Gaussian.draw t.g
  done;
  t.counter <- t.counter + 1;
  let sum = ref 0.0 in
  for j = 0 to octaves - 1 do
    sum := !sum +. Array.unsafe_get t.sources j
  done;
  !sum

let level_hm1 ~sigma = sigma *. sigma /. log 2.0
