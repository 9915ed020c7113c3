module Pool = Ptrng_exec.Pool
module Rng = Ptrng_prng.Rng

let samples_total =
  Ptrng_telemetry.Registry.Counter.v
    ~help:"Noise samples synthesized by frequency-domain shaping."
    "ptrng_noise_spectral_samples_total"

(* Spectrum bins are filled in fixed-size chunks, each from a child
   generator derived from one root draw, so the synthesized block is
   bit-identical for every domain count (see docs/PARALLELISM.md). *)
let bin_chunk = 4096

module FA = Float.Array

type block = {
  re : FA.t;     (* spectrum in, samples out *)
  im : FA.t;
  draws : FA.t;  (* one chunk's (a, b) Gaussian pairs *)
  tw : Fft.twiddles;
}

let check_length n =
  if not (Fft.is_pow2 n) then
    invalid_arg "Spectral_synth.generate: n must be a power of two"

let block n =
  check_length n;
  (* Uninitialised: fill_block writes every cell before reading it. *)
  {
    re = FA.create n;
    im = FA.create n;
    draws = FA.create (2 * min bin_chunk (max 0 ((n / 2) - 1)));
    tw = Fft.twiddles n;
  }

let samples b = b.re

let nchunks n = ((n / 2) - 1 + bin_chunk - 1) / bin_chunk

(* Interior bins k_lo .. k_hi of chunk [ci], from one bulk draw of the
   chunk's (a, b) pairs into [draws] at [pos]: same child stream, same
   draw order as a per-bin pair of draws. *)
let fill_chunk ~backend ~root ~psd ~fs re im draws ~pos ci =
  let n = FA.length re in
  let half = n / 2 in
  let child = Rng.child ~backend ~root ~index:ci () in
  let g = Ptrng_prng.Gaussian.create child in
  let k_lo = 1 + (ci * bin_chunk) in
  let k_hi = min (half - 1) (k_lo + bin_chunk - 1) in
  let bins = k_hi - k_lo + 1 in
  Ptrng_prng.Gaussian.fill_fa g ~sigma:1.0 draws ~pos ~len:(2 * bins);
  (* E[|X_k|^2] = S(f_k) fs n / 2 for interior bins of an unscaled DFT. *)
  for k = k_lo to k_hi do
    let f = float_of_int k *. fs /. float_of_int n in
    let amp = sqrt (psd f *. fs *. float_of_int n /. 4.0) in
    let j = pos + (2 * (k - k_lo)) in
    let a = amp *. FA.unsafe_get draws j in
    let b = amp *. FA.unsafe_get draws (j + 1) in
    FA.unsafe_set re k a;
    FA.unsafe_set im k b;
    FA.unsafe_set re (n - k) a;
    FA.unsafe_set im (n - k) (-.b)
  done

(* The DC bin is zero.  The Nyquist bin is real with the full expected
   power; its draw comes from a dedicated child stream beyond the
   interior chunk indices.  inverse applies the 1/n scaling, so a
   forward transform of the result returns exactly this spectrum. *)
let finish b ~backend ~root ~psd ~fs =
  let n = FA.length b.re in
  let half = n / 2 in
  FA.unsafe_set b.re 0 0.0;
  FA.unsafe_set b.im 0 0.0;
  if half >= 1 then begin
    let child = Rng.child ~backend ~root ~index:(nchunks n + 1) () in
    let g = Ptrng_prng.Gaussian.create child in
    let f = fs /. 2.0 in
    FA.unsafe_set b.re half
      (sqrt (psd f *. fs *. float_of_int n /. 2.0) *. Ptrng_prng.Gaussian.draw g);
    FA.unsafe_set b.im half 0.0
  end;
  Fft.inverse b.tw ~re:b.re ~im:b.im

let fill_block b ~backend ~root ~psd ~fs =
  let n = FA.length b.re in
  Ptrng_telemetry.Registry.Counter.add samples_total n;
  for ci = 0 to nchunks n - 1 do
    fill_chunk ~backend ~root ~psd ~fs b.re b.im b.draws ~pos:0 ci
  done;
  finish b ~backend ~root ~psd ~fs

(* [domains] is a required resolved count (no option at hot call
   sites); [generate] resolves its own [?domains].  Above one domain
   the chunks fill in parallel, each drawing into its own slice of a
   spectrum-sized draw buffer. *)
let generate_with_root ~domains ~backend ~root ~psd ~fs n =
  check_length n;
  if fs <= 0.0 then invalid_arg "Spectral_synth.generate: fs <= 0";
  let b = block n in
  let chunks = nchunks n in
  if domains <= 1 || chunks <= 1 then fill_block b ~backend ~root ~psd ~fs
  else begin
    Ptrng_telemetry.Registry.Counter.add samples_total n;
    let draws = FA.create (2 * bin_chunk * chunks) in
    Pool.run_tasks ~domains ~n_tasks:chunks (fun ci ->
        fill_chunk ~backend ~root ~psd ~fs b.re b.im draws
          ~pos:(2 * bin_chunk * ci) ci);
    finish b ~backend ~root ~psd ~fs
  end;
  Array.init n (FA.get b.re)

let generate ?domains rng ~psd ~fs n =
  let root = Rng.bits64 rng in
  let backend = Rng.backend rng in
  generate_with_root ~domains:(Pool.resolve ?domains ()) ~backend ~root ~psd ~fs n

let generate_frac_freq ?domains rng ~model ~fs n =
  let open Psd_model in
  let y =
    if model.h0 > 0.0 then begin
      let sigma = sqrt (White.variance_of_level ~level:model.h0 ~fs) in
      Pool.parallel_init_floats ?domains ~rng
        ~fill:(fun child ~offset ~len out ->
          let g = Ptrng_prng.Gaussian.create child in
          for i = offset to offset + len - 1 do
            out.(i) <- sigma *. Ptrng_prng.Gaussian.draw g
          done)
        n
    end
    else Array.make n 0.0
  in
  if model.hm1 > 0.0 || model.hm2 > 0.0 then begin
    let colored_psd f = (model.hm1 /. f) +. (model.hm2 /. (f *. f)) in
    let colored = generate ?domains rng ~psd:colored_psd ~fs n in
    for i = 0 to n - 1 do
      y.(i) <- y.(i) +. colored.(i)
    done
  end;
  y

let generate_many ?domains rng ~psd ~fs ~count n =
  if count < 0 then invalid_arg "Spectral_synth.generate_many: count < 0";
  Pool.parallel_map_streams ?domains ~rng
    (fun _ child -> generate child ~psd ~fs n)
    count
