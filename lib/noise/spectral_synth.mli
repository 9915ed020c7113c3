(** Gaussian noise with an arbitrary target PSD, synthesised in the
    frequency domain.

    A Hermitian spectrum with independent complex-Gaussian bins whose
    expected power matches the target density is inverse-transformed
    into a real time series.  The output is a stationary Gaussian
    process with (circulant) covariance matching the target PSD exactly
    at the FFT grid frequencies; statistics that probe lags beyond
    ~n/8 samples feel the periodicity, so callers should generate
    blocks comfortably longer than the longest correlation they study.
    This is the fast block generator behind the oscillator simulator;
    {!Kasdin} and {!Voss} cross-validate it.

    Bin filling is chunked over a {!Ptrng_exec.Pool} with one child
    generator per fixed-size chunk, so for a given seed the output is
    bit-identical for every [?domains] value (including 1). *)

val generate :
  ?domains:int ->
  Ptrng_prng.Rng.t ->
  psd:(float -> float) ->
  fs:float ->
  int ->
  float array
(** [generate rng ~psd ~fs n] returns [n] samples ([n] a power of two)
    whose one-sided PSD matches [psd] (evaluated at [k fs / n],
    k = 1 .. n/2; the DC bin is forced to zero, so the output has zero
    mean over the block).  [rng] advances by exactly one root draw
    regardless of [?domains].  @raise Invalid_argument if [n] is not a
    power of two or [fs <= 0]. *)

val generate_with_root :
  domains:int ->
  backend:Ptrng_prng.Rng.backend ->
  root:int64 ->
  psd:(float -> float) ->
  fs:float ->
  int ->
  float array
(** [generate_with_root ~domains ~backend ~root ~psd ~fs n] is
    {!generate} with the root draw supplied explicitly instead of taken
    from a live generator: a copy-out of {!fill_block} on fresh
    scratch.  [domains] is a required, already-resolved worker count;
    above 1 the spectrum's bin chunks fill in parallel.  The output is
    bit-identical for every [domains] value.  [generate rng] is exactly
    [generate_with_root ~domains:(Pool.resolve ()) ~backend:(backend
    rng) ~root:(bits64 rng)].  @raise Invalid_argument as
    {!generate}. *)

type block
(** Scratch for synthesizing [n]-sample blocks: the spectrum/sample
    buffers [re] and [im], one bin chunk's Gaussian draws and an FFT
    twiddle table, all [Float.Array.t].  A {!Source.spectral} stream
    holds one for its whole life; two domains must not share one. *)

val block : int -> block
(** [block n] allocates the scratch for [n]-sample blocks,
    uninitialised: two [n]-float buffers, a draw buffer of at most
    8192 floats and a twiddle table of at most 2 x 4096.
    @raise Invalid_argument if [n] is not a power of two. *)

val fill_block :
  block ->
  backend:Ptrng_prng.Rng.backend ->
  root:int64 ->
  psd:(float -> float) ->
  fs:float ->
  unit
(** [fill_block b ~backend ~root ~psd ~fs] synthesizes the block of
    root [root] into [samples b], bit-identical to
    [generate_with_root ~root]: bins in fixed chunks of 4096, chunk [i]
    drawn from child stream [i] of the root, the Nyquist bin from the
    child after the last chunk, then one inverse {!Fft.inverse}.  It
    runs on the calling domain and allocates no array: apart from the
    child generators set up once per chunk, everything lives in [b]
    (the lint's R7 rule proves this). *)

val samples : block -> Float.Array.t
(** The samples of the last {!fill_block}; overwritten by the next. *)

val generate_frac_freq :
  ?domains:int ->
  Ptrng_prng.Rng.t ->
  model:Psd_model.frac_freq ->
  fs:float ->
  int ->
  float array
(** Fractional-frequency noise for an oscillator: white FM is added in
    the time domain (exactly white, no circularity), flicker and
    random-walk FM come from {!generate}. *)

val generate_many :
  ?domains:int ->
  Ptrng_prng.Rng.t ->
  psd:(float -> float) ->
  fs:float ->
  count:int ->
  int ->
  float array array
(** [generate_many rng ~psd ~fs ~count n] synthesizes [count]
    independent blocks, one derived generator per block, blocks
    distributed over the pool — the Monte-Carlo bulk-synthesis path.
    @raise Invalid_argument if [count < 0] (and as {!generate}). *)
