(** Streaming noise sources — the allocation-free hot-path API.

    A source is created once from a configuration and a generator, then
    asked repeatedly to {!fill} caller-owned [Float.Array.t] buffers.
    The stream a source produces is a pure function of the single root
    draw taken at creation: it does not depend on how fills partition
    it (white streams bit-identically, filtered streams to rounding).
    White chunks reuse the [Pool.parallel_init_floats] seed-derivation
    scheme and its chunk boundaries.

    Buffer-ownership rule: the caller owns every buffer passed to
    {!fill}/{!fill_range}; the source never retains a reference to it.
    Internal scratch (filter spectra, synthesis blocks) is allocated
    once — at {!create}, or for a spectral source with its first block
    — and reused for the life of the source.  See
    docs/STREAMING.md for the full contract.

    This is the only noise synthesis path: a whole trace is a stream
    read in one pass. *)

type config
(** Which process to synthesize, with its backend-specific tuning. *)

val white : sigma:float -> config
(** IID N(0, sigma^2) samples, one Gaussian child stream per
    [Pool.default_chunk]-aligned chunk — bit-identical to
    [Pool.parallel_init_floats] drawing [sigma *. Gaussian.draw] per
    index from the same creating generator.
    @raise Invalid_argument if [sigma < 0]. *)

val kasdin :
  ?taps:int -> ?block:int -> alpha:float -> sigma_w:float -> unit -> config
(** 1/f^alpha noise by Kasdin–Walter fractional integration of a white
    stream of deviation [sigma_w], truncated to [taps] filter
    coefficients (default 2^15) and streamed through an FFT overlap-add
    convolver in blocks of [block] (default [Pool.default_chunk]).
    The truncation flattens the spectrum below [fs/taps]; choose [taps]
    of the order of the longest correlation probed.
    @raise Invalid_argument if [taps <= 0], [block <= 0] or
    [sigma_w < 0]. *)

val flicker_fm :
  ?taps:int -> ?block:int -> hm1:float -> unit -> config
(** {!kasdin} with [alpha = 1] calibrated so the one-sided
    fractional-frequency PSD is [h_{-1}/f], sampling-rate independent
    (driving variance [sigma_w^2 = pi h_{-1}]).
    @raise Invalid_argument if [hm1 < 0]. *)

val voss : ?octaves:int -> sigma:float -> unit -> config
(** Voss–McCartney pink noise scaled by [sigma], a sequential octave
    ladder (default 20 octaves) seeded from child stream 0 of the root.
    @raise Invalid_argument if [octaves] is outside [1,62] or
    [sigma < 0]. *)

val spectral : ?block:int -> psd:(float -> float) -> fs:float -> unit -> config
(** Frequency-domain synthesis with target one-sided PSD [psd] at rate
    [fs], streamed as consecutive independent blocks of [block] samples
    (a power of two, default 2^16); block 0 is bit-identical to
    [Spectral_synth.generate] for the same creating generator, and any
    block can be resynthesized on demand from its salted per-block
    root, making {!skip} O(1) until the next fill.  Statistics probing
    lags beyond ~[block]/8 feel the per-block periodicity — pick
    [block] comfortably above the longest correlation studied.  The
    source allocates one block of synthesis scratch
    ({!Spectral_synth.block}: two [block]-float buffers plus draw and
    twiddle scratch) with its first block and holds it for the rest of
    its life.
    @raise Invalid_argument if [block] is not a power of two or
    [fs <= 0]. *)

type t
(** A live source: configuration, root seed and stream position. *)

val create : config -> Ptrng_prng.Rng.t -> t
(** [create config rng] builds a source, consuming exactly one root
    draw ([bits64]) from [rng]. *)

val fill : t -> Float.Array.t -> unit
(** [fill t buf] overwrites all of [buf] with the next
    [Float.Array.length buf] samples of the stream. *)

val fill_range : t -> Float.Array.t -> pos:int -> len:int -> unit
(** [fill_range t buf ~pos ~len] overwrites [buf.(pos .. pos+len-1)]
    with the next [len] samples.
    @raise Invalid_argument on a bad range. *)

val reset : t -> unit
(** Rewind to position 0: the source replays exactly the same stream
    (all state re-derives from the root). *)

val skip : t -> int -> unit
(** [skip t n] advances the stream position by [n] without delivering
    samples.  O(1) for white (whole chunks are never drawn) and
    spectral (blocks are resynthesized on demand); Voss and Kasdin
    must push the skipped span through their recurrences.
    @raise Invalid_argument if [n < 0]. *)

val block_room : t -> int
(** Samples from the current position to the end of its spectral
    block; [max_int] for the other backends, which have no blocks. *)

val sync_blocks : t -> t -> unit
(** [sync_blocks a b] is the block section, where every spectral block
    is synthesized: it synthesizes the block at the current position of
    [a] and of [b] where it is not already held, the two in one 2-task
    {!Ptrng_exec.Pool} section when both are pending and [a != b]
    ({!Ptrng_exec.Pool.resolve}, so 1 domain inside a pool worker or
    under [PTRNG_DOMAINS=1]).  {!fill} calls [sync_blocks t t] as it
    enters each block; a caller streaming two sources in step calls it
    first to synthesize both at once.  Neither stream changes: a block
    is a pure function of its salted root, and each source owns its
    scratch, which it allocates with its first block. *)

val position : t -> int
(** Samples delivered (or skipped) since creation or the last reset. *)

val config : t -> config
(** The configuration the source was created with. *)
