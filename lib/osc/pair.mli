(** A pair of free-running ring oscillators — the entropy source of the
    eRO-TRNG (paper Fig. 4) and the device under test of the
    differential measurement (paper Fig. 6).

    The paper's coefficients describe the {e relative} jitter between
    the two rings.  Splitting each coefficient equally between two
    independent oscillators reproduces the relative process exactly
    (independent variances add), so [of_relative] is the calibrated way
    to build a pair from a measured or modelled (b_th, b_fl). *)

type t = {
  osc1 : Oscillator.config;  (** The sampled ("fast counter") ring. *)
  osc2 : Oscillator.config;  (** The sampling ("time base") ring. *)
}

val of_relative :
  ?flicker_generator:[ `Spectral | `Kasdin | `Voss | `None ] ->
  ?detuning:float ->
  f0:float ->
  relative:Ptrng_noise.Psd_model.phase ->
  unit ->
  t
(** [of_relative ~f0 ~relative ()] builds two independent oscillators,
    each carrying half of each [relative] coefficient.  [detuning] is
    the fractional frequency offset between the rings (osc1 runs at
    [f0 * (1 + detuning/2)], osc2 at [f0 * (1 - detuning/2)]); default
    1e-4, the natural mismatch of two "identical" FPGA rings, which
    also dithers the counter quantization. *)

val paper_pair : unit -> t
(** The pair calibrated to the paper's experiment: f0 = 103 MHz,
    relative b_th = 276.04, b_fl = 1.9152e6 (the value implied by
    r_N = 5354/(5354+N)). *)

val paper_relative : Ptrng_noise.Psd_model.phase
(** The paper's relative-jitter coefficients. *)

val paper_f0 : float
(** 103 MHz. *)

val simulate : Ptrng_prng.Rng.t -> t -> n:int -> float array * float array
(** [simulate rng pair ~n] returns [n] simulated periods of each
    oscillator, drawn from independent substreams of [rng]: the whole
    {!stream} with [flicker_block = n], read in one pass.  The traces
    do not depend on the domain count.
    @raise Invalid_argument if [n <= 0]. *)

type stream
(** A streaming simulator of the pair, optionally driven by a
    deterministic {!Ptrng_device.Scenario} schedule. *)

val stream :
  ?flicker_block:int ->
  ?scenario:Ptrng_device.Scenario.t ->
  Ptrng_prng.Rng.t ->
  t ->
  stream
(** [stream rng pair] splits [rng] twice, one {!Oscillator.source}
    per ring, and fills the two period streams chunk by chunk while
    allocating nothing per chunk.  {!simulate} is this stream read
    whole with [flicker_block = n].  See {!Oscillator.source} for
    [flicker_block].

    With [?scenario] the stream re-derives the per-sample noise
    scaling from the schedule: b_th, b_fl and f0 multipliers rescale
    the thermal jitter by [sqrt u / r^1.5] and the flicker
    fractional frequency by [sqrt v / r] (for coefficient multipliers
    u, v and frequency ratio r), coupling pulls both rings toward
    their common mean, and the injected tone adds deterministic jitter
    to the sampled ring.  The identity schedule is bit-identical to
    the plain stream, and the schedule is a pure function of the
    absolute period index, so scheduled fills are bit-identical for
    every domain count and chunk partitioning. *)

val sources : stream -> Oscillator.source * Oscillator.source
(** The two underlying ring sources, sampled then sampling. *)

val position : stream -> int
(** Periods delivered so far. *)

val skip : stream -> int -> unit
(** [skip st n] advances the stream by [n] periods without
    materializing them: both sources fast-forward
    ({!Oscillator.source_skip}) and, under a scenario, the schedule
    position moves with them (the schedule is a pure function of the
    absolute index, so nothing needs evaluating).  A subsequent
    {!fill} is bit-identical to a continuous run — this is what makes
    post-mortem incident replay from a recorded stream position cheap
    (see docs/POSTMORTEM.md).
    @raise Invalid_argument if [n] is negative, or for a random-walk
    FM source. *)

val fill : stream -> p1:Float.Array.t -> p2:Float.Array.t -> len:int -> unit
(** [fill st ~p1 ~p2 ~len] writes the next [len] periods of each
    oscillator into the caller's buffers.  When both rings' flicker
    is spectral, the fill runs in segments that end at block
    boundaries, and both rings' next blocks are synthesized together
    before a segment enters them, in one 2-task pool section
    ({!Oscillator.sync_blocks}); the periods are the same at any
    domain count.
    @raise Invalid_argument if [len] is negative or exceeds either
    buffer, or under a scenario if a ring has random-walk FM (see
    {!Oscillator.fill_components}). *)
