(** Event-level ring-oscillator simulator.

    The oscillator is simulated period by period.  Writing [T0 = 1/f0],
    period k lasts

    [T_k = T0 + T0 * y_k + g_k]

    where [g_k] is iid Gaussian thermal jitter with variance
    [sigma_th^2 = b_th / f0^3] (white FM — exactly the independent part
    of the paper's model) and [y_k] is flicker fractional-frequency
    noise with one-sided level [h_{-1} = 2 b_fl / f0^2] (the
    autocorrelated part).  With these calibrations the statistic
    [s_N] built from the simulated periods has variance

    [sigma_N^2 = (2 b_th / f0^3) N + (8 ln2 b_fl / f0^4) N^2]

    — the paper's eq. 11 — which the test-suite verifies against the
    closed form. *)

type config = {
  f0 : float;                              (** Nominal frequency, Hz. *)
  phase : Ptrng_noise.Psd_model.phase;     (** This oscillator's (b_th, b_fl). *)
  flicker_generator : [ `Spectral | `Kasdin | `Voss | `None ];
      (** Which 1/f synthesiser drives [y_k]; [`Spectral] is the fast,
          exactly-calibrated default, the others are cross-checks, and
          [`None] disables flicker regardless of [b_fl] (the
          "state-of-the-art model" baseline with independent jitter). *)
  rw_hm2 : float;
      (** Optional random-walk FM (aging/temperature drift) with
          one-sided level [S_y = h_{-2}/f^2]; 0 in the paper's model.
          Adds an N^3 term [(4 pi^2/3) h_{-2} N^3 T0^3] to sigma_N^2 —
          an even steeper departure from Bienayme linearity than
          flicker. *)
}

val config :
  ?flicker_generator:[ `Spectral | `Kasdin | `Voss | `None ] ->
  ?rw_hm2:float ->
  f0:float ->
  phase:Ptrng_noise.Psd_model.phase ->
  unit ->
  config
(** @raise Invalid_argument on non-positive [f0] or negative
    coefficients. *)

val thermal_sigma : config -> float
(** Per-period thermal jitter sigma = sqrt (b_th / f0^3), seconds. *)

val periods : Ptrng_prng.Rng.t -> config -> n:int -> float array
(** [periods rng cfg ~n] simulates [n] consecutive oscillation periods
    (seconds): the whole {!source} stream with [flicker_block = n], read
    in one pass.  The trace does not depend on the domain count.
    @raise Invalid_argument if [n <= 0]. *)

type source
(** A streaming period generator: thermal, flicker and random-walk
    noise sources plus the integrator state, filling caller-owned
    buffers chunk by chunk with no per-sample allocation. *)

val source : ?flicker_block:int -> Ptrng_prng.Rng.t -> config -> source
(** [source rng cfg] builds a streaming simulator drawing its roots
    from [rng]: thermal first, then flicker, then the random-walk
    sampler.  {!periods} is this stream read whole with
    [flicker_block = n].  [flicker_block] (default 2^16,
    rounded up to a power of two) bounds the flicker correlation the
    stream reproduces — statistics probing longer lags need a larger
    block.  [`Kasdin] uses [flicker_block] filter taps, capped at 2^15;
    [`Voss] octaves are likewise sized from [flicker_block].
    @raise Invalid_argument if [flicker_block <= 0]. *)

val fill_periods : source -> ?len:int -> Float.Array.t -> unit
(** [fill_periods src buf] writes the next [len] (default the buffer
    length) simulated periods into [buf.(0 .. len-1)], seconds.
    @raise Invalid_argument if [len] exceeds the buffer length. *)

val fill_periods_n : source -> pos:int -> len:int -> Float.Array.t -> unit
(** [fill_periods_n src ~pos ~len buf] writes the next [len] periods
    into [buf.(pos .. pos+len-1)]: {!fill_periods} at an offset, with
    a required [len] — the allocation-free spelling for per-segment
    callers (no [Some] built at the call site); [fill_periods] is a
    thin wrapper over it.
    @raise Invalid_argument on a bad range. *)

val fill_components :
  source -> len:int -> thermal:Float.Array.t -> flicker:Float.Array.t -> unit
(** [fill_components src ~len ~thermal ~flicker] advances the stream by
    [len] samples, writing the raw
    thermal period jitter g_k (seconds, baseline sigma included) into
    [thermal] and the fractional flicker frequency y_k into [flicker]
    — the two components {!fill_periods} would have combined as
    [t0 + g_k + t0 y_k].  A scenario-aware consumer
    ({!Ptrng_osc.Pair.fill} under a schedule) rescales them per sample
    before combining; the identity schedule reproduces {!fill_periods}
    bit for bit.
    @raise Invalid_argument if [len] exceeds a buffer, or for sources
    with random-walk FM (express aging as a scenario drift profile
    instead). *)

val source_skip : source -> int -> unit
(** Advance the stream without materializing periods (the random-walk
    integrator still consumes its draws).
    @raise Invalid_argument on negative count. *)

val source_reset : source -> unit
(** Rewind to period 0, replaying the identical stream.
    @raise Invalid_argument for sources with random-walk FM, whose
    sampler state cannot be re-derived. *)

val source_position : source -> int
(** Periods delivered (or skipped) so far. *)

val block_room : source -> int
(** Periods from the current position to the end of the flicker
    source's spectral block ({!Ptrng_noise.Source.block_room});
    [max_int] when the flicker backend has no blocks. *)

val sync_blocks : source -> source -> unit
(** [sync_blocks s1 s2] synthesizes the pending spectral flicker blocks
    of both sources now, in one section
    ({!Ptrng_noise.Source.sync_blocks}); neither stream changes. *)

val edges_of_periods : ?t0:float -> float array -> float array
(** Cumulative rising-edge times: [n+1] instants starting at [t0]
    (default 0). *)

val jitter_of_periods : f0:float -> float array -> float array
(** The period-jitter process of the paper's eq. 3:
    [J_k = T_k - 1/f0]. *)

val excess_phase : f0:float -> float array -> float array
(** [excess_phase ~f0 periods] is the paper's phi(t) (eq. 2) sampled at
    each rising edge: [phi_k = -2 pi f0 (t_k - k/f0)] where [t_k] is
    the simulated edge time.  Estimating the PSD of this series at
    sample rate [f0] and halving it (one-sided to the paper's two-sided
    convention) must reproduce [S_phi = b_fl/f^3 + b_th/f^2] — the test
    suite closes that loop. *)
