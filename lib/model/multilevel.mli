(** End-to-end multilevel characterization pipeline (paper Fig. 3):

    oscillator pair -> simulated edge streams -> sigma_N^2 curve ->
    [a N + b N^2] fit -> thermal extraction -> independence threshold
    and entropy assessment.

    This is the one-call API a TRNG designer would use; every stage is
    also available individually in [Ptrng_measure]. *)

type analysis = {
  pair : Ptrng_osc.Pair.t;               (** Device under test. *)
  n_periods : int;                       (** Trace length used. *)
  ideal_curve : Ptrng_measure.Variance_curve.point array;
      (** Quantization-free sigma_N^2 estimates. *)
  counter_curve : Ptrng_measure.Variance_curve.point array;
      (** Counter-based (Fig. 6) estimates, including quantization. *)
  fit : Ptrng_measure.Fit.t;             (** Fit of the ideal curve. *)
  counter_fit : Ptrng_measure.Fit.t option;
      (** Floor-aware fit of the counter curve — what the real Fig. 6
          hardware can extract; [None] when the grid is too small.
          Expect the flicker coefficient to survive and the thermal one
          to carry a large uncertainty below the quantization floor
          (DESIGN.md §8). *)
  extract : Ptrng_measure.Thermal_extract.t;  (** Thermal extraction. *)
  growth_exponent : float * float;       (** Log-log slope and SE. *)
}

val characterize :
  ?n_periods:int ->
  ?n_grid:int array ->
  rng:Ptrng_prng.Rng.t ->
  Ptrng_osc.Pair.t ->
  analysis
(** Run the full pipeline.  Defaults: [n_periods = 2^20] simulated
    periods, octave N grid from 4 to [n_periods / 32].  The pair is
    streamed chunk by chunk through the variance-curve accumulators on
    the calling domain, so results do not depend on the domain count.
    @raise Invalid_argument if [n_periods < 1024]. *)

val monte_carlo :
  ?domains:int ->
  ?n_periods:int ->
  ?n_grid:int array ->
  rng:Ptrng_prng.Rng.t ->
  replicates:int ->
  Ptrng_osc.Pair.t ->
  analysis array
(** [monte_carlo ~rng ~replicates pair] repeats {!characterize}
    [replicates] times with independent child streams derived from
    [rng], distributing replicates over a {!Ptrng_exec.Pool} — e.g. to
    bootstrap the spread of the fitted (a, b).  The ensemble is
    bit-identical for every [?domains] value.
    @raise Invalid_argument if [replicates <= 0]. *)

val predicted_curve :
  Ptrng_noise.Psd_model.phase -> f0:float -> ns:int array ->
  (int * float) array
(** Ground-truth [(N, f0^2 sigma_N^2)] series from the closed form —
    what Fig. 7's fitted line shows. *)

val nominal_f0 : Ptrng_osc.Pair.t -> float
(** Mean of the two ring frequencies (the f0 of the paper's formulas). *)
