(** A core subset of the NIST SP 800-22 statistical test suite.

    AIS31's procedure A (in [Ptrng_ais31]) gives pass/fail bounds; the
    800-22 tests return p-values, which makes them better instruments
    for *characterising* the residual structure flicker noise leaves in
    eRO-TRNG output.  All tests use significance level 0.01 as in the
    standard.

    Eight tests: frequency, block frequency, runs, longest run of ones,
    cumulative sums, spectral (DFT), serial, and approximate entropy. *)

type result = {
  name : string;
  statistic : float;
  p_value : float;
  pass : bool;  (** [p_value >= 0.01]. *)
}

val frequency : bool array -> result
(** Monobit test. @raise Invalid_argument on fewer than 100 bits. *)

val block_frequency : ?m:int -> bool array -> result
(** Frequency within m-bit blocks (default m = 128). *)

val runs : bool array -> result
(** Total number of runs vs the expectation for the observed bias. *)

val longest_run : bool array -> result
(** Longest run of ones in fixed blocks (M = 8 for short inputs,
    M = 128 for n >= 6272), chi-squared against the reference
    distribution. @raise Invalid_argument on fewer than 128 bits. *)

val cumulative_sums : ?forward:bool -> bool array -> result
(** Maximal excursion of the +-1 random walk. *)

val spectral : bool array -> result
(** DFT test: fraction of low-magnitude spectral lines vs the 95%
    threshold.  @raise Invalid_argument on fewer than 1000 bits. *)

val serial : ?m:int -> bool array -> result
(** Overlapping m-bit pattern test (default m = 3); returns the first
    p-value (nabla psi^2). *)

val approximate_entropy : ?m:int -> bool array -> result
(** ApEn(m) - ApEn(m+1) compared with ln 2 (default m = 3). *)

(** {1 Heavyweight tests}

    The remaining major tests of the standard.  They need long inputs
    (hundreds of kilobits to a megabit); {!run_all} includes them
    automatically when the data suffices. *)

val binary_matrix_rank : bool array -> result
(** Ranks of disjoint 32x32 GF(2) matrices against the asymptotic rank
    distribution. @raise Invalid_argument with fewer than 38 matrices
    (38912 bits). *)

val maurer_universal : bool array -> result
(** Maurer's universal statistical test (L = 6, Q = 640): mean log
    distance between block recurrences vs the reference expectation.
    @raise Invalid_argument with fewer than (640 + 1000) 6-bit blocks. *)

val berlekamp_massey : bool array -> int
(** Linear complexity of the whole array: the length L of the shortest
    LFSR that generates it (0 for an empty or all-zero array), by
    Berlekamp–Massey over GF(2) on polynomials packed 62 bits to an
    int: O(n L / 62) word operations, four scratch arrays of n / 62 + 3
    ints. *)

val linear_complexity : ?block:int -> bool array -> result
(** Berlekamp–Massey linear complexity of [block]-bit chunks (default
    500), classified around the theoretical mean.  Each chunk runs
    {!berlekamp_massey}'s kernel, O(n [block] / 62) word operations in
    all; its four scratch arrays are allocated once and shared by every
    chunk.
    @raise Invalid_argument with fewer than 100 blocks. *)

val non_overlapping_template : ?template:bool array -> bool array -> result
(** Non-overlapping matches of a template (default 000000001) in 8
    blocks. @raise Invalid_argument below 8 x 1000 bits. *)

val overlapping_template : bool array -> result
(** Overlapping matches of the 9-ones template in 1032-bit blocks
    against the reference Polya distribution.
    @raise Invalid_argument with fewer than 50 blocks. *)

val random_excursions : bool array -> result list
(** Chi-squared visit-count tests for the eight states -4..4 of the
    cumulative-sum random walk; returns one result per state, or an
    empty list when the walk has fewer than 100 zero-crossing cycles
    (the standard demands 500; we scale the requirement down and note
    it in the result detail). *)

val random_excursions_variant : bool array -> result list
(** Total-visit variant for the 18 states -9..9 (same cycle-count
    gating as {!random_excursions}). *)

val run_all : ?domains:int -> bool array -> result list
(** Every test that has enough data, basic battery first, then the
    heavyweight tests (excursions contribute their worst state).
    Tests run as independent tasks on a {!Ptrng_exec.Pool} (the input
    is read-only shared data); the result list is identical for every
    [?domains] value. *)

val pp_results : Format.formatter -> result list -> unit
(** One table row per test: name, p-value, pass/fail. *)
