(** SP 800-90B prediction estimators (§6.3.7–6.3.10, binary).

    Each estimator trains a family of predictors on the fly and counts
    how often the ensemble guesses the next bit.  The guess rate upper
    bound (99% CI on the global rate, and a local bound from the
    longest streak of correct guesses) converts to min-entropy; a
    source whose future is guessable from its past — exactly what
    flicker-correlated jitter produces — scores low even when its
    marginal distribution is perfectly balanced.

    Returns the same {!Estimators.estimate} record as the §6.3
    estimators.  The local-bound computation follows the standard's
    longest-run inversion; the global bound dominates for the
    stationary sources modelled in this repository. *)

val multi_mcw : bool array -> Estimators.estimate
(** Most-common-in-window predictors (windows 63/255/1023/4095) under a
    pick-the-best meta-predictor.
    @raise Invalid_argument on fewer than 4096 bits. *)

val lag : ?max_lag:int -> bool array -> Estimators.estimate
(** Lag predictors (1..[max_lag], default 128) under a meta-predictor;
    the right tool for periodic or slowly drifting sources.
    O([max_lag] n) time, [max_lag] ints of memory.
    @raise Invalid_argument on fewer than 1000 bits. *)

val multi_mmc : ?max_order:int -> bool array -> Estimators.estimate
(** Markov-model-with-counting predictors of orders 1..[max_order]
    (default 16, at most 30).  Contexts are dense ids refined one bit
    per order and the orders run one after another, so every order
    runs on the same path: O([max_order] n) time, 7n ints of memory.
    @raise Invalid_argument on fewer than 1000 bits. *)

val lz78y : bool array -> Estimators.estimate
(** LZ78-based predictor with a bounded dictionary (contexts up to 16
    bits, at most 65536 entries).  The dictionary is a dense table of
    2^18 ints (2 MB) whatever the input length; O(16 n) time.
    @raise Invalid_argument on fewer than 1000 bits. *)

val run_all : bool array -> Estimators.estimate list * float
(** The four prediction estimators and their minimum. *)

val local_bound : n:int -> longest_run:int -> float
(** Upper bound on the per-guess success probability implied by the
    longest streak of correct guesses among [n] predictions (the
    standard's P_local, 99% confidence); exposed for testing. *)
