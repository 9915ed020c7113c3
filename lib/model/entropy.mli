(** Entropy-per-bit model of the elementary RO-TRNG digitizer.

    The sampler latches the state of Osc1 (a ~50% duty square wave) at
    an instant whose phase, relative to Osc1, is Gaussian with standard
    deviation [s] radians (the accumulated jitter) around a drifting
    mean [mu].  Expanding the square wave in its Fourier series and
    averaging over the Gaussian gives

    [p(mu) = 1/2 + (2/pi) sum_{k odd} (1/k) exp(-k^2 s^2 / 2) sin(k mu)]

    from which Shannon and min-entropy per raw bit follow.  The
    security story of the paper lives here: [s] must be computed from
    the {e thermal} jitter only — plugging in total measured jitter
    (thermal + flicker) overstates [s], hence overstates entropy. *)

val bit_probability : mu:float -> phase_std:float -> float
(** P(bit = 1) given mean sampling phase [mu] (radians) and phase
    standard deviation [phase_std] (radians).
    @raise Invalid_argument if [phase_std < 0]. *)

val shannon : float -> float
(** Binary entropy of a probability (bits); [shannon 0 = shannon 1 = 0]. *)

val avg_entropy : phase_std:float -> float
(** Shannon entropy per bit averaged over a uniformly drifting mean
    phase — the standard assumption for free-running rings.

    The 2048 midpoint terms are computed by an allocation-free kernel
    (on the R7 hot-path manifest) in a 2-task pool section, one task
    per half, and summed in index order afterwards: the result is
    bit-identical at any domain count.  A call from inside a pool
    worker, and the cheap Fourier branch ([phase_std >= 3]), run
    sequentially.  One call allocates the term array and a small
    scratch per task, nothing per term. *)

val min_entropy : phase_std:float -> float
(** Worst-case (min-)entropy: [-log2 p_max], with [p_max] attained at
    mu = pi/2. *)

val entropy_lower_bound : phase_std:float -> float
(** First-Fourier-term closed approximation
    [1 - (4 / (pi^2 ln 2)) exp(-phase_std^2)] (Baudet-style), clamped
    to [0, 1].  It agrees with [avg_entropy] to [O(exp(-2 s^2))] — for
    [phase_std >= 2] the two differ by less than 1e-3 — but is not a
    strict one-sided bound at small diffusion, where it should not be
    trusted anyway. *)

val phase_std_of_accumulated_jitter : sigma_acc:float -> f0:float -> float
(** Convert accumulated timing jitter (seconds, std) into radians of
    Osc1 phase: [2 pi f0 sigma_acc]. *)

val phase_std_thermal : sigma_period:float -> k:int -> f0:float -> float
(** Phase std after accumulating [k] independent periods of thermal
    jitter [sigma_period]: [2 pi f0 sigma_period sqrt k]. *)
