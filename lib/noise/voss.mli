(** Voss–McCartney pink-noise generator.

    Sums [octaves] independent Gaussian sources, source [j] refreshed
    every [2^j] samples; the resulting spectrum approximates 1/f over
    about [octaves] octaves below Nyquist.  Kept as a structurally
    independent cross-check of {!Kasdin} and {!Spectral_synth} — three
    generators built on different principles must agree on the measured
    flicker level within estimator error. *)

type t

val create : Ptrng_prng.Rng.t -> octaves:int -> t
(** [create rng ~octaves] builds the ladder on an explicit generator.
    @raise Invalid_argument unless [1 <= octaves <= 62]. *)

val next : t -> float
(** Next sample; the sum of the current source values. *)

val level_hm1 : sigma:float -> float
(** Log-averaged one-sided flicker level of the generator when each
    source has standard deviation [sigma].  A source held for [2^j]
    samples has PSD [2 sigma^2 2^j sinc^2(pi f 2^j / fs) / fs]; summing
    the octave ladder and averaging the staircase over a log cycle
    gives [h_{-1} = sigma^2 / ln 2], independent of the sample rate.
    The instantaneous level ripples around this value by a few percent,
    which is why Voss is a cross-check, not the calibrated generator. *)
