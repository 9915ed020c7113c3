(** 1/f^alpha Gaussian noise by fractional integration (Kasdin 1995).

    White noise is filtered through the impulse response of
    [(1 - z^{-1})^{-alpha/2}], whose coefficients obey
    [h_0 = 1, h_k = h_{k-1} (k - 1 + alpha/2) / k].
    The resulting one-sided PSD at sample rate [fs] is
    [2 sigma_w^2 / (fs (2 sin(pi f / fs))^alpha)], which approaches
    [2 sigma_w^2 / fs (f fs / (2 pi f))^...] — for flicker (alpha = 1):
    [S(f) ~ sigma_w^2 / (pi f)] well below Nyquist, so a target
    flicker-FM level [h_{-1}] needs input variance
    [sigma_w^2 = pi h_{-1}].

    This is the reference generator; {!Spectral_synth} is the faster
    block generator validated against it. *)

val coefficients : alpha:float -> int -> float array
(** First [n] impulse-response coefficients h_0 .. h_{n-1}.
    @raise Invalid_argument if [n <= 0]. *)

type stream
(** Streaming generator with a truncated coefficient window. *)

val stream_create :
  Ptrng_prng.Gaussian.t -> alpha:float -> sigma_w:float -> taps:int -> stream
(** Streaming 1/f^alpha generator over an explicit Gaussian source,
    keeping only the last [taps] filter coefficients.
    @raise Invalid_argument if [taps <= 0]. *)

val stream_next : stream -> float
(** Next sample; the spectrum is accurate above roughly [fs / taps]. *)
