(** Special functions needed by the statistical machinery: log-gamma
    (Lanczos), regularised incomplete gamma (series + continued
    fraction), the error function, and inverses.

    No-allocation contract: the series and continued-fraction kernels
    and the [erfc] -> [normal_cdf] / [normal_sf] chain are [[@inline]]
    loops over unboxed locals, so inside this module they box nothing;
    {!normal_cdf_in_place} carries that to callers in other modules,
    which would otherwise box each float argument and result.  The
    hot-path lint (R7) proves it from [Ptrng_model.Entropy]'s midpoint
    kernel.

    Non-finite arguments give the exact limits: [erfc (+inf) = 0],
    [erfc (-inf) = 2], [erf (+/-inf) = +/-1], [normal_cdf (+inf) = 1],
    [normal_cdf (-inf) = 0], [Q(a, +inf) = 0], [P(a, +inf) = 1]; a NaN
    argument gives NaN. *)

val log_gamma : float -> float
(** Natural log of the Gamma function for x > 0. *)

val gamma_p : a:float -> x:float -> float
(** Regularised lower incomplete gamma P(a, x), a > 0, x >= 0. *)

val gamma_q : a:float -> x:float -> float
(** Regularised upper incomplete gamma Q(a, x) = 1 - P(a, x). *)

val erf : float -> float
(** Error function. *)

val erfc : float -> float
(** Complementary error function [1 - erf x], accurate for large x. *)

val normal_cdf : float -> float
(** Standard normal CDF. *)

val normal_sf : float -> float
(** Standard normal survival function, accurate in the upper tail. *)

val normal_cdf_in_place : Float.Array.t -> len:int -> unit
(** [normal_cdf_in_place buf ~len] replaces [buf.(i)] by
    [normal_cdf buf.(i)] for [i < len], bit-identical to the scalar
    call and allocation-free: no float crosses a call boundary.
    @raise Invalid_argument if [len] exceeds the buffer. *)

val normal_ppf : float -> float
(** Inverse standard normal CDF (Acklam's rational approximation with a
    Newton polish). @raise Invalid_argument if p outside (0,1). *)

val chi2_cdf : df:float -> float -> float
(** Chi-squared CDF with [df] degrees of freedom. *)

val chi2_sf : df:float -> float -> float
(** Chi-squared survival function with [df] degrees of freedom. *)

val ks_sf : float -> float
(** Kolmogorov distribution survival Q_KS(lambda)
    = 2 sum_{j>=1} (-1)^{j-1} exp(-2 j^2 lambda^2). *)
