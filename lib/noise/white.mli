(** White Gaussian noise with a prescribed one-sided PSD level.

    A discrete white sequence at sample rate [fs] with variance
    [sigma^2] has one-sided PSD [2 sigma^2 / fs]; these helpers do that
    bookkeeping. *)

val variance_of_level : level:float -> fs:float -> float
(** Sample variance giving one-sided PSD [level] at rate [fs]. *)

val level_of_variance : variance:float -> fs:float -> float
(** One-sided PSD level of a white sequence with [variance]. *)
