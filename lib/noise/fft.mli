(** Power-of-two FFT on unboxed [Float.Array.t] buffers and an
    overlap-add block convolver for streaming FIR filtering.

    Same butterfly algorithm as [Ptrng_signal.Fft] (bit-identical
    output for identical input), but operating in place on caller-owned
    floatarray buffers and twiddle table, so long-running noise sources
    allocate nothing per block.  See docs/STREAMING.md for the
    overlap-add design. *)

val is_pow2 : int -> bool
(** Whether [n] is a positive power of two. *)

val next_pow2 : int -> int
(** Smallest power of two [>= n] (and [>= 1]). *)

type twiddles
(** Twiddle-table scratch for {!forward} and {!inverse}.  One table
    belongs to one caller (a noise source, an {!Overlap_add} convolver)
    and is overwritten by every transform, so two domains must never
    share one. *)

val twiddles : int -> twiddles
(** [twiddles n] allocates the table for transforms of length up to
    [n]: [min (n/2) 4096] entries per component, 64 KiB at most. *)

val forward : twiddles -> re:Float.Array.t -> im:Float.Array.t -> unit
(** In-place forward DFT of a power-of-two complex buffer pair.

    The kernel: bit-reversal permutation, then radix-2 butterfly stages
    of span 2, 4, ..., n.  A stage's twiddles w_k follow a
    multiplicative recurrence re-anchored by cos/sin every 64 steps.  A
    stage whose half-length fits the table runs the recurrence once
    into the table and then sweeps its groups; a longer stage restarts
    the same recurrence at every group.  Both orders compute every w_k
    by the same float operations, so the result does not depend on the
    table size and equals [Ptrng_signal.Fft.forward_pow2] bit for bit.

    No allocation: the transform works in place in [re], [im] and the
    table.
    @raise Invalid_argument on length mismatch or non-power-of-two. *)

val inverse : twiddles -> re:Float.Array.t -> im:Float.Array.t -> unit
(** In-place inverse DFT including the 1/n scaling, so
    [inverse tw (forward tw x)] returns [x] up to rounding; the same
    kernel and contract as {!forward}, bit-identical to
    [Ptrng_signal.Fft.inverse_pow2]. *)

(** Streaming linear convolution with a fixed FIR filter by the
    overlap-add method: each input block is convolved via one
    forward/inverse FFT pair of length [next_pow2 (block + taps - 1)],
    and the [taps - 1] tail is carried into the next call — output
    equals direct convolution of the whole stream, in O(log m) work
    per sample and O(m) memory, independent of stream length. *)
module Overlap_add : sig
  type t
  (** Convolver state: filter spectrum, FFT buffers, twiddle table and
      carried tail. *)

  val create : h:Float.Array.t -> block:int -> t
  (** [create ~h ~block] precomputes the spectrum of filter [h] for
      input blocks of at most [block] samples.
      @raise Invalid_argument if [h] is empty or [block <= 0]. *)

  val taps : t -> int
  (** Filter length the convolver was built with. *)

  val block : t -> int
  (** Maximum samples accepted by one [process] call. *)

  val fft_length : t -> int
  (** Internal transform length [next_pow2 (block + taps - 1)]. *)

  val process :
    t ->
    src:Float.Array.t -> src_pos:int ->
    dst:Float.Array.t -> dst_pos:int ->
    len:int -> unit
  (** [process t ~src ~src_pos ~dst ~dst_pos ~len] convolves the next
      [len] input samples and writes [len] output samples; [dst] may
      alias [src] (input is consumed before output is written).
      @raise Invalid_argument on a bad range or [len > block t]. *)

  val reset : t -> unit
  (** Zero the carried tail, restarting the stream. *)
end
