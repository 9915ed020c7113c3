(** Bool arrays packed 62 bits to an int, for kernels that count bit
    agreements a word at a time.  Bit [i] of the input sits at bit
    [i mod 62] of word [i / 62]; bits past the end read as 0. *)

val bits : int
(** 62: the payload of one word. *)

val mask : int
(** [2^62 - 1]. *)

val pack : bool array -> int array
(** The packed words, followed by at least two zero words. *)

val window : int array -> int -> int
(** [window words p] is bits [p .. p+61] of the packed array, bit [p]
    lowest.  On an array from {!pack}, [p] may be anything from 0 to
    61 past the input length. *)

val popcount : int -> int
(** Number of set bits of a nonnegative int below [2^62]. *)
