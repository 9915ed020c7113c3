(** AIS31 procedure A: tests T0–T5 on the internal random numbers.

    T1–T4 are the FIPS 140-1 battery on 20000-bit blocks; T5 is the
    autocorrelation test; T0 checks disjointness of the first 2^16
    48-bit words.  Bounds follow the AIS31 reference values. *)

val block_bits : int
(** 20000 — the block length of T1–T5. *)

val t0_disjointness : Ptrng_trng.Bitstream.t -> Report.test_result
(** Needs [48 * 65536] bits; the statistic is the number of duplicate
    words (0 passes). *)

val t1_monobit : bool array -> Report.test_result
(** Ones count in a 20000-bit block; pass in (9654, 10346). *)

val t2_poker : bool array -> Report.test_result
(** 4-bit poker statistic; pass in (1.03, 57.4). *)

val t3_runs : bool array -> Report.test_result
(** Run-length distribution; every run-length class (1..5, >=6) of
    both polarities must fall in the FIPS interval.  The statistic is
    the number of out-of-bound classes. *)

val t4_long_run : bool array -> Report.test_result
(** No run of length >= 34.  One branch-free pass over the block. *)

val t5_autocorrelation : bool array -> Report.test_result
(** Shift selection on the first half of the block (tau in [1, 5000]
    maximising the departure), decision on the second half; pass in
    (2326, 2674).  Disagreements are counted 62 bits at a time by XOR
    and popcount: about 5000 x 81 word operations per block, over a
    table of the block's 62-bit words at every bit offset (62 x 323
    ints, about 160 kB). *)

val run_block : bool array -> Report.test_result list
(** T1–T5 on one 20000-bit block. @raise Invalid_argument if the block
    is not exactly [block_bits] long. *)

val run : ?blocks:int -> Ptrng_trng.Bitstream.t -> Report.summary
(** T0 (if enough bits) followed by T1–T5 on up to [blocks] consecutive
    blocks (default: as many as available, capped at 257 as in the
    standard).  @raise Invalid_argument if the stream holds less than
    one block. *)
