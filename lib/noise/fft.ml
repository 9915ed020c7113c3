(* Power-of-two complex FFT over unboxed [Float.Array.t] buffers, plus
   the overlap-add block convolver that turns the Kasdin-Walter
   fractional-integration filter into a streaming O(log m)-per-sample
   engine.

   The butterfly network is the same algorithm as Ptrng_signal.Fft —
   identical bit-reversal order, identical twiddle recurrence with the
   64-step re-anchor — so spectra computed here agree with the
   array-based path to the last bit for the same input.  What differs
   is the storage and the loop order: floatarray buffers and a twiddle
   table owned by the caller, so a long-running source performs no
   per-block allocation, and short stages read their twiddles from the
   table instead of recomputing them per group. *)

module FA = Float.Array

let is_pow2 n = n > 0 && n land (n - 1) = 0

let next_pow2 n =
  let rec grow p = if p >= n then p else grow (p * 2) in
  grow 1

let check_pair re im =
  let n = FA.length re in
  if FA.length im <> n then invalid_arg "Noise Fft: re/im length mismatch";
  n

let bit_reverse_permute re im =
  let n = FA.length re in
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = FA.unsafe_get re i in
      FA.unsafe_set re i (FA.unsafe_get re !j);
      FA.unsafe_set re !j tr;
      let ti = FA.unsafe_get im i in
      FA.unsafe_set im i (FA.unsafe_get im !j);
      FA.unsafe_set im !j ti
    end;
    let bit = ref (n lsr 1) in
    while !j land !bit <> 0 do
      j := !j lxor !bit;
      bit := !bit lsr 1
    done;
    j := !j lor !bit
  done

(* The twiddle recurrence of a stage of span [len]: w_k walks the unit
   circle multiplicatively, re-anchored every 64 steps by a direct
   cos/sin so rounding cannot accumulate over 2^24-point transforms.
   Both stage loops below compute w_k by exactly this sequence of float
   operations, so they agree bit for bit. *)

(* A stage whose half-length exceeds the table: the recurrence restarts
   at the top of every group.  Such stages have few groups (at most
   n / 16384), so the repeated work is small. *)
let stage_grouped re im n len sign =
  let half = len / 2 in
  let ang = sign *. 2.0 *. Float.pi /. float_of_int len in
  let step_r = cos ang and step_i = sin ang in
  let i = ref 0 in
  while !i < n do
    let wr = ref 1.0 and wi = ref 0.0 in
    for k = 0 to half - 1 do
      if k land 63 = 0 then begin
        let a = ang *. float_of_int k in
        wr := cos a;
        wi := sin a
      end;
      let p = !i + k in
      let q = p + half in
      let rq = FA.unsafe_get re q and iq = FA.unsafe_get im q in
      let vr = (rq *. !wr) -. (iq *. !wi) in
      let vi = (rq *. !wi) +. (iq *. !wr) in
      let rp = FA.unsafe_get re p and ip = FA.unsafe_get im p in
      FA.unsafe_set re q (rp -. vr);
      FA.unsafe_set im q (ip -. vi);
      FA.unsafe_set re p (rp +. vr);
      FA.unsafe_set im p (ip +. vi);
      let nwr = (!wr *. step_r) -. (!wi *. step_i) in
      wi := (!wr *. step_i) +. (!wi *. step_r);
      wr := nwr
    done;
    i := !i + len
  done

type twiddles = { tw_r : FA.t; tw_i : FA.t }

(* 4096 entries per component, 64 KiB in all: at 2^16 and 2^21 points
   this ran within about 10 % of a table covering every stage. *)
let max_half = 1 lsl 12

let twiddles n =
  let cap = min (max 0 (n / 2)) max_half in
  { tw_r = FA.create cap; tw_i = FA.create cap }

(* A stage whose half-length fits the table: the recurrence runs once
   into the table, then every group reads it.  The short stages have
   the most groups, so this removes about n cos/sin pairs per
   transform. *)
let stage_table tw re im n len sign =
  let half = len / 2 in
  let tr = tw.tw_r and ti = tw.tw_i in
  let ang = sign *. 2.0 *. Float.pi /. float_of_int len in
  let step_r = cos ang and step_i = sin ang in
  let wr = ref 1.0 and wi = ref 0.0 in
  for k = 0 to half - 1 do
    if k land 63 = 0 then begin
      let a = ang *. float_of_int k in
      wr := cos a;
      wi := sin a
    end;
    FA.unsafe_set tr k !wr;
    FA.unsafe_set ti k !wi;
    let nwr = (!wr *. step_r) -. (!wi *. step_i) in
    wi := (!wr *. step_i) +. (!wi *. step_r);
    wr := nwr
  done;
  let i = ref 0 in
  while !i < n do
    for k = 0 to half - 1 do
      let wr = FA.unsafe_get tr k and wi = FA.unsafe_get ti k in
      let p = !i + k in
      let q = p + half in
      let rq = FA.unsafe_get re q and iq = FA.unsafe_get im q in
      let vr = (rq *. wr) -. (iq *. wi) in
      let vi = (rq *. wi) +. (iq *. wr) in
      let rp = FA.unsafe_get re p and ip = FA.unsafe_get im p in
      FA.unsafe_set re q (rp -. vr);
      FA.unsafe_set im q (ip -. vi);
      FA.unsafe_set re p (rp +. vr);
      FA.unsafe_set im p (ip +. vi)
    done;
    i := !i + len
  done

let transform tw ~sign re im =
  let n = check_pair re im in
  if not (is_pow2 n) then invalid_arg "Noise Fft: length not a power of two";
  if n > 1 then begin
    bit_reverse_permute re im;
    let cap = FA.length tw.tw_r in
    let len = ref 2 in
    while !len <= n do
      if !len / 2 <= cap then stage_table tw re im n !len sign
      else stage_grouped re im n !len sign;
      len := !len * 2
    done
  end

let forward tw ~re ~im = transform tw ~sign:(-1.0) re im

let inverse tw ~re ~im =
  transform tw ~sign:1.0 re im;
  let n = FA.length re in
  let inv = 1.0 /. float_of_int n in
  for i = 0 to n - 1 do
    FA.unsafe_set re i (FA.unsafe_get re i *. inv);
    FA.unsafe_set im i (FA.unsafe_get im i *. inv)
  done

module Overlap_add = struct
  type t = {
    m : int;          (* transform length *)
    block : int;      (* max input samples per [process] call *)
    taps : int;
    hr : FA.t;        (* filter spectrum, length m *)
    hi : FA.t;
    tw : twiddles;
    xr : FA.t;        (* work buffers, length m *)
    xi : FA.t;
    tail : FA.t;      (* taps-1 carried convolution tail *)
  }

  let taps t = t.taps

  let block t = t.block

  let fft_length t = t.m

  let create ~h ~block =
    let taps = FA.length h in
    if taps <= 0 then invalid_arg "Overlap_add.create: empty filter";
    if block <= 0 then invalid_arg "Overlap_add.create: block <= 0";
    let m = next_pow2 (block + taps - 1) in
    let hr = FA.make m 0.0 and hi = FA.make m 0.0 in
    let tw = twiddles m in
    FA.blit h 0 hr 0 taps;
    forward tw ~re:hr ~im:hi;
    {
      m;
      block;
      taps;
      hr;
      hi;
      tw;
      xr = FA.make m 0.0;
      xi = FA.make m 0.0;
      tail = FA.make (max 1 (taps - 1)) 0.0;
    }

  let reset t = FA.fill t.tail 0 (FA.length t.tail) 0.0

  let process t ~src ~src_pos ~dst ~dst_pos ~len =
    if len <= 0 || len > t.block then invalid_arg "Overlap_add.process: bad len";
    if src_pos < 0 || src_pos + len > FA.length src then
      invalid_arg "Overlap_add.process: src range";
    if dst_pos < 0 || dst_pos + len > FA.length dst then
      invalid_arg "Overlap_add.process: dst range";
    let { m; xr; xi; hr; hi; tw; tail; taps; _ } = t in
    FA.fill xr 0 m 0.0;
    FA.fill xi 0 m 0.0;
    FA.blit src src_pos xr 0 len;
    forward tw ~re:xr ~im:xi;
    for k = 0 to m - 1 do
      let ar = FA.unsafe_get xr k and ai = FA.unsafe_get xi k in
      let br = FA.unsafe_get hr k and bi = FA.unsafe_get hi k in
      FA.unsafe_set xr k ((ar *. br) -. (ai *. bi));
      FA.unsafe_set xi k ((ar *. bi) +. (ai *. br))
    done;
    inverse tw ~re:xr ~im:xi;
    (* y_full has len + taps - 1 terms: emit the first len (adding the
       carried tail), keep the remaining taps - 1 as the new tail. *)
    let tl = taps - 1 in
    let overlap = min len tl in
    for i = 0 to overlap - 1 do
      FA.unsafe_set dst (dst_pos + i)
        (FA.unsafe_get xr i +. FA.unsafe_get tail i)
    done;
    for i = overlap to len - 1 do
      FA.unsafe_set dst (dst_pos + i) (FA.unsafe_get xr i)
    done;
    for j = 0 to tl - 1 do
      let carried = if len + j < tl then FA.unsafe_get tail (len + j) else 0.0 in
      FA.unsafe_set tail j (FA.unsafe_get xr (len + j) +. carried)
    done
end
