module Tm = Ptrng_telemetry.Registry

let test_seconds =
  Tm.Hist.v ~help:"Wall time of one AIS31 procedure-A block (T1-T5)." ~lo:1e-6
    ~hi:1e3 "ptrng_ais31_block_seconds"

let block_bits = 20000

let t0_words = 1 lsl 16
let t0_word_bits = 48

let t0_disjointness stream =
  let need = t0_words * t0_word_bits in
  if Ptrng_trng.Bitstream.length stream < need then
    invalid_arg "Procedure_a.t0_disjointness: need 48*2^16 bits";
  let seen = Hashtbl.create t0_words in
  let duplicates = ref 0 in
  for w = 0 to t0_words - 1 do
    let word = ref 0L in
    for b = 0 to t0_word_bits - 1 do
      word := Int64.shift_left !word 1;
      if Ptrng_trng.Bitstream.get stream ((w * t0_word_bits) + b) then
        word := Int64.logor !word 1L
    done;
    if Hashtbl.mem seen !word then incr duplicates
    else Hashtbl.add seen !word ()
  done;
  Report.make ~name:"T0 disjointness" ~statistic:(float_of_int !duplicates)
    ~pass:(!duplicates = 0)
    ~detail:(Printf.sprintf "%d duplicate 48-bit words among 2^16" !duplicates)

let check_block name block =
  if Array.length block <> block_bits then
    invalid_arg (Printf.sprintf "Procedure_a.%s: block must be %d bits" name block_bits)

let t1_monobit (block : bool array) =
  check_block "t1_monobit" block;
  let ones = ref 0 in
  for i = 0 to block_bits - 1 do
    ones := !ones + Bool.to_int block.(i)
  done;
  let ones = !ones in
  Report.make ~name:"T1 monobit" ~statistic:(float_of_int ones)
    ~pass:(ones > 9654 && ones < 10346)
    ~detail:"bound (9654, 10346)"

let t2_poker block =
  check_block "t2_poker" block;
  let counts = Array.make 16 0 in
  for i = 0 to (block_bits / 4) - 1 do
    let v = ref 0 in
    for j = 0 to 3 do
      v := (!v lsl 1) lor (if block.((i * 4) + j) then 1 else 0)
    done;
    counts.(!v) <- counts.(!v) + 1
  done;
  let sum_sq = Array.fold_left (fun acc c -> acc +. (float_of_int c ** 2.0)) 0.0 counts in
  let x = (16.0 /. 5000.0 *. sum_sq) -. 5000.0 in
  Report.make ~name:"T2 poker" ~statistic:x
    ~pass:(x > 1.03 && x < 57.4)
    ~detail:"bound (1.03, 57.4)"

let run_lengths block =
  (* Returns (lengths of 0-runs, lengths of 1-runs) bucketed 1..6+. *)
  let zero = Array.make 6 0 and one = Array.make 6 0 in
  let n = Array.length block in
  let i = ref 0 in
  while !i < n do
    let v = block.(!i) in
    let j = ref !i in
    while !j < n && block.(!j) = v do
      incr j
    done;
    let len = min 6 (!j - !i) in
    let bucket = if v then one else zero in
    bucket.(len - 1) <- bucket.(len - 1) + 1;
    i := !j
  done;
  (zero, one)

let t3_bounds = [| (2267, 2733); (1079, 1421); (502, 748); (223, 402); (90, 223); (90, 223) |]

let t3_runs block =
  check_block "t3_runs" block;
  let zero, one = run_lengths block in
  let violations = ref 0 in
  let check counts =
    Array.iteri
      (fun k c ->
        let lo, hi = t3_bounds.(k) in
        if c < lo || c > hi then incr violations)
      counts
  in
  check zero;
  check one;
  Report.make ~name:"T3 runs" ~statistic:(float_of_int !violations)
    ~pass:(!violations = 0)
    ~detail:"all 12 run-length classes within FIPS bounds"

let t4_long_run (block : bool array) =
  check_block "t4_long_run" block;
  let longest = ref 1 and current = ref 1 in
  for i = 1 to block_bits - 1 do
    (* Branch-free: the run grows on a repeat and restarts at 1. *)
    current := (!current * Bool.to_int (block.(i) = block.(i - 1))) + 1;
    if !current > !longest then longest := !current
  done;
  Report.make ~name:"T4 long run" ~statistic:(float_of_int !longest)
    ~pass:(!longest < 34)
    ~detail:"no run of length >= 34"

(* T5 counts disagreements 62 at a time by XOR and popcount.  Word
   [r * stride + q] of the table holds block bits 62 q + r ..
   62 q + r + 61 (zeros past the end), so the word starting at any bit
   p is a single read. *)
let shifted_words (block : bool array) =
  let module W = Ptrng_trng.Bitwords in
  let stride = (Array.length block / W.bits) + 1 in
  let aligned = W.pack block in
  let table = Array.make (W.bits * stride) 0 in
  for r = 0 to W.bits - 1 do
    for q = 0 to stride - 1 do
      table.((r * stride) + q) <- W.window aligned ((q * W.bits) + r)
    done
  done;
  (table, stride)

let t5_autocorrelation (block : bool array) =
  check_block "t5_autocorrelation" block;
  let half = 10000 and span = 5000 in
  let module W = Ptrng_trng.Bitwords in
  let table, stride = shifted_words block in
  let start p = ((p mod W.bits) * stride) + (p / W.bits) in
  let full = span / W.bits and tail = (1 lsl (span mod W.bits)) - 1 in
  (* Z_tau: disagreements between bits offset+j and offset+j+tau,
     j = 0..4999. *)
  let z_tau offset tau =
    let a = start offset and b = start (offset + tau) in
    let acc = ref 0 in
    for k = 0 to full - 1 do
      acc := !acc + W.popcount (table.(a + k) lxor table.(b + k))
    done;
    !acc + W.popcount ((table.(a + full) lxor table.(b + full)) land tail)
  in
  (* Select tau on the first half: maximise |Z_tau - 2500| over
     tau = 1..5000, computed on bits 0..9999. *)
  let best_tau = ref 1 and best_dep = ref (-1) in
  for tau = 1 to span do
    let dep = abs (z_tau 0 tau - 2500) in
    if dep > !best_dep then begin
      best_dep := dep;
      best_tau := tau
    end
  done;
  let z = z_tau half !best_tau in
  Report.make ~name:"T5 autocorrelation"
    ~statistic:(float_of_int z)
    ~pass:(z > 2326 && z < 2674)
    ~detail:(Printf.sprintf "tau = %d, bound (2326, 2674)" !best_tau)

let run_block block =
  check_block "run_block" block;
  Tm.Hist.time test_seconds (fun () ->
      [ t1_monobit block; t2_poker block; t3_runs block; t4_long_run block;
        t5_autocorrelation block ])

let run ?blocks stream =
  Ptrng_telemetry.Span.with_ ~name:"ais31.procedure_a" @@ fun () ->
  let available = Ptrng_trng.Bitstream.length stream / block_bits in
  if available = 0 then invalid_arg "Procedure_a.run: stream shorter than one block";
  let blocks = match blocks with Some b -> min b available | None -> min available 257 in
  let t0 =
    if Ptrng_trng.Bitstream.length stream >= t0_words * t0_word_bits then
      [ t0_disjointness stream ]
    else []
  in
  let block_results b =
    let block =
      Array.init block_bits (fun i ->
          Ptrng_trng.Bitstream.get stream ((b * block_bits) + i))
    in
    let tag r = { r with Report.name = Printf.sprintf "%s (block %d)" r.Report.name b } in
    List.map tag (run_block block)
  in
  Report.summarize (t0 @ List.concat (List.init blocks block_results))
