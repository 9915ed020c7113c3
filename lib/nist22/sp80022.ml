type result = {
  name : string;
  statistic : float;
  p_value : float;
  pass : bool;
}

let alpha = 0.01

let finish ~name ~statistic p_value =
  let p_value = Float.max 0.0 (Float.min 1.0 p_value) in
  { name; statistic; p_value; pass = p_value >= alpha }

let require name minimum bits =
  if Array.length bits < minimum then
    invalid_arg (Printf.sprintf "Sp80022.%s: need >= %d bits" name minimum)

let erfc = Ptrng_stats.Special.erfc
let gamma_q = fun a x -> Ptrng_stats.Special.gamma_q ~a ~x
let sqrt2 = sqrt 2.0

let frequency bits =
  require "frequency" 100 bits;
  let n = Array.length bits in
  let s = Array.fold_left (fun acc b -> acc + (if b then 1 else -1)) 0 bits in
  let s_obs = Float.abs (float_of_int s) /. sqrt (float_of_int n) in
  finish ~name:"frequency" ~statistic:s_obs (erfc (s_obs /. sqrt2))

let block_frequency ?(m = 128) bits =
  require "block_frequency" (2 * m) bits;
  if m < 8 then invalid_arg "Sp80022.block_frequency: m < 8";
  let n = Array.length bits in
  let blocks = n / m in
  let chi2 = ref 0.0 in
  for b = 0 to blocks - 1 do
    let ones = ref 0 in
    for j = 0 to m - 1 do
      if bits.((b * m) + j) then incr ones
    done;
    let pi = float_of_int !ones /. float_of_int m in
    chi2 := !chi2 +. ((pi -. 0.5) ** 2.0)
  done;
  let chi2 = 4.0 *. float_of_int m *. !chi2 in
  finish ~name:"block-frequency" ~statistic:chi2
    (gamma_q (float_of_int blocks /. 2.0) (chi2 /. 2.0))

let runs bits =
  require "runs" 100 bits;
  let n = Array.length bits in
  let fn = float_of_int n in
  let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits in
  let pi = float_of_int ones /. fn in
  if Float.abs (pi -. 0.5) >= 2.0 /. sqrt fn then
    (* Pre-test of the standard: dominated by bias, report p = 0. *)
    finish ~name:"runs" ~statistic:0.0 0.0
  else begin
    let v = ref 1 in
    for i = 1 to n - 1 do
      if bits.(i) <> bits.(i - 1) then incr v
    done;
    let v = float_of_int !v in
    let num = Float.abs (v -. (2.0 *. fn *. pi *. (1.0 -. pi))) in
    let den = 2.0 *. sqrt (2.0 *. fn) *. pi *. (1.0 -. pi) in
    finish ~name:"runs" ~statistic:v (erfc (num /. den))
  end

(* Reference distributions from SP 800-22 section 2.4. *)
let longest_run_params n =
  if n >= 6272 then (128, 49, [| 4; 5; 6; 7; 8; 9 |],
                     [| 0.1174; 0.2430; 0.2493; 0.1752; 0.1027; 0.1124 |])
  else (8, 16, [| 1; 2; 3; 4 |], [| 0.2148; 0.3672; 0.2305; 0.1875 |])

let longest_run bits =
  require "longest_run" 128 bits;
  let n = Array.length bits in
  let m, blocks_needed, cats, pis = longest_run_params n in
  let blocks = min (n / m) blocks_needed in
  let k = Array.length cats in
  let counts = Array.make k 0 in
  for b = 0 to blocks - 1 do
    let longest = ref 0 and current = ref 0 in
    for j = 0 to m - 1 do
      if bits.((b * m) + j) then begin
        incr current;
        if !current > !longest then longest := !current
      end
      else current := 0
    done;
    (* Map the longest run onto the category index. *)
    let cat =
      if !longest <= cats.(0) then 0
      else if !longest >= cats.(k - 1) then k - 1
      else begin
        let idx = ref 0 in
        Array.iteri (fun i c -> if !longest = c then idx := i) cats;
        !idx
      end
    in
    counts.(cat) <- counts.(cat) + 1
  done;
  let fb = float_of_int blocks in
  let chi2 = ref 0.0 in
  for i = 0 to k - 1 do
    let expected = fb *. pis.(i) in
    let d = float_of_int counts.(i) -. expected in
    chi2 := !chi2 +. (d *. d /. expected)
  done;
  finish ~name:"longest-run" ~statistic:!chi2
    (gamma_q (float_of_int (k - 1) /. 2.0) (!chi2 /. 2.0))

let cumulative_sums ?(forward = true) bits =
  require "cumulative_sums" 100 bits;
  let n = Array.length bits in
  let fn = float_of_int n in
  let z = ref 0 and s = ref 0 in
  let step i =
    s := !s + (if bits.(i) then 1 else -1);
    if abs !s > !z then z := abs !s
  in
  if forward then
    for i = 0 to n - 1 do
      step i
    done
  else
    for i = n - 1 downto 0 do
      step i
    done;
  let z = float_of_int !z in
  if z = 0.0 then finish ~name:"cumulative-sums" ~statistic:0.0 0.0
  else begin
    let phi = Ptrng_stats.Special.normal_cdf in
    let sum1 = ref 0.0 in
    let k_lo = int_of_float (Float.floor ((-.fn /. z) +. 1.0) /. 4.0) in
    let k_hi = int_of_float (Float.floor ((fn /. z) -. 1.0) /. 4.0) in
    for k = k_lo to k_hi do
      let fk = float_of_int k in
      sum1 := !sum1
        +. phi ((((4.0 *. fk) +. 1.0) *. z) /. sqrt fn)
        -. phi ((((4.0 *. fk) -. 1.0) *. z) /. sqrt fn)
    done;
    let sum2 = ref 0.0 in
    let k_lo = int_of_float (Float.floor ((-.fn /. z) -. 3.0) /. 4.0) in
    for k = k_lo to k_hi do
      let fk = float_of_int k in
      sum2 := !sum2
        +. phi ((((4.0 *. fk) +. 3.0) *. z) /. sqrt fn)
        -. phi ((((4.0 *. fk) +. 1.0) *. z) /. sqrt fn)
    done;
    finish ~name:"cumulative-sums" ~statistic:z (1.0 -. !sum1 +. !sum2)
  end

let spectral bits =
  require "spectral" 1000 bits;
  let n = Array.length bits in
  let x = Array.map (fun b -> if b then 1.0 else -1.0) bits in
  let re, im = Ptrng_signal.Fft.rfft x in
  let half = n / 2 in
  let threshold = sqrt (log (1.0 /. 0.05) *. float_of_int n) in
  let below = ref 0 in
  for k = 0 to half - 1 do
    let modulus = sqrt ((re.(k) *. re.(k)) +. (im.(k) *. im.(k))) in
    if modulus < threshold then incr below
  done;
  let n0 = 0.95 *. float_of_int half in
  let n1 = float_of_int !below in
  let d = (n1 -. n0) /. sqrt (float_of_int n *. 0.95 *. 0.05 /. 4.0) in
  finish ~name:"spectral" ~statistic:d (erfc (Float.abs d /. sqrt2))

(* psi^2 statistic over overlapping (cyclic) m-bit patterns. *)
let psi2 bits m =
  if m <= 0 then 0.0
  else begin
    let n = Array.length bits in
    let cells = 1 lsl m in
    let counts = Array.make cells 0 in
    let key = ref 0 in
    for j = 0 to m - 1 do
      key := (!key lsl 1) lor (if bits.(j mod n) then 1 else 0)
    done;
    let mask = cells - 1 in
    counts.(!key) <- 1;
    for i = 1 to n - 1 do
      key := ((!key lsl 1) lor (if bits.((i + m - 1) mod n) then 1 else 0)) land mask;
      counts.(!key) <- counts.(!key) + 1
    done;
    let fn = float_of_int n in
    let sum =
      Array.fold_left (fun acc c -> acc +. (float_of_int c *. float_of_int c)) 0.0 counts
    in
    (float_of_int cells *. sum /. fn) -. fn
  end

let serial ?(m = 3) bits =
  require "serial" (1 lsl (m + 3)) bits;
  if m < 2 then invalid_arg "Sp80022.serial: m < 2";
  let d1 = psi2 bits m -. psi2 bits (m - 1) in
  let p = gamma_q (2.0 ** float_of_int (m - 2)) (d1 /. 2.0) in
  finish ~name:"serial" ~statistic:d1 p

let approximate_entropy ?(m = 3) bits =
  require "approximate_entropy" (1 lsl (m + 3)) bits;
  let n = Array.length bits in
  let fn = float_of_int n in
  let phi mm =
    if mm = 0 then 0.0
    else begin
      let cells = 1 lsl mm in
      let counts = Array.make cells 0 in
      let key = ref 0 in
      for j = 0 to mm - 1 do
        key := (!key lsl 1) lor (if bits.(j mod n) then 1 else 0)
      done;
      let mask = cells - 1 in
      counts.(!key) <- 1;
      for i = 1 to n - 1 do
        key := ((!key lsl 1) lor (if bits.((i + mm - 1) mod n) then 1 else 0)) land mask;
        counts.(!key) <- counts.(!key) + 1
      done;
      Array.fold_left
        (fun acc c ->
          if c = 0 then acc
          else begin
            let p = float_of_int c /. fn in
            acc +. (p *. log p)
          end)
        0.0 counts
    end
  in
  let apen = phi m -. phi (m + 1) in
  let chi2 = 2.0 *. fn *. (log 2.0 -. apen) in
  finish ~name:"approximate-entropy" ~statistic:apen
    (gamma_q (2.0 ** float_of_int (m - 1)) (chi2 /. 2.0))

(* ------------------------------------------------------------------ *)
(* Heavyweight tests                                                   *)
(* ------------------------------------------------------------------ *)

(* Rank of a square GF(2) matrix given as row bitmasks (int). *)
let gf2_rank rows size =
  let rows = Array.copy rows in
  let rank = ref 0 in
  let row = ref 0 in
  for col = size - 1 downto 0 do
    let bit = 1 lsl col in
    (* Find a pivot row at or below !row with this column set. *)
    let pivot = ref (-1) in
    (try
       for r = !row to size - 1 do
         if rows.(r) land bit <> 0 then begin
           pivot := r;
           raise Exit
         end
       done
     with Exit -> ());
    if !pivot >= 0 then begin
      let tmp = rows.(!row) in
      rows.(!row) <- rows.(!pivot);
      rows.(!pivot) <- tmp;
      for r = 0 to size - 1 do
        if r <> !row && rows.(r) land bit <> 0 then rows.(r) <- rows.(r) lxor rows.(!row)
      done;
      incr rank;
      incr row
    end
  done;
  !rank

let binary_matrix_rank bits =
  let size = 32 in
  let per_matrix = size * size in
  let n = Array.length bits in
  let matrices = n / per_matrix in
  if matrices < 38 then invalid_arg "Sp80022.binary_matrix_rank: need >= 38 matrices";
  (* Asymptotic probabilities of rank 32, 31 and <= 30 for random
     32x32 GF(2) matrices. *)
  let p_full = 0.2888 and p_minus1 = 0.5776 in
  let p_rest = 1.0 -. p_full -. p_minus1 in
  let full = ref 0 and minus1 = ref 0 in
  for m = 0 to matrices - 1 do
    let rows =
      Array.init size (fun r ->
          let acc = ref 0 in
          for c = 0 to size - 1 do
            acc := (!acc lsl 1) lor (if bits.((m * per_matrix) + (r * size) + c) then 1 else 0)
          done;
          !acc)
    in
    match gf2_rank rows size with
    | r when r = size -> incr full
    | r when r = size - 1 -> incr minus1
    | _ -> ()
  done;
  let rest = matrices - !full - !minus1 in
  let fm = float_of_int matrices in
  let term observed p =
    let e = fm *. p in
    let d = float_of_int observed -. e in
    d *. d /. e
  in
  let chi2 = term !full p_full +. term !minus1 p_minus1 +. term rest p_rest in
  finish ~name:"matrix-rank" ~statistic:chi2 (exp (-.chi2 /. 2.0))

let maurer_universal bits =
  let l = 6 in
  let q = 640 in
  let blocks = Array.length bits / l in
  let k = blocks - q in
  if k < 1000 then invalid_arg "Sp80022.maurer_universal: need >= 1640 6-bit blocks";
  let value i =
    let acc = ref 0 in
    for j = 0 to l - 1 do
      acc := (!acc lsl 1) lor (if bits.((i * l) + j) then 1 else 0)
    done;
    !acc
  in
  let last = Array.make (1 lsl l) 0 in
  for i = 0 to q - 1 do
    last.(value i) <- i + 1
  done;
  let sum = ref 0.0 in
  for i = q to blocks - 1 do
    let v = value i in
    let dist = (i + 1) - last.(v) in
    (* Blocks unseen during init count their distance from the start. *)
    sum := !sum +. (log (float_of_int (if last.(v) = 0 then i + 1 else dist)) /. log 2.0);
    last.(v) <- i + 1
  done;
  let fn = !sum /. float_of_int k in
  (* Reference mean and variance for L = 6 (SP 800-22 table 2-12). *)
  let expected = 5.2177052 and variance = 2.954 in
  let c =
    0.7 -. (0.8 /. float_of_int l)
    +. ((4.0 +. (32.0 /. float_of_int l))
       *. (float_of_int k ** (-3.0 /. float_of_int l))
       /. 15.0)
  in
  let sigma = c *. sqrt (variance /. float_of_int k) in
  finish ~name:"maurer-universal" ~statistic:fn
    (erfc (Float.abs (fn -. expected) /. (sqrt2 *. sigma)))

(* Berlekamp-Massey over GF(2) on polynomials packed like
   [Ptrng_trng.Bitwords]: coefficient j at bit [j mod 62] of word
   [j / 62]. *)
module W = Ptrng_trng.Bitwords

(* Scratch words for a [len]-bit block: the coefficients, and spare
   words for shifted reads and writes past the last one. *)
let bm_words len = (len / W.bits) + 3

let parity x =
  let x = x lxor (x lsr 32) in
  let x = x lxor (x lsr 16) in
  let x = x lxor (x lsr 8) in
  let x = x lxor (x lsr 4) in
  let x = x lxor (x lsr 2) in
  (x lxor (x lsr 1)) land 1

(* Length L of the shortest LFSR generating bits [pos .. pos+len-1].
   [r] holds the block reversed (bit k = block bit len-1-k), so the
   bits s(i), s(i-1), .., s(i-L) that the discrepancy at step i pairs
   with C's coefficients 0..L are one contiguous window of [r].  [c] is
   the connection polynomial, [b] the one before the last length change
   and [t] the copy of [c] that becomes [b].  Each holds [bm_words len]
   words; [r], [c] and [b] are cleared here and [t] is written before
   it is read, so one set serves every block.
   deg C <= L and deg B <= L_B (the length when B was saved), so each
   step touches L / 62 + 1 words of [c] and L_B / 62 + 2 of [b]. *)
let bm_kernel ~r ~c ~b ~t (bits : bool array) ~pos ~len =
  let words = bm_words len in
  Array.fill r 0 words 0;
  Array.fill c 0 words 0;
  Array.fill b 0 words 0;
  for k = 0 to len - 1 do
    let q = k / W.bits in
    r.(q) <- r.(q) lor (Bool.to_int bits.(pos + len - 1 - k) lsl (k mod W.bits))
  done;
  c.(0) <- 1;
  b.(0) <- 1;
  let l = ref 0 and l_b = ref 0 and m = ref (-1) in
  for i = 0 to len - 1 do
    let d = ref 0 in
    for w = 0 to !l / W.bits do
      d := !d lxor (c.(w) land W.window r (len - 1 - i + (w * W.bits)))
    done;
    if parity !d = 1 then begin
      (* C <- C + x^(i-m) B *)
      let shift = i - !m in
      let q = shift / W.bits and s = shift mod W.bits in
      let grow = 2 * !l <= i in
      if grow then Array.blit c 0 t 0 ((!l / W.bits) + 1);
      for w = 0 to !l_b / W.bits do
        let v = b.(w) in
        c.(w + q) <- c.(w + q) lxor ((v lsl s) land W.mask);
        c.(w + q + 1) <- c.(w + q + 1) lxor (v lsr (W.bits - s))
      done;
      if grow then begin
        Array.blit t 0 b 0 ((!l / W.bits) + 1);
        l_b := !l;
        l := i + 1 - !l;
        m := i
      end
    end
  done;
  !l

let berlekamp_massey bits =
  let len = Array.length bits in
  let scratch () = Array.make (bm_words len) 0 in
  bm_kernel ~r:(scratch ()) ~c:(scratch ()) ~b:(scratch ()) ~t:(scratch ()) bits ~pos:0
    ~len

let linear_complexity ?(block = 500) bits =
  if block < 100 then invalid_arg "Sp80022.linear_complexity: block < 100";
  let n = Array.length bits in
  let blocks = n / block in
  if blocks < 100 then invalid_arg "Sp80022.linear_complexity: need >= 100 blocks";
  let fm = float_of_int block in
  let sign = if block land 1 = 0 then 1.0 else -1.0 in
  let mu =
    (fm /. 2.0)
    +. ((9.0 +. sign) /. 36.0)
    -. (((fm /. 3.0) +. (2.0 /. 9.0)) /. (2.0 ** fm))
  in
  let pis = [| 0.010417; 0.03125; 0.125; 0.5; 0.25; 0.0625; 0.020833 |] in
  let counts = Array.make 7 0 in
  let scratch () = Array.make (bm_words block) 0 in
  let r = scratch () and c = scratch () and b = scratch () and t = scratch () in
  for k = 0 to blocks - 1 do
    let lc = bm_kernel ~r ~c ~b ~t bits ~pos:(k * block) ~len:block in
    let dev = (sign *. (float_of_int lc -. mu)) +. (2.0 /. 9.0) in
    let bin =
      if dev <= -2.5 then 0
      else if dev <= -1.5 then 1
      else if dev <= -0.5 then 2
      else if dev <= 0.5 then 3
      else if dev <= 1.5 then 4
      else if dev <= 2.5 then 5
      else 6
    in
    counts.(bin) <- counts.(bin) + 1
  done;
  let fb = float_of_int blocks in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun i c ->
      let e = fb *. pis.(i) in
      let d = float_of_int c -. e in
      chi2 := !chi2 +. (d *. d /. e))
    counts;
  finish ~name:"linear-complexity" ~statistic:!chi2 (gamma_q 3.0 (!chi2 /. 2.0))

let default_template = [| false; false; false; false; false; false; false; false; true |]

let non_overlapping_template ?(template = default_template) bits =
  let m = Array.length template in
  if m < 2 || m > 16 then
    invalid_arg "Sp80022.non_overlapping_template: template length outside [2,16]";
  let n = Array.length bits in
  let blocks = 8 in
  let block_len = n / blocks in
  if block_len < 1000 then
    invalid_arg "Sp80022.non_overlapping_template: need >= 8000 bits";
  let fm_len = float_of_int block_len in
  let mu = (fm_len -. float_of_int m +. 1.0) /. (2.0 ** float_of_int m) in
  let sigma2 =
    fm_len
    *. ((1.0 /. (2.0 ** float_of_int m))
       -. ((2.0 *. float_of_int m -. 1.0) /. (2.0 ** float_of_int (2 * m))))
  in
  (* Window i matches when its rolling m-bit key equals the template's;
     a match moves the next allowed start m bits on. *)
  let mask = (1 lsl m) - 1 in
  let target = Array.fold_left (fun k b -> (k lsl 1) lor Bool.to_int b) 0 template in
  let chi2 = ref 0.0 in
  for b = 0 to blocks - 1 do
    let base = b * block_len in
    let count = ref 0 and next = ref 0 and key = ref 0 in
    for p = 0 to block_len - 1 do
      key := ((!key lsl 1) lor Bool.to_int bits.(base + p)) land mask;
      let i = p - m + 1 in
      if i >= !next && !key = target then begin
        incr count;
        next := i + m
      end
    done;
    let d = float_of_int !count -. mu in
    chi2 := !chi2 +. (d *. d /. sigma2)
  done;
  finish ~name:"non-overlapping-template" ~statistic:!chi2
    (gamma_q (float_of_int blocks /. 2.0) (!chi2 /. 2.0))

let overlapping_template bits =
  let m = 9 and block_len = 1032 in
  let n = Array.length bits in
  let blocks = n / block_len in
  if blocks < 50 then invalid_arg "Sp80022.overlapping_template: need >= 50 blocks";
  (* Reference category probabilities for m = 9, M = 1032 (SP 800-22). *)
  let pis = [| 0.364091; 0.185659; 0.139381; 0.100571; 0.070432; 0.139866 |] in
  let counts = Array.make 6 0 in
  for b = 0 to blocks - 1 do
    (* Window i is all ones when the run of ones ending at its last bit
       is at least m long. *)
    let hits = ref 0 and run = ref 0 in
    for p = 0 to block_len - 1 do
      run := (!run + 1) * Bool.to_int bits.((b * block_len) + p);
      if !run >= m then incr hits
    done;
    counts.(min 5 !hits) <- counts.(min 5 !hits) + 1
  done;
  let fb = float_of_int blocks in
  let chi2 = ref 0.0 in
  Array.iteri
    (fun i c ->
      let e = fb *. pis.(i) in
      let d = float_of_int c -. e in
      chi2 := !chi2 +. (d *. d /. e))
    counts;
  finish ~name:"overlapping-template" ~statistic:!chi2 (gamma_q 2.5 (!chi2 /. 2.0))

(* One pass over the +-1 walk.  Returns the number of zero-to-zero
   cycles; [per_cycle.((x + 4) * 6 + k)], how many cycles visit state
   x in -4..4 exactly k times (k = 5: five or more); and
   [total.(x + 9)], the visits to state x in -9..9 within those cycles.
   A last stretch that never returns to zero is no cycle. *)
let excursions (bits : bool array) =
  let current = Array.make 19 0 and total = Array.make 19 0 in
  let per_cycle = Array.make (9 * 6) 0 in
  let cycles = ref 0 and s = ref 0 in
  for i = 0 to Array.length bits - 1 do
    s := !s + (2 * Bool.to_int bits.(i)) - 1;
    if !s = 0 then begin
      incr cycles;
      for x = -9 to 9 do
        let v = current.(x + 9) in
        total.(x + 9) <- total.(x + 9) + v;
        if abs x <= 4 then begin
          let k = ((x + 4) * 6) + min 5 v in
          per_cycle.(k) <- per_cycle.(k) + 1
        end;
        current.(x + 9) <- 0
      done
    end
    else if abs !s <= 9 then current.(!s + 9) <- current.(!s + 9) + 1
  done;
  (!cycles, per_cycle, total)

(* pi_k(x): probability of k visits to state x within one cycle. *)
let excursion_pi k x =
  let ax = float_of_int (abs x) in
  if k = 0 then 1.0 -. (1.0 /. (2.0 *. ax))
  else if k < 5 then begin
    let base = 1.0 -. (1.0 /. (2.0 *. ax)) in
    (1.0 /. (4.0 *. ax *. ax)) *. (base ** float_of_int (k - 1))
  end
  else begin
    let base = 1.0 -. (1.0 /. (2.0 *. ax)) in
    (1.0 /. (2.0 *. ax)) *. (base ** 4.0)
  end

let min_cycles = 100

let random_excursions bits =
  let j, per_cycle, _ = excursions bits in
  if j < min_cycles then []
  else begin
    let states = [ -4; -3; -2; -1; 1; 2; 3; 4 ] in
    List.map
      (fun x ->
        let fj = float_of_int j in
        let chi2 = ref 0.0 in
        for k = 0 to 5 do
          let e = fj *. excursion_pi k x in
          let d = float_of_int per_cycle.(((x + 4) * 6) + k) -. e in
          chi2 := !chi2 +. (d *. d /. e)
        done;
        finish
          ~name:(Printf.sprintf "random-excursions (x=%+d)" x)
          ~statistic:!chi2
          (gamma_q 2.5 (!chi2 /. 2.0)))
      states
  end

let random_excursions_variant bits =
  let j, _, total = excursions bits in
  if j < min_cycles then []
  else begin
    let fj = float_of_int j in
    List.filter_map
      (fun x ->
        if x = 0 then None
        else begin
          let xi = float_of_int total.(x + 9) in
          let denom = sqrt (2.0 *. fj *. ((4.0 *. float_of_int (abs x)) -. 2.0)) in
          Some
            (finish
               ~name:(Printf.sprintf "excursions-variant (x=%+d)" x)
               ~statistic:xi
               (erfc (Float.abs (xi -. fj) /. denom)))
        end)
      (List.init 19 (fun i -> i - 9))
  end

module Tm = Ptrng_telemetry.Registry

let tests_total =
  Tm.Counter.v ~help:"SP 800-22 test results produced by run_all."
    "ptrng_nist22_tests_total"

let failures_total =
  Tm.Counter.v ~help:"SP 800-22 results with p below the 0.01 level."
    "ptrng_nist22_failures_total"

let test_seconds =
  Tm.Hist.v ~help:"Wall time of one SP 800-22 test." ~lo:1e-6 ~hi:1e3
    "ptrng_nist22_test_seconds"

let run_all ?domains bits =
  Ptrng_telemetry.Span.with_ ~name:"nist22.run_all" @@ fun () ->
  let n = Array.length bits in
  let tests =
    [
      (100, fun () -> [ frequency bits ]);
      (256, fun () -> [ block_frequency bits ]);
      (100, fun () -> [ runs bits ]);
      (128, fun () -> [ longest_run bits ]);
      (100, fun () -> [ cumulative_sums bits ]);
      (1000, fun () -> [ spectral bits ]);
      (64, fun () -> [ serial bits ]);
      (64, fun () -> [ approximate_entropy bits ]);
      (38912, fun () -> [ binary_matrix_rank bits ]);
      (8000, fun () -> [ non_overlapping_template bits ]);
      (51600, fun () -> [ overlapping_template bits ]);
      ((640 + 1000) * 6, fun () -> [ maurer_universal bits ]);
      (50000, fun () -> [ linear_complexity bits ]);
      ( 100000,
        fun () ->
          (* Report each excursion family through its most extreme
             state, Bonferroni-corrected so the battery row keeps the
             nominal false-positive rate. *)
          let worst = function
            | [] -> []
            | results ->
              let r =
                List.fold_left
                  (fun acc (r : result) -> if r.p_value < acc.p_value then r else acc)
                  (List.hd results) results
              in
              [ { r with pass = r.p_value >= alpha /. float_of_int (List.length results) } ]
          in
          worst (random_excursions bits) @ worst (random_excursions_variant bits) );
    ]
  in
  (* One pool task per test; results are reassembled in battery order,
     so the report is identical to the sequential one.  The wall-time
     histogram is observed inside workers (domain-safe); the pass/fail
     counters are tallied after the join. *)
  let per_test =
    Ptrng_exec.Pool.parallel_map ?domains
      (fun (minimum, f) ->
        if n >= minimum then Tm.Hist.time test_seconds f else [])
      (Array.of_list tests)
  in
  let results = List.concat (Array.to_list per_test) in
  if !Tm.on then
    List.iter
      (fun (r : result) ->
        Tm.Counter.incr tests_total;
        if not r.pass then Tm.Counter.incr failures_total)
      results;
  results

let pp_results ppf results =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-24s stat %12.4f  p = %8.5f  %s@,"
        r.name r.statistic r.p_value (if r.pass then "ok" else "FAIL"))
    results;
  Format.fprintf ppf "@]"
