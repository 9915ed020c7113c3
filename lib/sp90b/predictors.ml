let z99 = 2.5758293035489004

(* --- shared scoring ------------------------------------------------ *)

(* Root near 1 of 1 - x + q p^r x^{r+1} = 0 by fixed-point iteration. *)
let run_root ~p ~q ~r =
  let x = ref 1.0 in
  for _ = 1 to 60 do
    x := 1.0 +. (q *. (p ** float_of_int r) *. (!x ** float_of_int (r + 1)))
  done;
  !x

(* P(longest success run < r in n trials) for success probability p. *)
let prob_no_run ~n ~p ~r =
  if p >= 1.0 then 0.0
  else if p <= 0.0 then 1.0
  else begin
    let q = 1.0 -. p in
    let x = run_root ~p ~q ~r in
    let logp =
      log ((1.0 -. (p *. x)) /. ((float_of_int (r + 1) -. (float_of_int r *. x)) *. q))
      -. (float_of_int (n + 1) *. log x)
    in
    Float.max 0.0 (Float.min 1.0 (exp logp))
  end

let local_bound ~n ~longest_run =
  if n <= 0 then invalid_arg "Predictors.local_bound: n <= 0";
  let r = longest_run + 1 in
  (* 99% upper confidence bound: the largest p under which observing no
     run of length r still has >= 1% probability.  P(no run >= r | p)
     decreases in p, so bisect to P = 0.01. *)
  let alpha = 0.01 in
  let lo = ref 1e-9 and hi = ref (1.0 -. 1e-9) in
  for _ = 1 to 80 do
    let mid = 0.5 *. (!lo +. !hi) in
    if prob_no_run ~n ~p:mid ~r > alpha then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let score ~name ~correct ~n ~longest_run =
  if n <= 0 then invalid_arg "Predictors: no predictions made";
  let fn = float_of_int n in
  let p_global = float_of_int correct /. fn in
  let p_global_u =
    if correct = 0 then 1.0 -. (0.01 ** (1.0 /. fn))
    else
      Float.min 1.0
        (p_global +. (z99 *. sqrt (p_global *. (1.0 -. p_global) /. (fn -. 1.0))))
  in
  let p_local = local_bound ~n ~longest_run in
  let p_max = Float.max 0.5 (Float.max p_global_u p_local) in
  {
    Estimators.name;
    p_max;
    min_entropy = Float.max 0.0 (Float.min 1.0 (-.(log p_max /. log 2.0)));
  }

(* A prediction is an int: the guessed bit (0 or 1), or [no_guess]. *)
let no_guess = -1

(* Fold a prediction stream: [predict i] returns the ensemble's guess
   for bits.(i); the caller updates its own state via [update i]
   afterwards. *)
let run_predictor ~name ~start (bits : bool array) predict update =
  let n = Array.length bits in
  let correct = ref 0 and made = ref 0 in
  let run = ref 0 and longest = ref 0 in
  for i = start to n - 1 do
    let guess = predict i in
    if guess <> no_guess then begin
      incr made;
      if guess = Bool.to_int bits.(i) then begin
        incr correct;
        incr run;
        if !run > !longest then longest := !run
      end
      else run := 0
    end;
    update i
  done;
  score ~name ~correct:!correct ~n:!made ~longest_run:!longest

(* --- MultiMCW ------------------------------------------------------ *)

let mcw_windows = [| 63; 255; 1023; 4095 |]

let multi_mcw (bits : bool array) =
  if Array.length bits < 4096 then invalid_arg "Predictors.multi_mcw: need >= 4096 bits";
  let n = Array.length bits in
  (* Prefix ones for O(1) window majority. *)
  let ones = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    ones.(i + 1) <- ones.(i) + Bool.to_int bits.(i)
  done;
  let k = Array.length mcw_windows in
  let scoreboard = Array.make k 0 in
  let sub_predict w i =
    let lo = max 0 (i - w) in
    let c1 = ones.(i) - ones.(lo) in
    let len = i - lo in
    if 2 * c1 > len then true
    else if 2 * c1 < len then false
    else bits.(i - 1) (* tie: most recent value *)
  in
  let predict i =
    let best = ref 0 in
    for j = 1 to k - 1 do
      if scoreboard.(j) > scoreboard.(!best) then best := j
    done;
    Bool.to_int (sub_predict mcw_windows.(!best) i)
  in
  let update i =
    for j = 0 to k - 1 do
      if sub_predict mcw_windows.(j) i = bits.(i) then
        scoreboard.(j) <- scoreboard.(j) + 1
    done
  in
  run_predictor ~name:"multi-mcw" ~start:64 bits predict update

(* --- Lag ------------------------------------------------------------ *)

(* Lags are scored a block of 62 bits at a time: [agree.(j)] has bit k
   set when bit i0+k equals bit i0+k-(j+1).  The top score never
   drops, so a lag whose score cannot reach it by the end of the block
   cannot lead anywhere in the block: it gets the whole block's
   agreements at once, and only the others are scored bit by bit. *)
let lag ?(max_lag = 128) (bits : bool array) =
  if max_lag < 1 then invalid_arg "Predictors.lag: max_lag < 1";
  if Array.length bits < max 1000 (2 * max_lag) then
    invalid_arg "Predictors.lag: need >= 1000 bits";
  let module W = Ptrng_trng.Bitwords in
  let n = Array.length bits in
  let words = W.pack bits in
  let scoreboard = Array.make max_lag 0 in
  let agree = Array.make max_lag 0 in
  (* Lags still in the running in the current block, in lag order. *)
  let contenders = Array.make max_lag 0 and n_contenders = ref 0 in
  (* The first lag with the top score, kept up to date by [update]. *)
  let best = ref 0 in
  let predict i = Bool.to_int bits.(i - (!best + 1)) in
  let start_block i0 =
    let live = (1 lsl min W.bits (n - i0)) - 1 in
    let now = W.window words i0 and top = scoreboard.(!best) in
    n_contenders := 0;
    for j = 0 to max_lag - 1 do
      let a = lnot (W.window words (i0 - (j + 1)) lxor now) land live in
      let gain = W.popcount a in
      if scoreboard.(j) + gain >= top then begin
        agree.(j) <- a;
        contenders.(!n_contenders) <- j;
        incr n_contenders
      end
      else scoreboard.(j) <- scoreboard.(j) + gain
    done
  in
  let update i =
    let k = (i - max_lag) mod W.bits in
    if k = 0 then start_block i;
    let top = ref contenders.(0) in
    for c = 0 to !n_contenders - 1 do
      let j = contenders.(c) in
      let score = scoreboard.(j) + ((agree.(j) lsr k) land 1) in
      scoreboard.(j) <- score;
      if score > scoreboard.(!top) then top := j
    done;
    best := !top
  in
  run_predictor ~name:"lag" ~start:max_lag bits predict update

(* --- MultiMMC ------------------------------------------------------- *)

(* Orders are run one after another.  [ctx.(i)] is the order-d context
   of bit i (bits i-d .. i-1) as a dense id below n: order d+1 refines
   it by one older bit, renumbering the pairs (id, bits.(i-d-1)) in
   order of first appearance through [remap].  Each order leaves its
   guess at bit i in [guess.(i)] when its score so far beats every
   lower order's, so after the last order [guess] holds the
   meta-predictor's pick. *)
let multi_mmc ?(max_order = 16) (bits : bool array) =
  if max_order < 1 || max_order > 30 then
    invalid_arg "Predictors.multi_mmc: max_order outside [1,30]";
  if Array.length bits < 1000 then invalid_arg "Predictors.multi_mmc: need >= 1000 bits";
  let n = Array.length bits in
  let start = 2 in
  let ctx = Array.init n (fun i -> if i = 0 then 0 else Bool.to_int bits.(i - 1)) in
  let remap = Array.make (2 * n) (-1) in
  (* counts.(2 id + b): how often bit b followed context id. *)
  let counts = Array.make (2 * n) 0 in
  let best_score = Array.make n 0 and guess = Array.make n no_guess in
  let classes = ref 2 in
  for d = 1 to max_order do
    let next = ref 0 in
    Array.fill counts 0 (2 * !classes) 0;
    let score = ref 0 in
    for i = d to n - 1 do
      if d > 1 then begin
        let key = (2 * ctx.(i)) + Bool.to_int bits.(i - d) in
        if remap.(key) < 0 then begin
          remap.(key) <- !next;
          incr next
        end;
        ctx.(i) <- remap.(key)
      end;
      if i >= start then begin
        let c = 2 * ctx.(i) in
        let c0 = counts.(c) and c1 = counts.(c + 1) in
        let g = if c0 = c1 then no_guess else Bool.to_int (c1 > c0) in
        if d = 1 || !score > best_score.(i) then begin
          best_score.(i) <- !score;
          guess.(i) <- g
        end;
        let b = Bool.to_int bits.(i) in
        score := !score + Bool.to_int (g = b);
        counts.(c + b) <- counts.(c + b) + 1
      end
    done;
    if d > 1 then begin
      Array.fill remap 0 (2 * !classes) (-1);
      classes := !next
    end
  done;
  run_predictor ~name:"multi-mmc" ~start bits (fun i -> guess.(i)) ignore

(* --- LZ78Y ----------------------------------------------------------- *)

(* The dictionary is dense: the depth-d context of bit i is the key
   [2^d lor (bits i-d .. i-1)] below 2^17, and [counts.(2 key + b)]
   counts how often bit b followed it.  A key is in the dictionary once
   it has a count; at most [max_entries] keys are ever added. *)
let lz78y (bits : bool array) =
  if Array.length bits < 1000 then invalid_arg "Predictors.lz78y: need >= 1000 bits";
  let max_depth = 16 in
  let max_entries = 65536 in
  let counts = Array.make (2 lsl (max_depth + 1)) 0 in
  let entries = ref 0 in
  (* The [max_depth] bits before the current one, the newest lowest. *)
  let history = ref (Bool.to_int bits.(0)) in
  let key d = (1 lsl d) lor (!history land ((1 lsl d) - 1)) in
  let predict i =
    let rec deepest d =
      if d = 0 then no_guess
      else begin
        let k = 2 * key d in
        let c0 = counts.(k) and c1 = counts.(k + 1) in
        if c0 <> c1 then Bool.to_int (c1 > c0) else deepest (d - 1)
      end
    in
    deepest (min max_depth i)
  in
  let update i =
    let b = Bool.to_int bits.(i) in
    for d = 1 to min max_depth i do
      let k = 2 * key d in
      if counts.(k) + counts.(k + 1) > 0 then counts.(k + b) <- counts.(k + b) + 1
      else if !entries < max_entries then begin
        incr entries;
        counts.(k + b) <- 1
      end
    done;
    history := ((!history lsl 1) lor b) land ((1 lsl max_depth) - 1)
  in
  run_predictor ~name:"lz78y" ~start:1 bits predict update

let run_all bits =
  let estimates = [ multi_mcw bits; lag bits; multi_mmc bits; lz78y bits ] in
  let aggregate =
    List.fold_left
      (fun acc (e : Estimators.estimate) -> Float.min acc e.min_entropy)
      1.0 estimates
  in
  (estimates, aggregate)
