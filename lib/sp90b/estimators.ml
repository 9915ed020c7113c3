type estimate = {
  name : string;
  p_max : float;
  min_entropy : float;
}

let z99 = 2.5758293035489004 (* 99% two-sided normal quantile *)

let clamp_prob p = Float.max 1e-12 (Float.min 1.0 p)

let finish ~name p_max =
  let p_max = clamp_prob p_max in
  { name; p_max; min_entropy = Float.max 0.0 (-.(log p_max /. log 2.0)) }

let require name minimum bits =
  if Array.length bits < minimum then
    invalid_arg (Printf.sprintf "Estimators.%s: need >= %d bits" name minimum)

let most_common_value bits =
  require "most_common_value" 100 bits;
  let n = Array.length bits in
  let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits in
  let count = max ones (n - ones) in
  let p_hat = float_of_int count /. float_of_int n in
  let p_u =
    p_hat +. (z99 *. sqrt (p_hat *. (1.0 -. p_hat) /. float_of_int (n - 1)))
  in
  finish ~name:"most-common-value" p_u

let collision (bits : bool array) =
  require "collision" 300 bits;
  let n = Array.length bits in
  (* Collision times: the minimal window from the cursor containing a
     repeated symbol; 2 when the next two bits agree, otherwise 3. *)
  let collisions = ref 0 and i = ref 0 in
  while !i + 2 < n do
    incr collisions;
    i := !i + (if bits.(!i) = bits.(!i + 1) then 2 else 3)
  done;
  (* Latest collision first, the order the statistics below sum in. *)
  let t = Array.make !collisions 0.0 in
  let k = ref (!collisions - 1) and i = ref 0 in
  while !i + 2 < n do
    let time = if bits.(!i) = bits.(!i + 1) then 2 else 3 in
    t.(!k) <- float_of_int time;
    decr k;
    i := !i + time
  done;
  let l = Array.length t in
  if l < 50 then invalid_arg "Estimators.collision: too few collisions";
  let mean = Ptrng_stats.Descriptive.mean t in
  let sd = Ptrng_stats.Descriptive.std ~mean t in
  let mean_lo = mean -. (z99 *. sd /. sqrt (float_of_int l)) in
  (* E(t) = 2 + 2 p q  =>  p q = (E(t) - 2) / 2, and p >= 1/2 solves
     p = 1/2 + sqrt(1/4 - pq).  A lower bound on E(t) gives an upper
     bound on p. *)
  let pq = Float.max 0.0 (Float.min 0.25 ((mean_lo -. 2.0) /. 2.0)) in
  let p_u = 0.5 +. sqrt (0.25 -. pq) in
  finish ~name:"collision" p_u

let markov ?(steps = 128) bits =
  require "markov" 1000 bits;
  if steps < 2 then invalid_arg "Estimators.markov: steps < 2";
  let n = Array.length bits in
  (* Upper confidence bounds on P(1), P(0->1), P(1->1). *)
  let upper count total =
    if total = 0 then 1.0
    else begin
      let p = float_of_int count /. float_of_int total in
      clamp_prob (p +. (z99 *. sqrt (p *. (1.0 -. p) /. float_of_int (max 1 (total - 1)))))
    end
  in
  let ones = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 bits in
  let c01 = ref 0 and c11 = ref 0 and n0 = ref 0 and n1 = ref 0 in
  for i = 0 to n - 2 do
    if bits.(i) then begin
      incr n1;
      if bits.(i + 1) then incr c11
    end
    else begin
      incr n0;
      if bits.(i + 1) then incr c01
    end
  done;
  let p1 = upper ones n in
  let p0 = upper (n - ones) n in
  let p01 = upper !c01 !n0 in
  let p00 = upper (!n0 - !c01) !n0 in
  let p11 = upper !c11 !n1 in
  let p10 = upper (!n1 - !c11) !n1 in
  (* Most likely [steps]-bit trajectory under the bounded transition
     matrix, by dynamic programming in log space. *)
  let log2 x = log x /. log 2.0 in
  let best0 = ref (log2 p0) and best1 = ref (log2 p1) in
  for _ = 2 to steps do
    let next0 = Float.max (!best0 +. log2 p00) (!best1 +. log2 p10) in
    let next1 = Float.max (!best0 +. log2 p01) (!best1 +. log2 p11) in
    best0 := next0;
    best1 := next1
  done;
  let log_p = Float.max !best0 !best1 in
  let per_bit = Float.min 1.0 (-.log_p /. float_of_int steps) in
  {
    name = "markov";
    p_max = 2.0 ** (-.per_bit);
    min_entropy = per_bit;
  }

(* Tuple ids by one-bit refinement: after round t, [id.(i)] numbers
   the t-bit window starting at bit i densely (below the number of
   windows), so equal windows share an id.  Round t+1 renumbers the
   pairs (id.(i), bits.(i+t)) in order of first appearance through
   [remap], indexed by 2 id + bit. *)
let t_tuple ?(max_t = 16) (bits : bool array) =
  require "t_tuple" 1000 bits;
  if max_t < 1 || max_t > 62 then invalid_arg "Estimators.t_tuple: max_t outside [1,62]";
  let n = Array.length bits in
  let id = Array.init n (fun i -> Bool.to_int bits.(i)) in
  let remap = Array.make (2 * n) (-1) in
  let counts = Array.make n 0 in
  let classes = ref 2 in
  let worst = ref 0.0 in
  (try
     for t = 1 to max_t do
       let windows = n - t + 1 in
       if t > 1 then begin
         let next = ref 0 in
         for i = 0 to windows - 1 do
           let key = (2 * id.(i)) + Bool.to_int bits.(i + t - 1) in
           if remap.(key) < 0 then begin
             remap.(key) <- !next;
             incr next
           end;
           id.(i) <- remap.(key)
         done;
         Array.fill remap 0 (2 * !classes) (-1);
         classes := !next
       end;
       Array.fill counts 0 !classes 0;
       let max_count = ref 0 in
       for i = 0 to windows - 1 do
         let c = counts.(id.(i)) + 1 in
         counts.(id.(i)) <- c;
         if c > !max_count then max_count := c
       done;
       let max_count = !max_count in
       (* The standard keeps tuple sizes whose champion appears >= 35
          times; below that the frequency estimate is too noisy. *)
       if max_count < 35 then raise Exit;
       let p_hat = float_of_int max_count /. float_of_int windows in
       let p_u =
         p_hat +. (z99 *. sqrt (p_hat *. (1.0 -. p_hat) /. float_of_int (windows - 1)))
       in
       let per_bit = clamp_prob p_u ** (1.0 /. float_of_int t) in
       if per_bit > !worst then worst := per_bit
     done
   with Exit -> ());
  finish ~name:"t-tuple" !worst

module Tm = Ptrng_telemetry.Registry

let estimates_total =
  Tm.Counter.v ~help:"SP 800-90B min-entropy estimates computed."
    "ptrng_sp90b_estimates_total"

let estimator_seconds =
  Tm.Hist.v ~help:"Wall time of one SP 800-90B estimator." ~lo:1e-6 ~hi:1e3
    "ptrng_sp90b_estimator_seconds"

let run_all ?domains bits =
  Ptrng_telemetry.Span.with_ ~name:"sp90b.run_all" @@ fun () ->
  (* One pool task per estimator (shared read-only input); estimates
     come back in battery order, counters are tallied after the join. *)
  let estimators =
    [| most_common_value; collision; (fun bits -> markov bits);
       (fun bits -> t_tuple bits) |]
  in
  let estimates =
    Array.to_list
      (Ptrng_exec.Pool.parallel_map ?domains
         (fun f -> Tm.Hist.time estimator_seconds (fun () -> f bits))
         estimators)
  in
  List.iter (fun _ -> Tm.Counter.incr estimates_total) estimates;
  let aggregate =
    List.fold_left (fun acc e -> Float.min acc e.min_entropy) 1.0 estimates
  in
  (estimates, aggregate)
