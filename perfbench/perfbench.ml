(* Repository benchmark.  Two workloads load different layers of the
   pipeline; README.md in this directory says why each was chosen and
   what every metric means.

     perfbench.exe --workload pipeline|assessment --seed N
                   --seconds S --trace 0|1

   --trace 0 times the library's own entry points (end-to-end metrics);
   --trace 1 alternates them with a replica of the same pipeline,
   written here, that times each call into a layer's public functions
   (per-layer metrics) and must reproduce the untraced outputs bit for
   bit.  The last line of standard output is one JSON object; a
   human-readable summary goes to standard error. *)

module FA = Float.Array
module Clock = Ptrng_telemetry.Clock
module Json = Ptrng_telemetry.Json
module Pool = Ptrng_exec.Pool
module Rng = Ptrng_prng.Rng
module Pair = Ptrng_osc.Pair
module Vc = Ptrng_measure.Variance_curve
module Fit = Ptrng_measure.Fit
module Te = Ptrng_measure.Thermal_extract
module M = Ptrng_monitor
module Registry = Ptrng_scenario.Registry
module Runner = Ptrng_scenario.Runner
module Bitstream = Ptrng_trng.Bitstream
module Report = Ptrng_ais31.Report
module Sp80022 = Ptrng_nist22.Sp80022
module Est = Ptrng_sp90b.Estimators
module Pred = Ptrng_sp90b.Predictors
module Health = Ptrng_sp90b.Health
module Assessment = Ptrng_report.Assessment

(* Pinned rather than read from the host, so every machine runs the
   same schedule; the figures in README.md were taken on two cores. *)
let domains = 2

(* ---------- canonical output fingerprints ---------- *)

(* Outputs are compared through a canonical serialization that writes
   every float as its IEEE bit pattern: structural equality is false on
   nan fields, and a decimal rendering could hide a last-bit change. *)
let add_float b x = Buffer.add_string b (Printf.sprintf "%Lx;" (Int64.bits_of_float x))
let add_int b i = Buffer.add_string b (Printf.sprintf "%d;" i)
let add_str b s = Buffer.add_string b (Printf.sprintf "%S;" s)
let add_bool b x = Buffer.add_string b (if x then "T;" else "F;")

let add_points b (pts : Vc.point array) =
  add_int b (Array.length pts);
  Array.iter
    (fun (p : Vc.point) ->
      add_int b p.n; add_float b p.sigma2; add_float b p.scaled;
      add_int b p.neff; add_float b p.stderr)
    pts

let add_fit b (f : Fit.t) =
  List.iter (add_float b) [ f.a; f.b; f.c; f.d; f.a_se; f.b_se; f.c_se; f.d_se; f.chi2; f.f0 ];
  add_int b f.dof

(* ---------- the per-layer tracer ---------- *)

type layer = { lname : string; mutable ns : float; mutable bytes : float }

(* [span name f] charges [f]'s wall time and allocated bytes to layer
   [name]; [count name v] adds to a plain counter.  Allocation is
   [Gc.allocated_bytes] (minor plus direct-major) of the calling domain. *)
type tracer = {
  span : 'a. string -> (unit -> 'a) -> 'a;
  count : string -> int -> unit;
}

let make_tracer () =
  let layers = ref [] in
  let counts = ref [] in
  let find name =
    match List.find_opt (fun l -> l.lname = name) !layers with
    | Some l -> l
    | None ->
      let l = { lname = name; ns = 0.0; bytes = 0.0 } in
      layers := l :: !layers;
      l
  in
  let span name f =
    let a0 = Clock.allocated_bytes () in
    let t0 = Clock.now () in
    let r = f () in
    let t1 = Clock.now () in
    let a1 = Clock.allocated_bytes () in
    let l = find name in
    l.ns <- l.ns +. ((t1 -. t0) *. 1e9);
    l.bytes <- l.bytes +. (a1 -. a0);
    r
  in
  let count name v =
    let c = List.assoc_opt name !counts |> Option.value ~default:0 in
    counts := (name, c + v) :: List.remove_assoc name !counts
  in
  ({ span; count }, layers, counts)

(* ---------- workloads ---------- *)

(* One workload: a cycle of [ops] distinct operations, run in turn.
   [setup] builds the objects an operation starts from (timed for
   setup_s), [run k] is operation [k] through the library's entry
   point, [traced k] the same operation replicated call by call under a
   tracer.  Both return the output fingerprint; [run] also returns the
   violated output invariants. *)
module type WORKLOAD = sig
  type input

  val item : string
  val ops : int
  val items : int -> int
  val setup : seed:int -> input
  val run : seed:int -> input -> int -> string * string list
  val traced : seed:int -> tracer -> int -> string
end

(* fig7: Multilevel.characterize on the paper's pair, 2^21 periods:
   the N grid reaches 2^16, twelve times the paper's k = 5354, while a
   pipeline cycle stays short enough for a run to take about ten. *)
module Fig7 : WORKLOAD = struct
  let n_periods = 1 lsl 21

  (* Multilevel.characterize's streaming chunk; fills are
     partition-invariant, the replica mirrors it anyway. *)
  let chunk = 8192

  type input = {
    pair : Pair.t;
    f0 : float;
    stream : Pair.stream;
    jitter_acc : Vc.Jitter_acc.t;
    counter_acc : Vc.Counter_acc.t;
    p1 : FA.t;
    p2 : FA.t;
    jbuf : FA.t;
  }

  let item = "period"
  let ops = 1
  let items _ = n_periods

  let setup ~seed =
    let rng = Rng.create ~seed:(Int64.of_int seed) () in
    let pair = Pair.paper_pair () in
    let f0 = Ptrng_model.Multilevel.nominal_f0 pair in
    let ns = Vc.log2_grid ~n_min:4 ~n_max:(n_periods / 32) in
    {
      pair;
      f0;
      stream = Pair.stream ~flicker_block:n_periods rng pair;
      jitter_acc = Vc.Jitter_acc.create ~f0 ns;
      counter_acc = Vc.Counter_acc.create ~f0 ~ns;
      p1 = FA.create chunk;
      p2 = FA.create chunk;
      jbuf = FA.create chunk;
    }

  let fingerprint ~ideal ~counter ~fit ~counter_fit ~growth:(g, g_se) =
    let b = Buffer.create 4096 in
    add_points b ideal;
    add_points b counter;
    add_fit b fit;
    (match counter_fit with None -> add_str b "none" | Some f -> add_fit b f);
    add_float b g;
    add_float b g_se;
    Buffer.contents b

  let run ~seed _ _ =
    let rng = Rng.create ~seed:(Int64.of_int seed) () in
    let r = Ptrng_model.Multilevel.characterize ~n_periods ~rng (Pair.paper_pair ()) in
    let expected = Array.length (Vc.log2_grid ~n_min:4 ~n_max:(n_periods / 32)) in
    let bad =
      (if Array.length r.ideal_curve <> expected then [ "ideal curve has the wrong length" ]
       else [])
      @
      if Array.for_all (fun (p : Vc.point) -> Float.is_finite p.sigma2 && p.sigma2 > 0.0)
           r.ideal_curve
      then []
      else [ "ideal curve has a non-positive or non-finite variance" ]
    in
    ( fingerprint ~ideal:r.ideal_curve ~counter:r.counter_curve ~fit:r.fit
        ~counter_fit:r.counter_fit ~growth:r.growth_exponent,
      bad )

  let traced ~seed tr _ =
    let s = setup ~seed in
    let pos = ref 0 in
    while !pos < n_periods do
      let len = min chunk (n_periods - !pos) in
      tr.span "osc.pair_fill" (fun () -> Pair.fill s.stream ~p1:s.p1 ~p2:s.p2 ~len);
      for i = 0 to len - 1 do
        FA.unsafe_set s.jbuf i (FA.unsafe_get s.p1 i -. FA.unsafe_get s.p2 i)
      done;
      tr.span "measure.jitter_acc" (fun () -> Vc.Jitter_acc.feed s.jitter_acc s.jbuf ~len);
      tr.span "measure.counter_acc" (fun () ->
          Vc.Counter_acc.feed s.counter_acc ~p1:s.p1 ~p2:s.p2 ~len);
      pos := !pos + len
    done;
    tr.span "measure.curve_fit" (fun () ->
        let f0 = s.f0 in
        let ideal = Vc.Jitter_acc.points s.jitter_acc in
        let counter = Vc.Counter_acc.points s.counter_acc in
        let fit = Fit.fit ~f0 ideal in
        (* Multilevel.characterize's floor-aware counter fit over the
           quantization-saturated part of the curve. *)
        let detuning =
          Float.abs (s.pair.osc1.Ptrng_osc.Oscillator.f0 -. s.pair.osc2.Ptrng_osc.Oscillator.f0)
          /. f0
        in
        let phase = Fit.phase_of fit in
        let saturated =
          List.filter
            (fun (p : Vc.point) ->
              Ptrng_measure.Quantization.drift_per_window ~phase ~f0 ~detuning ~n:p.n >= 0.25)
            (Array.to_list counter)
          |> Array.of_list
        in
        let counter_fit =
          if Array.length saturated >= 5 then Some (Fit.fit ~with_floor:true ~f0 saturated)
          else None
        in
        (* Computed as characterize does; not compared, being a
           function of [fit]. *)
        let (_ : Te.t) = Te.of_fit fit in
        let growth = Ptrng_model.Bienayme.growth_exponent ideal in
        fingerprint ~ideal ~counter ~fit ~counter_fit ~growth)
end

(* scenario: Runner.run over the calm and thermal-quench registry
   entries in turn, 2^22 periods each. *)
module Scenario : WORKLOAD = struct
  let entries =
    Array.map
      (fun n ->
        match Registry.find n with
        | Some e -> e
        | None -> failwith ("scenario registry has no entry " ^ n))
      [| "calm"; "thermal-quench" |]

  type entry_state = {
    entry : Registry.entry;
    cfg : M.Monitor.config;
    mon : M.Monitor.t;
    recorder : M.Flight_recorder.t;
    det : M.Detection.t;
    stream : Pair.stream;
    p1 : FA.t;
    p2 : FA.t;
    jbuf : FA.t;
  }

  type input = unit

  let item = "period"
  let ops = Array.length entries
  let items k = entries.(k).periods

  (* Runner.run's construction of the monitor, recorder, scorer and
     scenario-aware stream, step for step. *)
  let setup_entry ~seed (e : Registry.entry) =
    let scen = e.scenario in
    let cfg = Runner.monitor_config () in
    let mon = M.Monitor.create cfg in
    let recorder =
      M.Flight_recorder.create
        ~provenance:
          {
            kind = "scenario";
            workload = Ptrng_device.Scenario.name scen;
            seed;
            divisor = e.divisor;
            chunk = Runner.chunk;
            flicker_block = Runner.chunk;
          }
        ()
    in
    M.Monitor.attach_recorder mon recorder;
    let static = Te.of_phase ~f0:Pair.paper_f0 Pair.paper_relative in
    let static_r = Te.r_n static cfg.judge_n in
    let static_entropy = Ptrng_model.Design.entropy_at ~extract:static ~divisor:e.divisor in
    let det =
      M.Detection.create ?onset_period:(Ptrng_device.Scenario.onset scen) ~static_r
        ~static_entropy ()
    in
    let rng = Rng.create ~seed:(Int64.of_int seed) () in
    let stream =
      Pair.stream ~flicker_block:Runner.chunk ~scenario:scen rng (Pair.paper_pair ())
    in
    {
      entry = e;
      cfg;
      mon;
      recorder;
      det;
      stream;
      p1 = FA.create Runner.chunk;
      p2 = FA.create Runner.chunk;
      jbuf = FA.create Runner.chunk;
    }

  (* Runner.run builds these itself; set-up time is the cost of doing so
     for every entry. *)
  let setup ~seed = Array.iter (fun e -> ignore (setup_entry ~seed e : entry_state)) entries

  let add_detection b (d : M.Detection.summary) =
    let add_opt f = function None -> add_str b "none" | Some x -> f x in
    add_opt (add_int b) d.onset_period;
    List.iter (add_int b) [ d.observations; d.false_alarms; d.pre_onset_nonok ];
    add_opt
      (fun (a : M.Detection.alarm) ->
        add_str b a.detector;
        List.iter (add_int b)
          [ a.at_period; a.at_bit; a.at_window; a.latency_periods; a.latency_bits;
            a.latency_windows ])
      d.detected;
    add_opt
      (fun (r : M.Detection.recovery) -> add_int b r.at_period; add_int b r.at_window)
      d.recovered;
    List.iter (add_float b)
      [ d.static_r; d.static_entropy; d.live_r; d.live_entropy; d.lie_margin_r;
        d.lie_margin_entropy ];
    add_str b (M.Verdict.status_string d.final_status)

  (* Runner.result copies its final_* and counter fields from the last
     monitor snapshot; [floats] and [ints] list them in that order. *)
  let fingerprint ~name ~detection ~status ~floats ~ints ~incidents =
    let b = Buffer.create 65536 in
    add_str b name;
    add_detection b detection;
    add_str b (M.Verdict.status_string status);
    List.iter (add_float b) floats;
    List.iter (add_int b) ints;
    List.iter (fun j -> add_str b (Json.to_string j)) incidents;
    Buffer.contents b

  let run ~seed () k =
    let r = Runner.run ~seed entries.(k) in
    let bad =
      match r.name with
      | "calm" when r.detection.false_alarms <> 0 -> [ "calm raised false alarms" ]
      | "thermal-quench" when r.detection.detected = None ->
        [ "thermal-quench went undetected" ]
      | _ -> []
    in
    ( fingerprint ~name:r.name ~detection:r.detection ~status:r.final_status
        ~floats:[ r.final_r; r.final_k; r.final_min_entropy ]
        ~ints:[ r.bits; r.windows; r.rct_alarms; r.apt_alarms; r.ais31_alarms; r.recoveries ]
        ~incidents:r.incidents,
      bad )

  (* Runner's live model claim: the fresh calibration rebuilt from the
     monitor's sliding variance curve, nan while it cannot be fitted. *)
  let live_entropy_claim ~f0 ~divisor (snap : M.Monitor.snapshot) =
    try
      let fit = Fit.fit ~f0 snap.points in
      let extract = Te.of_fit fit in
      Ptrng_model.Design.entropy_at ~extract ~divisor
    with Invalid_argument _ | Failure _ -> nan

  let traced ~seed tr k =
    let s = setup_entry ~seed entries.(k) in
    let e = s.entry in
    let pos = ref 0 in
    while !pos < e.periods do
      let len = min Runner.chunk (e.periods - !pos) in
      tr.span "osc.pair_fill" (fun () -> Pair.fill s.stream ~p1:s.p1 ~p2:s.p2 ~len);
      for i = 0 to len - 1 do
        FA.set s.jbuf i (FA.get s.p1 i -. FA.get s.p2 i)
      done;
      tr.span "monitor.feed_jitter" (fun () -> M.Monitor.feed_jitter_chunk s.mon s.jbuf ~len);
      let bits =
        tr.span "trng.sampler" (fun () ->
            let osc1_edges = Runner.edges_of s.p1 len in
            let osc2_edges = Runner.edges_of s.p2 len in
            Ptrng_trng.Sampler.sample ~osc1_edges ~osc2_edges ~divisor:e.divisor)
      in
      tr.span "monitor.feed_bits" (fun () -> M.Monitor.feed_bits s.mon bits);
      pos := !pos + len;
      let snap = tr.span "monitor.snapshot" (fun () -> M.Monitor.snapshot s.mon) in
      let live_entropy =
        tr.span "measure.live_refit" (fun () ->
            live_entropy_claim ~f0:s.cfg.f0 ~divisor:e.divisor snap)
      in
      tr.span "monitor.detection" (fun () -> M.Detection.observe s.det ~live_entropy snap)
    done;
    let snap = tr.span "monitor.snapshot" (fun () -> M.Monitor.snapshot s.mon) in
    let detection = M.Detection.summary s.det in
    let frozen = M.Flight_recorder.incidents s.recorder in
    tr.count "scenario.incidents_frozen" (List.length frozen);
    tr.count "scenario.windows" snap.windows;
    tr.count "scenario.bits" snap.bits;
    fingerprint ~name:(Ptrng_device.Scenario.name e.scenario) ~detection
      ~status:snap.verdict.status ~floats:[ snap.r_judge; snap.k_est; snap.min_entropy ]
      ~ints:
        [ snap.bits; snap.windows; snap.rct_alarms; snap.apt_alarms; snap.ais31_alarms;
          snap.recoveries ]
      ~incidents:(List.map (M.Flight_recorder.incident_json s.recorder) frozen)
end

(* assessment: Assessment.evaluate on a seeded corpus of fair bits. *)
module Assess : WORKLOAD = struct
  let n_bits = 1 lsl 17

  type input = Bitstream.t

  let item = "bit"
  let ops = 1
  let items _ = n_bits

  let setup ~seed =
    let rng = Rng.create ~seed:(Int64.of_int seed) () in
    Bitstream.of_bools (Array.init n_bits (fun _ -> Rng.bool rng))

  let add_summary b = function
    | None -> add_str b "none"
    | Some (s : Report.summary) ->
      List.iter
        (fun (r : Report.test_result) ->
          add_str b r.name; add_float b r.statistic; add_bool b r.pass; add_str b r.detail)
        s.results;
      add_int b s.passed; add_int b s.failed; add_bool b s.verdict

  let add_estimates b (es : Est.estimate list) =
    List.iter (fun (e : Est.estimate) -> add_str b e.name; add_float b e.p_max;
      add_float b e.min_entropy) es

  (* Everything Assessment.t carries except the verdict, which is a
     pure function of the fields compared here. *)
  let fingerprint ~bias ~serial ~ais31_a ~ais31_b ~nist ~sp90b ~sp90b_aggregate ~predictors
      ~predictor_aggregate ~rct ~apt =
    let b = Buffer.create 8192 in
    add_float b bias;
    add_float b serial;
    add_summary b ais31_a;
    add_summary b ais31_b;
    List.iter
      (fun (r : Sp80022.result) ->
        add_str b r.name; add_float b r.statistic; add_float b r.p_value; add_bool b r.pass)
      nist;
    add_estimates b sp90b;
    add_float b sp90b_aggregate;
    add_estimates b predictors;
    add_float b predictor_aggregate;
    add_int b rct;
    add_int b apt;
    Buffer.contents b

  let run ~seed:_ stream _ =
    let (t : Assessment.t) = Assessment.evaluate stream in
    let out_of_range =
      List.filter
        (fun (e : Est.estimate) -> not (e.min_entropy >= 0.0 && e.min_entropy <= 1.0))
        (t.sp90b @ t.predictors)
    in
    ( fingerprint ~bias:t.bias ~serial:t.serial_correlation ~ais31_a:t.ais31_a
        ~ais31_b:t.ais31_b ~nist:t.nist ~sp90b:t.sp90b ~sp90b_aggregate:t.sp90b_aggregate
        ~predictors:t.predictors ~predictor_aggregate:t.predictor_aggregate
        ~rct:t.health_rct_alarms ~apt:t.health_apt_alarms,
      List.map (fun (e : Est.estimate) -> e.name ^ " estimate outside [0, 1]") out_of_range )

  let min_of es = List.fold_left (fun acc (e : Est.estimate) -> Float.min acc e.min_entropy) 1.0 es

  (* Assessment.evaluate, call by call.  Estimators.run_all runs its
     four estimators as pool tasks; here they run one after another so
     each gets its own span. *)
  let traced ~seed tr _ =
    let stream = setup ~seed in
    let n = Bitstream.length stream in
    let bits = Bitstream.to_bools stream in
    let ais31_a =
      tr.span "ais31.procedure_a" (fun () ->
          if n >= Ptrng_ais31.Procedure_a.block_bits then
            Some (Ptrng_ais31.Procedure_a.run stream)
          else None)
    in
    let ais31_b = tr.span "ais31.procedure_b" (fun () -> Some (Ptrng_ais31.Procedure_b.run stream)) in
    let nist = tr.span "nist22.sp80022" (fun () -> Sp80022.run_all bits) in
    let sp90b =
      [
        tr.span "sp90b.estimators.mcv" (fun () -> Est.most_common_value bits);
        tr.span "sp90b.estimators.collision" (fun () -> Est.collision bits);
        tr.span "sp90b.estimators.markov" (fun () -> Est.markov bits);
        tr.span "sp90b.estimators.t_tuple" (fun () -> Est.t_tuple bits);
      ]
    in
    let predictors =
      if n >= 4096 then
        [
          tr.span "sp90b.predictors.multi_mcw" (fun () -> Pred.multi_mcw bits);
          tr.span "sp90b.predictors.lag" (fun () -> Pred.lag bits);
          tr.span "sp90b.predictors.multi_mmc" (fun () -> Pred.multi_mmc bits);
          tr.span "sp90b.predictors.lz78y" (fun () -> Pred.lz78y bits);
        ]
      else []
    in
    let h = 0.997 (* Assessment.evaluate's default claimed entropy *) in
    let rct, apt =
      tr.span "sp90b.health" (fun () ->
          Health.scan ~cutoff_rct:(Health.rct_cutoff ~h ()) ~cutoff_apt:(Health.apt_cutoff ~h ())
            ~window:1024 bits)
    in
    let serial =
      try Bitstream.serial_correlation stream with Invalid_argument _ -> 0.0
    in
    fingerprint ~bias:(Bitstream.bias stream) ~serial ~ais31_a ~ais31_b ~nist ~sp90b
      ~sp90b_aggregate:(min_of sp90b) ~predictors ~predictor_aggregate:(min_of predictors) ~rct
      ~apt
end

(* Operations of [A] then of [B] as one cycle, for workloads counting
   the same item. *)
module Concat (A : WORKLOAD) (B : WORKLOAD) : WORKLOAD = struct
  type input = A.input * B.input

  let item = if A.item = B.item then A.item else invalid_arg "Concat: items differ"
  let ops = A.ops + B.ops
  let items k = if k < A.ops then A.items k else B.items (k - A.ops)
  let setup ~seed = (A.setup ~seed, B.setup ~seed)
  let run ~seed (a, b) k = if k < A.ops then A.run ~seed a k else B.run ~seed b (k - A.ops)

  let traced ~seed tr k =
    if k < A.ops then A.traced ~seed tr k else B.traced ~seed tr (k - A.ops)
end

(* pipeline: one fig7 characterization, then the two scenario entries. *)
module Pipeline = Concat (Fig7) (Scenario)

(* ---------- metric catalogue ---------- *)

(* Every per-layer span, with the item it is normalized by.  A layer a
   workload never calls reads 0: the traced run timed no call into it. *)
let layer_catalogue =
  [
    ("osc.pair_fill", "period");
    ("measure.jitter_acc", "period");
    ("measure.counter_acc", "period");
    ("measure.curve_fit", "period");
    ("measure.live_refit", "period");
    ("monitor.feed_jitter", "period");
    ("trng.sampler", "period");
    ("monitor.feed_bits", "period");
    ("monitor.snapshot", "period");
    ("monitor.detection", "period");
    ("sp90b.estimators.mcv", "bit");
    ("sp90b.estimators.collision", "bit");
    ("sp90b.estimators.markov", "bit");
    ("sp90b.estimators.t_tuple", "bit");
    ("sp90b.predictors.multi_mcw", "bit");
    ("sp90b.predictors.lag", "bit");
    ("sp90b.predictors.multi_mmc", "bit");
    ("sp90b.predictors.lz78y", "bit");
    ("ais31.procedure_a", "bit");
    ("ais31.procedure_b", "bit");
    ("nist22.sp80022", "bit");
    ("sp90b.health", "bit");
  ]

let count_catalogue = [ "scenario.incidents_frozen"; "scenario.windows"; "scenario.bits" ]

(* ---------- run loop ---------- *)

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let timed f =
  let t0 = Clock.now () in
  let r = f () in
  (r, Clock.now () -. t0)

type tally = { mutable attempted : int; mutable failed : int }

(* One checked operation: it fails when an invariant is violated or its
   fingerprint differs from the reference. *)
let check tally ~what ~reference (fp, bad) =
  tally.attempted <- tally.attempted + 1;
  let bad = if fp = reference then bad else (what ^ ": output differs from the reference") :: bad in
  if bad <> [] then begin
    tally.failed <- tally.failed + 1;
    List.iter (fun m -> Printf.eprintf "perfbench: check failed: %s\n%!" m) bad
  end

let metric name value unit = (name, Json.Obj [ ("value", Json.Float value); ("unit", Json.String unit) ])

(* Set-up is repeated before every operation, so its median spans the
   whole run as the operation times do.  A fixed count rather than a time
   budget keeps the heap's history independent of the host's speed. *)
let setups_per_op = 3

let run_workload (module W : WORKLOAD) ~seed ~seconds ~trace =
  Pool.set_default (Some domains);
  let tally = { attempted = 0; failed = 0 } in
  let references = Array.make W.ops None in
  let setup_times = ref [] in
  let setup () =
    let rec go i =
      let x, dt = timed (fun () -> W.setup ~seed) in
      setup_times := dt :: !setup_times;
      if i < setups_per_op then go (i + 1) else x
    in
    go 1
  in
  (* Operation [k] through the library, checked against its 1-domain
     reference. *)
  let untraced input k =
    Gc.full_major ();
    let (fp, bad), dt = timed (fun () -> W.run ~seed input k) in
    check tally ~what:"2-domain run" ~reference:(Option.get references.(k)) (fp, bad);
    dt
  in
  (* Determinism check and warm-up first: one cycle on one domain, whose
     outputs are the references every two-domain run must equal.
     Gc.allocated_bytes counts the calling domain only, so the
     allocation figure is taken here, where every pool task runs on the
     caller.  It is timed inside the run but not counted as throughput. *)
  let t_start = Clock.now () in
  let cycle_items = List.init W.ops W.items |> List.fold_left ( + ) 0 in
  let alloc =
    let input = setup () in
    Pool.set_default (Some 1);
    let total = ref 0.0 in
    for k = 0 to W.ops - 1 do
      Gc.full_major ();
      let a0 = Clock.allocated_bytes () in
      let one_domain = W.run ~seed input k in
      total := !total +. (Clock.allocated_bytes () -. a0);
      references.(k) <- Some (fst one_domain);
      (* Its own invariants; the byte comparison comes with each later run. *)
      check tally ~what:"1-domain run" ~reference:(fst one_domain) one_domain
    done;
    Pool.set_default (Some domains);
    !total
  in
  (* The heap's high-water mark so far: one cycle on one domain, so it
     does not depend on how the host schedules a second domain. *)
  let peak_heap_words = (Gc.quick_stat ()).top_heap_words in
  let tracer, layers, counts = make_tracer () in
  let layer_sum () = List.fold_left (fun acc l -> acc +. l.ns) 0.0 !layers in
  let times = Array.make W.ops [] and overheads = ref [] and overhead_shares = ref [] in
  let unaccounted = ref [] in
  let traced_items = ref 0 and traced_ops = ref 0 in
  let k = ref 0 in
  (* Whole cycles only, so each of a workload's operations is sampled
     equally often: at least one, then more while a cycle as long as the
     previous one would still end within [seconds] of the start. *)
  let cycle_start = ref (Clock.now ()) in
  let cycle_s = ref (!cycle_start -. t_start) in
  while times.(0) = [] || !k <> 0 || Clock.now () -. t_start +. !cycle_s <= seconds do
    let input = setup () in
    let dt = untraced input !k in
    times.(!k) <- dt :: times.(!k);
    if trace then begin
      Gc.full_major ();
      let before = layer_sum () in
      let fp, traced_dt = timed (fun () -> W.traced ~seed tracer !k) in
      let spans = (layer_sum () -. before) /. 1e9 in
      overheads := (traced_dt -. dt) :: !overheads;
      overhead_shares := ((traced_dt -. dt) /. dt) :: !overhead_shares;
      unaccounted := ((dt -. spans) /. dt) :: !unaccounted;
      traced_items := !traced_items + W.items !k;
      incr traced_ops;
      check tally ~what:"traced replica" ~reference:(Option.get references.(!k)) (fp, [])
    end;
    k := (!k + 1) mod W.ops;
    if !k = 0 then begin
      let now = Clock.now () in
      cycle_s := now -. !cycle_start;
      cycle_start := now
    end
  done;
  (* A cycle's items over the sum of each operation's median time. *)
  let rate =
    float_of_int cycle_items /. Array.fold_left (fun acc ts -> acc +. median ts) 0.0 times
  in
  let metrics =
    if not trace then
      [
        metric "setup_s" (median !setup_times) "s";
        metric "throughput_per_s" rate "1/s";
        metric "alloc_bytes_per_item" (alloc /. float_of_int cycle_items) "B";
        metric "peak_heap_mb"
          (float_of_int (peak_heap_words * (Sys.word_size / 8)) /. 1e6)
          "MB";
      ]
    else begin
      let per_item x = x /. float_of_int !traced_items in
      let layer_metrics =
        List.concat_map
          (fun (name, per) ->
            let ns, bytes =
              match List.find_opt (fun l -> l.lname = name) !layers with
              | Some l -> (per_item l.ns, per_item l.bytes)
              | None -> (0.0, 0.0)
            in
            [ metric (name ^ ".ns_per_" ^ per) ns "ns";
              metric (name ^ ".bytes_per_" ^ per) bytes "B" ])
          layer_catalogue
      in
      (* Counts are per cycle: one run of each of the workload's operations. *)
      let cycles = float_of_int !traced_ops /. float_of_int W.ops in
      let count_metrics =
        List.map
          (fun name ->
            let c = List.assoc_opt name !counts |> Option.value ~default:0 in
            metric name (float_of_int c /. cycles) "count")
          count_catalogue
      in
      layer_metrics @ count_metrics
      @ [
          metric "trace.overhead_s" (median !overheads) "s";
          metric "trace.overhead_share" (100.0 *. median !overhead_shares) "%";
          metric "trace.unaccounted_share" (100.0 *. median !unaccounted) "%";
          metric "run.domains" (float_of_int domains) "count";
        ]
    end
  in
  Printf.eprintf
    "perfbench: %d untraced cycles (%.4g %s/s), %d traced ops, %d domains, \
     %d set-ups (median %.3g s), %d/%d checks failed\n%!"
    (List.length times.(0)) rate W.item !traced_ops domains (List.length !setup_times)
    (median !setup_times) tally.failed tally.attempted;
  Array.iteri
    (fun k ts ->
      let a = Array.of_list ts in
      Array.sort Float.compare a;
      Printf.eprintf "perfbench: operation %d: %s s\n%!" k
        (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") a))))
    times;
  Json.Obj
    [
      ("correct", Json.Bool (tally.failed = 0));
      ("attempted", Json.Int tally.attempted);
      ("failed", Json.Int tally.failed);
      ("metrics", Json.Obj metrics);
    ]

let usage () =
  prerr_endline
    "usage: perfbench.exe --workload pipeline|assessment --seed N --seconds S --trace 0|1";
  exit 2

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      parse ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get k = match List.assoc_opt k opts with Some v -> v | None -> usage () in
  let int_of k = match int_of_string_opt (get k) with Some i -> i | None -> usage () in
  let workload : (module WORKLOAD) =
    match get "workload" with
    | "pipeline" -> (module Pipeline)
    | "assessment" -> (module Assess)
    | w ->
      Printf.eprintf "perfbench: unknown workload %S\n" w;
      exit 2
  in
  let seconds = int_of "seconds" and seed = int_of "seed" in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  if seconds < 1 then usage ();
  let result = run_workload workload ~seed ~seconds:(float_of_int seconds) ~trace in
  print_endline (Json.to_string result)
