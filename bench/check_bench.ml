(* Gate for the bench harness and its perf trajectory.

     check_bench [REPORT] [--history FILE] [--baseline FILE]
                 [--max-regression PCT] [--max-alloc-regression PCT]
                 [--max-fig7-bytes-per-period B] [--warn-only]

   Always: parse REPORT (default BENCH_1.json) and assert the fields
   the perf-trajectory tooling relies on, so `dune runtest` fails
   loudly if the report ever stops being produced or loses its schema.

   --history FILE        also validate a bench-history JSONL file
                         (schema ptrng-bench-history/1, >= 1 record).
   --baseline FILE       also compare REPORT's section wall times
                         against FILE (a bench report or a history
                         record); exit 1 if any section regressed by
                         more than --max-regression PCT (default 25).
   --max-alloc-regression PCT
                         with --baseline: also compare per-section
                         alloc_bytes; exit 1 if any section allocates
                         more than PCT beyond the baseline.  Off by
                         default (allocation is deterministic, so no
                         noise tolerance is needed once enabled).
   --max-fig7-bytes-per-period B
                         absolute allocation budget for the hot path:
                         fig7.alloc_bytes divided by the simulated
                         period count must not exceed B bytes.  This
                         is the streaming-pipeline gate — it needs no
                         baseline file and cannot drift with one.
   --require-scenario    fail if the report lacks a scenario section.
                         Fresh bench runs must include one; committed
                         snapshots from before the scenario engine are
                         exempt.  A scenario section that IS present is
                         always validated, flag or not.
   --require-postmortem  fail if the report lacks a postmortem section
                         (same grandfathering rule).  A postmortem
                         section that IS present is always gated: the
                         flight recorder's capture overhead must stay
                         within 0.2 words per sample and per bit in
                         both directions, and a calm feed must freeze
                         zero incidents.
   --require-lint        fail if the report lacks a lint section (the
                         in-process ptrng-lint run) or records it as
                         skipped.  A lint section that IS present and
                         ran is always gated, flag or not: unbaselined
                         errors mean the analyzed tree is dirty.
   --warn-only           print regressions but exit 0 (soft gate for
                         noisy 1-core CI runners).

   See docs/OBSERVABILITY.md, docs/PROFILING.md and docs/STREAMING.md. *)

module Json = Ptrng_telemetry.Json
module History = Bench_history.History

let fail fmt = Printf.ksprintf (fun m -> prerr_endline ("check_bench: " ^ m); exit 1) fmt

let get path j key =
  match Json.member key j with
  | Some v -> v
  | None -> fail "missing field %s.%s" path key

let number path j key =
  match Json.to_float (get path j key) with
  | Some v -> v
  | None -> fail "field %s.%s is not numeric" path key

(* ---------------- argument parsing ---------------- *)

type opts = {
  report : string;
  history : string option;
  baseline : string option;
  max_regression_pct : float;
  max_alloc_regression_pct : float option;
  max_fig7_bytes_per_period : float option;
  require_scenario : bool;
  require_postmortem : bool;
  require_lint : bool;
  warn_only : bool;
}

let parse_args () =
  let opts =
    ref
      {
        report = "BENCH_1.json";
        history = None;
        baseline = None;
        max_regression_pct = 25.0;
        max_alloc_regression_pct = None;
        max_fig7_bytes_per_period = None;
        require_scenario = false;
        require_postmortem = false;
        require_lint = false;
        warn_only = false;
      }
  in
  let rec go = function
    | [] -> ()
    | "--history" :: path :: rest ->
      opts := { !opts with history = Some path };
      go rest
    | "--baseline" :: path :: rest ->
      opts := { !opts with baseline = Some path };
      go rest
    | "--max-regression" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some p when p >= 0.0 -> opts := { !opts with max_regression_pct = p }
      | _ -> fail "--max-regression expects a non-negative number, got %S" pct);
      go rest
    | "--max-alloc-regression" :: pct :: rest ->
      (match float_of_string_opt pct with
      | Some p when p >= 0.0 ->
        opts := { !opts with max_alloc_regression_pct = Some p }
      | _ ->
        fail "--max-alloc-regression expects a non-negative number, got %S" pct);
      go rest
    | "--max-fig7-bytes-per-period" :: bytes :: rest ->
      (match float_of_string_opt bytes with
      | Some b when b > 0.0 ->
        opts := { !opts with max_fig7_bytes_per_period = Some b }
      | _ ->
        fail "--max-fig7-bytes-per-period expects a positive number, got %S"
          bytes);
      go rest
    | "--require-scenario" :: rest ->
      opts := { !opts with require_scenario = true };
      go rest
    | "--require-postmortem" :: rest ->
      opts := { !opts with require_postmortem = true };
      go rest
    | "--require-lint" :: rest ->
      opts := { !opts with require_lint = true };
      go rest
    | "--warn-only" :: rest ->
      opts := { !opts with warn_only = true };
      go rest
    | ( "--history" | "--baseline" | "--max-regression"
      | "--max-alloc-regression" | "--max-fig7-bytes-per-period" )
      :: [] ->
      fail "missing argument for the last flag"
    | arg :: _ when String.length arg > 2 && String.sub arg 0 2 = "--" ->
      fail "unknown flag %s" arg
    | path :: rest ->
      opts := { !opts with report = path };
      go rest
  in
  go (List.tl (Array.to_list Sys.argv));
  !opts

let read_json path =
  let contents =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error e -> fail "cannot read %s: %s" path e
  in
  try Json.of_string contents with Failure e -> fail "%s does not parse: %s" path e

(* ---------------- report schema validation ---------------- *)

let validate_report path report =
  (match Json.member "schema" report with
  | Some (Json.String "ptrng-bench/2") -> ()
  | _ -> fail "bad or missing schema tag");
  ignore (number "report" report "total_s");
  let domains = number "report" report "domains" in
  if not (domains >= 1.0) then fail "domains must be >= 1";
  let sections =
    match get "report" report "sections" with
    | Json.List l -> l
    | _ -> fail "sections is not a list"
  in
  if sections = [] then fail "no sections recorded";
  let find_section name =
    match
      List.find_opt
        (fun s -> Json.member "name" s = Some (Json.String name))
        sections
    with
    | Some s -> s
    | None -> fail "section %s missing" name
  in
  List.iter
    (fun s ->
      let wall = number "section" s "wall_s" in
      if not (wall >= 0.0) then fail "negative section wall time")
    sections;
  (* Fig. 7 accumulation must report throughput and the fitted model. *)
  let fig7 = find_section "fig7" in
  let throughput = get "fig7" fig7 "throughput" in
  let pps = number "fig7.throughput" throughput "periods_per_sec" in
  if not (pps > 0.0) then fail "fig7 periods_per_sec not positive";
  let fig7_results = get "fig7" fig7 "results" in
  ignore (number "fig7.results" fig7_results "fit_a");
  ignore (number "fig7.results" fig7_results "fit_b");
  let extraction = get "extraction" (find_section "extraction") "results" in
  ignore (number "extraction.results" extraction "b_th");
  ignore (number "extraction.results" extraction "sigma_th_ps");
  (* Parallel sections must report the dual-run timing fields and prove
     the output did not depend on the domain count.  fig7 and scenario
     carry them from BENCH_6.json on; earlier snapshots lack them. *)
  let check_dual name results =
    let ctx = name ^ ".results" in
    if not (number ctx results "wall_1_s" >= 0.0) then
      fail "%s.wall_1_s negative" name;
    if not (number ctx results "wall_par_s" >= 0.0) then
      fail "%s.wall_par_s negative" name;
    if not (number ctx results "speedup" > 0.0) then
      fail "%s.speedup not positive" name;
    if not (number ctx results "domains" >= 1.0) then
      fail "%s.domains must be >= 1" name;
    match Json.member "deterministic" results with
    | Some (Json.Bool true) -> ()
    | Some (Json.Bool false) -> fail "%s output depends on the domain count" name
    | _ -> fail "%s.deterministic missing" name
  in
  List.iter
    (fun name -> check_dual name (get name (find_section name) "results"))
    [ "noise_synth"; "variance_curve" ];
  List.iter
    (fun name ->
      match
        List.find_opt
          (fun s -> Json.member "name" s = Some (Json.String name))
          sections
      with
      | None -> ()
      | Some s ->
        let results = get name s "results" in
        if Json.member "wall_1_s" results <> None then begin
          check_dual name results;
          List.iter
            (fun key ->
              if not (number (name ^ ".results") results key > 0.0) then
                fail "%s.%s not positive" name key)
            [ "periods_per_s_1"; "periods_per_s_par"; "bytes_per_period_1" ]
        end)
    [ "fig7"; "scenario" ];
  (* The telemetry snapshot must show the accumulation actually ran. *)
  let metrics = get "report" report "metrics" in
  let periods = number "metrics" metrics "ptrng_measure_periods_accumulated_total" in
  if not (periods > 0.0) then fail "ptrng_measure_periods_accumulated_total is zero";
  Printf.printf "check_bench: %s ok (%d sections, %.3e periods/s)\n" path
    (List.length sections) pps

(* ---------------- scenario section ---------------- *)

(* The scenario section runs fault schedules through the monitor and
   scores detection, so its results are the bench's robustness gate: a
   report that records fault scenarios with nothing detected, or with
   pre-onset false alarms, means the detection stack regressed.  All
   counts are deterministic (fixed seed), so the gate is exact. *)
let validate_scenario ~path ~required report =
  let sections =
    match get "report" report "sections" with
    | Json.List l -> l
    | _ -> fail "sections is not a list"
  in
  match
    List.find_opt
      (fun s -> Json.member "name" s = Some (Json.String "scenario"))
      sections
  with
  | None ->
    if required then fail "section scenario missing (--require-scenario)"
    else
      Printf.printf
        "check_bench: %s has no scenario section (pre-scenario snapshot)\n"
        path
  | Some s ->
    let results = get "scenario" s "results" in
    let ctx = "scenario.results" in
    let scenarios = number ctx results "scenarios" in
    if not (scenarios >= 1.0) then fail "scenario.scenarios must be >= 1";
    if not (number ctx results "periods" > 0.0) then
      fail "scenario.periods not positive";
    let detected = number ctx results "detected" in
    if not (detected >= 1.0) then
      fail "no scenario detected its fault — the detection stack regressed";
    if detected > scenarios then fail "scenario.detected exceeds scenarios";
    let recovered = number ctx results "recovered" in
    if recovered < 0.0 || recovered > detected then
      fail "scenario.recovered out of range";
    let false_alarms = number ctx results "false_alarms" in
    if false_alarms <> 0.0 then
      fail "scenario runs raised %.0f pre-onset false alarms" false_alarms;
    if not (number ctx results "max_latency_windows" >= 0.0) then
      fail "scenario.max_latency_windows negative";
    Printf.printf
      "check_bench: %s scenario ok (%.0f scenarios, %.0f detected, %.0f \
       recovered)\n"
      path scenarios detected recovered

(* ---------------- postmortem section ---------------- *)

(* The postmortem section measures the flight recorder's marginal
   capture cost as a delta against a bare monitor over the same calm
   feed.  The recorder's contract is zero allocation per sample, so
   the words/sample budget is a hair above zero — enough for GC noise,
   tight enough that a boxing regression on the capture hot path fails
   the build.  The bound is two-sided (Float.abs): a large negative
   delta means the measurement itself broke, which must not pass as
   "zero overhead".  A calm feed that freezes incidents means the
   trigger wiring regressed. *)
let postmortem_overhead_budget = 0.2

let validate_postmortem ~path ~required report =
  let sections =
    match get "report" report "sections" with
    | Json.List l -> l
    | _ -> fail "sections is not a list"
  in
  match
    List.find_opt
      (fun s -> Json.member "name" s = Some (Json.String "postmortem"))
      sections
  with
  | None ->
    if required then fail "section postmortem missing (--require-postmortem)"
    else
      Printf.printf
        "check_bench: %s has no postmortem section (pre-flight-recorder \
         snapshot)\n"
        path
  | Some s ->
    let results = get "postmortem" s "results" in
    let ctx = "postmortem.results" in
    if not (number ctx results "jitter_samples" >= 1.0) then
      fail "postmortem.jitter_samples must be >= 1";
    if not (number ctx results "bits" >= 1.0) then
      fail "postmortem.bits must be >= 1";
    let jitter_overhead = number ctx results "jitter_overhead_words_per_sample" in
    if Float.abs jitter_overhead > postmortem_overhead_budget then
      fail
        "flight-recorder capture costs %.3f words/jitter sample (budget \
         ±%.1f) — the zero-allocation capture path regressed"
        jitter_overhead postmortem_overhead_budget;
    let bit_overhead = number ctx results "bit_overhead_words_per_bit" in
    if Float.abs bit_overhead > postmortem_overhead_budget then
      fail
        "flight-recorder capture costs %.3f words/bit (budget ±%.1f) — the \
         zero-allocation capture path regressed"
        bit_overhead postmortem_overhead_budget;
    let incidents = number ctx results "incidents" in
    if incidents <> 0.0 then
      fail "calm bench feed froze %.0f incidents — the trigger wiring regressed"
        incidents;
    Printf.printf
      "check_bench: %s postmortem ok (%+.3f words/sample, %+.3f words/bit, 0 \
       incidents)\n"
      path jitter_overhead bit_overhead

(* ---------------- lint section ---------------- *)

(* The lint section is the static analyzer run as a measured workload:
   its counts prove the analyzed tree was clean when the bench ran.
   Unbaselined errors always fail — a report advertising a lint run
   with errors is worse than no lint section at all.  Reports from
   environments without .cmt artifacts record skipped=true; that
   passes unless --require-lint insists on a real run. *)
let validate_lint ~path ~required report =
  let sections =
    match get "report" report "sections" with
    | Json.List l -> l
    | _ -> fail "sections is not a list"
  in
  match
    List.find_opt
      (fun s -> Json.member "name" s = Some (Json.String "lint"))
      sections
  with
  | None ->
    if required then fail "section lint missing (--require-lint)"
    else
      Printf.printf "check_bench: %s has no lint section (pre-lint snapshot)\n"
        path
  | Some s ->
    let results = get "lint" s "results" in
    if Json.member "skipped" results = Some (Json.Bool true) then begin
      if required then
        fail "lint section ran without artifacts (--require-lint)"
      else
        Printf.printf "check_bench: %s lint section skipped (no artifacts)\n"
          path
    end
    else begin
      let ctx = "lint.results" in
      if not (number ctx results "units" >= 1.0) then
        fail "lint.units must be >= 1";
      if not (number ctx results "rules" >= 1.0) then
        fail "lint.rules must be >= 1";
      let errors = number ctx results "errors" in
      if errors <> 0.0 then
        fail "lint section records %.0f unbaselined error(s) — the tree is dirty"
          errors;
      if number ctx results "warnings" < 0.0 then fail "lint.warnings negative";
      if number ctx results "baselined" < 0.0 then fail "lint.baselined negative";
      Printf.printf
        "check_bench: %s lint ok (%.0f units, 0 errors, %.0f warnings, %.0f \
         baselined)\n"
        path (number ctx results "units")
        (number ctx results "warnings")
        (number ctx results "baselined")
    end

(* ---------------- hot-path allocation budget ---------------- *)

(* fig7 drives Multilevel.characterize over the whole simulated trace,
   so its alloc_bytes per simulated period is the figure of merit for
   the streaming pipeline: a budget of a few machine words per period
   proves the hot path reuses its buffers instead of materializing
   traces.  A report with a dual run records the figure of its 1-domain
   pass (fig7.results.bytes_per_period_1), where every task runs on the
   calling domain that Gc.allocated_bytes counts; that figure is gated.
   An older report is gated on the section's alloc_bytes over
   fig7.results.periods when it records that count, else over
   2^log2_periods at the report root. *)
let check_bytes_per_period ~path ~limit report =
  let sections =
    match get "report" report "sections" with
    | Json.List l -> l
    | _ -> fail "sections is not a list"
  in
  let fig7 =
    match
      List.find_opt
        (fun s -> Json.member "name" s = Some (Json.String "fig7"))
        sections
    with
    | Some s -> s
    | None -> fail "section fig7 missing"
  in
  let result key =
    Option.bind (Json.member "results" fig7) (fun r ->
        Option.bind (Json.member key r) Json.to_float)
  in
  let per_period, what =
    match result "bytes_per_period_1" with
    | Some b -> (b, "at 1 domain")
    | None ->
      let alloc = number "fig7" fig7 "alloc_bytes" in
      let periods =
        match result "periods" with
        | Some p when p > 0.0 -> p
        | _ -> (
          match Json.to_float (get "report" report "log2_periods") with
          | Some l when l >= 1.0 -> Float.of_int (1 lsl int_of_float l)
          | _ -> fail "cannot determine the fig7 period count")
      in
      (alloc /. periods, Printf.sprintf "over %.0f periods" periods)
  in
  if per_period > limit then
    fail
      "fig7 allocates %.1f bytes/period (%s), budget is %.1f — the hot \
       path is allocating again"
      per_period what limit
  else
    Printf.printf
      "check_bench: %s fig7 allocation %.1f bytes/period %s (budget %.1f)\n"
      path per_period what limit

(* ---------------- history validation ---------------- *)

let validate_history path =
  match History.load ~path with
  | Error e -> fail "history %s: %s" path e
  | Ok [] -> fail "history %s has no records" path
  | Ok records ->
    List.iteri
      (fun i r ->
        match History.validate_record r with
        | Ok () -> ()
        | Error e -> fail "history %s record %d: %s" path (i + 1) e)
      records;
    Printf.printf "check_bench: %s ok (%d history records)\n" path
      (List.length records)

(* ---------------- regression gate ---------------- *)

let check_alloc_baseline ~warn_only ~max_alloc_regression_pct ~baseline_path
    ~baseline ~report =
  match History.compare_alloc ~baseline ~current:report () with
  | Error e -> fail "cannot compare allocation against %s: %s" baseline_path e
  | Ok [] ->
    (* Old history records lack alloc_bytes; a silent pass would make
       the gate a no-op, so say the comparison was empty. *)
    Printf.printf
      "check_bench: no sections with alloc_bytes on both sides of %s\n"
      baseline_path
  | Ok compared ->
    List.iter
      (fun (c : History.alloc_comparison) ->
        Printf.printf "check_bench:   %-16s %11.0f B -> %11.0f B  (%+.1f%%)\n"
          c.History.section c.History.base_alloc_bytes c.History.alloc_bytes
          c.History.alloc_change_pct)
      compared;
    let regressed =
      History.alloc_regressions ~max_alloc_regression_pct compared
    in
    if regressed = [] then
      Printf.printf
        "check_bench: no allocation regression beyond %.0f%% against %s (%d \
         sections)\n"
        max_alloc_regression_pct baseline_path (List.length compared)
    else begin
      List.iter
        (fun (c : History.alloc_comparison) ->
          Printf.eprintf
            "check_bench: %s: section %s allocates %.1f%% more (%.0f B -> \
             %.0f B, tolerance %.0f%%)\n"
            (if warn_only then "warning" else "FAIL")
            c.History.section c.History.alloc_change_pct
            c.History.base_alloc_bytes c.History.alloc_bytes
            max_alloc_regression_pct)
        regressed;
      if not warn_only then exit 1
    end

let check_baseline ~warn_only ~max_regression_pct ~baseline_path ~baseline
    ~report =
  match History.compare_sections ~baseline ~current:report () with
  | Error e -> fail "cannot compare against %s: %s" baseline_path e
  | Ok [] -> fail "no comparable sections against %s" baseline_path
  | Ok compared ->
    List.iter
      (fun (c : History.comparison) ->
        Printf.printf "check_bench:   %-16s %9.3f s -> %9.3f s  (%+.1f%%)\n"
          c.History.section c.History.base_wall_s c.History.wall_s
          c.History.change_pct)
      compared;
    let regressed = History.regressions ~max_regression_pct compared in
    if regressed = [] then
      Printf.printf
        "check_bench: no regression beyond %.0f%% against %s (%d sections)\n"
        max_regression_pct baseline_path (List.length compared)
    else begin
      List.iter
        (fun (c : History.comparison) ->
          Printf.eprintf
            "check_bench: %s: section %s regressed %.1f%% (%.3f s -> %.3f s, \
             tolerance %.0f%%)\n"
            (if warn_only then "warning" else "FAIL")
            c.History.section c.History.change_pct c.History.base_wall_s
            c.History.wall_s max_regression_pct)
        regressed;
      if not warn_only then exit 1
    end

let () =
  let opts = parse_args () in
  let report = read_json opts.report in
  validate_report opts.report report;
  validate_scenario ~path:opts.report ~required:opts.require_scenario report;
  validate_postmortem ~path:opts.report ~required:opts.require_postmortem report;
  validate_lint ~path:opts.report ~required:opts.require_lint report;
  Option.iter
    (fun limit -> check_bytes_per_period ~path:opts.report ~limit report)
    opts.max_fig7_bytes_per_period;
  Option.iter validate_history opts.history;
  match opts.baseline with
  | None -> ()
  | Some baseline_path ->
    let baseline = read_json baseline_path in
    check_baseline ~warn_only:opts.warn_only
      ~max_regression_pct:opts.max_regression_pct ~baseline_path ~baseline
      ~report;
    Option.iter
      (fun max_alloc_regression_pct ->
        check_alloc_baseline ~warn_only:opts.warn_only
          ~max_alloc_regression_pct ~baseline_path ~baseline ~report)
      opts.max_alloc_regression_pct
