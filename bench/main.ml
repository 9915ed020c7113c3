(* Benchmark & reproduction harness.

     dune exec bench/main.exe              (default sizes, ~2 min)
     dune exec bench/main.exe -- --quick   (CI-sized)
     dune exec bench/main.exe -- --full    (high-precision Fig. 7)
     dune exec bench/main.exe -- --smoke   (seconds; for dune runtest)
     dune exec bench/main.exe -- --no-perf (skip Bechamel timings)
     dune exec bench/main.exe -- --out F   (write the JSON report to F)
     dune exec bench/main.exe -- --perfetto-out F  (Perfetto trace)
     dune exec bench/main.exe -- --sha REV (stamp the history record)
     dune exec bench/main.exe -- --history F       (history JSONL path)
     dune exec bench/main.exe -- --history-table   (print trend, no run)
     dune exec bench/main.exe -- --lint-summary S  (stamp history with S)

   One section per experiment of EXPERIMENTS.md (the paper's Fig. 7 and
   the numeric results of Sections III-E/IV-B, plus the three
   ablations), followed by Bechamel micro-benchmarks of the
   computational kernels.

   Every run also writes a machine-readable report (BENCH_1.json by
   default): per-section wall time and allocation from the telemetry
   span tree, key numeric results (fitted a/b, sigma_th, growth
   exponents), per-section throughput, kernel timings and the full
   metrics snapshot — and appends one ptrng-bench-history/1 record to
   the history file (bench/history.jsonl by default).
   docs/OBSERVABILITY.md describes the report format, docs/PROFILING.md
   the trace and history tooling; the @bench-smoke alias checks none of
   it rots. *)

module Tm = Ptrng_telemetry
module History = Bench_history.History

let smoke = Array.exists (( = ) "--smoke") Sys.argv
let quick = Array.exists (( = ) "--quick") Sys.argv
let full = Array.exists (( = ) "--full") Sys.argv
let no_perf = Array.exists (( = ) "--no-perf") Sys.argv || smoke
let history_table = Array.exists (( = ) "--history-table") Sys.argv

let flag_value name default =
  let v = ref default in
  Array.iteri
    (fun i a -> if a = name && i + 1 < Array.length Sys.argv then v := Sys.argv.(i + 1))
    Sys.argv;
  !v

let out_path = flag_value "--out" "BENCH_1.json"
let history_path = flag_value "--history" "bench/history.jsonl"
let sha = flag_value "--sha" "unknown"

(* --lint-summary "ptrng-lint: ..." stamps the history record with the
   lint state of the tree that was benched (CI passes the @lint
   summary line through).  When the flag is absent, the lint section
   below fills it from its own in-process analyzer run, so every
   history record carries the finding counts alongside the analyzer
   wall time. *)
let lint_summary =
  Atomic.make (match flag_value "--lint-summary" "" with "" -> None | s -> Some s)

let perfetto_out =
  match flag_value "--perfetto-out" "" with "" -> None | path -> Some path

(* --domains N overrides PTRNG_DOMAINS / the recommended count for
   every parallel section (results are bit-identical either way). *)
let cli_domains =
  match flag_value "--domains" "" with
  | "" -> None
  | v -> (
    match int_of_string_opt v with
    | Some d -> Some d
    | None ->
      Printf.eprintf "bench: --domains expects an integer\n";
      exit 2)

let () = Ptrng_exec.Pool.set_default cli_domains

let pool_domains = Ptrng_exec.Pool.available ()

let mode =
  if smoke then "smoke" else if quick then "quick" else if full then "full" else "default"

let paper_f0 = Ptrng_osc.Pair.paper_f0
let paper_phase = Ptrng_osc.Pair.paper_relative

let log2_periods =
  if smoke then 14 else if quick then 18 else if full then 22 else 20

let banner title =
  let line = String.make 78 '=' in
  Printf.printf "\n%s\n== %s\n%s\n%!" line title line

(* Section results, newest first: (section, key-value list). *)
let section_results : (string * (string * Tm.Json.t) list) list Atomic.t =
  Atomic.make []

let run_section name f =
  Tm.Span.with_ ~name (fun () ->
      let kv = f () in
      let rec push () =
        let old = Atomic.get section_results in
        if not (Atomic.compare_and_set section_results old ((name, kv) :: old))
        then push ()
      in
      push ())

(* ------------------------------------------------------------------ *)
(* Parallel sections: wall time at 1 domain vs the pool, same seeds    *)
(* ------------------------------------------------------------------ *)

let timed f =
  let t = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t)

(* Run [work d] at 1 domain and at [pool_domains] (same seed inside
   [work], so the outputs must be bit-identical) and report the usual
   speedup key-values, plus each run's periods/s for a section that
   simulates [periods] periods per run.  [equal] checks the
   bit-identity claim.  Such a section also reports the bytes per
   period of the 1-domain run: Gc.allocated_bytes counts the calling
   domain only, and at 1 domain every task runs there, so unlike the
   section's own alloc_bytes this figure does not depend on which
   domain ran what. *)
let dual_run ?periods ~equal work =
  let a0 = Tm.Clock.allocated_bytes () in
  let r1, wall_1 = timed (fun () -> work 1) in
  let alloc_1 = Tm.Clock.allocated_bytes () -. a0 in
  let rp, wall_par = timed (fun () -> work pool_domains) in
  let deterministic = equal r1 rp in
  let speedup = wall_1 /. Float.max 1e-9 wall_par in
  Printf.printf
    "1 domain: %.3f s   %d domains: %.3f s   speedup %.2fx   bit-identical: %s\n"
    wall_1 pool_domains wall_par speedup
    (if deterministic then "yes" else "NO");
  let rates =
    match periods with
    | None -> []
    | Some p ->
      let rate wall = Tm.Json.num (float_of_int p /. Float.max 1e-9 wall) in
      [
        ("periods_per_s_1", rate wall_1);
        ("periods_per_s_par", rate wall_par);
        ("bytes_per_period_1", Tm.Json.num (alloc_1 /. float_of_int p));
      ]
  in
  ( rp,
    [
      ("domains", Tm.Json.Int pool_domains);
      ("wall_1_s", Tm.Json.num wall_1);
      ("wall_par_s", Tm.Json.num wall_par);
      ("speedup", Tm.Json.num speedup);
      ("deterministic", Tm.Json.Bool deterministic);
    ]
    @ rates )

(* ------------------------------------------------------------------ *)
(* FIG7 + RN + THERMAL: the central experiment                        *)
(* ------------------------------------------------------------------ *)

(* Every float of a characterization as its IEEE bit pattern, so the
   1-domain and pool runs can be compared exactly (nan fields included). *)
let analysis_bits (a : Ptrng_model.Multilevel.analysis) =
  let b = Buffer.create 4096 in
  let add x = Buffer.add_int64_le b (Int64.bits_of_float x) in
  let curve =
    Array.iter (fun (p : Ptrng_measure.Variance_curve.point) ->
        Buffer.add_string b (string_of_int p.n);
        List.iter add [ p.sigma2; p.scaled; p.stderr ])
  in
  let fit (f : Ptrng_measure.Fit.t) =
    List.iter add [ f.a; f.b; f.c; f.d; f.a_se; f.b_se; f.c_se; f.d_se; f.chi2 ]
  in
  curve a.ideal_curve;
  curve a.counter_curve;
  fit a.fit;
  Option.iter fit a.counter_fit;
  add (fst a.growth_exponent);
  add (snd a.growth_exponent);
  Buffer.contents b

(* Run [f] with every pool section at [d] domains, then restore the
   command-line default. *)
let at_domains d f =
  Ptrng_exec.Pool.set_default (Some d);
  Fun.protect ~finally:(fun () -> Ptrng_exec.Pool.set_default cli_domains) f

let section_fig7 () =
  banner
    (Printf.sprintf "FIG7 — f0^2 sigma_N^2 vs N (2^%d simulated periods)" log2_periods);
  let n_periods = 1 lsl log2_periods in
  let analysis, dual =
    dual_run ~periods:n_periods
      ~equal:(fun a b -> analysis_bits a = analysis_bits b)
      (fun d ->
        at_domains d (fun () ->
            let rng = Ptrng_prng.Rng.create ~seed:2014L () in
            Ptrng_model.Multilevel.characterize ~n_periods ~rng
              (Ptrng_osc.Pair.paper_pair ())))
  in
  let counter_at n =
    Array.fold_left
      (fun acc (p : Ptrng_measure.Variance_curve.point) ->
        if p.n = n then Some p.scaled else acc)
      None analysis.counter_curve
  in
  Printf.printf "%8s  %13s  %13s  %13s  %7s\n" "N" "ideal" "counter" "paper-fit" "ratio";
  Array.iter
    (fun (p : Ptrng_measure.Variance_curve.point) ->
      let fn = float_of_int p.n in
      (* The fit the paper reports: 5.36e-6 N (1 + N/5354). *)
      let paper_fit = 5.36e-6 *. fn *. (1.0 +. (fn /. 5354.0)) in
      let counter =
        match counter_at p.n with
        | Some v -> Printf.sprintf "%13.4e" v
        | None -> "            -"
      in
      Printf.printf "%8d  %13.4e  %s  %13.4e  %7.3f\n" p.n p.scaled counter paper_fit
        (p.scaled /. paper_fit))
    analysis.ideal_curve;
  let slope, se = analysis.growth_exponent in
  Printf.printf "growth exponent %.3f +- %.3f (independence = 1, flicker = 2)\n" slope se;
  (analysis, dual)

(* [periods] counts both runs of the dual run, so the section's
   periods_per_sec and bytes per period cover all the work it timed. *)
let fig7_kv ((analysis : Ptrng_model.Multilevel.analysis), dual) =
  let fit = analysis.fit in
  let slope, slope_se = analysis.growth_exponent in
  dual
  @ [
    ("periods", Tm.Json.Int (2 * analysis.n_periods));
    ("fit_a", Tm.Json.num fit.a);
    ("fit_a_se", Tm.Json.num fit.a_se);
    ("fit_b", Tm.Json.num fit.b);
    ("fit_b_se", Tm.Json.num fit.b_se);
    ("growth_exponent", Tm.Json.num slope);
    ("growth_exponent_se", Tm.Json.num slope_se);
  ]

let section_extraction (analysis : Ptrng_model.Multilevel.analysis) =
  banner "RN & THERMAL — Sections III-E and IV-B";
  let e = analysis.extract in
  let fit = analysis.fit in
  Printf.printf "%-36s %14s %14s\n" "quantity" "measured" "paper";
  Printf.printf "%-36s %14.4e %14.4e\n" "fit a (f0^2 sigma^2_Nth / N)" fit.a 5.36e-6;
  Printf.printf "%-36s %14.2f %14.2f\n" "b_th" e.phase.Ptrng_noise.Psd_model.b_th 276.04;
  Printf.printf "%-36s %14.4e %14.4e\n" "b_fl" e.phase.Ptrng_noise.Psd_model.b_fl
    paper_phase.Ptrng_noise.Psd_model.b_fl;
  Printf.printf "%-36s %14.3f %14.3f\n" "thermal sigma [ps]" (e.sigma_thermal *. 1e12)
    15.89;
  Printf.printf "%-36s %14.3f %14.3f\n" "sigma/T0 [permil]" (e.sigma_relative *. 1e3) 1.6;
  Printf.printf "%-36s %14.0f %14.0f\n" "k (r_N = k/(k+N))" e.k_ratio 5354.0;
  Printf.printf "%-36s %14d %14d\n" "N at r_N > 95%"
    (Ptrng_measure.Thermal_extract.independence_threshold e ~confidence:0.95)
    281;
  (match analysis.counter_fit with
  | None ->
    Printf.printf
      "(counter-only extraction: too few saturated points at this trace length;\n\
      \ run with --full)\n"
  | Some cf ->
    let phase = Ptrng_measure.Fit.phase_of cf in
    let bth_se, bfl_se = Ptrng_measure.Fit.phase_se_of cf in
    Printf.printf
      "counter-only extraction (saturated region, floor-aware fit):\n\
      \  b_fl = %.3e +- %.1e (flicker recoverable by real hardware)\n\
      \  b_th = %.0f +- %.0f (unresolved below the quantization floor:\n\
      \  see ONLINE for the averaging budget)\n"
      phase.Ptrng_noise.Psd_model.b_fl bfl_se phase.Ptrng_noise.Psd_model.b_th bth_se);
  [
    ("b_th", Tm.Json.num e.phase.Ptrng_noise.Psd_model.b_th);
    ("b_fl", Tm.Json.num e.phase.Ptrng_noise.Psd_model.b_fl);
    ("sigma_th_ps", Tm.Json.num (e.sigma_thermal *. 1e12));
    ("sigma_relative_permil", Tm.Json.num (e.sigma_relative *. 1e3));
    ("k_ratio", Tm.Json.num e.k_ratio);
    ( "n_threshold_95",
      Tm.Json.Int (Ptrng_measure.Thermal_extract.independence_threshold e ~confidence:0.95)
    );
  ]

let section_model () =
  banner "MODEL — eq. 11 closed form vs numeric eq. 9 integral";
  Printf.printf "%8s  %13s  %13s  %9s\n" "N" "closed" "numeric" "rel.err";
  let worst = ref 0.0 in
  List.iter
    (fun n ->
      let c = Ptrng_model.Spectral.sigma2_n paper_phase ~f0:paper_f0 ~n in
      let v = Ptrng_model.Spectral.sigma2_n_numeric paper_phase ~f0:paper_f0 ~n in
      let err = Float.abs ((v -. c) /. c) in
      if err > !worst then worst := err;
      Printf.printf "%8d  %13.6e  %13.6e  %9.2e\n" n c v err)
    [ 1; 10; 281; 5354; 100000 ];
  [ ("worst_rel_err", Tm.Json.num !worst) ]

let section_entropy () =
  banner "ENTROPY — Ablation A: overestimation by the independence assumption";
  let extract = Ptrng_measure.Thermal_extract.of_phase ~f0:paper_f0 paper_phase in
  let ns = [| 100; 281; 5354; 100000 |] in
  let max_over = ref 0.0 in
  List.iter
    (fun k ->
      let rows =
        Ptrng_model.Compare.overestimation_table ~extract ~sampling_periods:k ~ns
      in
      Printf.printf "K = %d periods/sample:\n" k;
      Array.iter
        (fun (r : Ptrng_model.Compare.row) ->
          if r.overestimate > !max_over then max_over := r.overestimate;
          Printf.printf
            "  N=%6d  sigma_naive=%7.2f ps  H_naive=%8.5f  H_true=%8.5f  (+%.5f)\n"
            r.n (r.sigma_naive *. 1e12) r.entropy_naive r.entropy_true r.overestimate)
        rows)
    [ 300; 1000 ];
  [ ("max_overestimate_bits", Tm.Json.num !max_over) ]

let section_scaling () =
  banner "SCALING — Ablation B: independence threshold across CMOS nodes";
  Printf.printf "%-16s %9s %12s %12s %8s\n" "node" "f0[MHz]" "b_th" "b_fl" "N(95%)";
  let kv = ref [] in
  List.iter
    (fun node ->
      let ring = Ptrng_device.Technology.ring node in
      let p = ring.Ptrng_device.Technology.phase in
      let threshold =
        Ptrng_device.Technology.independence_threshold_n p
          ~f0:ring.Ptrng_device.Technology.f0 ~confidence:0.95
      in
      kv :=
        ( "n95_" ^ String.map (fun c -> if c = ' ' then '_' else c)
                     node.Ptrng_device.Technology.name,
          Tm.Json.Int threshold )
        :: !kv;
      Printf.printf "%-16s %9.1f %12.4e %12.4e %8d\n" node.Ptrng_device.Technology.name
        (ring.Ptrng_device.Technology.f0 /. 1e6)
        p.Ptrng_noise.Psd_model.b_th p.Ptrng_noise.Psd_model.b_fl threshold)
    Ptrng_device.Technology.presets;
  List.rev !kv

let section_online () =
  banner "ONLINE — Ablation C: embedded thermal-noise test";
  let ns = [| 4096; 16384; 65536; 262144 |] in
  List.iter
    (fun precision ->
      let w =
        Ptrng_measure.Online_test.windows_for_precision ~phase:paper_phase ~floor:0.33
          ~ns ~f0:paper_f0 ~rel_precision:precision
      in
      let cycles = Array.fold_left (fun acc n -> acc + (n * w)) 0 ns in
      Printf.printf "precision %3.0f%%: %7d windows/point = %6.2f s at 103 MHz\n"
        (precision *. 100.0) w
        (float_of_int cycles /. paper_f0))
    [ 0.5; 0.25; 0.1 ];
  let strong =
    Ptrng_osc.Pair.of_relative ~f0:paper_f0
      ~relative:
        { paper_phase with Ptrng_noise.Psd_model.b_th = paper_phase.b_th *. 100.0 }
      ()
  in
  let reference = paper_phase.Ptrng_noise.Psd_model.b_th *. 100.0 in
  let cfg =
    if smoke then
      { Ptrng_measure.Online_test.ns = [| 256; 1024; 4096; 16384 |];
        windows = 16; min_fraction = 0.4 }
    else
      { Ptrng_measure.Online_test.ns = [| 512; 2048; 8192; 32768 |];
        windows = (if quick then 32 else 64);
        min_fraction = 0.4 }
  in
  let kv = ref [] in
  let evaluate key label seed pair =
    let n = Ptrng_measure.Online_test.required_cycles cfg + 8192 in
    let p1, p2 = Ptrng_osc.Pair.simulate (Ptrng_prng.Rng.create ~seed ()) pair ~n in
    let edges1 = Ptrng_osc.Oscillator.edges_of_periods p1 in
    let edges2 = Ptrng_osc.Oscillator.edges_of_periods p2 in
    let v =
      Ptrng_measure.Online_test.run cfg ~f0:paper_f0 ~reference_b_th:reference ~edges1
        ~edges2
    in
    kv := (key ^ "_pass", Tm.Json.Bool v.pass) :: (key ^ "_b_th", Tm.Json.num v.b_th_est)
          :: !kv;
    Printf.printf "%-34s b_th=%9.0f  %s\n" label v.b_th_est
      (if v.pass then "PASS" else "ALARM")
  in
  evaluate "healthy" "100x-thermal, healthy" 100L strong;
  evaluate "injection" "100x-thermal, 95% injection lock" 101L
    (Ptrng_trng.Attack.frequency_injection ~lock_strength:0.95 strong);
  evaluate "quench" "100x-thermal, x0.05 quench" 102L
    (Ptrng_trng.Attack.thermal_quench ~factor:0.05 strong);
  List.rev !kv

let section_allan () =
  banner "ALLAN — time-domain view: Allan deviation of the relative frequency";
  (* The paper's N-domain crossover k = 5354 periods is, in the Allan
     domain, a crossover time tau_c = k / f0 ~ 52 us where the white-FM
     slope -1/2 meets the flicker floor 2 ln2 h-1. *)
  let model = Ptrng_noise.Psd_model.frac_freq_of_phase ~f0:paper_f0 paper_phase in
  let tau_c =
    Ptrng_stats.Allan.crossover_tau ~h0:model.Ptrng_noise.Psd_model.h0
      ~hm1:model.Ptrng_noise.Psd_model.hm1
  in
  Printf.printf "predicted crossover tau_c = %.1f us (= k/f0 = 5354 periods)\n\n"
    (tau_c *. 1e6);
  let pair = Ptrng_osc.Pair.paper_pair () in
  let n = 1 lsl (if smoke then 14 else if quick then 18 else 20) in
  let p1, p2 = Ptrng_osc.Pair.simulate (Ptrng_prng.Rng.create ~seed:55L ()) pair ~n in
  let t0 = 1.0 /. paper_f0 in
  (* Relative fractional frequency per period. *)
  let y = Array.init n (fun k -> (p1.(k) -. p2.(k)) /. t0) in
  let y = Ptrng_signal.Filter.remove_mean y in
  let ms =
    if smoke then [| 16; 64; 256; 1024 |]
    else [| 16; 64; 256; 1024; 4096; 16384; 65536 |]
  in
  Printf.printf "%10s  %13s  %13s  %13s\n" "tau [us]" "adev meas" "adev model" "ratio";
  Array.iter
    (fun (pt : Ptrng_stats.Allan.point) ->
      let model_avar =
        Ptrng_stats.Allan.avar_white_fm ~h0:model.Ptrng_noise.Psd_model.h0 ~tau:pt.tau
        +. Ptrng_stats.Allan.avar_flicker_fm ~hm1:model.Ptrng_noise.Psd_model.hm1
      in
      Printf.printf "%10.2f  %13.4e  %13.4e  %13.3f\n" (pt.tau *. 1e6)
        (sqrt pt.avar) (sqrt model_avar)
        (sqrt (pt.avar /. model_avar)))
    (Ptrng_stats.Allan.sweep ~tau0:t0 ~ms y);
  [ ("periods", Tm.Json.Int n); ("crossover_tau_us", Tm.Json.num (tau_c *. 1e6)) ]

let section_restart () =
  banner "RESTART — Ablation D: oscillator restarts restore Bienayme linearity";
  let cfg = Ptrng_osc.Oscillator.config ~f0:paper_f0 ~phase:paper_phase () in
  let restarts = if smoke then 200 else if quick then 800 else 2000 in
  let n = 4096 in
  let runs =
    Ptrng_osc.Restart.ensemble (Ptrng_prng.Rng.create ~seed:77L ()) cfg ~restarts ~n
  in
  let sigma_th2 = paper_phase.Ptrng_noise.Psd_model.b_th /. (paper_f0 ** 3.0) in
  Printf.printf "%8s  %13s  %13s  %13s\n" "N" "restart var" "thermal N*s2"
    "free-running";
  let curve = Ptrng_osc.Restart.variance_curve runs ~ns:[| 16; 64; 256; 1024; 4096 |] in
  Array.iter
    (fun (n, v) ->
      Printf.printf "%8d  %13.4e  %13.4e  %13.4e\n" n v
        (float_of_int n *. sigma_th2)
        (Ptrng_model.Spectral.sigma2_n paper_phase ~f0:paper_f0 ~n /. 2.0))
    curve;
  let exponent = Ptrng_osc.Restart.growth_exponent curve in
  Printf.printf "restart growth exponent: %.3f (1 = independence restored)\n" exponent;
  [
    ("periods", Tm.Json.Int (restarts * n));
    ("growth_exponent", Tm.Json.num exponent);
  ]

let section_noise_synth () =
  banner
    (Printf.sprintf "NOISE-SYNTH — bulk 1/f block synthesis (%d domains vs 1)"
       pool_domains);
  let n = 1 lsl (if smoke then 13 else if quick then 16 else 17) in
  let count = if smoke then 8 else 32 in
  let hm1 = 1e-3 in
  let psd f = hm1 /. f in
  let blocks, kv =
    dual_run ~equal:( = ) (fun d ->
        let rng = Ptrng_prng.Rng.create ~seed:404L () in
        Ptrng_noise.Spectral_synth.generate_many ~domains:d rng ~psd ~fs:paper_f0
          ~count n)
  in
  (* Sanity: the synthesized blocks carry the requested flicker level. *)
  let mean_var =
    Array.fold_left
      (fun acc b -> acc +. Ptrng_stats.Descriptive.variance b)
      0.0 blocks
    /. float_of_int count
  in
  Printf.printf "%d blocks x %d samples, mean block variance %.3e\n" count n mean_var;
  (("samples", Tm.Json.Int (count * n)) :: kv)
  @ [ ("mean_block_variance", Tm.Json.num mean_var) ]

let section_variance_curve () =
  banner
    (Printf.sprintf "VARIANCE-CURVE — dense sigma_N^2 grid (%d domains vs 1)"
       pool_domains);
  let len = 1 lsl (if smoke then 15 else if quick then 19 else 20) in
  (* A calibrated thermal-only jitter trace, synthesized once through
     the pool (the generation itself is domain-independent). *)
  let sigma = sqrt (paper_phase.Ptrng_noise.Psd_model.b_th /. (paper_f0 ** 3.0)) in
  let rng = Ptrng_prng.Rng.create ~seed:505L () in
  let jitter =
    Ptrng_exec.Pool.parallel_init_floats ~rng
      ~fill:(fun child ~offset ~len out ->
        let g = Ptrng_prng.Gaussian.create child in
        for k = offset to offset + len - 1 do
          out.(k) <- sigma *. Ptrng_prng.Gaussian.draw g
        done)
      len
  in
  let ns =
    Ptrng_measure.Variance_curve.log_grid ~n_min:4 ~n_max:(len / 16)
      ~per_decade:(if smoke then 6 else 10)
  in
  let curve, kv =
    dual_run
      ~equal:(fun (a : Ptrng_measure.Variance_curve.point array) b -> a = b)
      (fun d ->
        Ptrng_measure.Variance_curve.of_jitter ~domains:d ~f0:paper_f0 ~ns jitter)
  in
  let fit = Ptrng_measure.Fit.fit ~f0:paper_f0 curve in
  Printf.printf
    "%d grid points over %d samples; fitted a = %.4e (thermal-only truth %.4e)\n"
    (Array.length curve) len fit.a
    (paper_phase.Ptrng_noise.Psd_model.b_th *. 2.0 /. paper_f0);
  (("periods", Tm.Json.Int len) :: ("grid_points", Tm.Json.Int (Array.length curve))
   :: kv)
  @ [ ("fit_a", Tm.Json.num fit.a); ("fit_b", Tm.Json.num fit.b) ]

(* ------------------------------------------------------------------ *)
(* MONITOR: streaming observatory feed cost                            *)
(* ------------------------------------------------------------------ *)

let section_monitor () =
  banner "MONITOR — streaming health-observatory feed cost";
  let module M = Ptrng_monitor in
  let jitter_n = if smoke then 1 lsl 16 else if quick then 1 lsl 19 else 1 lsl 21 in
  let bits_n = if smoke then 1 lsl 13 else 1 lsl 16 in
  let mon = M.Monitor.create (M.Monitor.default_config ~f0:paper_f0) in
  let rng = Ptrng_prng.Rng.create ~seed:2014L () in
  (* Uniform streams: the feed cost is data-independent, and a fair
     coin keeps every health test quiet, so the section doubles as a
     no-false-alarm check. *)
  let jit =
    Array.init jitter_n (fun _ -> (Ptrng_prng.Rng.float rng -. 0.5) *. 1e-11)
  in
  let bits = Array.init bits_n (fun _ -> Ptrng_prng.Rng.bool rng) in
  let timed_alloc f =
    let w0 = Gc.minor_words () in
    let t0 = Tm.Clock.now () in
    f ();
    (Tm.Clock.now () -. t0, Gc.minor_words () -. w0)
  in
  let jt, jw = timed_alloc (fun () -> M.Monitor.feed_jitter_array mon jit) in
  (* The streaming entry point on a second monitor: same samples pushed
     through a reused floatarray chunk — the words/sample column is the
     zero-allocation check for the live-feed hot path. *)
  let mon2 = M.Monitor.create (M.Monitor.default_config ~f0:paper_f0) in
  let chunk = 8192 in
  let buf = Float.Array.create chunk in
  let ct, cw =
    timed_alloc (fun () ->
        let pos = ref 0 in
        while !pos < jitter_n do
          let len = min chunk (jitter_n - !pos) in
          for i = 0 to len - 1 do
            Float.Array.unsafe_set buf i (Array.unsafe_get jit (!pos + i))
          done;
          M.Monitor.feed_jitter_chunk mon2 buf ~len;
          pos := !pos + len
        done)
  in
  let bt, bw = timed_alloc (fun () -> M.Monitor.feed_bits mon bits) in
  let s = M.Monitor.snapshot mon in
  let per value n = value /. float_of_int n in
  Printf.printf "feed_jitter  %8.1f ns/sample  %6.2f words/sample  (%d samples)\n"
    (per jt jitter_n *. 1e9) (per jw jitter_n) jitter_n;
  Printf.printf "feed_chunk   %8.1f ns/sample  %6.2f words/sample  (%d samples)\n"
    (per ct jitter_n *. 1e9) (per cw jitter_n) jitter_n;
  Printf.printf "feed_bit     %8.1f ns/bit     %6.2f words/bit     (%d bits)\n"
    (per bt bits_n *. 1e9) (per bw bits_n) bits_n;
  Printf.printf "verdict %s after %d windows (r_%d = %.4f, min-entropy %.3f)\n"
    (M.Verdict.status_string s.verdict.M.Verdict.status)
    s.windows s.judge_n s.r_judge s.min_entropy;
  [
    ("jitter_samples", Tm.Json.Int jitter_n);
    ("ns_per_jitter_sample", Tm.Json.num (per jt jitter_n *. 1e9));
    ("words_per_jitter_sample", Tm.Json.num (per jw jitter_n));
    ("ns_per_chunk_sample", Tm.Json.num (per ct jitter_n *. 1e9));
    ("words_per_chunk_sample", Tm.Json.num (per cw jitter_n));
    ("bits", Tm.Json.Int bits_n);
    ("ns_per_bit", Tm.Json.num (per bt bits_n *. 1e9));
    ("words_per_bit", Tm.Json.num (per bw bits_n));
    ("verdict", Tm.Json.String (M.Verdict.status_string s.verdict.M.Verdict.status));
  ]

(* ------------------------------------------------------------------ *)
(* SCENARIO: adversarial schedules, detection latency, recovery        *)
(* ------------------------------------------------------------------ *)

let section_scenario () =
  banner "SCENARIO — adversarial schedules: detection latency and recovery";
  let module S = Ptrng_scenario in
  let module Scen = Ptrng_device.Scenario in
  let module D = Ptrng_monitor.Detection in
  let entries =
    if smoke then
      (* Quarter-length transients with the same physics as the stock
         thermal-quench and lock-burst entries.  The post-fault tail is
         too short for the de-escalation streak, so smoke scores
         detection only. *)
      let onset = 384_000 and duration = 256_000 in
      let short scenario expected =
        {
          S.Registry.scenario;
          periods = 1_048_576;
          divisor = S.Registry.default_divisor;
          expected;
        }
      in
      [
        short
          (Scen.make ~name:"quench"
             ~description:"transient thermal quench to 2% of calibration"
             ~faults:[ Scen.Thermal_quench { onset; duration; factor = 0.02 } ]
             ())
          "independence ratio detects the quench";
        short
          (Scen.make ~name:"lock"
             ~description:"transient 95% inter-ring coupling"
             ~faults:[ Scen.Coupling { onset; duration; strength = 0.95 } ]
             ())
          "RCT catches the frozen output";
      ]
    else List.filter_map S.Registry.find [ "thermal-quench"; "lock-burst" ]
  in
  let per_run = List.fold_left (fun acc e -> acc + e.S.Registry.periods) 0 entries in
  let report rs = Tm.Json.to_string (S.Runner.report_json ~seed:2014 rs) in
  let results, dual =
    dual_run ~periods:per_run
      ~equal:(fun a b -> report a = report b)
      (fun d ->
        at_domains d (fun () -> List.map (fun e -> S.Runner.run ~seed:2014 e) entries))
  in
  Printf.printf "%-16s %-14s %8s %8s %6s %10s\n" "scenario" "detector"
    "lat[win]" "false" "recov" "final";
  List.iter
    (fun (r : S.Runner.result) ->
      let d = r.detection in
      let detector, latency =
        match d.D.detected with
        | Some a -> (a.D.detector, string_of_int a.D.latency_windows)
        | None -> ("-", "-")
      in
      Printf.printf "%-16s %-14s %8s %8d %6s %10s\n" r.name detector latency
        d.D.false_alarms
        (if d.D.recovered <> None then "yes" else "no")
        (Ptrng_monitor.Verdict.status_string r.final_status))
    results;
  let count p = List.length (List.filter p results) in
  let detected = count (fun r -> r.S.Runner.detection.D.detected <> None) in
  let recovered = count (fun r -> r.S.Runner.detection.D.recovered <> None) in
  let false_alarms =
    List.fold_left
      (fun acc (r : S.Runner.result) -> acc + r.detection.D.false_alarms)
      0 results
  in
  let max_latency =
    List.fold_left
      (fun acc (r : S.Runner.result) ->
        match r.detection.D.detected with
        | Some a -> max acc a.D.latency_windows
        | None -> acc)
      0 results
  in
  (* Both runs of the dual run, as in fig7. *)
  dual
  @ [
    ("periods", Tm.Json.Int (2 * per_run));
    ("scenarios", Tm.Json.Int (List.length results));
    ("detected", Tm.Json.Int detected);
    ("recovered", Tm.Json.Int recovered);
    ("false_alarms", Tm.Json.Int false_alarms);
    ("max_latency_windows", Tm.Json.Int max_latency);
  ]

(* ------------------------------------------------------------------ *)
(* POSTMORTEM: flight-recorder capture overhead                        *)
(* ------------------------------------------------------------------ *)

(* The recorder promises zero allocation per captured sample, so the
   figure of merit is a DELTA: the same calm feed through two identical
   monitors, one with a flight recorder attached, one bare.  Everything
   the monitor itself allocates (estimator growth, window closes)
   cancels, leaving the recorder's marginal words/sample — which the
   check_bench gate pins near zero in both directions.  A calm feed
   must also freeze no incidents. *)
let section_postmortem () =
  banner "POSTMORTEM — flight-recorder capture overhead (delta vs bare monitor)";
  let module M = Ptrng_monitor in
  let jitter_n = if smoke then 1 lsl 16 else if quick then 1 lsl 19 else 1 lsl 21 in
  let bits_n = if smoke then 1 lsl 13 else 1 lsl 16 in
  let rng = Ptrng_prng.Rng.create ~seed:2014L () in
  let jit =
    Array.init jitter_n (fun _ -> (Ptrng_prng.Rng.float rng -. 0.5) *. 1e-11)
  in
  let bits = Array.init bits_n (fun _ -> Ptrng_prng.Rng.bool rng) in
  let chunk = 8192 in
  let buf = Float.Array.create chunk in
  let feed_jitter mon =
    let pos = ref 0 in
    while !pos < jitter_n do
      let len = min chunk (jitter_n - !pos) in
      for i = 0 to len - 1 do
        Float.Array.unsafe_set buf i (Array.unsafe_get jit (!pos + i))
      done;
      M.Monitor.feed_jitter_chunk mon buf ~len;
      pos := !pos + len
    done
  in
  let alloc f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let bare = M.Monitor.create (M.Monitor.default_config ~f0:paper_f0) in
  let wj_bare = alloc (fun () -> feed_jitter bare) in
  let wb_bare = alloc (fun () -> M.Monitor.feed_bits bare bits) in
  let recorded = M.Monitor.create (M.Monitor.default_config ~f0:paper_f0) in
  let recorder =
    M.Flight_recorder.create
      ~provenance:
        {
          M.Flight_recorder.kind = "bench";
          workload = "calm";
          seed = 2014;
          divisor = 1000;
          chunk;
          flicker_block = chunk;
        }
      ()
  in
  M.Monitor.attach_recorder recorded recorder;
  let wj_rec = alloc (fun () -> feed_jitter recorded) in
  let wb_rec = alloc (fun () -> M.Monitor.feed_bits recorded bits) in
  let per value n = value /. float_of_int n in
  let jitter_overhead = per (wj_rec -. wj_bare) jitter_n in
  let bit_overhead = per (wb_rec -. wb_bare) bits_n in
  let incidents = M.Flight_recorder.incident_count recorder in
  Printf.printf "capture overhead  %+6.3f words/sample  (%d jitter samples)\n"
    jitter_overhead jitter_n;
  Printf.printf "capture overhead  %+6.3f words/bit     (%d bits)\n"
    bit_overhead bits_n;
  Printf.printf "incidents frozen on the calm feed: %d\n" incidents;
  [
    ("jitter_samples", Tm.Json.Int jitter_n);
    ("bits", Tm.Json.Int bits_n);
    ("jitter_overhead_words_per_sample", Tm.Json.num jitter_overhead);
    ("bit_overhead_words_per_bit", Tm.Json.num bit_overhead);
    ("incidents", Tm.Json.Int incidents);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel kernel benchmarks                                          *)
(* ------------------------------------------------------------------ *)

let kernel_tests () =
  let open Bechamel in
  let rng = Ptrng_prng.Rng.create ~seed:1L () in
  let g = Ptrng_prng.Gaussian.create rng in
  let fft_n = 1 lsl 14 in
  let fft_re = Array.init fft_n (fun _ -> Ptrng_prng.Gaussian.draw g) in
  let white = Array.init (1 lsl 16) (fun _ -> Ptrng_prng.Gaussian.draw g) in
  let jitter = Array.map (fun v -> v *. 1e-12) white in
  let periods = Array.map (fun v -> 9.7e-9 +. (v *. 1e-12)) white in
  let edges1 = Ptrng_osc.Oscillator.edges_of_periods periods in
  let edges2 = Ptrng_osc.Oscillator.edges_of_periods periods in
  let block =
    let r = Ptrng_prng.Rng.create ~seed:5L () in
    Array.init 20000 (fun _ -> Ptrng_prng.Rng.bool r)
  in
  let curve_points =
    let ns = Ptrng_measure.Variance_curve.log2_grid ~n_min:4 ~n_max:8192 in
    Ptrng_measure.Variance_curve.of_jitter ~f0:paper_f0 ~ns jitter
  in
  [
    Test.make ~name:"gaussian ziggurat draw"
      (Staged.stage (fun () -> ignore (Ptrng_prng.Gaussian.draw g)));
    Test.make ~name:"fft 16k (fwd+inv)"
      (Staged.stage (fun () ->
           let re = Array.copy fft_re and im = Array.make fft_n 0.0 in
           Ptrng_signal.Fft.forward_pow2 ~re ~im;
           Ptrng_signal.Fft.inverse_pow2 ~re ~im));
    Test.make ~name:"flicker synth 64k"
      (Staged.stage (fun () ->
           let model = { Ptrng_noise.Psd_model.h0 = 0.0; hm1 = 1e-6; hm2 = 0.0 } in
           ignore
             (Ptrng_noise.Spectral_synth.generate_frac_freq rng ~model ~fs:1.0 (1 lsl 16))));
    Test.make ~name:"oscillator periods 64k"
      (Staged.stage (fun () ->
           let cfg =
             Ptrng_osc.Oscillator.config ~f0:paper_f0
               ~phase:{ Ptrng_noise.Psd_model.b_th = 138.0; b_fl = 9.6e5 } ()
           in
           ignore (Ptrng_osc.Oscillator.periods rng cfg ~n:(1 lsl 16))));
    Test.make ~name:"allan overlapping m=64 on 64k"
      (Staged.stage (fun () ->
           ignore (Ptrng_stats.Allan.avar_overlapping ~tau0:9.7e-9 ~m:64 white)));
    Test.make ~name:"s_N realizations N=256 on 64k"
      (Staged.stage (fun () ->
           ignore (Ptrng_measure.S_process.realizations ~n:256 jitter)));
    Test.make ~name:"counter q_counts N=64 on 64k"
      (Staged.stage (fun () ->
           ignore (Ptrng_measure.Counter.q_counts ~edges1 ~edges2 ~n:64)));
    Test.make ~name:"variance-curve fit"
      (Staged.stage (fun () -> ignore (Ptrng_measure.Fit.fit ~f0:paper_f0 curve_points)));
    Test.make ~name:"entropy avg (one evaluation)"
      (Staged.stage (fun () -> ignore (Ptrng_model.Entropy.avg_entropy ~phase_std:1.0)));
    Test.make ~name:"AIS31 T1-T4 on one block"
      (Staged.stage (fun () ->
           ignore (Ptrng_ais31.Procedure_a.t1_monobit block);
           ignore (Ptrng_ais31.Procedure_a.t2_poker block);
           ignore (Ptrng_ais31.Procedure_a.t3_runs block);
           ignore (Ptrng_ais31.Procedure_a.t4_long_run block)));
  ]

let section_perf () =
  banner "PERF — Bechamel kernel timings";
  let open Bechamel in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000
      ~quota:(Time.second (if quick then 0.25 else 0.5))
      ~kde:(Some 1000) ()
  in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"kernels" (kernel_tests ()))
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare a b) rows in
  Printf.printf "%-44s %16s\n" "kernel" "time per run";
  List.filter_map
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some (est :: _) ->
        let txt =
          if est > 1e6 then Printf.sprintf "%10.3f ms" (est /. 1e6)
          else if est > 1e3 then Printf.sprintf "%10.3f us" (est /. 1e3)
          else Printf.sprintf "%10.1f ns" est
        in
        Printf.printf "%-44s %16s\n" name txt;
        Some (name, Tm.Json.num est)
      | _ ->
        Printf.printf "%-44s %16s\n" name "n/a";
        None)
    rows

(* ------------------------------------------------------------------ *)
(* LINT: the static analyzer as a measured workload                    *)
(* ------------------------------------------------------------------ *)

(* Runs ptrng-lint in process over the built .cmt artifacts, so the
   analyzer's own wall time is a tracked bench section and the finding
   counts land in the report (and, via the summary line, in the
   history record).  Roots cover every launch style: "." for an
   artifact tree, ".." for the dune action cwd (_build/default/bench),
   _build/default for `dune exec` from the repo root.  Without
   artifacts the section records skipped=true rather than failing:
   the bench must run on a bare checkout too. *)
let section_lint () =
  banner "LINT — static analyzer over the built artifacts";
  let module A = Ptrng_analysis in
  let scan_dirs = [ "lib"; "bin"; "bench" ] in
  let loader =
    List.fold_left
      (fun acc root ->
        match acc with
        | Some _ -> acc
        | None ->
          let l = A.Loader.load_dirs ~root scan_dirs in
          if l.A.Loader.units = [] then None else Some l)
      None
      [ "."; ".."; "_build/default" ]
  in
  match loader with
  | None ->
    Printf.printf "no .cmt/.cmti artifacts found — section skipped\n";
    [ ("skipped", Tm.Json.Bool true) ]
  | Some loader ->
    let baseline =
      List.fold_left
        (fun acc path ->
          match acc with
          | Some _ -> acc
          | None -> (
            if not (Sys.file_exists path) then None
            else match A.Baseline.load ~path with Ok b -> Some b | Error _ -> None))
        None
        [ "lint_baseline.json"; "../lint_baseline.json" ]
      |> Option.value ~default:A.Baseline.empty
    in
    let rules =
      match A.Rules.select "all" with Ok r -> r | Error _ -> []
    in
    let report, _all = A.Engine.lint ~rules ~baseline loader in
    let summary = A.Report.summary_line report in
    print_endline summary;
    if Atomic.get lint_summary = None then Atomic.set lint_summary (Some summary);
    [
      ("units", Tm.Json.Int report.A.Report.units);
      ("errors", Tm.Json.Int (A.Report.errors report));
      ("warnings", Tm.Json.Int (A.Report.warnings report));
      ("info", Tm.Json.Int (A.Report.infos report));
      ("baselined", Tm.Json.Int report.A.Report.suppressed);
      ("rules", Tm.Json.Int (List.length rules));
    ]

(* ------------------------------------------------------------------ *)
(* JSON report                                                         *)
(* ------------------------------------------------------------------ *)

let section_json (span : Tm.Span.t) =
  let kv =
    try List.assoc span.name (Atomic.get section_results)
    with Not_found -> []
  in
  let throughput =
    List.filter_map
      (fun (key, v) ->
        match (key, v) with
        | "periods", Tm.Json.Int periods when span.wall_s > 0.0 ->
          Some
            ("periods_per_sec", Tm.Json.num (float_of_int periods /. span.wall_s))
        | _ -> None)
      kv
  in
  Tm.Json.Obj
    ([
       ("name", Tm.Json.String span.name);
       ("wall_s", Tm.Json.num span.wall_s);
       ("alloc_bytes", Tm.Json.num span.alloc_bytes);
     ]
    @ (if throughput = [] then [] else [ ("throughput", Tm.Json.Obj throughput) ])
    @ [ ("results", Tm.Json.Obj kv) ]
    @
    match span.children with
    | [] -> []
    | children -> [ ("trace", Tm.Json.List (List.map Tm.Span.to_json children)) ])

let write_report ~kernels ~total_s =
  let sections = List.map section_json (Tm.Span.roots ()) in
  let snapshot = Tm.Sink.snapshot_json () in
  let metrics =
    match Tm.Json.member "metrics" snapshot with
    | Some m -> m
    | None -> Tm.Json.Obj []
  in
  let report =
    Tm.Json.Obj
      [
        ("schema", Tm.Json.String "ptrng-bench/2");
        ("mode", Tm.Json.String mode);
        ("sha", Tm.Json.String sha);
        ("domains", Tm.Json.Int pool_domains);
        ("log2_periods", Tm.Json.Int log2_periods);
        ("total_s", Tm.Json.num total_s);
        ("sections", Tm.Json.List sections);
        ("kernels", Tm.Json.Obj kernels);
        ("metrics", metrics);
      ]
  in
  (try
     let oc = open_out out_path in
     output_string oc (Tm.Json.to_string_pretty report);
     output_char oc '\n';
     close_out oc
   with Sys_error e ->
     Printf.eprintf "bench: cannot write report: %s\n" e;
     exit 1);
  Printf.printf "\nwrote %s\n" out_path;
  report

(* One history record per bench invocation, appended after the report
   is on disk.  Unwritable history is a warning, not a failed bench. *)
let append_history report =
  match
    History.record_of_report ~sha ~time_unix:(Unix.time ()) ?lint:(Atomic.get lint_summary)
      report
  with
  | Error e -> Printf.eprintf "bench: cannot summarize report for history: %s\n" e
  | Ok record -> (
    match History.append ~path:history_path record with
    | Ok () -> Printf.printf "appended history record to %s\n" history_path
    | Error e ->
      Printf.eprintf "bench: cannot append history %s: %s\n" history_path e)

let print_history_table () =
  match History.load ~path:history_path with
  | Error e ->
    Printf.eprintf "bench: cannot read history %s: %s\n" history_path e;
    exit 1
  | Ok records -> Format.printf "%a" History.pp_table records

let () =
  if history_table then begin
    print_history_table ();
    exit 0
  end;
  Tm.Registry.enable ();
  if perfetto_out <> None then Tm.Runtime_profile.start ();
  let t0 = Unix.gettimeofday () in
  let analysis = ref None in
  run_section "fig7" (fun () ->
      let a = section_fig7 () in
      analysis := Some (fst a);
      fig7_kv a);
  run_section "extraction" (fun () ->
      section_extraction (Option.get !analysis));
  run_section "model" section_model;
  run_section "entropy" section_entropy;
  run_section "scaling" section_scaling;
  run_section "online" section_online;
  run_section "restart" section_restart;
  run_section "allan" section_allan;
  run_section "noise_synth" section_noise_synth;
  run_section "variance_curve" section_variance_curve;
  run_section "monitor" section_monitor;
  run_section "scenario" section_scenario;
  run_section "postmortem" section_postmortem;
  run_section "lint" section_lint;
  let kernels = if no_perf then [] else Tm.Span.with_ ~name:"perf" section_perf in
  let total_s = Unix.gettimeofday () -. t0 in
  Printf.printf "\ntotal bench time: %.1f s\n" total_s;
  Tm.Runtime_profile.stop ();
  (match perfetto_out with
  | None -> ()
  | Some path -> (
    try
      Tm.Trace_export.write path;
      Printf.printf "wrote perfetto trace %s\n" path
    with Sys_error e -> Printf.eprintf "bench: cannot write trace: %s\n" e));
  let report = write_report ~kernels ~total_s in
  append_history report
