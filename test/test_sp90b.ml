open Ptrng_sp90b

let random_bits ?(seed = 0x90BL) n =
  let rng = Testkit.rng ~seed () in
  Array.init n (fun _ -> Ptrng_prng.Rng.bool rng)

let biased_bits ~p n =
  let rng = Testkit.rng ~seed:0xB1A5EDL () in
  Array.init n (fun _ -> Ptrng_prng.Distributions.bernoulli rng ~p)

(* A Markov chain that is balanced (50% ones) but strongly persistent:
   the adversarially relevant structure MCV cannot see. *)
let sticky_bits ~stay n =
  let rng = Testkit.rng ~seed:0x571CL () in
  let out = Array.make n false in
  for i = 1 to n - 1 do
    out.(i) <-
      (if Ptrng_prng.Rng.float rng < stay then out.(i - 1) else not out.(i - 1))
  done;
  out

let mcv_tests =
  [
    Testkit.case "near 1 bit for balanced bits" (fun () ->
        let e = Estimators.most_common_value (random_bits 100000) in
        Testkit.check_in_range "min-entropy" ~lo:0.95 ~hi:1.0 e.min_entropy);
    Testkit.case "matches the bias for a skewed source" (fun () ->
        let e = Estimators.most_common_value (biased_bits ~p:0.75 100000) in
        (* -log2(0.75) = 0.415; CI pulls it slightly lower. *)
        Testkit.check_in_range "min-entropy" ~lo:0.38 ~hi:0.42 e.min_entropy);
    Testkit.case "zero for a constant source" (fun () ->
        let e = Estimators.most_common_value (Array.make 1000 true) in
        Testkit.check_abs ~tol:1e-9 "min-entropy" 0.0 e.min_entropy);
    Testkit.case "rejects short input" (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Estimators.most_common_value: need >= 100 bits")
          (fun () -> ignore (Estimators.most_common_value (Array.make 10 true))));
  ]

let collision_tests =
  [
    Testkit.case "near 1 bit for balanced iid bits" (fun () ->
        (* Near p = 1/2 the inversion p = 1/2 + sqrt(1/4 - pq) turns an
           O(eps) confidence margin on the mean into an O(sqrt eps)
           margin on p — the binary collision estimator is known to be
           conservative for full-entropy sources. *)
        let e = Estimators.collision (random_bits 100000) in
        Testkit.check_in_range "min-entropy" ~lo:0.8 ~hi:1.0 e.min_entropy);
    Testkit.case "detects bias" (fun () ->
        let e = Estimators.collision (biased_bits ~p:0.7 100000) in
        (* p_u ~ 0.7 -> H ~ 0.51. *)
        Testkit.check_in_range "min-entropy" ~lo:0.42 ~hi:0.58 e.min_entropy);
    Testkit.case "estimate is conservative (p_max upper bound)" (fun () ->
        let e = Estimators.collision (biased_bits ~p:0.7 200000) in
        Testkit.check_true "p_max >= true p" (e.p_max >= 0.69));
  ]

let markov_tests =
  [
    Testkit.case "near 1 bit for iid bits" (fun () ->
        let e = Estimators.markov (random_bits 100000) in
        Testkit.check_in_range "min-entropy" ~lo:0.9 ~hi:1.0 e.min_entropy);
    Testkit.case "catches balanced-but-sticky dependence MCV misses" (fun () ->
        let bits = sticky_bits ~stay:0.9 200000 in
        let mcv = Estimators.most_common_value bits in
        let markov = Estimators.markov bits in
        (* MCV sees a balanced source; Markov sees P(stay) = 0.9. *)
        Testkit.check_true "MCV fooled" (mcv.min_entropy > 0.9);
        Testkit.check_in_range "markov honest" ~lo:0.1 ~hi:0.2 markov.min_entropy);
    Testkit.case "zero for deterministic alternation" (fun () ->
        let bits = Array.init 10000 (fun i -> i land 1 = 0) in
        let e = Estimators.markov bits in
        Testkit.check_in_range "min-entropy" ~lo:0.0 ~hi:0.02 e.min_entropy);
  ]

let t_tuple_tests =
  [
    Testkit.case "near 1 bit for iid bits" (fun () ->
        let e = Estimators.t_tuple (random_bits 100000) in
        Testkit.check_in_range "min-entropy" ~lo:0.85 ~hi:1.0 e.min_entropy);
    Testkit.case "crushes a short periodic pattern" (fun () ->
        (* Period-4 pattern: every t-tuple is one of 4 rotations, so the
           estimate converges to -(1/t) log2(1/4) = 2/t = 0.125 at the
           default max_t = 16. *)
        let bits = Array.init 50000 (fun i -> i mod 4 < 2) in
        let e = Estimators.t_tuple bits in
        Testkit.check_in_range "min-entropy" ~lo:0.05 ~hi:0.15 e.min_entropy;
        let deeper = Estimators.t_tuple ~max_t:32 bits in
        Testkit.check_true "longer tuples tighten the bound"
          (deeper.min_entropy < e.min_entropy));
    Testkit.case "detects bias at least as hard as MCV" (fun () ->
        let bits = biased_bits ~p:0.8 100000 in
        let t = Estimators.t_tuple bits in
        let mcv = Estimators.most_common_value bits in
        Testkit.check_true "t-tuple <= MCV + noise"
          (t.min_entropy <= mcv.min_entropy +. 0.02));
  ]

let predictor_tests =
  [
    Testkit.case "iid bits score high (modulo the conservative local bound)" (fun () ->
        (* For ideal binary data the longest-streak (P_local) bound of
           the 90B prediction estimators dominates the global rate and
           caps the assessment around 0.6-0.8 bit — a known, deliberate
           conservatism of the standard, reproduced here. *)
        let bits = random_bits 60000 in
        let estimates, aggregate = Predictors.run_all bits in
        Alcotest.(check int) "four" 4 (List.length estimates);
        Testkit.check_in_range "aggregate" ~lo:0.55 ~hi:1.0 aggregate;
        (* The global rates themselves are near 1/2 for every predictor. *)
        List.iter
          (fun (e : Estimators.estimate) ->
            Testkit.check_true (e.name ^ " p_max sane") (e.p_max < 0.75))
          estimates);
    Testkit.case "lag predictor nails a periodic source" (fun () ->
        let bits = Array.init 20000 (fun i -> i mod 7 < 3) in
        let e = Predictors.lag bits in
        Testkit.check_in_range "near zero" ~lo:0.0 ~hi:0.01
          e.Estimators.min_entropy);
    Testkit.case "multi-mmc nails a Markov source" (fun () ->
        let bits = sticky_bits ~stay:0.95 100000 in
        let e = Predictors.multi_mmc bits in
        (* Guess rate ~ 0.95 -> H ~ 0.074. *)
        Testkit.check_in_range "low entropy" ~lo:0.03 ~hi:0.12
          e.Estimators.min_entropy);
    Testkit.case "multi-mcw tracks a slowly drifting bias" (fun () ->
        (* Bias flips every 5000 samples: window predictors keep up. *)
        let rng = Testkit.rng ~seed:0xD21F7L () in
        let bits =
          Array.init 80000 (fun i ->
              let p = if i / 5000 land 1 = 0 then 0.8 else 0.2 in
              Ptrng_prng.Distributions.bernoulli rng ~p)
        in
        let e = Predictors.multi_mcw bits in
        (* Guessing the locally-common value succeeds ~80%. *)
        Testkit.check_in_range "H near -log2(0.8)" ~lo:0.2 ~hi:0.4
          e.Estimators.min_entropy);
    Testkit.case "lz78y compresses template-structured data" (fun () ->
        let bits = Array.init 40000 (fun i -> (i * i) mod 11 < 5) in
        let e = Predictors.lz78y bits in
        Testkit.check_true "well below 1" (e.Estimators.min_entropy < 0.7));
    Testkit.case "local bound responds to the longest streak" (fun () ->
        let loose = Predictors.local_bound ~n:10000 ~longest_run:13 in
        let tight = Predictors.local_bound ~n:10000 ~longest_run:40 in
        Testkit.check_true "longer streak -> higher p" (tight > loose);
        Testkit.check_in_range "iid-ish streak" ~lo:0.4 ~hi:0.7 loose);
    Testkit.case "prediction beats frequency on balanced-but-guessable data" (fun () ->
        (* The 90B rationale: alternating bits are perfectly balanced
           (MCV says 1 bit) but perfectly predictable. *)
        let bits = Array.init 20000 (fun i -> i land 1 = 0) in
        let mcv = Estimators.most_common_value bits in
        let lag = Predictors.lag bits in
        Testkit.check_true "MCV fooled" (mcv.Estimators.min_entropy > 0.95);
        Testkit.check_true "predictor not fooled"
          (lag.Estimators.min_entropy < 0.01));
  ]

let health_tests =
  [
    Testkit.case "rct cutoff formula" (fun () ->
        Alcotest.(check int) "h=1" 31 (Health.rct_cutoff ~h:1.0 ());
        Alcotest.(check int) "h=0.5" 61 (Health.rct_cutoff ~h:0.5 ());
        Alcotest.(check int) "alpha 2^-20" 21
          (Health.rct_cutoff ~alpha_exp:20 ~h:1.0 ()));
    Testkit.case "apt cutoff is sane for full entropy" (fun () ->
        let c = Health.apt_cutoff ~h:1.0 () in
        (* Mean 512, std 16; 2^-30 needs ~ mean + 5.7 sigma ~ 603. *)
        Testkit.check_in_range "cutoff" ~lo:590.0 ~hi:625.0 (float_of_int c);
        let c20 = Health.apt_cutoff ~alpha_exp:20 ~h:1.0 () in
        Testkit.check_true "looser alpha, smaller cutoff" (c20 < c));
    Testkit.case "healthy stream raises no alarms" (fun () ->
        let bits = random_bits 200000 in
        let rct, apt =
          Health.scan
            ~cutoff_rct:(Health.rct_cutoff ~h:1.0 ())
            ~cutoff_apt:(Health.apt_cutoff ~h:1.0 ())
            ~window:1024 bits
        in
        Alcotest.(check int) "rct" 0 rct;
        Alcotest.(check int) "apt" 0 apt);
    Testkit.case "rct fires on a stuck source" (fun () ->
        let bits = Array.make 200 true in
        let rct = Health.rct_create ~cutoff:31 in
        let alarm = ref false in
        Array.iter (fun b -> if Health.rct_feed rct b then alarm := true) bits;
        Testkit.check_true "alarm" !alarm);
    Testkit.case "apt fires on a heavily biased source" (fun () ->
        let rng = Testkit.rng () in
        let bits =
          Array.init 20480 (fun _ -> Ptrng_prng.Distributions.bernoulli rng ~p:0.75)
        in
        let _, apt =
          Health.scan ~cutoff_rct:1000
            ~cutoff_apt:(Health.apt_cutoff ~h:1.0 ())
            ~window:1024 bits
        in
        Testkit.check_true "alarms" (apt >= 1));
    Testkit.case "APT cannot see a thermal quench" (fun () ->
        (* The gap the paper's thermal test closes: quenching 95% of the
           thermal noise leaves the output marginally balanced, so the
           proportion test stays silent (the repetition test fires only
           sporadically, on flicker-induced beat stalls — it neither
           reliably detects the attack nor quantifies the entropy
           loss). *)
        let pair =
          Ptrng_trng.Attack.thermal_quench ~factor:0.05 (Ptrng_osc.Pair.paper_pair ())
        in
        let cfg = Ptrng_trng.Ero_trng.config ~divisor:2000 pair in
        let stream =
          Ptrng_trng.Ero_trng.generate (Testkit.rng ~seed:13L ()) cfg ~bits:10240
        in
        let bits = Ptrng_trng.Bitstream.to_bools stream in
        let rct, apt =
          Health.scan
            ~cutoff_rct:(Health.rct_cutoff ~h:1.0 ())
            ~cutoff_apt:(Health.apt_cutoff ~h:1.0 ())
            ~window:1024 bits
        in
        Alcotest.(check int) "apt silent" 0 apt;
        Testkit.check_true "rct at most sporadic" (rct < 20));
  ]

let run_all_tests =
  [
    Testkit.case "aggregate is the minimum" (fun () ->
        let estimates, aggregate = Estimators.run_all (random_bits 50000) in
        let manual =
          List.fold_left (fun acc (e : Estimators.estimate) -> Float.min acc e.min_entropy)
            1.0 estimates
        in
        Testkit.check_rel ~tol:1e-12 "min" manual aggregate;
        Alcotest.(check int) "four estimators" 4 (List.length estimates));
    Testkit.case "flicker-correlated TRNG output scores below iid output" (fun () ->
        (* The repo's own use case: bits from the simulated eRO-TRNG at a
           too-short accumulation are serially dependent; 90B sees it. *)
        let pair = Ptrng_osc.Pair.paper_pair () in
        let cfg = Ptrng_trng.Ero_trng.config ~divisor:50 pair in
        let stream =
          Ptrng_trng.Ero_trng.generate (Testkit.rng ~seed:3L ()) cfg ~bits:60000
        in
        let bits = Ptrng_trng.Bitstream.to_bools stream in
        let _, weak = Estimators.run_all bits in
        let _, strong = Estimators.run_all (random_bits 60000) in
        Testkit.check_true "dependence detected" (weak < strong -. 0.15));
  ]

(* The dense kernels against the hash-table oracles of [Oracle], on
   fixed-seed random sources and parameters. *)
let oracle_tests =
  let same name expected actual =
    if expected <> actual then
      QCheck2.Test.fail_reportf "%s: oracle %s p_max %h, kernel %s p_max %h" name
        expected.Estimators.name expected.p_max actual.Estimators.name actual.p_max;
    true
  in
  let with_param gen_param print_param =
    QCheck2.Gen.pair (Oracle.gen_source ~min_len:1000 ~max_len:6000) gen_param,
    QCheck2.Print.pair Oracle.print_source print_param
  in
  [
    (let gen, print = with_param (QCheck2.Gen.int_range 1 62) string_of_int in
     Testkit.qcheck ~count:40 ~seed:0x7001 ~print "t_tuple == oracle, max_t in [1, 62]" gen
       (fun (src, max_t) ->
         let bits = Oracle.bits_of src in
         same "t_tuple" (Oracle.t_tuple ~max_t bits) (Estimators.t_tuple ~max_t bits)));
    (let gen, print = with_param (QCheck2.Gen.int_range 1 30) string_of_int in
     Testkit.qcheck ~count:30 ~seed:0x7002 ~print "multi_mmc == oracle, max_order in [1, 30]"
       gen (fun (src, max_order) ->
         let bits = Oracle.bits_of src in
         same "multi_mmc" (Oracle.multi_mmc ~max_order bits)
           (Predictors.multi_mmc ~max_order bits)));
    (* Few lags tie for the top score often, and ties at block edges
       are where block scoring could go wrong. *)
    (let gen, print = with_param (QCheck2.Gen.int_range 1 4) string_of_int in
     Testkit.qcheck ~count:100 ~seed:0x7007 ~print "lag == oracle, max_lag in [1, 4]" gen
       (fun (src, max_lag) ->
         let bits = Oracle.bits_of src in
         same "lag" (Oracle.lag ~max_lag bits) (Predictors.lag ~max_lag bits)));
    (let gen, print = with_param (QCheck2.Gen.int_range 1 200) string_of_int in
     Testkit.qcheck ~count:40 ~seed:0x7006 ~print "lag == oracle, max_lag in [1, 200]" gen
       (fun (src, max_lag) ->
         let bits = Oracle.bits_of src in
         same "lag" (Oracle.lag ~max_lag bits) (Predictors.lag ~max_lag bits)));
    Testkit.qcheck ~count:30 ~seed:0x7003 ~print:Oracle.print_source "lz78y == oracle"
      (Oracle.gen_source ~min_len:1000 ~max_len:6000)
      (fun src ->
        let bits = Oracle.bits_of src in
        same "lz78y" (fst (Oracle.lz78y bits)) (Predictors.lz78y bits));
    Testkit.case "lz78y == oracle past the dictionary cap" (fun () ->
        (* Random bits fill the dictionary; the periodic tail then
           brings contexts that only an uncapped dictionary would
           learn, so the cap decides the estimate. *)
        let pattern = random_bits ~seed:0x7005L 257 in
        let bits =
          Array.append (random_bits ~seed:0x7004L 30000)
            (Array.init 20000 (fun i -> pattern.(i mod 257)))
        in
        let expected, entries = Oracle.lz78y bits in
        Alcotest.(check int) "dictionary full" Oracle.lz78y_max_entries entries;
        Testkit.check_true "same estimate" (expected = Predictors.lz78y bits));
  ]

let () =
  Alcotest.run "ptrng_sp90b"
    [
      ("mcv", mcv_tests);
      ("collision", collision_tests);
      ("markov", markov_tests);
      ("t_tuple", t_tuple_tests);
      ("predictors", predictor_tests);
      ("health", health_tests);
      ("run_all", run_all_tests);
      ("oracles", oracle_tests);
    ]
