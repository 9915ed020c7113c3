open Ptrng_ais31

let good_bits n =
  let rng = Testkit.rng ~seed:0xA1531L () in
  Array.init n (fun _ -> Ptrng_prng.Rng.bool rng)

let biased_bits ~p n =
  let rng = Testkit.rng ~seed:0xB1A5L () in
  Array.init n (fun _ -> Ptrng_prng.Distributions.bernoulli rng ~p)

let block () = good_bits Procedure_a.block_bits

let procedure_a_tests =
  [
    Testkit.case "T1 passes on balanced bits, fails on constant" (fun () ->
        Testkit.check_true "good" (Procedure_a.t1_monobit (block ())).Report.pass;
        Testkit.check_false "constant"
          (Procedure_a.t1_monobit (Array.make 20000 true)).Report.pass);
    Testkit.case "T1 boundary values" (fun () ->
        let mk ones =
          Array.init 20000 (fun i -> i < ones)
        in
        Testkit.check_true "9655 passes" (Procedure_a.t1_monobit (mk 9655)).Report.pass;
        Testkit.check_false "9654 fails" (Procedure_a.t1_monobit (mk 9654)).Report.pass;
        Testkit.check_true "10345 passes" (Procedure_a.t1_monobit (mk 10345)).Report.pass;
        Testkit.check_false "10346 fails" (Procedure_a.t1_monobit (mk 10346)).Report.pass);
    Testkit.case "T2 passes on random bits, fails on a stuck nibble" (fun () ->
        Testkit.check_true "good" (Procedure_a.t2_poker (block ())).Report.pass;
        (* Repeating 0101...: only two nibble values occur. *)
        let stuck = Array.init 20000 (fun i -> i land 1 = 1) in
        Testkit.check_false "stuck" (Procedure_a.t2_poker stuck).Report.pass);
    Testkit.case "T3 passes on random bits, fails on long blocks" (fun () ->
        Testkit.check_true "good" (Procedure_a.t3_runs (block ())).Report.pass;
        (* Runs of length 8 everywhere: every class is out of bounds. *)
        let blocky = Array.init 20000 (fun i -> i / 8 land 1 = 0) in
        Testkit.check_false "blocky" (Procedure_a.t3_runs blocky).Report.pass);
    Testkit.case "T4 long-run detection" (fun () ->
        Testkit.check_true "good" (Procedure_a.t4_long_run (block ())).Report.pass;
        let bits = block () in
        Array.fill bits 5000 34 true;
        Testkit.check_false "34-run planted" (Procedure_a.t4_long_run bits).Report.pass);
    Testkit.case "T5 passes on random bits, fails on periodic ones" (fun () ->
        Testkit.check_true "good" (Procedure_a.t5_autocorrelation (block ())).Report.pass;
        (* Period-16 pattern: perfect correlation at tau = 16. *)
        let periodic = Array.init 20000 (fun i -> i / 8 land 1 = 0) in
        Testkit.check_false "periodic" (Procedure_a.t5_autocorrelation periodic).Report.pass);
    Testkit.case "T0 detects duplicate words" (fun () ->
        let need = 48 * 65536 in
        let bits = good_bits need in
        let stream = Ptrng_trng.Bitstream.of_bools bits in
        Testkit.check_true "random distinct" (Procedure_a.t0_disjointness stream).Report.pass;
        (* Duplicate the first word into the second slot. *)
        Array.blit bits 0 bits 48 48;
        let stream = Ptrng_trng.Bitstream.of_bools bits in
        Testkit.check_false "planted duplicate"
          (Procedure_a.t0_disjointness stream).Report.pass);
    Testkit.case "run_block applies T1-T5" (fun () ->
        let results = Procedure_a.run_block (block ()) in
        Alcotest.(check int) "five tests" 5 (List.length results);
        List.iter (fun r -> Testkit.check_true r.Report.name r.Report.pass) results);
    Testkit.case "run summarizes multiple blocks" (fun () ->
        let stream = Ptrng_trng.Bitstream.of_bools (good_bits (2 * Procedure_a.block_bits)) in
        let summary = Procedure_a.run stream in
        Alcotest.(check int) "10 results" 10 (List.length summary.Report.results);
        Testkit.check_true "verdict" summary.Report.verdict);
    Testkit.case "run fails a heavily biased stream" (fun () ->
        let stream =
          Ptrng_trng.Bitstream.of_bools (biased_bits ~p:0.6 Procedure_a.block_bits)
        in
        let summary = Procedure_a.run stream in
        Testkit.check_false "verdict" summary.Report.verdict);
    Testkit.case "block length is enforced" (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Procedure_a.t1_monobit: block must be 20000 bits")
          (fun () -> ignore (Procedure_a.t1_monobit (Array.make 100 true))));
  ]

let procedure_b_tests =
  [
    Testkit.case "T6 uniformity pass and fail" (fun () ->
        Testkit.check_true "good"
          (Procedure_b.t6_uniform ~k:1 ~a:0.025 (good_bits 100000)).Report.pass;
        Testkit.check_false "biased"
          (Procedure_b.t6_uniform ~k:1 ~a:0.025 (biased_bits ~p:0.56 100000)).Report.pass);
    Testkit.case "T6 with 2-bit words" (fun () ->
        Testkit.check_true "good"
          (Procedure_b.t6_uniform ~k:2 ~a:0.02 (good_bits 100000)).Report.pass);
    Testkit.case "T7 homogeneity pass and fail" (fun () ->
        Testkit.check_true "good"
          (Procedure_b.t7_homogeneity ~k:4 (good_bits 400000)).Report.pass;
        (* First half fair, second half biased: inhomogeneous. *)
        let drifted =
          Array.append (good_bits 200000) (biased_bits ~p:0.58 200000)
        in
        Testkit.check_false "drift" (Procedure_b.t7_homogeneity ~k:4 drifted).Report.pass);
    Testkit.case "coron_g values" (fun () ->
        Testkit.check_abs ~tol:0.0 "g(1)" 0.0 (Procedure_b.coron_g 1);
        Testkit.check_rel ~tol:1e-12 "g(2)" (1.0 /. log 2.0) (Procedure_b.coron_g 2);
        Testkit.check_rel ~tol:1e-12 "g(3)" (1.5 /. log 2.0) (Procedure_b.coron_g 3);
        Testkit.check_rel ~tol:1e-12 "g(4)" ((1.0 +. 0.5 +. (1.0 /. 3.0)) /. log 2.0)
          (Procedure_b.coron_g 4));
    Testkit.case "T8 estimates ~8 bits for uniform bytes" (fun () ->
        let bits = good_bits (Procedure_b.required_bits_t8 ~q:2560 ~k:256000) in
        let r = Procedure_b.t8_entropy bits in
        Testkit.check_true "passes" r.Report.pass;
        Testkit.check_abs ~tol:0.02 "close to 8" 8.0 r.Report.statistic);
    Testkit.case "T8 fails on biased bits" (fun () ->
        let bits = biased_bits ~p:0.6 (Procedure_b.required_bits_t8 ~q:2560 ~k:256000) in
        let r = Procedure_b.t8_entropy bits in
        Testkit.check_false "fails" r.Report.pass;
        (* Entropy of a p=0.6 byte source: 8 h(0.6) ~ 7.77. *)
        Testkit.check_abs ~tol:0.05 "near theoretical entropy" 7.7704 r.Report.statistic);
    Testkit.case "run composes available tests" (fun () ->
        let stream = Ptrng_trng.Bitstream.of_bools (good_bits 500000) in
        let summary = Procedure_b.run stream in
        (* T6 (k=1,2) and T7; not enough bits for T8. *)
        Alcotest.(check int) "tests" 3 (List.length summary.Report.results);
        Testkit.check_true "verdict" summary.Report.verdict);
  ]

let report_tests =
  [
    Testkit.case "summarize applies the retry allowance" (fun () ->
        let pass = Report.make ~name:"a" ~statistic:0.0 ~pass:true ~detail:"" in
        let fail = Report.make ~name:"b" ~statistic:0.0 ~pass:false ~detail:"" in
        Testkit.check_true "one failure tolerated"
          (Report.summarize [ pass; fail ]).Report.verdict;
        Testkit.check_false "two failures rejected"
          (Report.summarize [ pass; fail; fail ]).Report.verdict;
        Testkit.check_false "strict mode"
          (Report.summarize ~allowed_failures:0 [ pass; fail ]).Report.verdict);
    Testkit.case "pp renders a table" (fun () ->
        let summary =
          Report.summarize
            [ Report.make ~name:"T1 monobit" ~statistic:10000.0 ~pass:true ~detail:"ok" ]
        in
        let text = Format.asprintf "%a" Report.pp summary in
        Testkit.check_true "contains name"
          (String.length text > 0
          && String.length (String.concat "" (String.split_on_char 'T' text))
             < String.length text));
  ]

(* Packed T5 against the bit-by-bit oracle of [Oracle]. *)
let t5_oracle_tests =
  [
    Testkit.qcheck ~count:40 ~seed:0xA5 ~print:Oracle.print_source "T5 == oracle"
      (Oracle.gen_source ~min_len:Procedure_a.block_bits ~max_len:Procedure_a.block_bits)
      (fun src ->
        let block = Oracle.bits_of src in
        let z, tau = Oracle.t5_autocorrelation block in
        let r = Procedure_a.t5_autocorrelation block in
        r.Report.statistic = float_of_int z
        && r.Report.detail = Printf.sprintf "tau = %d, bound (2326, 2674)" tau);
  ]

let () =
  Alcotest.run "ptrng_ais31"
    [
      ("procedure_a", procedure_a_tests);
      ("procedure_b", procedure_b_tests);
      ("report", report_tests);
      ("t5-oracle", t5_oracle_tests);
    ]
