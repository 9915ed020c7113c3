open Ptrng_nist22

let random_bits ?(seed = 0x822L) n =
  let rng = Testkit.rng ~seed () in
  Array.init n (fun _ -> Ptrng_prng.Rng.bool rng)

let biased_bits ~p n =
  let rng = Testkit.rng ~seed:0xBADL () in
  Array.init n (fun _ -> Ptrng_prng.Distributions.bernoulli rng ~p)

let good = lazy (random_bits 20000)

let check_pass name (r : Sp80022.result) = Testkit.check_true name r.pass
let check_fail name (r : Sp80022.result) =
  Testkit.check_true name (not r.pass && r.p_value < 0.001)

let per_test_cases =
  [
    Testkit.case "frequency: pass on random, fail on biased" (fun () ->
        check_pass "random" (Sp80022.frequency (Lazy.force good));
        check_fail "biased" (Sp80022.frequency (biased_bits ~p:0.53 20000)));
    Testkit.case "block frequency: pass on random, fail on bursty" (fun () ->
        check_pass "random" (Sp80022.block_frequency (Lazy.force good));
        (* Alternating all-ones / all-zeros blocks: globally balanced. *)
        let bursty = Array.init 20000 (fun i -> i / 128 land 1 = 0) in
        check_fail "bursty" (Sp80022.block_frequency bursty));
    Testkit.case "runs: pass on random, fail on alternating" (fun () ->
        check_pass "random" (Sp80022.runs (Lazy.force good));
        let alternating = Array.init 20000 (fun i -> i land 1 = 0) in
        check_fail "alternating" (Sp80022.runs alternating));
    Testkit.case "runs pre-test catches heavy bias" (fun () ->
        let r = Sp80022.runs (biased_bits ~p:0.6 20000) in
        Testkit.check_abs ~tol:1e-9 "p = 0" 0.0 r.p_value);
    Testkit.case "longest run: pass on random, fail on runny data" (fun () ->
        check_pass "random" (Sp80022.longest_run (Lazy.force good));
        let runny = Array.init 20000 (fun i -> i / 10 land 1 = 0) in
        check_fail "runny" (Sp80022.longest_run runny));
    Testkit.case "cumulative sums: pass on random, fail on drift" (fun () ->
        check_pass "random" (Sp80022.cumulative_sums (Lazy.force good));
        let rng = Testkit.rng () in
        let drift =
          Array.init 20000 (fun i ->
              Ptrng_prng.Distributions.bernoulli rng ~p:(if i < 10000 then 0.55 else 0.45))
        in
        check_fail "drift" (Sp80022.cumulative_sums drift));
    Testkit.case "cumulative sums backward variant runs" (fun () ->
        check_pass "backward" (Sp80022.cumulative_sums ~forward:false (Lazy.force good)));
    Testkit.case "spectral: pass on random, fail on periodic" (fun () ->
        check_pass "random" (Sp80022.spectral (Lazy.force good));
        let periodic = Array.init 20000 (fun i -> i mod 10 < 5) in
        check_fail "periodic" (Sp80022.spectral periodic));
    Testkit.case "serial: pass on random, fail on patterned" (fun () ->
        check_pass "random" (Sp80022.serial (Lazy.force good));
        let patterned = Array.init 20000 (fun i -> i mod 4 < 2) in
        check_fail "patterned" (Sp80022.serial patterned));
    Testkit.case "approximate entropy: pass on random, fail on patterned" (fun () ->
        check_pass "random" (Sp80022.approximate_entropy (Lazy.force good));
        let patterned = Array.init 20000 (fun i -> i mod 8 < 4) in
        check_fail "patterned" (Sp80022.approximate_entropy patterned));
  ]

let heavyweight_cases =
  let big = lazy (random_bits ~seed:0xB16L 1_100_000) in
  [
    Testkit.case "matrix rank: pass on random, fail on low-rank data" (fun () ->
        check_pass "random" (Sp80022.binary_matrix_rank (random_bits 60000));
        (* Repeating every 32 bits: every matrix has rank 1. *)
        let degenerate = Array.init 60000 (fun i -> i mod 32 < 16) in
        check_fail "rank-1" (Sp80022.binary_matrix_rank degenerate));
    Testkit.case "matrix rank distribution sanity" (fun () ->
        (* On truly random data the statistic itself should be modest. *)
        let r = Sp80022.binary_matrix_rank (random_bits ~seed:5L 120000) in
        Testkit.check_in_range "chi2" ~lo:0.0 ~hi:12.0 r.Sp80022.statistic);
    Testkit.case "maurer universal: pass on random, fail on repetitive" (fun () ->
        check_pass "random" (Sp80022.maurer_universal (random_bits 60000));
        let repetitive = Array.init 60000 (fun i -> i mod 12 < 6) in
        check_fail "repetitive" (Sp80022.maurer_universal repetitive));
    Testkit.case "maurer statistic approaches the L=6 expectation" (fun () ->
        let r = Sp80022.maurer_universal (random_bits ~seed:6L 600000) in
        Testkit.check_rel ~tol:0.01 "fn" 5.2177052 r.Sp80022.statistic);
    Testkit.case "linear complexity: pass on random, fail on LFSR-like" (fun () ->
        check_pass "random" (Sp80022.linear_complexity (random_bits 100000));
        (* A short LFSR: x_{i} = x_{i-3} xor x_{i-31} — tiny complexity. *)
        let lfsr = Array.make 100000 false in
        lfsr.(0) <- true;
        lfsr.(5) <- true;
        for i = 31 to 99999 do
          lfsr.(i) <- lfsr.(i - 3) <> lfsr.(i - 31)
        done;
        check_fail "lfsr" (Sp80022.linear_complexity lfsr));
    Testkit.case "berlekamp-massey via linear_complexity is exact on periodic data"
      (fun () ->
        (* Period-2 data has linear complexity 2 in every block: the
           statistic lands in the extreme bin and the test fails. *)
        let alternating = Array.init 50000 (fun i -> i land 1 = 0) in
        check_fail "alternating" (Sp80022.linear_complexity alternating));
    Testkit.case "template tests: pass on random, fail on planted templates" (fun () ->
        check_pass "random non-overlap" (Sp80022.non_overlapping_template (random_bits 80000));
        check_pass "random overlap" (Sp80022.overlapping_template (random_bits 103200));
        (* Saturate with the 000000001 pattern. *)
        let planted = Array.init 80000 (fun i -> i mod 9 = 8) in
        check_fail "planted" (Sp80022.non_overlapping_template planted);
        (* Long runs of ones everywhere overfill the overlapping bins. *)
        let ones_heavy = Array.init 103200 (fun i -> i mod 13 <> 0) in
        check_fail "ones-heavy" (Sp80022.overlapping_template ones_heavy));
    Testkit.case "random excursions behave on random data" (fun () ->
        let results = Sp80022.random_excursions (Lazy.force big) in
        Testkit.check_true "enough cycles" (List.length results = 8);
        let failures = List.length (List.filter (fun r -> not r.Sp80022.pass) results) in
        Testkit.check_true "at most one marginal state" (failures <= 1);
        let variant = Sp80022.random_excursions_variant (Lazy.force big) in
        Testkit.check_true "variant states" (List.length variant = 18));
    Testkit.case "excursions are skipped when cycles are scarce" (fun () ->
        (* A heavily biased walk rarely returns to zero. *)
        let rng = Testkit.rng () in
        let biased =
          Array.init 100000 (fun _ -> Ptrng_prng.Distributions.bernoulli rng ~p:0.8)
        in
        Alcotest.(check int) "skipped" 0
          (List.length (Sp80022.random_excursions biased)));
    Testkit.case "full battery on a megabit of good data" (fun () ->
        let results = Sp80022.run_all (Lazy.force big) in
        Alcotest.(check int) "15 rows" 15 (List.length results);
        let failures = List.filter (fun r -> not r.Sp80022.pass) results in
        Testkit.check_true "at most one failure"
          (List.length failures <= 1));
  ]

let battery_cases =
  [
    Testkit.case "run_all executes the full battery" (fun () ->
        let results = Sp80022.run_all (Lazy.force good) in
        Alcotest.(check int) "ten tests" 10 (List.length results);
        List.iter (fun (r : Sp80022.result) -> check_pass r.name r) results);
    Testkit.case "false-positive rate is near alpha" (fun () ->
        (* 25 independent streams x 8 tests at alpha = 0.01: expect ~2
           failures; 8+ would indicate broken p-values. *)
        let failures = ref 0 in
        for seed = 1 to 25 do
          let bits = random_bits ~seed:(Int64.of_int (1000 + seed)) 4000 in
          List.iter
            (fun (r : Sp80022.result) -> if not r.pass then incr failures)
            (Sp80022.run_all bits)
        done;
        Testkit.check_in_range "failures" ~lo:0.0 ~hi:7.0 (float_of_int !failures));
    Testkit.case "p-values are roughly uniform for a good source" (fun () ->
        (* Mean p over many streams should be near 0.5. *)
        let acc = ref 0.0 and count = ref 0 in
        for seed = 1 to 40 do
          let bits = random_bits ~seed:(Int64.of_int (2000 + seed)) 4000 in
          List.iter
            (fun (r : Sp80022.result) ->
              acc := !acc +. r.p_value;
              incr count)
            (Sp80022.run_all bits)
        done;
        Testkit.check_in_range "mean p" ~lo:0.35 ~hi:0.65 (!acc /. float_of_int !count));
    Testkit.case "pp_results renders" (fun () ->
        let text =
          Format.asprintf "%a" Sp80022.pp_results (Sp80022.run_all (random_bits 4000))
        in
        Testkit.check_true "non-empty" (String.length text > 50));
    Testkit.case "attacked TRNG output fails the battery" (fun () ->
        let pair =
          Ptrng_trng.Attack.frequency_injection ~lock_strength:0.9995
            (Ptrng_osc.Pair.paper_pair ())
        in
        let cfg = Ptrng_trng.Ero_trng.config ~divisor:100 pair in
        let stream =
          Ptrng_trng.Ero_trng.generate (Testkit.rng ~seed:6L ()) cfg ~bits:20000
        in
        let results = Sp80022.run_all (Ptrng_trng.Bitstream.to_bools stream) in
        let failed = List.length (List.filter (fun r -> not r.Sp80022.pass) results) in
        Testkit.check_true "several failures" (failed >= 3));
  ]

(* The packed Berlekamp-Massey against the copying oracle of [Oracle]:
   random, sticky and periodic blocks of random lengths, plus all-zero
   ones. *)
let berlekamp_massey_cases =
  [
    Testkit.qcheck ~count:300 ~seed:0xB001 ~print:Oracle.print_source
      "berlekamp_massey == oracle" (Oracle.gen_source ~min_len:1 ~max_len:700) (fun src ->
        let bits = Oracle.bits_of src in
        Oracle.berlekamp_massey bits = Sp80022.berlekamp_massey bits);
    Testkit.case "berlekamp_massey == oracle on all-zero and single-one blocks" (fun () ->
        List.iter
          (fun n ->
            let zeros = Array.make n false in
            Alcotest.(check int) "zeros" 0 (Sp80022.berlekamp_massey zeros);
            let last = Array.init n (fun i -> i = n - 1) in
            Alcotest.(check int) "last one" (Oracle.berlekamp_massey last)
              (Sp80022.berlekamp_massey last))
          [ 1; 2; 61; 62; 63; 124; 500; 1000 ]);
    (* Mixed sources make blocks of very different complexity follow
       one another through the shared scratch arrays. *)
    Testkit.qcheck ~count:12 ~seed:0xB002
      ~print:QCheck2.Print.(pair int (list Oracle.print_source))
      "linear_complexity == oracle, random block sizes"
      QCheck2.Gen.(pair (int_range 100 700) (list_size (int_range 1 4) (Oracle.gen_source ~min_len:1 ~max_len:30000)))
      (fun (block, srcs) ->
        let bits = Array.concat (List.map Oracle.bits_of srcs) in
        let bits =
          if Array.length bits >= 100 * block then bits
          else Array.append bits (Array.make ((100 * block) - Array.length bits) false)
        in
        Oracle.linear_complexity ~block bits = Sp80022.linear_complexity ~block bits);
  ]

let () =
  Alcotest.run "ptrng_nist22"
    [
      ("tests", per_test_cases);
      ("heavyweight", heavyweight_cases);
      ("battery", battery_cases);
      ("berlekamp-massey", berlekamp_massey_cases);
    ]
