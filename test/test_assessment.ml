(* Parity pins for the assessment battery.

   Fixed-seed MD5 digests of every field of [Assessment.t] (floats by
   their IEEE bit patterns) on seven corpora, and of the estimates of
   the prediction, t-tuple and linear-complexity kernels called with
   non-default parameters.  Any change in what the battery computes —
   or any dependence on the domain count (@par-smoke runs this suite at
   PTRNG_DOMAINS=1 and =4) — shows up as a digest mismatch. *)

open Ptrng_report
module Bitstream = Ptrng_trng.Bitstream
module Report = Ptrng_ais31.Report
module Est = Ptrng_sp90b.Estimators
module Pred = Ptrng_sp90b.Predictors
module Sp80022 = Ptrng_nist22.Sp80022

(* ---------- corpora ---------- *)

let random_bits ~seed n f =
  let rng = Testkit.rng ~seed () in
  Array.init n (fun _ -> f rng)

let fair ~seed n = random_bits ~seed n Ptrng_prng.Rng.bool
let bernoulli ~seed ~p n = random_bits ~seed n (fun rng -> Ptrng_prng.Rng.float rng < p)

(* Each bit repeats the previous one with probability [stay]. *)
let sticky ~seed ~stay n =
  let rng = Testkit.rng ~seed () in
  let prev = ref false in
  Array.init n (fun _ ->
      if Ptrng_prng.Rng.float rng >= stay then prev := not !prev;
      !prev)

let pattern n f = Array.init n f

(* A degree-12 linear recurrence: every bit is a function of the 12
   before it, so only contexts of 12 bits or more predict it. *)
let lfsr n =
  let s = Array.make n false in
  for i = 0 to n - 1 do
    s.(i) <-
      (if i < 12 then i mod 3 = 0
       else s.(i - 12) <> (s.(i - 11) <> (s.(i - 8) <> s.(i - 6))))
  done;
  s

let corpora =
  [
    ("fair, 2^17", lazy (fair ~seed:601L (1 lsl 17)));
    ("fair, 60000", lazy (fair ~seed:602L 60000));
    ("bernoulli 0.7", lazy (bernoulli ~seed:603L ~p:0.7 60000));
    ("sticky 0.9", lazy (sticky ~seed:604L ~stay:0.9 (1 lsl 17)));
    ("period-4", lazy (pattern (1 lsl 17) (fun i -> i mod 4 < 2)));
    ("(i*i) mod 11 < 5", lazy (pattern 60000 (fun i -> i * i mod 11 < 5)));
    ("period-16", lazy (pattern 60000 (fun i -> (0xB4E1 lsr (i mod 16)) land 1 = 1)));
    ("lfsr-12", lazy (lfsr (1 lsl 17)));
  ]

let corpus name = Lazy.force (List.assoc name corpora)

(* ---------- digests ---------- *)

let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)
let add_int b i = Buffer.add_int64_le b (Int64.of_int i)
let add_bool b v = Buffer.add_char b (if v then '1' else '0')

let add_string b s =
  add_int b (String.length s);
  Buffer.add_string b s

let add_summary b = function
  | None -> add_string b "none"
  | Some (s : Report.summary) ->
    List.iter
      (fun (r : Report.test_result) ->
        add_string b r.name; add_float b r.statistic; add_bool b r.pass;
        add_string b r.detail)
      s.results;
    add_int b s.passed; add_int b s.failed; add_bool b s.verdict

let add_estimate b (e : Est.estimate) =
  add_string b e.name; add_float b e.p_max; add_float b e.min_entropy

let add_nist b (r : Sp80022.result) =
  add_string b r.name; add_float b r.statistic; add_float b r.p_value; add_bool b r.pass

let digest fill =
  let b = Buffer.create 8192 in
  fill b;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_assessment (t : Assessment.t) =
  digest (fun b ->
      add_int b t.bits_evaluated;
      add_float b t.bias;
      add_float b t.serial_correlation;
      add_summary b t.ais31_a;
      add_summary b t.ais31_b;
      List.iter (add_nist b) t.nist;
      List.iter (add_estimate b) t.sp90b;
      add_float b t.sp90b_aggregate;
      List.iter (add_estimate b) t.predictors;
      add_float b t.predictor_aggregate;
      add_int b t.health_rct_alarms;
      add_int b t.health_apt_alarms;
      add_string b (Assessment.verdict_name t.verdict))

let pin name expected compute =
  Testkit.case name (fun () -> Alcotest.(check string) "digest" expected (compute ()))

(* ---------- pins ---------- *)

let evaluate_pins =
  List.map
    (fun (name, expected) ->
      pin (Printf.sprintf "evaluate, %s" name) expected (fun () ->
          digest_assessment (Assessment.evaluate (Bitstream.of_bools (corpus name)))))
    [
      ("fair, 2^17", "50d81f72afa5d202a913c4ce8edf0702");
      ("fair, 60000", "71e959c9bf450dce4c523a541c4f2d8c");
      ("bernoulli 0.7", "c7fd679334783984be38d8a7ff388c6d");
      ("sticky 0.9", "aa0ad087490519a02beb6687b639d108");
      ("period-4", "9d7bccb56656a9f71b4d40491353568b");
      ("(i*i) mod 11 < 5", "a1954afd3bf1d011f7ec029c9b2972fb");
      ("period-16", "a88984ce219b00e16ef2f5f153a752f1");
      ("lfsr-12", "0a3e9fa58c8ce3ae0c4a83874d0696ef");
    ]

(* Kernels called with non-default parameters, each on four corpora. *)
let parameter_pins =
  let estimate f bits = digest (fun b -> add_estimate b (f bits)) in
  let kernels =
    [
      ("t_tuple ~max_t:32", estimate (Est.t_tuple ~max_t:32));
      ("multi_mmc ~max_order:8", estimate (Pred.multi_mmc ~max_order:8));
      ("multi_mmc ~max_order:30", estimate (Pred.multi_mmc ~max_order:30));
      ("lag ~max_lag:16", estimate (Pred.lag ~max_lag:16));
      ( "linear_complexity ~block:1000",
        fun bits -> digest (fun b -> add_nist b (Sp80022.linear_complexity ~block:1000 bits)) );
    ]
  in
  let expected =
    [
      (* kernel, corpus, digest *)
      ("t_tuple ~max_t:32", "fair, 2^17", "7752f899d41b4fe4d54a86527ba09aea");
      ("t_tuple ~max_t:32", "sticky 0.9", "86e3236084c0d8e4f9009b5d85dc8f23");
      ("t_tuple ~max_t:32", "period-4", "aeb6d64efc4b58ff00efec9dce840452");
      ("t_tuple ~max_t:32", "lfsr-12", "84ae477173474c2a79a84a45d67e214b");
      ("multi_mmc ~max_order:8", "fair, 2^17", "ec70011e4dda57b0d9ba8aafde188e21");
      ("multi_mmc ~max_order:8", "sticky 0.9", "ca51deae211a1857ce99f58f4e5d955a");
      ("multi_mmc ~max_order:8", "period-4", "7f96a210eb5b58afd899d1ab0b665803");
      ("multi_mmc ~max_order:8", "lfsr-12", "da944db6da1ce6e5db31fe9ca001bd0f");
      ("multi_mmc ~max_order:30", "fair, 2^17", "ec70011e4dda57b0d9ba8aafde188e21");
      ("multi_mmc ~max_order:30", "sticky 0.9", "ca51deae211a1857ce99f58f4e5d955a");
      ("multi_mmc ~max_order:30", "period-4", "7f96a210eb5b58afd899d1ab0b665803");
      ("multi_mmc ~max_order:30", "lfsr-12", "127ee67fb47007cde56acaaf312f7cc6");
      ("lag ~max_lag:16", "fair, 2^17", "5fa77dddcf05560bd774e08ca30833c3");
      ("lag ~max_lag:16", "sticky 0.9", "f023720ad25d0ac04e34722785ddf88a");
      ("lag ~max_lag:16", "period-4", "0aeae6be19a079c8cf075a6aa53a6fe6");
      ("lag ~max_lag:16", "lfsr-12", "1063ebf7e731a008fb92f97c037718ad");
      ("linear_complexity ~block:1000", "fair, 2^17", "bc47f1b07a7c5c2e0e98bd04c416ad92");
      ("linear_complexity ~block:1000", "sticky 0.9", "298eb8bdcf80231ba6c2093bde1644a7");
      ("linear_complexity ~block:1000", "period-4", "48d489296f126397659199fb40f3e0c1");
      ("linear_complexity ~block:1000", "lfsr-12", "48d489296f126397659199fb40f3e0c1");
    ]
  in
  List.map
    (fun (kernel, name, digest) ->
      pin (Printf.sprintf "%s, %s" kernel name) digest (fun () ->
          (List.assoc kernel kernels) (corpus name)))
    expected

let () =
  Alcotest.run "assessment"
    [ ("evaluate", evaluate_pins); ("parameters", parameter_pins) ]
