(* Fixed-grid MD5 pins of the IEEE bit patterns of the special functions,
   the entropy model and the scenario reports that consume them.  The
   digests were taken before the special-function kernels and the
   entropy midpoint loop were rewritten for speed; any change to a
   float operation or its order, or any dependence on the domain count
   (@par-smoke runs this suite at PTRNG_DOMAINS=1 and =4), shows up as
   a digest mismatch.  The grids hold only finite results: the
   non-finite limits are checked by value in test_stats. *)

module Special = Ptrng_stats.Special
module Entropy = Ptrng_model.Entropy
module Design = Ptrng_model.Design
module Registry = Ptrng_scenario.Registry
module Runner = Ptrng_scenario.Runner

let digest_floats xs =
  let b = Buffer.create 4096 in
  List.iter
    (fun x ->
      if not (Float.is_finite x) then Alcotest.failf "non-finite pin value %h" x;
      Buffer.add_int64_le b (Int64.bits_of_float x))
    xs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let pin name expected digest =
  Testkit.case name (fun () ->
      Alcotest.(check string) "digest" expected (digest ()))

let succ = Float.succ
let pred = Float.pred

(* Arguments of erf/erfc: zero, subnormals, both sides of the
   series/continued-fraction switch (x^2 = a + 1 = 1.5), and large
   finite values whose square still fits in a float. *)
let erf_grid =
  let r15 = sqrt 1.5 in
  let pos =
    [ 0.0; 5e-324; 1e-310; 2.2250738585072014e-308; 1e-200; 1.5e-154; 1e-10;
      0.1; 0.5; 1.0; pred r15; r15; succ r15; 1.5; 2.0; 3.0; 5.0; 10.0; 20.0;
      26.0; 27.0; 30.0; 38.0; 1e3; 1e10; 1e100; 1e150; 1.3e154 ]
  in
  pos @ List.map Float.neg pos

(* Arguments of the normal CDF/SF: the switch sits at x^2/2 = 1.5. *)
let normal_grid =
  let r3 = sqrt 3.0 in
  let pos =
    [ 0.0; 5e-324; 1e-300; 1e-10; 0.25; 1.0; 1.5; pred r3; r3; succ r3; 2.0;
      3.0; 5.0; 8.0; 10.0; 20.0; 37.0; 38.5; 40.0; 1e3; 1e100; 1e150 ]
  in
  pos @ List.map Float.neg pos

let gamma_a = [ 1e-3; 0.5; 1.0; 1.5; 2.5; 10.0; 50.5; 100.0; 1e3 ]

(* Per shape a: x = 0, subnormal, tiny, both sides of x = a + 1, and
   large finite values. *)
let gamma_grid =
  List.concat_map
    (fun a ->
      let s = a +. 1.0 in
      List.map
        (fun x -> (a, x))
        [ 0.0; 5e-324; 1e-300; 1e-10; 0.1; 1.0; pred s; s; succ s; 5.0; 50.0;
          200.0; 1e4; 1e300 ])
    gamma_a

(* Per degrees of freedom: the switch sits at x/2 = df/2 + 1. *)
let chi2_grid =
  List.concat_map
    (fun df ->
      let s = df +. 2.0 in
      List.map
        (fun x -> (df, x))
        [ -1.0; 0.0; 1e-300; 0.5; df; pred s; s; succ s; 100.0; 1e4; 1e300 ])
    [ 1.0; 2.0; 3.0; 10.0; 100.0 ]

let special_pins =
  [
    pin "erf" "b66a1d62bf796a7716b5f2334b2ce085" (fun () ->
        digest_floats (List.map Special.erf erf_grid));
    pin "erfc" "861d3d3ed395ddc5eada58bde095447b" (fun () ->
        digest_floats (List.map Special.erfc erf_grid));
    pin "normal_cdf" "a6f04a7502426aa24bef58229245d01d" (fun () ->
        digest_floats (List.map Special.normal_cdf normal_grid));
    pin "normal_sf" "c8118e0d17ab6762071d932c4d994e91" (fun () ->
        digest_floats (List.map Special.normal_sf normal_grid));
    pin "gamma_p" "efa4dcdd0e86695282b7b815e832f323" (fun () ->
        digest_floats (List.map (fun (a, x) -> Special.gamma_p ~a ~x) gamma_grid));
    pin "gamma_q" "1eab4426bf406213b1e141890d59f4fe" (fun () ->
        digest_floats (List.map (fun (a, x) -> Special.gamma_q ~a ~x) gamma_grid));
    pin "chi2_cdf" "01ef03d06027d89b12e9058bae25bdf9" (fun () ->
        digest_floats (List.map (fun (df, x) -> Special.chi2_cdf ~df x) chi2_grid));
    pin "chi2_sf" "5b492d667ba8a0b92dc46bfcdc3e398e" (fun () ->
        digest_floats (List.map (fun (df, x) -> Special.chi2_sf ~df x) chi2_grid));
  ]

(* phase_std at zero, inside the near-zero step (< 1e-12), across the
   wrapped-sum branch (< 3) and in the Fourier branch (>= 3). *)
let phase_grid =
  [ 0.0; 1e-13; 9e-13; 1e-9; 1e-4; 1e-2; 0.05; 0.3; 0.7; 1.0; 1.5; 2.0; 2.5;
    pred 3.0; 3.0; 3.5; 5.0; 10.0; 100.0 ]

let mu_grid =
  [ -1.0; 0.0; 0.3; Float.pi /. 2.0; 2.0; Float.pi; 4.0; (2.0 *. Float.pi) -. 0.1; 10.0 ]

let entropy_pins =
  [
    pin "avg_entropy" "2a2565dccbdaa9db11398ad74795f9b0" (fun () ->
        digest_floats
          (List.map (fun phase_std -> Entropy.avg_entropy ~phase_std) phase_grid));
    pin "bit_probability" "00593ece6fddb3b51c5ec392ebe14bfc" (fun () ->
        digest_floats
          (List.concat_map
             (fun phase_std ->
               List.map (fun mu -> Entropy.bit_probability ~mu ~phase_std) mu_grid)
             phase_grid));
    pin "min_entropy" "cde6c3f95294ef64a8b31ddf500a2672" (fun () ->
        digest_floats
          (List.map (fun phase_std -> Entropy.min_entropy ~phase_std) phase_grid));
  ]

let paper_extract () =
  Ptrng_measure.Thermal_extract.of_phase ~f0:Ptrng_osc.Pair.paper_f0
    Ptrng_osc.Pair.paper_relative

let design_pins =
  [
    pin "Design.entropy_at, paper extract"
      "56ffa296cc2ddf5f4a2af3d1006414bf" (fun () ->
        let extract = paper_extract () in
        digest_floats
          (List.map
             (fun divisor -> Design.entropy_at ~extract ~divisor)
             [ 1; 10; 100; 281; 1000; 5354; 10_000; 100_000; 1_000_000 ]));
    pin "Design.required_divisor, paper extract"
      "f4cc1cd51251c6a6de249024892e6bbb" (fun () ->
        let extract = paper_extract () in
        Digest.to_hex
          (Digest.string
             (String.concat ","
                (List.map
                   (fun target ->
                     string_of_int (Design.required_divisor ~target ~extract ()))
                   [ 0.5; 0.9; 0.99; 0.997; 0.999 ]))));
  ]

(* A scenario's report carries the live entropy claim refit after every
   chunk (its live_entropy and lie_margin_entropy fields); the quench
   run is long enough to cross the fault and its recovery. *)
let report_pin name ~periods expected =
  pin
    (Printf.sprintf "Runner.result_json %s, %d periods" name periods)
    expected
    (fun () ->
      match Registry.find name with
      | None -> Alcotest.failf "scenario registry has no %s entry" name
      | Some e ->
        let r = Runner.run { e with periods } in
        Digest.to_hex
          (Digest.string (Ptrng_telemetry.Json.to_string (Runner.result_json r))))

let report_pins =
  [
    report_pin "calm" ~periods:(1 lsl 18) "c6a4be26d45962155579f12048fdb4d2";
    report_pin "thermal-quench" ~periods:(1 lsl 21)
      "b9ccd67cf07a5a8c507e63799bfe587b";
  ]

let () =
  Alcotest.run "pins"
    [
      ("special", special_pins);
      ("entropy", entropy_pins);
      ("design", design_pins);
      ("report", report_pins);
    ]
