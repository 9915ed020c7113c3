open Ptrng_noise

(* [n] samples of a fresh streaming source as a plain array. *)
let samples config rng n =
  let buf = Float.Array.create n in
  Source.fill (Source.create config rng) buf;
  Array.init n (Float.Array.get buf)

let psd_model_tests =
  [
    Testkit.case "phase PSD evaluates the two-term law" (fun () ->
        let p = { Psd_model.b_th = 276.04; b_fl = 1.9e6 } in
        Testkit.check_rel ~tol:1e-12 "at 1 kHz"
          ((1.9e6 /. 1e9) +. (276.04 /. 1e6))
          (Psd_model.phase_psd p 1e3));
    Testkit.case "phase <-> frac_freq round trip" (fun () ->
        let p = { Psd_model.b_th = 276.04; b_fl = 1.9152e6 } in
        let y = Psd_model.frac_freq_of_phase ~f0:103e6 p in
        let back = Psd_model.phase_of_frac_freq ~f0:103e6 y in
        Testkit.check_rel ~tol:1e-12 "b_th" p.b_th back.Psd_model.b_th;
        Testkit.check_rel ~tol:1e-12 "b_fl" p.b_fl back.Psd_model.b_fl);
    Testkit.case "calibration identities" (fun () ->
        (* h0 = 2 b_th / f0^2, h-1 = 2 b_fl / f0^2. *)
        let f0 = 103e6 in
        let p = { Psd_model.b_th = 276.04; b_fl = 1.9152e6 } in
        let y = Psd_model.frac_freq_of_phase ~f0 p in
        Testkit.check_rel ~tol:1e-12 "h0" (2.0 *. 276.04 /. (f0 *. f0)) y.Psd_model.h0;
        Testkit.check_rel ~tol:1e-12 "hm1" (2.0 *. 1.9152e6 /. (f0 *. f0)) y.Psd_model.hm1);
    Testkit.case "thermal period jitter variance matches the paper" (fun () ->
        (* sigma = sqrt(b_th/f0^3) = 15.89 ps for the paper's numbers. *)
        let p = { Psd_model.b_th = 276.04; b_fl = 0.0 } in
        let v = Psd_model.thermal_period_jitter_var ~f0:103e6 p in
        Testkit.check_rel ~tol:1e-3 "sigma in ps" 15.89 (sqrt v *. 1e12));
    Testkit.case "corner frequency" (fun () ->
        let p = { Psd_model.b_th = 2.0; b_fl = 10.0 } in
        Testkit.check_rel ~tol:1e-12 "corner" 5.0 (Psd_model.corner_frequency p));
    Testkit.case "rejects non-positive frequency" (fun () ->
        Alcotest.check_raises "f=0" (Invalid_argument "Psd_model: f <= 0") (fun () ->
            ignore (Psd_model.phase_psd { Psd_model.b_th = 1.0; b_fl = 1.0 } 0.0)));
  ]

let white_tests =
  [
    Testkit.case "level/variance round trip" (fun () ->
        let v = White.variance_of_level ~level:4e-3 ~fs:250.0 in
        Testkit.check_rel ~tol:1e-12 "variance" 0.5 v;
        Testkit.check_rel ~tol:1e-12 "level" 4e-3 (White.level_of_variance ~variance:v ~fs:250.0));
    Testkit.case "generated white noise hits its PSD level" (fun () ->
        let level = 2e-4 and fs = 1e3 in
        let sigma = sqrt (White.variance_of_level ~level ~fs) in
        let x = samples (Source.white ~sigma) (Testkit.rng ()) (1 lsl 16) in
        let s = Ptrng_signal.Psd.welch ~seg_len:1024 ~fs x in
        let measured = Ptrng_signal.Psd.band_mean s ~f_lo:(fs /. 50.0) ~f_hi:(fs /. 2.2) in
        Testkit.check_rel ~tol:0.05 "level" level measured);
  ]

let kasdin_tests =
  [
    Testkit.case "fractional-integrator coefficients (alpha = 1)" (fun () ->
        (* h0 = 1, h_k = h_{k-1} (k - 1/2) / k: 1, 1/2, 3/8, 5/16 ... *)
        let h = Kasdin.coefficients ~alpha:1.0 5 in
        Alcotest.(check (array (float 1e-12)))
          "first coefficients"
          [| 1.0; 0.5; 0.375; 0.3125; 0.2734375 |]
          h);
    Testkit.case "alpha = 0 is an identity filter" (fun () ->
        let h = Kasdin.coefficients ~alpha:0.0 4 in
        Alcotest.(check (array (float 1e-12))) "delta" [| 1.0; 0.0; 0.0; 0.0 |] h);
    Testkit.case "alpha = 2 integrates (all ones)" (fun () ->
        let h = Kasdin.coefficients ~alpha:2.0 4 in
        Alcotest.(check (array (float 1e-12))) "ones" [| 1.0; 1.0; 1.0; 1.0 |] h);
    Testkit.case "flicker block PSD has slope -1 and level h-1" (fun () ->
        let n = 1 lsl 16 and hm1 = 3e-5 and fs = 1.0 in
        let x = samples (Source.flicker_fm ~taps:n ~hm1 ()) (Testkit.rng ()) n in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs x in
        let slope, _ = Slope.log_log_slope s ~f_lo:(4.0 /. 4096.0) ~f_hi:0.05 in
        Testkit.check_abs ~tol:0.15 "slope" (-1.0) slope;
        (* Level at a reference frequency inside the calibrated band. *)
        let f_ref = 0.01 in
        let level = Ptrng_signal.Psd.band_mean s ~f_lo:(f_ref /. 1.3) ~f_hi:(f_ref *. 1.3) in
        Testkit.check_rel ~tol:0.25 "level" (hm1 /. f_ref) level);
    Testkit.case "stream agrees with block spectrum above fs/taps" (fun () ->
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ()) in
        let sigma_w = sqrt (Float.pi *. 1e-4) in
        let st = Kasdin.stream_create g ~alpha:1.0 ~sigma_w ~taps:1024 in
        let n = 1 lsl 15 in
        let x = Array.init n (fun _ -> Kasdin.stream_next st) in
        let s = Ptrng_signal.Psd.welch ~seg_len:2048 ~fs:1.0 x in
        let slope, _ = Slope.log_log_slope s ~f_lo:(8.0 /. 1024.0) ~f_hi:0.05 in
        Testkit.check_abs ~tol:0.2 "slope" (-1.0) slope);
    Testkit.case "allan variance of flicker block is flat" (fun () ->
        let n = 1 lsl 16 and hm1 = 1e-6 in
        let y =
          samples (Source.flicker_fm ~taps:n ~hm1 ()) (Testkit.rng ~seed:99L ()) n
        in
        let reference = Ptrng_stats.Allan.avar_flicker_fm ~hm1 in
        List.iter
          (fun m ->
            let est = Ptrng_stats.Allan.avar_overlapping ~tau0:1.0 ~m y in
            Testkit.check_rel ~tol:0.25 (Printf.sprintf "m=%d" m) reference est)
          [ 4; 32; 256 ]);
    Testkit.case "rejects bad arguments" (fun () ->
        Alcotest.check_raises "n=0" (Invalid_argument "Kasdin.coefficients: n <= 0")
          (fun () -> ignore (Kasdin.coefficients ~alpha:1.0 0)));
  ]

let voss_tests =
  [
    Testkit.case "spectrum slope is about -1" (fun () ->
        let v = Voss.create (Testkit.rng ()) ~octaves:16 in
        let x = Array.init (1 lsl 16) (fun _ -> Voss.next v) in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs:1.0 x in
        let slope, _ = Slope.log_log_slope s ~f_lo:2e-3 ~f_hi:0.1 in
        Testkit.check_abs ~tol:0.2 "slope" (-1.0) slope);
    Testkit.case "level matches sigma^2/ln2 within the staircase ripple" (fun () ->
        let v = Voss.create (Testkit.rng ()) ~octaves:16 in
        let x = Array.init (1 lsl 16) (fun _ -> Voss.next v) in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs:1.0 x in
        let f_ref = 0.01 in
        let level = Ptrng_signal.Psd.band_mean s ~f_lo:(f_ref /. 2.0) ~f_hi:(f_ref *. 2.0) in
        Testkit.check_rel ~tol:0.35 "level" (Voss.level_hm1 ~sigma:1.0 /. f_ref) level);
    Testkit.case "rejects octave overflow" (fun () ->
        let rng = Testkit.rng () in
        Alcotest.check_raises "63" (Invalid_argument "Voss.create: octaves outside [1,62]")
          (fun () -> ignore (Voss.create rng ~octaves:63)));
  ]

let spectral_synth_tests =
  [
    Testkit.case "white target reproduces a flat spectrum" (fun () ->
        let rng = Testkit.rng () in
        let level = 5e-4 and fs = 100.0 in
        let x = Spectral_synth.generate rng ~psd:(fun _ -> level) ~fs (1 lsl 15) in
        let s = Ptrng_signal.Psd.welch ~seg_len:1024 ~fs x in
        let measured = Ptrng_signal.Psd.band_mean s ~f_lo:(fs /. 100.0) ~f_hi:(fs /. 2.2) in
        Testkit.check_rel ~tol:0.06 "level" level measured);
    Testkit.case "1/f target reproduces slope and level" (fun () ->
        let rng = Testkit.rng () in
        let hm1 = 1e-3 and fs = 1.0 in
        let x = Spectral_synth.generate rng ~psd:(fun f -> hm1 /. f) ~fs (1 lsl 16) in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs x in
        let slope, _ = Slope.log_log_slope s ~f_lo:2e-3 ~f_hi:0.2 in
        Testkit.check_abs ~tol:0.1 "slope" (-1.0) slope;
        let f_ref = 0.02 in
        let level = Ptrng_signal.Psd.band_mean s ~f_lo:(f_ref /. 1.3) ~f_hi:(f_ref *. 1.3) in
        Testkit.check_rel ~tol:0.2 "level" (hm1 /. f_ref) level);
    Testkit.case "flicker synthesis matches the Allan closed form" (fun () ->
        let rng = Testkit.rng ~seed:123L () in
        let hm1 = 2e-6 in
        let model = { Psd_model.h0 = 0.0; hm1; hm2 = 0.0 } in
        let y = Spectral_synth.generate_frac_freq rng ~model ~fs:1.0 (1 lsl 17) in
        let reference = Ptrng_stats.Allan.avar_flicker_fm ~hm1 in
        List.iter
          (fun m ->
            let est = Ptrng_stats.Allan.avar_overlapping ~tau0:1.0 ~m y in
            Testkit.check_rel ~tol:0.2 (Printf.sprintf "m=%d" m) reference est)
          [ 8; 64; 512 ]);
    Testkit.case "white + flicker mixture has both regimes" (fun () ->
        let rng = Testkit.rng () in
        let model = { Psd_model.h0 = 1e-4; hm1 = 1e-6; hm2 = 0.0 } in
        let y = Spectral_synth.generate_frac_freq rng ~model ~fs:1.0 (1 lsl 16) in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs:1.0 y in
        (* At high f the white floor dominates, at low f the 1/f term. *)
        let high = Ptrng_signal.Psd.band_mean s ~f_lo:0.2 ~f_hi:0.45 in
        Testkit.check_rel ~tol:0.1 "white floor" 1e-4 high;
        let low = Ptrng_signal.Psd.band_mean s ~f_lo:0.002 ~f_hi:0.004 in
        Testkit.check_rel ~tol:0.35 "flicker lift"
          (1e-4 +. (1e-6 /. 0.003)) low);
    Testkit.case "zero model yields silence" (fun () ->
        let rng = Testkit.rng () in
        let model = { Psd_model.h0 = 0.0; hm1 = 0.0; hm2 = 0.0 } in
        let y = Spectral_synth.generate_frac_freq rng ~model ~fs:1.0 256 in
        Array.iter (fun v -> Testkit.check_abs ~tol:0.0 "zero" 0.0 v) y);
    Testkit.case "rejects non-pow2 length" (fun () ->
        let rng = Testkit.rng () in
        Alcotest.check_raises "100"
          (Invalid_argument "Spectral_synth.generate: n must be a power of two")
          (fun () -> ignore (Spectral_synth.generate rng ~psd:(fun _ -> 1.0) ~fs:1.0 100)));
  ]

let cross_generator_tests =
  [
    Testkit.slow_case "three flicker generators agree on the Allan level" (fun () ->
        (* Kasdin, spectral synthesis and Voss are independent
           constructions; their Allan variances at matched h-1 must
           agree within estimator error + Voss ripple. *)
        let hm1 = 1e-6 in
        let n = 1 lsl 16 in
        let reference = Ptrng_stats.Allan.avar_flicker_fm ~hm1 in
        let kasdin =
          samples (Source.flicker_fm ~taps:n ~hm1 ()) (Testkit.rng ~seed:1L ()) n
        in
        let rng2 = Testkit.rng ~seed:2L () in
        let spectral =
          Spectral_synth.generate rng2 ~psd:(fun f -> hm1 /. f) ~fs:1.0 n
        in
        let voss_gen = Voss.create (Testkit.rng ~seed:3L ()) ~octaves:16 in
        let sigma = sqrt (hm1 *. log 2.0) in
        let voss = Array.init n (fun _ -> sigma *. Voss.next voss_gen) in
        List.iter
          (fun (name, series, tol) ->
            let est = Ptrng_stats.Allan.avar_overlapping ~tau0:1.0 ~m:64 series in
            Testkit.check_rel ~tol name reference est)
          [ ("kasdin", kasdin, 0.25); ("spectral", spectral, 0.25); ("voss", voss, 0.4) ]);
  ]

let () =
  Alcotest.run "ptrng_noise"
    [
      ("psd_model", psd_model_tests);
      ("white", white_tests);
      ("kasdin", kasdin_tests);
      ("voss", voss_tests);
      ("spectral_synth", spectral_synth_tests);
      ("cross_generator", cross_generator_tests);
    ]
