open Ptrng_model

let f0 = Ptrng_osc.Pair.paper_f0
let paper_phase = Ptrng_osc.Pair.paper_relative

let spectral_tests =
  [
    Testkit.case "closed form reproduces eq. 11 term by term" (fun () ->
        let n = 1000 in
        Testkit.check_rel ~tol:1e-12 "thermal"
          (2.0 *. paper_phase.Ptrng_noise.Psd_model.b_th *. 1000.0 /. (f0 ** 3.0))
          (Spectral.sigma2_n_thermal paper_phase ~f0 ~n);
        Testkit.check_rel ~tol:1e-12 "flicker"
          (8.0 *. log 2.0 *. paper_phase.Ptrng_noise.Psd_model.b_fl *. 1e6 /. (f0 ** 4.0))
          (Spectral.sigma2_n_flicker paper_phase ~f0 ~n);
        Testkit.check_rel ~tol:1e-12 "sum"
          (Spectral.sigma2_n_thermal paper_phase ~f0 ~n
          +. Spectral.sigma2_n_flicker paper_phase ~f0 ~n)
          (Spectral.sigma2_n paper_phase ~f0 ~n));
    Testkit.case "paper fit: f0^2 sigma_N^2 ~ 5.36e-6 N (1 + N/5354)" (fun () ->
        List.iter
          (fun n ->
            let fn = float_of_int n in
            let expected = 5.36e-6 *. fn *. (1.0 +. (fn /. 5354.0)) in
            Testkit.check_rel ~tol:2e-3 (Printf.sprintf "N=%d" n) expected
              (Spectral.scaled paper_phase ~f0 ~n))
          [ 10; 281; 5354; 100000 ]);
    Testkit.case "numeric eq. 9 integral matches the closed form" (fun () ->
        (* This validates the appendix calculus: the sin^4 kernel
           integrals against b_fl/f^3 + b_th/f^2. *)
        List.iter
          (fun n ->
            Testkit.check_rel ~tol:1e-4
              (Printf.sprintf "N=%d" n)
              (Spectral.sigma2_n paper_phase ~f0 ~n)
              (Spectral.sigma2_n_numeric paper_phase ~f0 ~n))
          [ 1; 10; 281; 5354 ]);
    Testkit.case "generic PSD integrator agrees on the thermal term" (fun () ->
        let phase = { Ptrng_noise.Psd_model.b_th = 276.04; b_fl = 0.0 } in
        let psd f = 276.04 /. (f *. f) in
        let n = 100 in
        (* Integrate far past the kernel's first decades. *)
        let numeric =
          Spectral.sigma2_n_numeric_of_psd ~psd ~f_max:(200.0 *. f0 /. float_of_int n)
            ~steps:2_000_000 ~f0 ~n
        in
        Testkit.check_rel ~tol:0.02 "thermal only" (Spectral.sigma2_n phase ~f0 ~n) numeric);
    Testkit.case "rejects bad arguments" (fun () ->
        Alcotest.check_raises "n" (Invalid_argument "Spectral: n <= 0") (fun () ->
            ignore (Spectral.sigma2_n paper_phase ~f0 ~n:0)));
  ]

let bienayme_tests =
  let synthetic phase =
    let ns = Ptrng_measure.Variance_curve.log2_grid ~n_min:4 ~n_max:16384 in
    Array.map
      (fun n ->
        let sigma2 = Spectral.sigma2_n phase ~f0 ~n in
        {
          Ptrng_measure.Variance_curve.n;
          sigma2;
          scaled = sigma2 *. f0 *. f0;
          neff = 1000;
          stderr = sigma2 *. 0.01;
        })
      ns
  in
  [
    Testkit.case "linear prediction is 2 N sigma^2" (fun () ->
        Testkit.check_rel ~tol:1e-12 "eq 6" 64.0
          (Bienayme.linear_prediction ~sigma2:2.0 ~n:16));
    Testkit.case "thermal-only curve has growth exponent 1" (fun () ->
        let pts = synthetic { Ptrng_noise.Psd_model.b_th = 276.0; b_fl = 0.0 } in
        let slope, _ = Bienayme.growth_exponent pts in
        Testkit.check_abs ~tol:1e-6 "slope" 1.0 slope);
    Testkit.case "flicker-only curve has growth exponent 2" (fun () ->
        let pts = synthetic { Ptrng_noise.Psd_model.b_th = 0.0; b_fl = 1.9e6 } in
        let slope, _ = Bienayme.growth_exponent pts in
        Testkit.check_abs ~tol:1e-6 "slope" 2.0 slope);
    Testkit.case "paper curve sits between the two regimes" (fun () ->
        let pts = synthetic paper_phase in
        let slope, _ = Bienayme.growth_exponent pts in
        Testkit.check_in_range "slope" ~lo:1.02 ~hi:1.6 slope);
    Testkit.case "departure ratio grows with N under flicker" (fun () ->
        let pts = synthetic paper_phase in
        let ratios = Bienayme.departure_ratio pts in
        let _, first = ratios.(0) in
        let _, last = ratios.(Array.length ratios - 1) in
        Testkit.check_rel ~tol:0.02 "anchored at 1" 1.0 first;
        Testkit.check_true "dependence signature" (last > 1.5));
    Testkit.case "departure ratio stays flat for white jitter" (fun () ->
        let pts = synthetic { Ptrng_noise.Psd_model.b_th = 276.0; b_fl = 0.0 } in
        Array.iter
          (fun (_, r) -> Testkit.check_rel ~tol:1e-6 "flat" 1.0 r)
          (Bienayme.departure_ratio pts));
    Testkit.case "significance flag fires only under flicker" (fun () ->
        let flicker = synthetic paper_phase in
        Testkit.check_true "flagged" (Bienayme.excess_is_significant flicker ~z_threshold:5.0);
        let white = synthetic { Ptrng_noise.Psd_model.b_th = 276.0; b_fl = 0.0 } in
        Testkit.check_false "not flagged"
          (Bienayme.excess_is_significant white ~z_threshold:5.0));
  ]

let entropy_tests =
  [
    Testkit.case "bit probability limits" (fun () ->
        (* Zero jitter: deterministic square wave; huge jitter: a coin. *)
        Testkit.check_rel ~tol:1e-9 "mu in high half" 1.0
          (Entropy.bit_probability ~mu:(Float.pi /. 2.0) ~phase_std:0.0);
        Testkit.check_abs ~tol:1e-9 "mu in low half" 0.0
          (Entropy.bit_probability ~mu:(-.Float.pi /. 2.0) ~phase_std:0.0);
        Testkit.check_rel ~tol:1e-9 "diffused" 0.5
          (Entropy.bit_probability ~mu:(Float.pi /. 2.0) ~phase_std:30.0));
    Testkit.case "probability is monotone toward 1/2 in the jitter" (fun () ->
        let mu = Float.pi /. 2.0 in
        let p1 = Entropy.bit_probability ~mu ~phase_std:0.5 in
        let p2 = Entropy.bit_probability ~mu ~phase_std:1.0 in
        let p3 = Entropy.bit_probability ~mu ~phase_std:2.0 in
        Testkit.check_true "ordered" (p1 > p2 && p2 > p3 && p3 > 0.5));
    Testkit.case "shannon entropy endpoints" (fun () ->
        Testkit.check_abs ~tol:0.0 "h(0)" 0.0 (Entropy.shannon 0.0);
        Testkit.check_abs ~tol:0.0 "h(1)" 0.0 (Entropy.shannon 1.0);
        Testkit.check_rel ~tol:1e-12 "h(1/2)" 1.0 (Entropy.shannon 0.5);
        Testkit.check_rel ~tol:1e-9 "h(1/4)"
          ((0.25 *. 2.0) +. (0.75 *. (log (4.0 /. 3.0) /. log 2.0)))
          (Entropy.shannon 0.25));
    Testkit.case "avg entropy is monotone in phase diffusion" (fun () ->
        let h1 = Entropy.avg_entropy ~phase_std:0.3 in
        let h2 = Entropy.avg_entropy ~phase_std:1.0 in
        let h3 = Entropy.avg_entropy ~phase_std:3.0 in
        Testkit.check_true "monotone" (h1 < h2 && h2 < h3);
        Testkit.check_in_range "saturates at 1" ~lo:0.9999 ~hi:1.0 h3);
    Testkit.case "min entropy is a lower bound on avg entropy" (fun () ->
        List.iter
          (fun s ->
            Testkit.check_true
              (Printf.sprintf "s=%.1f" s)
              (Entropy.min_entropy ~phase_std:s <= Entropy.avg_entropy ~phase_std:s +. 1e-9))
          [ 0.2; 0.5; 1.0; 2.0 ]);
    Testkit.case "closed approximation converges to the exact average" (fun () ->
        List.iter
          (fun (s, tol) ->
            let approx = Entropy.entropy_lower_bound ~phase_std:s in
            let exact = Entropy.avg_entropy ~phase_std:s in
            Testkit.check_abs ~tol (Printf.sprintf "s=%.1f" s) exact approx)
          [ (1.5, 2e-2); (2.0, 1e-3); (3.0, 1e-6) ]);
    Testkit.case "phase std conversions" (fun () ->
        Testkit.check_rel ~tol:1e-12 "accumulated"
          (2.0 *. Float.pi *. 103e6 *. 1e-9)
          (Entropy.phase_std_of_accumulated_jitter ~sigma_acc:1e-9 ~f0:103e6);
        Testkit.check_rel ~tol:1e-12 "thermal sqrt(k)"
          (2.0 *. Float.pi *. 103e6 *. 15.89e-12 *. sqrt 1000.0)
          (Entropy.phase_std_thermal ~sigma_period:15.89e-12 ~k:1000 ~f0:103e6));
  ]

let compare_tests =
  [
    Testkit.case "naive sigma grows with measurement length N" (fun () ->
        let extract = Ptrng_measure.Thermal_extract.of_phase ~f0 paper_phase in
        let rows =
          Compare.overestimation_table ~extract ~sampling_periods:1000
            ~ns:[| 10; 281; 5354; 50000 |]
        in
        for i = 1 to Array.length rows - 1 do
          Testkit.check_true "sigma_naive increasing"
            (rows.(i).Compare.sigma_naive > rows.(i - 1).Compare.sigma_naive)
        done);
    Testkit.case "entropy overestimate is nonnegative and grows" (fun () ->
        let extract = Ptrng_measure.Thermal_extract.of_phase ~f0 paper_phase in
        let rows =
          Compare.overestimation_table ~extract ~sampling_periods:300
            ~ns:[| 10; 5354; 100000 |]
        in
        Array.iter
          (fun r -> Testkit.check_true "nonnegative" (r.Compare.overestimate >= -1e-9))
          rows;
        Testkit.check_true "grows with N"
          (rows.(2).Compare.overestimate > rows.(0).Compare.overestimate);
        Testkit.check_true "material at large N" (rows.(2).Compare.overestimate > 0.01));
    Testkit.case "at small N the two models agree" (fun () ->
        let extract = Ptrng_measure.Thermal_extract.of_phase ~f0 paper_phase in
        let rows =
          Compare.overestimation_table ~extract ~sampling_periods:300 ~ns:[| 1 |]
        in
        Testkit.check_abs ~tol:1e-3 "no overestimate yet" 0.0 rows.(0).Compare.overestimate);
    Testkit.case "sigma_naive_of_point definition" (fun () ->
        let p =
          { Ptrng_measure.Variance_curve.n = 50; sigma2 = 1e-22; scaled = 0.0;
            neff = 10; stderr = 0.0 }
        in
        Testkit.check_rel ~tol:1e-12 "sqrt(sigma2/2N)"
          (sqrt (1e-22 /. 100.0))
          (Compare.sigma_naive_of_point p));
  ]

let bit_markov_tests =
  [
    Testkit.case "limits of the stay probability" (fun () ->
        (* No movement between samples: the bit repeats forever. *)
        let frozen = Bit_markov.create ~drift:0.0 ~diffusion:0.0 in
        Testkit.check_rel ~tol:1e-6 "frozen" 1.0 frozen.p_stay;
        (* Half-period drift with no noise: deterministic alternation. *)
        let flip = Bit_markov.create ~drift:Float.pi ~diffusion:1e-6 in
        Testkit.check_abs ~tol:1e-3 "flip" 0.0 flip.p_stay;
        (* Huge diffusion: a fair coin regardless of drift. *)
        let coin = Bit_markov.create ~drift:1.0 ~diffusion:20.0 in
        Testkit.check_rel ~tol:1e-6 "coin" 0.5 coin.p_stay);
    Testkit.case "entropy rate spans [0, 1] with diffusion" (fun () ->
        let low = Bit_markov.create ~drift:0.0 ~diffusion:0.1 in
        let mid = Bit_markov.create ~drift:0.0 ~diffusion:1.0 in
        let high = Bit_markov.create ~drift:0.0 ~diffusion:5.0 in
        Testkit.check_true "ordering"
          (Bit_markov.entropy_rate low < Bit_markov.entropy_rate mid
          && Bit_markov.entropy_rate mid < Bit_markov.entropy_rate high);
        Testkit.check_in_range "saturates" ~lo:0.999 ~hi:1.0
          (Bit_markov.entropy_rate high));
    Testkit.case "bit-conditioned rate dominates the phase-conditioned bound" (fun () ->
        (* The previous bit is a coarsening of the previous phase, so
           H(b'|b) >= H(b'|phi) — data processing. *)
        List.iter
          (fun diffusion ->
            let m = Bit_markov.create ~drift:0.0 ~diffusion in
            Testkit.check_true
              (Printf.sprintf "s=%.1f" diffusion)
              (Bit_markov.entropy_rate m
              >= Bit_markov.phase_conditioned_entropy m -. 1e-6))
          [ 0.3; 0.7; 1.5; 3.0 ]);
    Testkit.case "model matches the simulated thermal-only TRNG" (fun () ->
        (* Thermal-only pair so the model assumptions hold exactly. *)
        let sigma_rel = 15.89e-12 *. 10.0 in
        let f0 = Ptrng_osc.Pair.paper_f0 in
        let divisor = 200 in
        let detuning = 1e-4 in
        let relative =
          { Ptrng_noise.Psd_model.b_th = sigma_rel *. sigma_rel *. (f0 ** 3.0);
            b_fl = 0.0 }
        in
        let pair =
          Ptrng_osc.Pair.of_relative ~flicker_generator:`None ~detuning ~f0 ~relative ()
        in
        let cfg = Ptrng_trng.Ero_trng.config ~divisor pair in
        let stream =
          Ptrng_trng.Ero_trng.generate (Testkit.rng ~seed:14L ()) cfg ~bits:30000
        in
        let measured =
          Bit_markov.measured_p_stay (Ptrng_trng.Bitstream.to_bools stream)
        in
        let model =
          Bit_markov.of_thermal ~sigma_period:sigma_rel ~divisor ~detuning ~f0
        in
        Testkit.check_abs ~tol:0.03 "stay probability" model.p_stay measured);
    Testkit.case "total-jitter diffusion overstates the rate" (fun () ->
        (* The paper's warning restated on this model: a diffusion blown
           up by flicker-contaminated sigma inflates the entropy rate. *)
        let honest = Bit_markov.create ~drift:0.3 ~diffusion:0.5 in
        let naive = Bit_markov.create ~drift:0.3 ~diffusion:(0.5 *. 4.4) in
        Testkit.check_true "overstated"
          (Bit_markov.entropy_rate naive > Bit_markov.entropy_rate honest +. 0.1));
  ]

let phase_chain_tests =
  [
    Testkit.case "stationary distribution is uniform" (fun () ->
        let chain = Phase_chain.create ~bins:64 ~drift:0.7 ~diffusion:0.9 () in
        let pi_dist = Phase_chain.stationary chain in
        Array.iter
          (fun p -> Testkit.check_rel ~tol:1e-6 "uniform" (1.0 /. 64.0) p)
          pi_dist);
    Testkit.case "diffusion far below the bin width is a point mass" (fun () ->
        (* Every bin's wrapped Gaussian underflows: the kernel was 0/0. *)
        List.iter
          (fun (drift, diffusion) ->
            let chain = Phase_chain.create ~bins:64 ~drift ~diffusion () in
            Testkit.check_rel ~tol:1e-12 "mass" 1.0
              (Array.fold_left ( +. ) 0.0 (Phase_chain.stationary chain)))
          [ (0.05, 1e-3); (-2.9, 5e-4); (1.0, 1e-11) ]);
    Testkit.case "marginal bit probability is 1/2" (fun () ->
        let chain = Phase_chain.create ~drift:0.3 ~diffusion:0.8 () in
        Testkit.check_rel ~tol:1e-6 "fair" 0.5 (Phase_chain.marginal_bit_probability chain));
    Testkit.case "agrees with the analytic phase-conditioned entropy" (fun () ->
        (* Two independent numerical pipelines for H(b'|phase): the
           discrete chain vs Entropy.avg_entropy's direct integral. *)
        List.iter
          (fun s ->
            let chain = Phase_chain.create ~bins:512 ~drift:0.0 ~diffusion:s () in
            Testkit.check_abs ~tol:5e-3
              (Printf.sprintf "s=%.1f" s)
              (Entropy.avg_entropy ~phase_std:s)
              (Phase_chain.entropy_rate_given_state chain))
          [ 0.3; 0.7; 1.2; 2.0 ]);
    Testkit.case "zero diffusion with half-period drift is deterministic" (fun () ->
        let chain = Phase_chain.create ~drift:Float.pi ~diffusion:0.0 () in
        Testkit.check_abs ~tol:1e-9 "no entropy" 0.0
          (Phase_chain.entropy_rate_given_state chain));
    Testkit.case "simulated bits match Bit_markov's stay probability" (fun () ->
        let drift = 0.4 and diffusion = 0.8 in
        let chain = Phase_chain.create ~bins:512 ~drift ~diffusion () in
        let bits = Phase_chain.simulate (Testkit.rng ~seed:51L ()) chain ~bits:100000 in
        let markov = Bit_markov.create ~drift ~diffusion in
        Testkit.check_abs ~tol:0.01 "p_stay" markov.p_stay
          (Bit_markov.measured_p_stay bits));
    Testkit.case "rejects degenerate parameters" (fun () ->
        Alcotest.check_raises "bins" (Invalid_argument "Phase_chain.create: bins < 8")
          (fun () -> ignore (Phase_chain.create ~bins:4 ~drift:0.0 ~diffusion:1.0 ())));
  ]

let design_tests =
  let extract = Ptrng_measure.Thermal_extract.of_phase ~f0 paper_phase in
  [
    Testkit.case "entropy grows with the divisor" (fun () ->
        let h1 = Design.entropy_at ~extract ~divisor:1000 in
        let h2 = Design.entropy_at ~extract ~divisor:10000 in
        let h3 = Design.entropy_at ~extract ~divisor:100000 in
        Testkit.check_true "monotone" (h1 < h2 && h2 < h3));
    Testkit.case "required divisor brackets the target" (fun () ->
        let k = Design.required_divisor ~extract () in
        Testkit.check_true "meets target" (Design.entropy_at ~extract ~divisor:k >= 0.997);
        Testkit.check_true "minimal"
          (k = 1 || Design.entropy_at ~extract ~divisor:(k - 1) < 0.997));
    Testkit.case "paper generator needs tens of thousands of periods" (fun () ->
        (* sigma/T0 = 1.6e-3: the AIS31 PTG.2 target needs the phase to
           diffuse by ~2.3 rad, i.e. K ~ (2.3 / (2 pi 1.6e-3))^2. *)
        let k = Design.required_divisor ~extract () in
        Testkit.check_in_range "order of magnitude" ~lo:20000.0 ~hi:80000.0
          (float_of_int k));
    Testkit.case "throughput is f0 / divisor" (fun () ->
        Testkit.check_rel ~tol:1e-12 "rate" (103e6 /. 50000.0)
          (Design.throughput ~extract ~divisor:50000));
    Testkit.case "naive design under-provisions the divisor" (fun () ->
        (* Total jitter measured over 100000 periods inflates sigma by
           ~4.4x, shrinking the chosen divisor by ~20x: concrete
           security damage of the independence assumption. *)
        let naive = Design.naive_divisor ~extract ~measured_at:100000 () in
        let honest = Design.required_divisor ~extract () in
        Testkit.check_true "naive is smaller" (naive < honest / 4);
        let real_entropy = Design.entropy_at ~extract ~divisor:naive in
        Testkit.check_true "delivered entropy misses the target"
          (real_entropy < 0.99));
    Testkit.case "rejects bad targets" (fun () ->
        Alcotest.check_raises "target" (Invalid_argument "Design: target outside (0,1)")
          (fun () -> ignore (Design.required_divisor ~target:1.5 ~extract ())));
  ]

let multilevel_tests =
  [
    Testkit.case "predicted curve matches the closed form" (fun () ->
        let curve =
          Multilevel.predicted_curve paper_phase ~f0 ~ns:[| 10; 100 |]
        in
        Array.iter
          (fun (n, v) ->
            Testkit.check_rel ~tol:1e-12 "scaled" (Spectral.scaled paper_phase ~f0 ~n) v)
          curve);
    Testkit.case "nominal f0 averages the pair" (fun () ->
        let pair =
          Ptrng_osc.Pair.of_relative ~detuning:1e-3 ~f0 ~relative:paper_phase ()
        in
        Testkit.check_rel ~tol:1e-12 "mean" f0 (Multilevel.nominal_f0 pair));
    Testkit.case "characterize rejects tiny traces" (fun () ->
        Alcotest.check_raises "small"
          (Invalid_argument "Multilevel.characterize: n_periods < 1024")
          (fun () ->
            ignore
              (Multilevel.characterize ~n_periods:100 ~rng:(Testkit.rng ())
                 (Ptrng_osc.Pair.paper_pair ()))));
  ]

let () =
  Alcotest.run "ptrng_model"
    [
      ("spectral", spectral_tests);
      ("bienayme", bienayme_tests);
      ("entropy", entropy_tests);
      ("compare", compare_tests);
      ("bit_markov", bit_markov_tests);
      ("design", design_tests);
      ("phase_chain", phase_chain_tests);
      ("multilevel", multilevel_tests);
    ]
