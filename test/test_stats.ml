open Ptrng_stats

let gaussian_array ?(seed = 0x5EEDL) ?(sigma = 1.0) n =
  let g = Ptrng_prng.Gaussian.create (Testkit.rng ~seed ()) in
  Array.init n (fun _ -> sigma *. Ptrng_prng.Gaussian.draw g)

let descriptive_tests =
  [
    Testkit.case "mean/variance of a known sample" (fun () ->
        let x = [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |] in
        Testkit.check_rel ~tol:1e-12 "mean" 5.0 (Descriptive.mean x);
        Testkit.check_rel ~tol:1e-12 "biased var" 4.0 (Descriptive.variance_biased x);
        Testkit.check_rel ~tol:1e-12 "unbiased var" (32.0 /. 7.0) (Descriptive.variance x));
    Testkit.case "median and quantiles" (fun () ->
        let x = [| 7.0; 1.0; 3.0; 5.0 |] in
        Testkit.check_rel ~tol:1e-12 "median" 4.0 (Descriptive.median x);
        Testkit.check_rel ~tol:1e-12 "q0" 1.0 (Descriptive.quantile x 0.0);
        Testkit.check_rel ~tol:1e-12 "q1" 7.0 (Descriptive.quantile x 1.0);
        Testkit.check_rel ~tol:1e-12 "q25" 2.5 (Descriptive.quantile x 0.25));
    Testkit.case "min_max" (fun () ->
        let lo, hi = Descriptive.min_max [| 3.0; -1.0; 9.0; 0.0 |] in
        Testkit.check_rel ~tol:0.0 "lo" (-1.0) lo;
        Testkit.check_rel ~tol:0.0 "hi" 9.0 hi);
    Testkit.case "kahan sum survives cancellation" (fun () ->
        let x = Array.concat [ [| 1e16 |]; Array.make 10 1.0; [| -1e16 |] ] in
        Testkit.check_rel ~tol:1e-12 "sum" 10.0 (Descriptive.sum x));
    Testkit.case "skewness and kurtosis of a gaussian sample" (fun () ->
        let x = gaussian_array 100000 in
        Testkit.check_abs ~tol:0.05 "skew" 0.0 (Descriptive.skewness x);
        Testkit.check_abs ~tol:0.1 "kurt" 0.0 (Descriptive.kurtosis_excess x));
    Testkit.case "exponential sample has skew 2, kurtosis 6" (fun () ->
        let rng = Testkit.rng () in
        let x =
          Array.init 300000 (fun _ -> Ptrng_prng.Distributions.exponential rng ~rate:1.0)
        in
        Testkit.check_rel ~tol:0.1 "skew" 2.0 (Descriptive.skewness x);
        Testkit.check_rel ~tol:0.2 "kurt" 6.0 (Descriptive.kurtosis_excess x));
    Testkit.case "guards on short input" (fun () ->
        Alcotest.check_raises "variance of singleton"
          (Invalid_argument "Descriptive.variance: need at least 2 samples")
          (fun () -> ignore (Descriptive.variance [| 1.0 |])));
    Testkit.case "standard error of variance" (fun () ->
        Testkit.check_rel ~tol:1e-12 "se" (2.0 *. sqrt (2.0 /. 99.0))
          (Descriptive.standard_error_of_variance ~n:100 ~variance:2.0));
  ]

let histogram_tests =
  [
    Testkit.case "counts land in the right bins" (fun () ->
        let h = Histogram.make ~bins:4 ~range:(0.0, 4.0) [| 0.5; 1.5; 1.6; 2.5; 3.9 |] in
        Alcotest.(check (array int)) "counts" [| 1; 2; 1; 1 |] h.counts);
    Testkit.case "outliers are clamped to edge bins" (fun () ->
        let h = Histogram.make ~bins:2 ~range:(0.0, 2.0) [| -5.0; 0.5; 9.0 |] in
        Alcotest.(check (array int)) "counts" [| 2; 1 |] h.counts);
    Testkit.case "density integrates to one" (fun () ->
        let x = gaussian_array 10000 in
        let h = Histogram.make ~bins:40 x in
        let d = Histogram.density h in
        let acc = ref 0.0 in
        Array.iteri (fun i v -> acc := !acc +. (v *. (h.edges.(i + 1) -. h.edges.(i)))) d;
        Testkit.check_rel ~tol:1e-9 "integral" 1.0 !acc);
    Testkit.case "bin centers are midpoints" (fun () ->
        let h = Histogram.make ~bins:2 ~range:(0.0, 2.0) [| 0.5 |] in
        Alcotest.(check (array (float 1e-12))) "centers" [| 0.5; 1.5 |]
          (Histogram.bin_centers h));
    Testkit.case "rejects empty range" (fun () ->
        Alcotest.check_raises "range" (Invalid_argument "Histogram.make: empty range")
          (fun () -> ignore (Histogram.make ~bins:4 ~range:(1.0, 1.0) [| 1.0 |])));
  ]

(* [f x] must be exactly [expected] at every x. *)
let limit_case name expected f xs =
  Testkit.case name (fun () ->
      List.iter
        (fun x -> Alcotest.(check (float 0.0)) (Printf.sprintf "at %h" x) expected (f x))
        xs)

let special_tests =
  [
    Testkit.case "log_gamma at integers and half-integers" (fun () ->
        Testkit.check_abs ~tol:1e-12 "lgamma 1" 0.0 (Special.log_gamma 1.0);
        Testkit.check_rel ~tol:1e-12 "lgamma 5" (log 24.0) (Special.log_gamma 5.0);
        Testkit.check_rel ~tol:1e-12 "lgamma 0.5" (0.5 *. log Float.pi)
          (Special.log_gamma 0.5);
        Testkit.check_rel ~tol:1e-10 "lgamma 10.5"
          (Special.log_gamma 9.5 +. log 9.5)
          (Special.log_gamma 10.5));
    Testkit.case "erf reference values" (fun () ->
        Testkit.check_abs ~tol:1e-10 "erf 0" 0.0 (Special.erf 0.0);
        Testkit.check_rel ~tol:1e-9 "erf 1" 0.8427007929497149 (Special.erf 1.0);
        Testkit.check_rel ~tol:1e-9 "erf 0.5" 0.5204998778130465 (Special.erf 0.5);
        Testkit.check_rel ~tol:1e-9 "erf -1" (-0.8427007929497149) (Special.erf (-1.0));
        Testkit.check_rel ~tol:1e-8 "erfc 2" 0.004677734981063127 (Special.erfc 2.0));
    Testkit.case "erf + erfc = 1" (fun () ->
        List.iter
          (fun x ->
            Testkit.check_rel ~tol:1e-12 "sum" 1.0 (Special.erf x +. Special.erfc x))
          [ -2.0; -0.3; 0.0; 0.7; 3.0 ]);
    Testkit.case "gamma_p of a = 1 is 1 - exp(-x)" (fun () ->
        List.iter
          (fun x ->
            Testkit.check_rel ~tol:1e-10 "gamma_p" (1.0 -. exp (-.x))
              (Special.gamma_p ~a:1.0 ~x))
          [ 0.1; 1.0; 3.0; 10.0 ]);
    Testkit.case "gamma_p + gamma_q = 1" (fun () ->
        List.iter
          (fun (a, x) ->
            Testkit.check_rel ~tol:1e-10 "sum" 1.0
              (Special.gamma_p ~a ~x +. Special.gamma_q ~a ~x))
          [ (0.5, 0.2); (2.0, 5.0); (10.0, 3.0); (10.0, 30.0) ]);
    Testkit.case "normal cdf reference values" (fun () ->
        Testkit.check_rel ~tol:1e-12 "cdf 0" 0.5 (Special.normal_cdf 0.0);
        Testkit.check_rel ~tol:1e-9 "cdf of the 97.5% quantile" 0.975
          (Special.normal_cdf 1.959963984540054);
        Testkit.check_rel ~tol:1e-9 "sf tail" (Special.normal_cdf (-4.0))
          (Special.normal_sf 4.0));
    Testkit.case "normal_ppf inverts the cdf" (fun () ->
        List.iter
          (fun p ->
            Testkit.check_abs ~tol:1e-9 "round trip" p
              (Special.normal_cdf (Special.normal_ppf p)))
          [ 1e-6; 0.01; 0.3; 0.5; 0.9; 0.999; 1.0 -. 1e-6 ]);
    Testkit.case "chi2 reference values" (fun () ->
        Testkit.check_rel ~tol:1e-10 "df=2 cdf" (1.0 -. exp (-1.0))
          (Special.chi2_cdf ~df:2.0 2.0);
        Testkit.check_rel ~tol:1e-4 "df=1 95pc" 0.05
          (Special.chi2_sf ~df:1.0 3.841458820694124));
    (* Non-finite limits: at |x| >= ~1.35e154, x^2 overflows to +inf,
       where the continued fraction used to meet inf - inf. *)
    limit_case "erfc(+inf) = 0" 0.0 Special.erfc [ Float.infinity; 1e155; 1e200 ];
    limit_case "erfc(-inf) = 2" 2.0 Special.erfc
      [ Float.neg_infinity; -1e155; -1e200 ];
    limit_case "erf(+inf) = 1" 1.0 Special.erf [ Float.infinity; 1e155; 1e200 ];
    limit_case "erf(-inf) = -1" (-1.0) Special.erf
      [ Float.neg_infinity; -1e155; -1e200 ];
    limit_case "normal_cdf(+inf) = 1" 1.0 Special.normal_cdf
      [ Float.infinity; 1e155; 1e200 ];
    limit_case "normal_cdf(-inf) = 0" 0.0 Special.normal_cdf
      [ Float.neg_infinity; -1e155; -1e200 ];
    limit_case "normal_sf(+inf) = 0" 0.0 Special.normal_sf
      [ Float.infinity; 1e155; 1e200 ];
    limit_case "normal_sf(-inf) = 1" 1.0 Special.normal_sf
      [ Float.neg_infinity; -1e155; -1e200 ];
    limit_case "Q(a, +inf) = 0" 0.0
      (fun a -> Special.gamma_q ~a ~x:Float.infinity)
      [ 1e-3; 0.5; 1.0; 7.5; 1e3 ];
    limit_case "P(a, +inf) = 1" 1.0
      (fun a -> Special.gamma_p ~a ~x:Float.infinity)
      [ 1e-3; 0.5; 1.0; 7.5; 1e3 ];
    limit_case "chi2_sf(df, +inf) = 0" 0.0
      (fun df -> Special.chi2_sf ~df Float.infinity)
      [ 1.0; 2.0; 100.0 ];
    limit_case "chi2_cdf(df, +inf) = 1" 1.0
      (fun df -> Special.chi2_cdf ~df Float.infinity)
      [ 1.0; 2.0; 100.0 ];
    Testkit.case "erfc's saturated tails match the full evaluation" (fun () ->
        (* gamma_q at a = 1/2 runs the same continued fraction erfc
           runs below its shortcuts. *)
        let full x = Special.gamma_q ~a:0.5 ~x:(x *. x) in
        let grid lo hi =
          List.init 2001 (fun i -> lo +. ((hi -. lo) *. float_of_int i /. 2000.0))
        in
        List.iter
          (fun x ->
            Alcotest.(check (float 0.0)) (Printf.sprintf "upper %h" x) 0.0 (full x);
            Alcotest.(check (float 0.0)) (Printf.sprintf "erfc %h" x) 0.0 (Special.erfc x))
          ((Float.succ 27.5 :: grid 27.5 60.0) @ [ 1e10; 1e150 ]);
        List.iter
          (fun x ->
            Alcotest.(check (float 0.0)) (Printf.sprintf "lower %h" x) 2.0
              (2.0 -. full x);
            Alcotest.(check (float 0.0)) (Printf.sprintf "erfc %h" x) 2.0 (Special.erfc x))
          ((Float.pred (-6.4) :: grid (-60.0) (-6.4)) @ [ -1e10; -1e150 ]));
    Testkit.case "NaN in, NaN out" (fun () ->
        List.iter
          (fun (name, f) -> Testkit.check_true name (Float.is_nan (f Float.nan)))
          [
            ("erf", Special.erf);
            ("erfc", Special.erfc);
            ("normal_cdf", Special.normal_cdf);
            ("normal_sf", Special.normal_sf);
            ("gamma_p", fun x -> Special.gamma_p ~a:2.0 ~x);
            ("gamma_q", fun x -> Special.gamma_q ~a:2.0 ~x);
          ]);
    Testkit.case "ks survival sanity" (fun () ->
        Testkit.check_rel ~tol:1e-12 "0" 1.0 (Special.ks_sf 0.0);
        Testkit.check_rel ~tol:1e-6 "1.0"
          (2.0 *. (exp (-2.0) -. exp (-8.0) +. exp (-18.0) -. exp (-32.0)))
          (Special.ks_sf 1.0);
        Testkit.check_true "decreasing" (Special.ks_sf 0.5 > Special.ks_sf 1.5));
  ]

let matrix_tests =
  [
    Testkit.case "solve_lu on a known system" (fun () ->
        let a = Matrix.of_rows [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
        let x = Matrix.solve_lu a [| 5.0; 10.0 |] in
        Testkit.check_rel ~tol:1e-12 "x0" 1.0 x.(0);
        Testkit.check_rel ~tol:1e-12 "x1" 3.0 x.(1));
    Testkit.case "solve_lu with pivoting" (fun () ->
        let a = Matrix.of_rows [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
        let x = Matrix.solve_lu a [| 2.0; 3.0 |] in
        Testkit.check_rel ~tol:1e-12 "x0" 3.0 x.(0);
        Testkit.check_rel ~tol:1e-12 "x1" 2.0 x.(1));
    Testkit.case "inverse times original is identity" (fun () ->
        let a =
          Matrix.of_rows [| [| 4.0; 7.0; 2.0 |]; [| 3.0; 5.0; 1.0 |]; [| 8.0; 1.0; 6.0 |] |]
        in
        let prod = Matrix.mul a (Matrix.inverse a) in
        for i = 0 to 2 do
          for j = 0 to 2 do
            Testkit.check_abs ~tol:1e-10 "entry" (if i = j then 1.0 else 0.0)
              (Matrix.get prod i j)
          done
        done);
    Testkit.case "mul_vec" (fun () ->
        let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
        Alcotest.(check (array (float 1e-12))) "product" [| 5.0; 11.0 |]
          (Matrix.mul_vec a [| 1.0; 2.0 |]));
    Testkit.case "singular system raises" (fun () ->
        let a = Matrix.of_rows [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
        Alcotest.check_raises "singular" (Failure "Matrix: singular system") (fun () ->
            ignore (Matrix.solve_lu a [| 1.0; 2.0 |])));
    Testkit.case "least_squares recovers an exact solution" (fun () ->
        (* Overdetermined but consistent: y = 2 x0 - x1. *)
        let a =
          Matrix.of_rows
            [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |]; [| 1.0; 1.0 |]; [| 2.0; 1.0 |] |]
        in
        let y = [| 2.0; -1.0; 1.0; 3.0 |] in
        let x = Matrix.least_squares a y in
        Testkit.check_rel ~tol:1e-12 "x0" 2.0 x.(0);
        Testkit.check_rel ~tol:1e-10 "x1" (-1.0) x.(1));
    Testkit.case "least_squares equals normal equations on noisy data" (fun () ->
        let rng = Testkit.rng () in
        let m = 50 in
        let a =
          Matrix.of_rows
            (Array.init m (fun _ ->
                 [| Ptrng_prng.Rng.float rng; Ptrng_prng.Rng.float rng; 1.0 |]))
        in
        let y = Array.init m (fun _ -> Ptrng_prng.Rng.float rng) in
        let qr = Matrix.least_squares a y in
        let at = Matrix.transpose a in
        let ne = Matrix.solve_lu (Matrix.mul at a) (Matrix.mul_vec at y) in
        for j = 0 to 2 do
          Testkit.check_abs ~tol:1e-9 "coef" ne.(j) qr.(j)
        done);
    Testkit.case "rank-deficient least squares raises" (fun () ->
        let a = Matrix.of_rows [| [| 1.0; 1.0 |]; [| 2.0; 2.0 |]; [| 3.0; 3.0 |] |] in
        Alcotest.check_raises "rank" (Failure "Matrix: rank-deficient least squares")
          (fun () -> ignore (Matrix.least_squares a [| 1.0; 2.0; 3.0 |])));
  ]

let regression_tests =
  [
    Testkit.case "exact line gives r2 = 1" (fun () ->
        let x = Array.init 20 float_of_int in
        let y = Array.map (fun v -> (3.0 *. v) -. 7.0) x in
        let f = Regression.linear ~x ~y in
        Testkit.check_rel ~tol:1e-12 "slope" 3.0 f.slope;
        Testkit.check_rel ~tol:1e-10 "intercept" (-7.0) f.intercept;
        Testkit.check_rel ~tol:1e-12 "r2" 1.0 f.r2;
        Testkit.check_abs ~tol:1e-9 "slope se" 0.0 f.slope_se);
    Testkit.case "noisy line: estimate within 4 standard errors" (fun () ->
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ()) in
        let x = Array.init 500 (fun i -> float_of_int i /. 10.0) in
        let y = Array.map (fun v -> (1.5 *. v) +. 2.0 +. Ptrng_prng.Gaussian.draw g) x in
        let f = Regression.linear ~x ~y in
        Testkit.check_abs ~tol:(4.0 *. f.slope_se) "slope" 1.5 f.slope;
        Testkit.check_abs ~tol:(4.0 *. f.intercept_se) "intercept" 2.0 f.intercept);
    Testkit.case "polynomial fit recovers a planted cubic" (fun () ->
        let x = Array.init 50 (fun i -> (float_of_int i /. 5.0) -. 5.0) in
        let y = Array.map (fun v -> 1.0 -. (2.0 *. v) +. (0.5 *. v *. v *. v)) x in
        let f = Regression.polynomial ~degree:3 ~x ~y in
        Testkit.check_abs ~tol:1e-8 "c0" 1.0 f.coeffs.(0);
        Testkit.check_abs ~tol:1e-8 "c1" (-2.0) f.coeffs.(1);
        Testkit.check_abs ~tol:1e-8 "c2" 0.0 f.coeffs.(2);
        Testkit.check_abs ~tol:1e-9 "c3" 0.5 f.coeffs.(3);
        Testkit.check_abs ~tol:1e-7 "predict" (1.0 -. 4.0 +. 4.0) (Regression.predict_poly f 2.0));
    Testkit.case "polynomial with huge abscissas stays conditioned" (fun () ->
        (* The paper's N^2 fit reaches N ~ 1e5: columns span 10 decades. *)
        let x = Array.init 40 (fun i -> float_of_int (1 lsl (i mod 18 + 2))) in
        let y = Array.map (fun v -> (5.36e-6 *. v) +. (1.0e-9 *. v *. v)) x in
        let f = Regression.polynomial ~degree:2 ~x ~y in
        Testkit.check_rel ~tol:1e-6 "linear term" 5.36e-6 f.coeffs.(1);
        Testkit.check_rel ~tol:1e-6 "quadratic term" 1.0e-9 f.coeffs.(2));
    Testkit.case "weighted fit honours the weights" (fun () ->
        (* Two inconsistent measurements of a constant; the fit must land
           close to the precise one. *)
        let design = Matrix.of_rows [| [| 1.0 |]; [| 1.0 |]; [| 1.0 |] |] in
        let y = [| 10.0; 10.0; 20.0 |] in
        let sigma = [| 0.1; 0.1; 10.0 |] in
        let f = Regression.general ~design ~y ~sigma () in
        Testkit.check_abs ~tol:0.02 "estimate" 10.0 f.coeffs.(0));
    Testkit.case "covariance has the analytic scale for known sigma" (fun () ->
        (* Constant model, n unit-weight points: var(mean) = sigma^2/n. *)
        let n = 16 in
        let design = Matrix.of_rows (Array.make n [| 1.0 |]) in
        let y = Array.make n 5.0 in
        let sigma = Array.make n 2.0 in
        let f = Regression.general ~design ~y ~sigma () in
        Testkit.check_rel ~tol:1e-10 "se of mean" (2.0 /. 4.0) (Regression.coeff_se f 0));
    Testkit.case "rejects size mismatch" (fun () ->
        Alcotest.check_raises "mismatch"
          (Invalid_argument "Regression.linear: length mismatch")
          (fun () -> ignore (Regression.linear ~x:[| 1.0 |] ~y:[| 1.0; 2.0 |])));
  ]

let allan_tests =
  let white_y ~sigma n = gaussian_array ~sigma n in
  [
    Testkit.case "white FM follows h0 / (2 tau)" (fun () ->
        let sigma = 0.5 and tau0 = 1e-3 in
        let y = white_y ~sigma 200000 in
        (* Discrete white with variance sigma^2 at rate 1/tau0 has
           h0 = 2 sigma^2 tau0. *)
        let h0 = 2.0 *. sigma *. sigma *. tau0 in
        List.iter
          (fun m ->
            let tau = float_of_int m *. tau0 in
            let est = Allan.avar_overlapping ~tau0 ~m y in
            Testkit.check_rel ~tol:0.05
              (Printf.sprintf "avar m=%d" m)
              (Allan.avar_white_fm ~h0 ~tau) est)
          [ 1; 4; 16; 64 ]);
    Testkit.case "overlapping and non-overlapping agree for white FM" (fun () ->
        let y = white_y ~sigma:1.0 100000 in
        let a = Allan.avar_overlapping ~tau0:1.0 ~m:8 y in
        let b = Allan.avar_nonoverlapping ~tau0:1.0 ~m:8 y in
        Testkit.check_rel ~tol:0.1 "estimators agree" a b);
    Testkit.case "flicker FM is flat at 2 ln2 h-1" (fun () ->
        let n = 1 lsl 17 and hm1 = 1e-6 and fs = 1.0 in
        let src =
          Ptrng_noise.Source.(create (flicker_fm ~taps:n ~hm1 ())) (Testkit.rng ())
        in
        let buf = Float.Array.create n in
        Ptrng_noise.Source.fill src buf;
        let y = Array.init n (Float.Array.get buf) in
        let expected = Allan.avar_flicker_fm ~hm1 in
        List.iter
          (fun m ->
            let est = Allan.avar_overlapping ~tau0:(1.0 /. fs) ~m y in
            Testkit.check_rel ~tol:0.2 (Printf.sprintf "flicker m=%d" m) expected est)
          [ 8; 32; 128; 512 ]);
    Testkit.case "random-walk FM grows linearly in tau" (fun () ->
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ()) in
        let n = 1 lsl 16 in
        let y = Array.make n 0.0 in
        for i = 1 to n - 1 do
          y.(i) <- y.(i - 1) +. (0.01 *. Ptrng_prng.Gaussian.draw g)
        done;
        let a16 = Allan.avar_overlapping ~tau0:1.0 ~m:16 y in
        let a64 = Allan.avar_overlapping ~tau0:1.0 ~m:64 y in
        Testkit.check_rel ~tol:0.3 "x4 growth" 4.0 (a64 /. a16));
    Testkit.case "hadamard matches allan for white FM" (fun () ->
        let y = white_y ~sigma:1.0 100000 in
        let a = Allan.avar_overlapping ~tau0:1.0 ~m:16 y in
        let h = Allan.hvar_overlapping ~tau0:1.0 ~m:16 y in
        Testkit.check_rel ~tol:0.1 "hvar ~ avar" a h);
    Testkit.case "hadamard is immune to linear drift" (fun () ->
        let y = white_y ~sigma:0.1 50000 in
        let drifted = Array.mapi (fun i v -> v +. (1e-4 *. float_of_int i)) y in
        let h_clean = Allan.hvar_overlapping ~tau0:1.0 ~m:32 y in
        let h_drift = Allan.hvar_overlapping ~tau0:1.0 ~m:32 drifted in
        Testkit.check_rel ~tol:0.05 "drift rejected" h_clean h_drift);
    Testkit.case "mvar equals avar at m = 1" (fun () ->
        let y = white_y ~sigma:1.0 10000 in
        (* The estimators share their second differences at m = 1 but
           average n-1 vs n-2 of them. *)
        let a = Allan.avar_overlapping ~tau0:1.0 ~m:1 y in
        let m = Allan.mvar ~tau0:1.0 ~m:1 y in
        Testkit.check_rel ~tol:0.01 "identical up to edge terms" a m);
    Testkit.case "sweep skips oversized factors" (fun () ->
        let y = white_y ~sigma:1.0 100 in
        let pts = Allan.sweep ~tau0:1.0 ~ms:[| 1; 10; 1000 |] y in
        Alcotest.(check int) "kept points" 2 (Array.length pts));
    Testkit.case "octave_ms spacing" (fun () ->
        Alcotest.(check (array int)) "octaves" [| 1; 2; 4; 8; 16; 32 |]
          (Allan.octave_ms ~n:128));
    Testkit.case "needs enough samples" (fun () ->
        Alcotest.check_raises "short"
          (Invalid_argument "Allan.avar_overlapping: need >= 64 samples, got 10")
          (fun () -> ignore (Allan.avar_overlapping ~tau0:1.0 ~m:32 (Array.make 10 0.0))));
    Testkit.case "confidence interval brackets the estimate and shrinks" (fun () ->
        let point = { Allan.m = 8; tau = 8.0; avar = 2.0; neff = 100 } in
        let lo, hi = Allan.confidence_interval point in
        Testkit.check_true "bracket" (lo < 2.0 && 2.0 < hi);
        let wide_lo, wide_hi = Allan.confidence_interval { point with neff = 10 } in
        Testkit.check_true "fewer samples, wider band"
          (wide_hi -. wide_lo > hi -. lo);
        let lo99, hi99 = Allan.confidence_interval ~level:0.99 point in
        Testkit.check_true "higher level, wider band" (hi99 -. lo99 > hi -. lo));
    Testkit.case "CI coverage on white FM" (fun () ->
        (* Repeated estimates: the 1-sigma band should cover the truth
           roughly 2/3 of the time. *)
        let h0 = 2.0 and tau0 = 1.0 and m = 4 in
        let truth = Allan.avar_white_fm ~h0 ~tau:(float_of_int m *. tau0) in
        let covered = ref 0 in
        for seed = 1 to 60 do
          let g =
            Ptrng_prng.Gaussian.create (Testkit.rng ~seed:(Int64.of_int seed) ())
          in
          let y = Array.init 1024 (fun _ -> Ptrng_prng.Gaussian.draw g) in
          let pts = Allan.sweep ~tau0 ~ms:[| m |] y in
          let lo, hi = Allan.confidence_interval pts.(0) in
          if truth >= lo && truth <= hi then incr covered
        done;
        (* Nominal 68%; accept a broad band because the edf formula is
           a deliberate simplification. *)
        Testkit.check_in_range "coverage" ~lo:30.0 ~hi:60.9 (float_of_int !covered));
    Testkit.case "crossover tau matches the paper's k/f0" (fun () ->
        (* h0/(4 ln2 h-1) = b_th f0 / (4 ln2 b_fl) / f0^... = k / f0. *)
        let f0 = 103e6 in
        let b_th = 276.04 in
        let b_fl = b_th *. f0 /. (4.0 *. log 2.0 *. 5354.0) in
        let h0 = 2.0 *. b_th /. (f0 *. f0) in
        let hm1 = 2.0 *. b_fl /. (f0 *. f0) in
        Testkit.check_rel ~tol:1e-9 "tau_c" (5354.0 /. f0) (Allan.crossover_tau ~h0 ~hm1));
  ]

let tests_tests =
  [
    Testkit.case "chi2 gof accepts uniform counts" (fun () ->
        let rng = Testkit.rng () in
        let observed = Array.make 10 0 in
        for _ = 1 to 10000 do
          let b = Ptrng_prng.Rng.int_below rng 10 in
          observed.(b) <- observed.(b) + 1
        done;
        let expected = Array.make 10 1000.0 in
        let r = Tests.chi2_gof ~observed ~expected () in
        Testkit.check_true "p > 0.001" (r.p_value > 0.001));
    Testkit.case "chi2 gof rejects a skewed die" (fun () ->
        let observed = [| 2000; 1000; 1000; 1000; 1000; 1000 |] in
        let expected = Array.make 6 (7000.0 /. 6.0) in
        let r = Tests.chi2_gof ~observed ~expected () in
        Testkit.check_true "p tiny" (r.p_value < 1e-10));
    Testkit.case "ks accepts matching distribution" (fun () ->
        let rng = Testkit.rng () in
        let x = Array.init 5000 (fun _ -> Ptrng_prng.Rng.float rng) in
        let r = Tests.ks_one_sample ~cdf:(fun v -> Float.max 0.0 (Float.min 1.0 v)) x in
        Testkit.check_true "p > 0.001" (r.p_value > 0.001));
    Testkit.case "ks rejects wrong distribution" (fun () ->
        let rng = Testkit.rng () in
        let x = Array.init 5000 (fun _ -> Ptrng_prng.Rng.float rng ** 2.0) in
        let r = Tests.ks_one_sample ~cdf:(fun v -> Float.max 0.0 (Float.min 1.0 v)) x in
        Testkit.check_true "p tiny" (r.p_value < 1e-10));
    Testkit.case "normality ks on gaussian and uniform" (fun () ->
        let ok = Tests.normality_ks (gaussian_array 5000) in
        Testkit.check_true "gaussian passes" (ok.p_value > 0.001);
        let rng = Testkit.rng () in
        let u = Array.init 5000 (fun _ -> Ptrng_prng.Rng.float rng) in
        let bad = Tests.normality_ks u in
        Testkit.check_true "uniform fails" (bad.p_value < 1e-6));
    Testkit.case "anderson-darling accepts gaussian, rejects others" (fun () ->
        let g = Tests.anderson_darling_normal (gaussian_array 5000) in
        Testkit.check_true "gaussian passes" (g.p_value > 0.005);
        let rng = Testkit.rng () in
        let u = Array.init 5000 (fun _ -> Ptrng_prng.Rng.float rng) in
        Testkit.check_true "uniform fails"
          ((Tests.anderson_darling_normal u).p_value < 1e-6);
        let lap =
          Array.init 5000 (fun _ -> Ptrng_prng.Distributions.laplace rng ~mu:0.0 ~b:1.0)
        in
        Testkit.check_true "laplace tails fail"
          ((Tests.anderson_darling_normal lap).p_value < 1e-4));
    Testkit.case "anderson-darling beats KS on mild tail contamination" (fun () ->
        (* 2% of samples from a 5x-wider Gaussian: AD (tail-weighted)
           must produce a smaller p-value than KS. *)
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ~seed:88L ()) in
        let rng = Testkit.rng ~seed:89L () in
        let x =
          Array.init 8000 (fun _ ->
              let scale = if Ptrng_prng.Rng.float rng < 0.02 then 5.0 else 1.0 in
              scale *. Ptrng_prng.Gaussian.draw g)
        in
        let ad = Tests.anderson_darling_normal x in
        let ks = Tests.normality_ks x in
        Testkit.check_true "AD more sensitive" (ad.p_value <= ks.p_value));
    Testkit.case "ljung-box accepts iid, rejects AR(1)" (fun () ->
        let iid = gaussian_array 20000 in
        let r1 = Tests.ljung_box ~lags:10 iid in
        Testkit.check_true "iid passes" (r1.p_value > 0.001);
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ()) in
        let ar = Array.make 20000 0.0 in
        for i = 1 to 19999 do
          ar.(i) <- (0.3 *. ar.(i - 1)) +. Ptrng_prng.Gaussian.draw g
        done;
        let r2 = Tests.ljung_box ~lags:10 ar in
        Testkit.check_true "AR(1) fails" (r2.p_value < 1e-10));
    Testkit.case "runs test flags alternation" (fun () ->
        let alternating = Array.init 1000 (fun i -> if i land 1 = 0 then 1.0 else -1.0) in
        let r = Tests.runs_median alternating in
        Testkit.check_true "rejected" (r.p_value < 1e-10);
        let iid = gaussian_array 1000 in
        let r2 = Tests.runs_median iid in
        Testkit.check_true "iid passes" (r2.p_value > 0.001));
    Testkit.case "turning points flags a ramp" (fun () ->
        let ramp = Array.init 1000 float_of_int in
        let r = Tests.turning_points ramp in
        Testkit.check_true "rejected" (r.p_value < 1e-10);
        let iid = gaussian_array 1000 in
        Testkit.check_true "iid passes" ((Tests.turning_points iid).p_value > 0.001));
    Testkit.case "variance ratio: iid near 1, AR(1) inflated" (fun () ->
        let iid = gaussian_array 50000 in
        let r = Tests.variance_ratio iid ~q:8 in
        Testkit.check_true "iid passes" (r.p_value > 0.001);
        let g = Ptrng_prng.Gaussian.create (Testkit.rng ()) in
        let ar = Array.make 50000 0.0 in
        for i = 1 to 49999 do
          ar.(i) <- (0.5 *. ar.(i - 1)) +. Ptrng_prng.Gaussian.draw g
        done;
        let r2 = Tests.variance_ratio ar ~q:8 in
        Testkit.check_true "AR(1) super-linear" (r2.statistic > 5.0));
  ]

let bootstrap_tests =
  [
    Testkit.case "CI of the mean covers the truth" (fun () ->
        let x = gaussian_array ~sigma:2.0 2000 in
        let lo, hi =
          Bootstrap.ci ~rng:(Testkit.rng ()) ~estimator:Descriptive.mean x
        in
        Testkit.check_true "contains 0" (lo < 0.0 && hi > 0.0);
        (* Half-width ~ 1.96 * 2/sqrt(2000) ~ 0.088. *)
        Testkit.check_in_range "width" ~lo:0.1 ~hi:0.25 (hi -. lo));
    Testkit.case "level widens the interval" (fun () ->
        let x = gaussian_array 500 in
        let rng = Testkit.rng () in
        let lo1, hi1 = Bootstrap.ci ~rng ~level:0.5 ~estimator:Descriptive.mean x in
        let lo2, hi2 = Bootstrap.ci ~rng ~level:0.99 ~estimator:Descriptive.mean x in
        Testkit.check_true "nested" (hi2 -. lo2 > hi1 -. lo1));
    Testkit.case "rejects empty data" (fun () ->
        Alcotest.check_raises "empty" (Invalid_argument "Bootstrap.ci: empty data")
          (fun () ->
            ignore (Bootstrap.ci ~rng:(Testkit.rng ()) ~estimator:Descriptive.mean [||])));
  ]

let () =
  Alcotest.run "ptrng_stats"
    [
      ("descriptive", descriptive_tests);
      ("histogram", histogram_tests);
      ("special", special_tests);
      ("matrix", matrix_tests);
      ("regression", regression_tests);
      ("allan", allan_tests);
      ("tests", tests_tests);
      ("bootstrap", bootstrap_tests);
    ]
