(* The Source API and the streaming oscillator pair.

   The contract under test: a Source stream is a pure function of its
   creation root — identical whatever chunk sizes the fills use, and
   equal to an independent reference construction seeded the same way
   (the chunked parallel white initializer, a Voss.next loop,
   Spectral_synth.generate, a direct convolution of the white input).
   The parity pins at the end fix the realization of every whole-trace
   entry point. *)

open Ptrng_noise
module FA = Float.Array
module Rng = Ptrng_prng.Rng

let chunk_sizes = [ 1; 7; 64; 1000; 4096; 8192; 10000 ]

(* Stream [total] samples out of a fresh source in chunks of [size]. *)
let streamed config ~seed ~size total =
  let src = Source.create config (Testkit.rng ~seed ()) in
  let out = FA.create total in
  let pos = ref 0 in
  while !pos < total do
    let len = min size (total - !pos) in
    Source.fill_range src out ~pos:!pos ~len;
    pos := !pos + len
  done;
  out

let check_fa_eq name expected out =
  let n = Array.length expected in
  Alcotest.(check int) (name ^ ": length") n (FA.length out);
  for i = 0 to n - 1 do
    if not (Float.equal expected.(i) (FA.get out i)) then
      Alcotest.failf "%s: sample %d differs: %h vs %h" name i expected.(i)
        (FA.get out i)
  done

let check_fa_close ~tol name expected out =
  for i = 0 to Array.length expected - 1 do
    let e = expected.(i) and a = FA.get out i in
    let scale = Float.max 1e-30 (Float.abs e) in
    if Float.abs (a -. e) /. scale > tol then
      Alcotest.failf "%s: sample %d: %.17g vs %.17g" name i e a
  done

let total = 20000

(* The reference for the white stream: the chunked parallel
   initializer whose chunk/seed scheme the stream reuses. *)
let batch_white ~seed ~sigma n =
  Ptrng_exec.Pool.parallel_init_floats ~domains:1 ~rng:(Testkit.rng ~seed ())
    ~fill:(fun child ~offset ~len out ->
      let g = Ptrng_prng.Gaussian.create child in
      for k = offset to offset + len - 1 do
        out.(k) <- sigma *. Ptrng_prng.Gaussian.draw g
      done)
    n

let white_tests =
  [
    Testkit.case "white stream == batch parallel fill, every chunk size"
      (fun () ->
        let sigma = 2.5 in
        let expected = batch_white ~seed:11L ~sigma total in
        List.iter
          (fun size ->
            let out =
              streamed (Source.white ~sigma) ~seed:11L ~size total
            in
            check_fa_eq (Printf.sprintf "chunk %d" size) expected out)
          chunk_sizes);
    Testkit.case "reset replays the identical stream" (fun () ->
        let src = Source.create (Source.white ~sigma:1.0) (Testkit.rng ()) in
        let a = FA.create 999 and b = FA.create 999 in
        Source.fill src a;
        Source.reset src;
        Source.fill src b;
        for i = 0 to 998 do
          Testkit.check_true "equal" (Float.equal (FA.get a i) (FA.get b i))
        done);
    Testkit.case "skip lands on the same samples" (fun () ->
        let expected = batch_white ~seed:7L ~sigma:1.0 total in
        let src = Source.create (Source.white ~sigma:1.0) (Testkit.rng ~seed:7L ()) in
        let out = FA.create 100 in
        (* Jump over a chunk boundary and deep into a later chunk. *)
        Source.skip src 12000;
        Source.fill src out;
        for i = 0 to 99 do
          Testkit.check_true "sample"
            (Float.equal expected.(12000 + i) (FA.get out i))
        done;
        Alcotest.(check int) "position" 12100 (Source.position src));
  ]

let voss_tests =
  [
    Testkit.case "voss stream == Voss.next loop, every chunk size" (fun () ->
        let octaves = 12 and sigma = 0.5 in
        (* Replicate the source's seeding: one root draw, ladder on
           child stream 0. *)
        let rng = Testkit.rng ~seed:42L () in
        let backend = Rng.backend rng in
        let root = Rng.bits64 rng in
        let v = Voss.create (Rng.child ~backend ~root ~index:0 ()) ~octaves in
        let expected = Array.init 5000 (fun _ -> sigma *. Voss.next v) in
        List.iter
          (fun size ->
            let out =
              streamed (Source.voss ~octaves ~sigma ()) ~seed:42L ~size 5000
            in
            check_fa_eq (Printf.sprintf "chunk %d" size) expected out)
          chunk_sizes);
  ]

let spectral_tests =
  [
    Testkit.case "spectral block 0 == Spectral_synth.generate" (fun () ->
        let psd f = 1.0 /. f and fs = 1e6 in
        let n = 4096 in
        let expected =
          Spectral_synth.generate (Testkit.rng ~seed:5L ()) ~psd ~fs n
        in
        List.iter
          (fun size ->
            let out =
              streamed (Source.spectral ~block:n ~psd ~fs ()) ~seed:5L ~size n
            in
            check_fa_eq (Printf.sprintf "chunk %d" size) expected out)
          chunk_sizes);
    Testkit.case "blocks are independent but reproducible" (fun () ->
        let psd f = 1.0 /. f and fs = 1e6 in
        let config = Source.spectral ~block:1024 ~psd ~fs () in
        let a = streamed config ~seed:9L ~size:512 4096 in
        let b = streamed config ~seed:9L ~size:4096 4096 in
        for i = 0 to 4095 do
          Testkit.check_true "replay" (Float.equal (FA.get a i) (FA.get b i))
        done;
        (* Distinct blocks must not repeat each other. *)
        let same = ref true in
        for i = 0 to 1023 do
          if not (Float.equal (FA.get a i) (FA.get a (1024 + i))) then
            same := false
        done;
        Testkit.check_false "blocks differ" !same);
    Testkit.case "a failed synthesis leaves no stale block" (fun () ->
        (* The psd raises partway through block 1, after it has
           overwritten part of the held scratch; a later fill of block
           0 must resynthesize it rather than serve that scratch. *)
        let armed = ref false and calls = ref 0 in
        let psd f =
          if !armed then begin
            incr calls;
            if !calls > 100 then failwith "psd"
          end;
          1.0 /. f
        in
        let src =
          Source.create (Source.spectral ~block:1024 ~psd ~fs:1e6 ())
            (Testkit.rng ~seed:9L ())
        in
        let first = FA.create 1024 and out = FA.create 1024 in
        Source.fill src first;
        armed := true;
        (match Source.fill_range src out ~pos:0 ~len:10 with
        | () -> Alcotest.fail "the psd did not raise"
        | exception Failure _ -> ());
        armed := false;
        Source.reset src;
        Source.fill src out;
        check_fa_eq "block 0" (Array.init 1024 (FA.get first)) out);
  ]

let kasdin_tests =
  [
    Testkit.case "full-tap streamed filter == direct convolution" (fun () ->
        (* With taps >= n the truncated overlap-add convolution equals
           the full-length direct convolution of the source's own white
           input (same root, same chunk seeding) up to FFT rounding. *)
        let n = 4096 in
        let alpha = 1.0 and sigma_w = 0.7 in
        let expected =
          let white =
            streamed (Source.white ~sigma:sigma_w) ~seed:3L ~size:n n
          in
          Ptrng_signal.Filter.fir_direct ~h:(Kasdin.coefficients ~alpha n)
            (Array.init n (FA.get white))
        in
        List.iter
          (fun size ->
            let out =
              streamed
                (Source.kasdin ~taps:n ~block:1024 ~alpha ~sigma_w ())
                ~seed:3L ~size n
            in
            check_fa_close ~tol:1e-9 (Printf.sprintf "chunk %d" size) expected
              out)
          [ 1000; 4096 ]);
    Testkit.case "overlap-add block size does not change the stream" (fun () ->
        let mk block =
          streamed
            (Source.kasdin ~taps:512 ~block ~alpha:1.0 ~sigma_w:1.0 ())
            ~seed:13L ~size:997 6000
        in
        let a = mk 256 and b = mk 2048 in
        for i = 0 to 5999 do
          let e = FA.get a i and v = FA.get b i in
          if Float.abs (v -. e) > 1e-10 *. Float.max 1.0 (Float.abs e) then
            Alcotest.failf "sample %d: %.17g vs %.17g" i e v
        done);
    Testkit.case "skip preserves the filter tail" (fun () ->
        let config = Source.kasdin ~taps:256 ~block:512 ~alpha:1.0 ~sigma_w:1.0 () in
        let expected = streamed config ~seed:21L ~size:8192 3000 in
        let src = Source.create config (Testkit.rng ~seed:21L ()) in
        Source.skip src 2000;
        let out = FA.create 1000 in
        Source.fill src out;
        for i = 0 to 999 do
          let e = FA.get expected (2000 + i) and v = FA.get out i in
          if Float.abs (v -. e) > 1e-10 *. Float.max 1.0 (Float.abs e) then
            Alcotest.failf "sample %d: %.17g vs %.17g" i e v
        done);
  ]

let fft_tests =
  [
    Testkit.case "floatarray FFT == signal FFT bit for bit, n = 2 .. 2^17"
      (fun () ->
        (* Up to 2^17 the default table serves the stages of half-length
           up to 4096 and the longer ones run grouped. *)
        let rng = Testkit.rng ~seed:77L () in
        let tw = Fft.twiddles (1 lsl 17) in
        for log2n = 1 to 17 do
          let n = 1 lsl log2n in
          let re = Array.init n (fun _ -> Rng.float rng -. 0.5) in
          let im = Array.init n (fun _ -> Rng.float rng -. 0.5) in
          let fre = FA.init n (fun i -> re.(i)) in
          let fim = FA.init n (fun i -> im.(i)) in
          let bits = Int64.bits_of_float in
          let same what =
            for i = 0 to n - 1 do
              if bits re.(i) <> bits (FA.get fre i) || bits im.(i) <> bits (FA.get fim i)
              then Alcotest.failf "n = %d, %s: bin %d differs" n what i
            done
          in
          Ptrng_signal.Fft.forward_pow2 ~re ~im;
          Fft.forward tw ~re:fre ~im:fim;
          same "forward";
          Ptrng_signal.Fft.inverse_pow2 ~re ~im;
          Fft.inverse tw ~re:fre ~im:fim;
          same "inverse"
        done);
    Testkit.qcheck ~count:60 ~seed:0xF17
      ~print:QCheck2.Print.(pair int int)
      "table FFT == grouped-twiddle oracle"
      (* Up to 2^15 points: from 2^14 on, the longest stages run
         grouped. *)
      QCheck2.Gen.(pair (int_range 0 15) (int_bound 1_000_000))
      (fun (log2n, seed) ->
        let n = 1 lsl log2n in
        let rng = Testkit.rng ~seed:(Int64.of_int seed) () in
        let re = FA.init n (fun _ -> Rng.float rng -. 0.5) in
        let im = FA.init n (fun _ -> Rng.float rng -. 0.5) in
        let ore = FA.copy re and oim = FA.copy im in
        let tw = Fft.twiddles n in
        let bits x = Int64.bits_of_float x in
        let equal () =
          let ok = ref true in
          for i = 0 to n - 1 do
            if bits (FA.get re i) <> bits (FA.get ore i)
               || bits (FA.get im i) <> bits (FA.get oim i)
            then ok := false
          done;
          !ok
        in
        Fft.forward tw ~re ~im;
        Oracle.fft_grouped ~sign:(-1.0) ore oim;
        let forward_ok = equal () in
        Fft.inverse tw ~re ~im;
        Oracle.fft_grouped ~sign:1.0 ore oim;
        forward_ok && equal ());
    Testkit.case "overlap-add == direct convolution" (fun () ->
        let taps = 37 and total = 1000 in
        let rng = Testkit.rng ~seed:15L () in
        let h = FA.init taps (fun _ -> Rng.float rng -. 0.5) in
        let x = Array.init total (fun _ -> Rng.float rng -. 0.5) in
        let direct =
          Array.init total (fun i ->
              let acc = ref 0.0 in
              for j = 0 to min i (taps - 1) do
                acc := !acc +. (FA.get h j *. x.(i - j))
              done;
              !acc)
        in
        let ola = Fft.Overlap_add.create ~h ~block:128 in
        let src = FA.init total (fun i -> x.(i)) in
        let out = FA.create total in
        let pos = ref 0 in
        (* Deliberately ragged block sizes. *)
        List.iter
          (fun len ->
            Fft.Overlap_add.process ola ~src ~src_pos:!pos ~dst:out
              ~dst_pos:!pos ~len;
            pos := !pos + len)
          [ 1; 127; 128; 100; 128; 128; 128; 128; 128; 4 ];
        Alcotest.(check int) "consumed" total !pos;
        check_fa_close ~tol:1e-12 "ola" direct out);
  ]

(* ------------------------------------------------------------------ *)
(* Oscillator / pair streaming                                         *)
(* ------------------------------------------------------------------ *)

module Osc = Ptrng_osc.Oscillator
module Pair = Ptrng_osc.Pair

let fill_chunked ?(sizes = [ 1; 100; 4096; 8192; 997 ]) src total =
  let out = FA.create total in
  let buf = FA.create 8192 in
  let pos = ref 0 in
  let rec go = function
    | [] -> go sizes
    | size :: rest ->
      if !pos < total then begin
        let len = min size (total - !pos) in
        Osc.fill_periods src ~len buf;
        FA.blit buf 0 out !pos len;
        pos := !pos + len;
        go rest
      end
  in
  if total > 0 then go sizes;
  out

let paper_cfg generator =
  Osc.config ~flicker_generator:generator ~f0:Pair.paper_f0
    ~phase:Pair.paper_relative ()

let oscillator_tests =
  [
    Testkit.case "spectral source == periods, bit for bit" (fun () ->
        let n = 20000 in
        let cfg = paper_cfg `Spectral in
        let expected = Osc.periods (Testkit.rng ~seed:31L ()) cfg ~n in
        let src =
          Osc.source ~flicker_block:n (Testkit.rng ~seed:31L ()) cfg
        in
        check_fa_eq "periods" expected (fill_chunked src n));
    Testkit.case "thermal-only source == periods, bit for bit" (fun () ->
        let n = 20000 in
        let cfg = paper_cfg `None in
        let expected = Osc.periods (Testkit.rng ~seed:32L ()) cfg ~n in
        let src = Osc.source (Testkit.rng ~seed:32L ()) cfg in
        check_fa_eq "periods" expected (fill_chunked src n));
    Testkit.case "random-walk source == periods, bit for bit" (fun () ->
        let n = 8192 in
        let cfg =
          Osc.config ~flicker_generator:`Spectral ~rw_hm2:1e-22 ~f0:Pair.paper_f0
            ~phase:Pair.paper_relative ()
        in
        let expected = Osc.periods (Testkit.rng ~seed:33L ()) cfg ~n in
        let src =
          Osc.source ~flicker_block:n (Testkit.rng ~seed:33L ()) cfg
        in
        check_fa_eq "periods" expected (fill_chunked src n));
    Testkit.case "source_skip lands on the same periods" (fun () ->
        let n = 16384 in
        let cfg = paper_cfg `Spectral in
        let expected = Osc.periods (Testkit.rng ~seed:34L ()) cfg ~n in
        let src =
          Osc.source ~flicker_block:n (Testkit.rng ~seed:34L ()) cfg
        in
        Osc.source_skip src 10000;
        let buf = FA.create 500 in
        Osc.fill_periods src buf;
        for i = 0 to 499 do
          Testkit.check_true "period"
            (Float.equal expected.(10000 + i) (FA.get buf i))
        done;
        Alcotest.(check int) "position" 10500 (Osc.source_position src));
    Testkit.case "source_reset replays; rw sources refuse" (fun () ->
        let cfg = paper_cfg `Spectral in
        let src = Osc.source (Testkit.rng ~seed:35L ()) cfg in
        let a = fill_chunked src 5000 in
        Osc.source_reset src;
        let b = fill_chunked src 5000 in
        for i = 0 to 4999 do
          Testkit.check_true "replay" (Float.equal (FA.get a i) (FA.get b i))
        done;
        let rw_cfg =
          Osc.config ~rw_hm2:1e-22 ~f0:1e8
            ~phase:{ Psd_model.b_th = 1.0; b_fl = 0.0 } ()
        in
        let rw_src = Osc.source (Testkit.rng ()) rw_cfg in
        Alcotest.check_raises "rw reset"
          (Invalid_argument
             "Oscillator.source_reset: random-walk FM sources cannot rewind")
          (fun () -> Osc.source_reset rw_src));
  ]

(* ------------------------------------------------------------------ *)
(* Streaming variance-curve accumulators                               *)
(* ------------------------------------------------------------------ *)

module Vc = Ptrng_measure.Variance_curve

let check_points_close ~tol name (expected : Vc.point array)
    (got : Vc.point array) =
  Alcotest.(check int) (name ^ ": point count") (Array.length expected)
    (Array.length got);
  Array.iteri
    (fun i (e : Vc.point) ->
      let g = got.(i) in
      Alcotest.(check int) (Printf.sprintf "%s: n[%d]" name i) e.Vc.n g.Vc.n;
      Alcotest.(check int) (Printf.sprintf "%s: neff[%d]" name i) e.Vc.neff
        g.Vc.neff;
      Testkit.check_rel (Printf.sprintf "%s: sigma2[%d]" name i) ~tol e.Vc.sigma2
        g.Vc.sigma2;
      Testkit.check_rel (Printf.sprintf "%s: stderr[%d]" name i) ~tol e.Vc.stderr
        g.Vc.stderr)
    expected

let jitter_fixture n =
  let pair = Pair.paper_pair () in
  let p1, p2 = Pair.simulate (Testkit.rng ~seed:41L ()) pair ~n in
  let jitter = Array.init n (fun i -> p1.(i) -. p2.(i)) in
  (p1, p2, jitter)

let acc_tests =
  let f0 = Pair.paper_f0 in
  let ns = [| 1; 4; 16; 64; 256; 1024 |] in
  [
    Testkit.case "Jitter_acc == of_jitter (overlapping), every chunk size"
      (fun () ->
        let total = 40000 in
        let _, _, jitter = jitter_fixture total in
        let expected = Vc.of_jitter ~domains:1 ~f0 ~ns jitter in
        List.iter
          (fun size ->
            let acc = Vc.Jitter_acc.create ~f0 ns in
            let pos = ref 0 in
            while !pos < total do
              let len = min size (total - !pos) in
              let buf = FA.init len (fun i -> jitter.(!pos + i)) in
              Vc.Jitter_acc.feed acc buf ~len;
              pos := !pos + len
            done;
            Alcotest.(check int) "total" total (Vc.Jitter_acc.total acc);
            check_points_close ~tol:1e-9
              (Printf.sprintf "chunk %d" size)
              expected
              (Vc.Jitter_acc.points acc))
          [ 1; 1000; 8192; 40000 ]);
    Testkit.case "Jitter_acc == of_jitter (non-overlapping)" (fun () ->
        let total = 40000 in
        let _, _, jitter = jitter_fixture total in
        let expected =
          Vc.of_jitter ~domains:1 ~overlapping:false ~f0 ~ns jitter
        in
        let acc = Vc.Jitter_acc.create ~overlapping:false ~f0 ns in
        let buf = FA.init total (fun i -> jitter.(i)) in
        Vc.Jitter_acc.feed acc buf ~len:total;
        check_points_close ~tol:1e-9 "points" expected
          (Vc.Jitter_acc.points acc));
    Testkit.case "Jitter_acc points are a snapshot, feeding continues"
      (fun () ->
        let total = 20000 in
        let _, _, jitter = jitter_fixture total in
        let acc = Vc.Jitter_acc.create ~f0 ns in
        let buf = FA.init total (fun i -> jitter.(i)) in
        Vc.Jitter_acc.feed acc buf ~len:10000;
        let early = Vc.Jitter_acc.points acc in
        Testkit.check_true "has early points" (Array.length early > 0);
        let tail = FA.init 10000 (fun i -> jitter.(10000 + i)) in
        Vc.Jitter_acc.feed acc tail ~len:10000;
        let expected = Vc.of_jitter ~domains:1 ~f0 ~ns jitter in
        check_points_close ~tol:1e-9 "final" expected
          (Vc.Jitter_acc.points acc));
    Testkit.case "Counter_acc == of_counters, every chunk size" (fun () ->
        let total = 40000 in
        let p1, p2, _ = jitter_fixture total in
        let edges1 = Osc.edges_of_periods p1 in
        let edges2 = Osc.edges_of_periods p2 in
        let expected = Vc.of_counters ~domains:1 ~f0 ~ns edges1 edges2 in
        List.iter
          (fun size ->
            let acc = Vc.Counter_acc.create ~f0 ~ns in
            let pos = ref 0 in
            while !pos < total do
              let len = min size (total - !pos) in
              let b1 = FA.init len (fun i -> p1.(pos.contents + i)) in
              let b2 = FA.init len (fun i -> p2.(pos.contents + i)) in
              Vc.Counter_acc.feed acc ~p1:b1 ~p2:b2 ~len;
              pos := !pos + len
            done;
            check_points_close ~tol:1e-9
              (Printf.sprintf "chunk %d" size)
              expected
              (Vc.Counter_acc.points acc))
          [ 1; 1000; 8192; 40000 ]);
    Testkit.case "Counter_acc refuses feeding after points" (fun () ->
        let p1, p2, _ = jitter_fixture 4096 in
        let acc = Vc.Counter_acc.create ~f0 ~ns:[| 4 |] in
        let b1 = FA.init 4096 (fun i -> p1.(i)) in
        let b2 = FA.init 4096 (fun i -> p2.(i)) in
        Vc.Counter_acc.feed acc ~p1:b1 ~p2:b2 ~len:4096;
        let _ = Vc.Counter_acc.points acc in
        Alcotest.check_raises "finalized"
          (Invalid_argument "Counter_acc.feed: already finalized") (fun () ->
            Vc.Counter_acc.feed acc ~p1:b1 ~p2:b2 ~len:1));
  ]

(* ------------------------------------------------------------------ *)
(* FFT-path statistical validation                                     *)
(* ------------------------------------------------------------------ *)

module Fit = Ptrng_measure.Fit
module Allan = Ptrng_stats.Allan

(* Stream [n] samples out of a kasdin-config source into a plain array. *)
let fftpath_samples config ~seed n =
  let src = Source.create config (Testkit.rng ~seed ()) in
  let buf = FA.create n in
  Source.fill src buf;
  Array.init n (fun i -> FA.get buf i)

let fftpath_tests =
  let f0 = 1e8 in
  (* Fit the paper's a N + b N^2 model to a synthetic white+flicker
     relative-jitter series whose flicker part comes from [flicker]. *)
  let fit_of ~white_seed ~sigma_th flicker =
    let g = Ptrng_prng.Gaussian.create (Testkit.rng ~seed:white_seed ()) in
    let jitter =
      Array.map (fun fl -> (sigma_th *. Ptrng_prng.Gaussian.draw g) +. fl)
        flicker
    in
    let ns = Ptrng_measure.Variance_curve.log2_grid ~n_min:4 ~n_max:1024 in
    let pts = Ptrng_measure.Variance_curve.of_jitter ~domains:1 ~f0 ~ns jitter in
    Fit.fit ~f0 pts
  in
  [
    Testkit.case "overlap-add fitted (a, b) within 2 SE of the direct filter"
      (fun () ->
        (* Same truncated fractional-integration filter, two convolution
           engines: the streaming FFT overlap-add (Source.kasdin) and
           the O(taps)-per-sample direct form (Kasdin.stream_next), on
           independent input streams.  The fitted thermal and flicker
           coefficients must agree statistically. *)
        let n = 1 lsl 15 and taps = 2048 in
        let sigma_th = 1e-12 and sigma_w = 1e-12 in
        let fft_flicker =
          fftpath_samples
            (Source.kasdin ~taps ~block:2048 ~alpha:1.0 ~sigma_w ())
            ~seed:101L n
        in
        let st =
          Kasdin.stream_create
            (Ptrng_prng.Gaussian.create (Testkit.rng ~seed:303L ()))
            ~alpha:1.0 ~sigma_w ~taps
        in
        let direct_flicker = Array.init n (fun _ -> Kasdin.stream_next st) in
        let ff = fit_of ~white_seed:202L ~sigma_th fft_flicker in
        let df = fit_of ~white_seed:404L ~sigma_th direct_flicker in
        let tol2 s1 s2 = 2.0 *. sqrt ((s1 *. s1) +. (s2 *. s2)) in
        Testkit.check_abs ~tol:(tol2 ff.Fit.a_se df.Fit.a_se) "a" df.Fit.a
          ff.Fit.a;
        Testkit.check_abs ~tol:(tol2 ff.Fit.b_se df.Fit.b_se) "b" df.Fit.b
          ff.Fit.b);
    Testkit.case "PSD slope of the streamed 1/f output is -1" (fun () ->
        let n = 1 lsl 16 in
        let x =
          fftpath_samples
            (Source.kasdin ~taps:4096 ~block:4096 ~alpha:1.0 ~sigma_w:1.0 ())
            ~seed:55L n
        in
        let s = Ptrng_signal.Psd.welch ~seg_len:4096 ~fs:1.0 x in
        let slope, se = Slope.log_log_slope s ~f_lo:(8.0 /. 4096.0) ~f_hi:0.05 in
        Testkit.check_abs ~tol:(Float.max 0.15 (3.0 *. se)) "slope" (-1.0) slope);
    Testkit.case "Allan variance of streamed flicker FM is flat at 2 ln2 h-1"
      (fun () ->
        (* Source.flicker_fm calibrates sigma_w^2 = pi h_{-1}, putting
           the one-sided level at h_{-1}/f; flicker FM then has
           avar(tau) = 2 ln2 h_{-1}, independent of tau. *)
        let hm1 = 1.0 in
        let y =
          fftpath_samples
            (Source.flicker_fm ~taps:8192 ~block:4096 ~hm1 ())
            ~seed:77L (1 lsl 16)
        in
        let expected = Allan.avar_flicker_fm ~hm1 in
        List.iter
          (fun m ->
            let v = Allan.avar_overlapping ~tau0:1.0 ~m y in
            Testkit.check_rel ~tol:0.3 (Printf.sprintf "m=%d" m) expected v)
          [ 4; 16; 64 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Parity pins                                                         *)
(* ------------------------------------------------------------------ *)

(* Fixed-seed MD5 digests of the IEEE bit patterns of whole traces, and
   of the bits the TRNG models sample from them.  Each pins one
   whole-trace entry point to a single realization, so any change to
   how periods are synthesized — or any dependence on the domain count
   (@par-smoke runs this suite at PTRNG_DOMAINS=1 and =4) — shows up as
   a digest mismatch. *)

let digest_floats traces =
  let b = Buffer.create 65536 in
  List.iter
    (Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)))
    traces;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_bits bs =
  let module B = Ptrng_trng.Bitstream in
  Digest.to_hex
    (Digest.string
       (String.init (B.length bs) (fun i -> if B.get bs i then '1' else '0')))

let pin name expected digest =
  Testkit.case name (fun () ->
      Alcotest.(check string) "digest" expected (digest ()))

let periods_pin name cfg ~seed ~n expected =
  pin
    (Printf.sprintf "periods %s, n = %d" name n)
    expected
    (fun () -> digest_floats [ Osc.periods (Testkit.rng ~seed ()) cfg ~n ])

let parity_tests =
  let thermal_only =
    Osc.config ~f0:Pair.paper_f0
      ~phase:{ Pair.paper_relative with Psd_model.b_fl = 0.0 } ()
  in
  let flicker_only =
    Osc.config ~f0:Pair.paper_f0
      ~phase:{ Pair.paper_relative with Psd_model.b_th = 0.0 } ()
  in
  let random_walk =
    Osc.config ~rw_hm2:1e-22 ~f0:Pair.paper_f0 ~phase:Pair.paper_relative ()
  in
  (* name, config, seed, digest at n = 2^14, digest at n = 12345 *)
  let table =
    [
      ("spectral", paper_cfg `Spectral, 500L,
       "7a814dc09ca45b274cf8450e9faecd42", "d5256d8547b4ac5107a3064ad0ea12b9");
      ("none", paper_cfg `None, 501L,
       "b3f96eb90f35fbe0dfee79e2ebb421d0", "7a31857b57dd862db95895f7f722413d");
      ("thermal-only", thermal_only, 502L,
       "ffef46d03a8cf3a95b97c9862844df2d", "92088f315e85d0f11ffeea283ce6e9a3");
      ("flicker-only", flicker_only, 503L,
       "214d4c66b410579ed9ba1f1b41591607", "79376a8658a693ab68f65e2d14cbbcaf");
      ("random-walk", random_walk, 504L,
       "214648974a1cf4a52c4ba1445d7dd6fb", "04d12a45fd0b420497b1e2c0629eab85");
    ]
  in
  List.concat_map
    (fun (name, cfg, seed, pow2, other) ->
      [
        periods_pin name cfg ~seed ~n:16384 pow2;
        periods_pin name cfg ~seed ~n:12345 other;
      ])
    table
  @ [
      pin "Pair.simulate" "b269910f8e96c3b371e9f87cdac117bd" (fun () ->
          let p1, p2 =
            Pair.simulate (Testkit.rng ~seed:510L ()) (Pair.paper_pair ())
              ~n:10000
          in
          digest_floats [ p1; p2 ]);
      pin "Ero_trng.generate" "f56eb279f0dc52875d10840fd27718dc" (fun () ->
          let cfg =
            Ptrng_trng.Ero_trng.config ~divisor:100 (Pair.paper_pair ())
          in
          digest_bits
            (Ptrng_trng.Ero_trng.generate (Testkit.rng ~seed:511L ()) cfg
               ~bits:256));
      pin "Coherent.generate" "1da184574e4f0567f1646ffde298bff8" (fun () ->
          let cfg = Ptrng_trng.Coherent.config ~f0:100e6 ~km:17 ~kd:16 () in
          digest_bits
            (Ptrng_trng.Coherent.generate (Testkit.rng ~seed:512L ()) cfg
               ~bits:256));
      pin "Multi_ring.generate" "ac69737124b92a57bb224247a52bc326" (fun () ->
          let cfg =
            Ptrng_trng.Multi_ring.config ~f0:100e6 ~rings:3 ~divisor:50 ()
          in
          digest_bits
            (Ptrng_trng.Multi_ring.generate (Testkit.rng ~seed:513L ()) cfg
               ~bits:256));
      pin "Restart.ensemble" "8bd47b4bb3f0062bb64384e3cd4e6414" (fun () ->
          digest_floats
            (Array.to_list
               (Ptrng_osc.Restart.ensemble (Testkit.rng ~seed:514L ())
                  (paper_cfg `Spectral) ~restarts:16 ~n:2048)));
    ]

(* Streamed pair pins: fills of 5000 periods over 4096-period spectral
   blocks, so most fills straddle a block boundary and some enter a new
   block on both rings at once. *)
let stream_periods st ~fills ~len =
  let b1 = FA.create len and b2 = FA.create len in
  let out1 = Array.make (fills * len) 0.0 and out2 = Array.make (fills * len) 0.0 in
  for f = 0 to fills - 1 do
    Pair.fill st ~p1:b1 ~p2:b2 ~len;
    for i = 0 to len - 1 do
      out1.((f * len) + i) <- FA.get b1 i;
      out2.((f * len) + i) <- FA.get b2 i
    done
  done;
  [ out1; out2 ]

let stream_pins =
  let quench =
    match Ptrng_scenario.Registry.find "thermal-quench" with
    | Some e -> e.Ptrng_scenario.Registry.scenario
    | None -> failwith "scenario registry has no thermal-quench entry"
  in
  [
    pin "Pair.fill straddling blocks" "c4733b32ad17b85b4ca6b434477d6b54" (fun () ->
        let st =
          Pair.stream ~flicker_block:4096 (Testkit.rng ~seed:520L ())
            (Pair.paper_pair ())
        in
        digest_floats (stream_periods st ~fills:5 ~len:5000));
    pin "Pair.skip then fill" "1abb823659fc0f302bbcb4e2b00b4f04" (fun () ->
        let st =
          Pair.stream ~flicker_block:4096 (Testkit.rng ~seed:521L ())
            (Pair.paper_pair ())
        in
        Pair.skip st 10_000;
        digest_floats (stream_periods st ~fills:3 ~len:5000));
    pin "thermal-quench stream across blocks" "8f8e6267d24f112e762b70587b6f5c03" (fun () ->
        (* Start one block before the fault onset and read across it. *)
        let st =
          Pair.stream ~flicker_block:4096 ~scenario:quench
            (Testkit.rng ~seed:522L ()) (Pair.paper_pair ())
        in
        Pair.skip st (Ptrng_scenario.Registry.fault_onset - 4096);
        digest_floats (stream_periods st ~fills:4 ~len:5000));
    pin "Multilevel.characterize, 2^16 periods" "9964bfc43464e472a6c8efa234ca3eba" (fun () ->
        let module Ml = Ptrng_model.Multilevel in
        let a =
          Ml.characterize ~n_periods:(1 lsl 16) ~rng:(Testkit.rng ~seed:523L ())
            (Pair.paper_pair ())
        in
        let curve pts =
          Array.concat
            (List.map
               (fun (p : Vc.point) ->
                 [| float_of_int p.n; p.sigma2; p.scaled; p.stderr |])
               (Array.to_list pts))
        in
        let fit (f : Fit.t) = [| f.a; f.a_se; f.b; f.b_se; f.c; f.d; f.chi2 |] in
        let g, g_se = a.growth_exponent in
        digest_floats
          [
            curve a.ideal_curve;
            curve a.counter_curve;
            fit a.fit;
            (match a.counter_fit with Some f -> fit f | None -> [||]);
            [| g; g_se |];
          ]);
  ]

let () =
  Alcotest.run "streaming"
    [
      ("fft", fft_tests);
      ("white", white_tests);
      ("voss", voss_tests);
      ("spectral", spectral_tests);
      ("kasdin", kasdin_tests);
      ("fft-path", fftpath_tests);
      ("oscillator", oscillator_tests);
      ("accumulators", acc_tests);
      ("parity", parity_tests);
      ("stream-pins", stream_pins);
    ]
