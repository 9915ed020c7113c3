type config = {
  f0 : float;
  phase : Ptrng_noise.Psd_model.phase;
  flicker_generator : [ `Spectral | `Kasdin | `Voss | `None ];
  rw_hm2 : float;
}

let config ?(flicker_generator = `Spectral) ?(rw_hm2 = 0.0) ~f0 ~phase () =
  if f0 <= 0.0 then invalid_arg "Oscillator.config: f0 <= 0";
  if phase.Ptrng_noise.Psd_model.b_th < 0.0 || phase.b_fl < 0.0 then
    invalid_arg "Oscillator.config: negative phase-noise coefficient";
  if rw_hm2 < 0.0 then invalid_arg "Oscillator.config: negative rw_hm2";
  { f0; phase; flicker_generator; rw_hm2 }

let thermal_sigma cfg =
  sqrt (cfg.phase.Ptrng_noise.Psd_model.b_th /. (cfg.f0 ** 3.0))

(* ------------------------------------------------------------------ *)
(* Streaming simulation                                                *)
(* ------------------------------------------------------------------ *)

module FA = Float.Array
module Source = Ptrng_noise.Source

(* Flicker segments are staged through a fixed scratch so an arbitrary
   fill length never allocates. *)
let flicker_seg = 4096

type source = {
  s_t0 : float;
  thermal : Source.t option;
  flicker : Source.t option;
  fl_scratch : FA.t;          (* length flicker_seg when flicker <> None *)
  rw : Ptrng_prng.Gaussian.t option;
  rw_sigma : float;
  rw_carry : FA.t;            (* 1-cell random-walk integrator state *)
  mutable s_pos : int;
}

let default_flicker_block = 1 lsl 16

(* Creation draws from [rng] in a fixed order — thermal root, then
   flicker root, then the random-walk sampler — which every seeded
   whole trace ({!periods}, Pair.simulate) is pinned to. *)
let source ?(flicker_block = default_flicker_block) rng cfg =
  if flicker_block <= 0 then invalid_arg "Oscillator.source: flicker_block <= 0";
  let t0 = 1.0 /. cfg.f0 in
  let sigma_th = thermal_sigma cfg in
  let thermal =
    if sigma_th > 0.0 then Some (Source.create (Source.white ~sigma:sigma_th) rng)
    else None
  in
  (* Flicker fractional frequency at rate f0 with one-sided level
     h_{-1} = 2 b_fl / f0^2, from the selected generator. *)
  let hm1 = 2.0 *. cfg.phase.Ptrng_noise.Psd_model.b_fl /. (cfg.f0 *. cfg.f0) in
  let flicker =
    if hm1 <= 0.0 then None
    else
      match cfg.flicker_generator with
      | `None -> None
      | `Spectral ->
        let block = Ptrng_signal.Fft.next_pow2 flicker_block in
        Some
          (Source.create
             (Source.spectral ~block ~psd:(fun f -> hm1 /. f) ~fs:cfg.f0 ())
             rng)
      | `Kasdin ->
        let taps = min (Ptrng_signal.Fft.next_pow2 flicker_block) (1 lsl 15) in
        Some (Source.create (Source.flicker_fm ~taps ~hm1 ()) rng)
      | `Voss ->
        (* Per-source sigma inverts Voss.level_hm1 (= sigma^2 / ln 2);
           octaves are chosen so the slowest source spans the block. *)
        let sigma = sqrt (hm1 *. log 2.0) in
        let octaves =
          let rec count o span =
            if span >= flicker_block || o >= 40 then o else count (o + 1) (span * 2)
          in
          count 1 1
        in
        Some (Source.create (Source.voss ~octaves ~sigma ()) rng)
  in
  (* Random-walk FM (aging): y integrates white steps whose variance
     follows from the one-sided level, sigma_w^2 = 2 pi^2 h_{-2}/fs
     (exact in the time domain, no circularity). *)
  let rw =
    if cfg.rw_hm2 > 0.0 then Some (Ptrng_prng.Gaussian.create rng) else None
  in
  {
    s_t0 = t0;
    thermal;
    flicker;
    fl_scratch =
      (match flicker with Some _ -> FA.create flicker_seg | None -> FA.create 0);
    rw;
    rw_sigma = sqrt (2.0 *. Float.pi *. Float.pi *. cfg.rw_hm2 /. cfg.f0);
    rw_carry = FA.make 1 0.0;
    s_pos = 0;
  }

(* Option-free core: the streaming pair path calls this per segment,
   and a [?len] there would build a [Some] block per call (R7). *)
let fill_periods_n src ~pos ~len buf =
  if len < 0 || pos < 0 || pos + len > FA.length buf then
    invalid_arg "Oscillator.fill_periods: bad len";
  let t0 = src.s_t0 in
  (match src.thermal with
  | Some th ->
    Source.fill_range th buf ~pos ~len;
    for i = pos to pos + len - 1 do
      FA.unsafe_set buf i (t0 +. FA.unsafe_get buf i)
    done
  | None -> FA.fill buf pos len t0);
  (match src.flicker with
  | None -> ()
  | Some fl ->
    let off = ref 0 in
    while !off < len do
      let seg = min flicker_seg (len - !off) in
      Source.fill_range fl src.fl_scratch ~pos:0 ~len:seg;
      let base = pos + !off in
      for j = 0 to seg - 1 do
        FA.unsafe_set buf (base + j)
          (FA.unsafe_get buf (base + j)
          +. (t0 *. FA.unsafe_get src.fl_scratch j))
      done;
      off := !off + seg
    done);
  (match src.rw with
  | None -> ()
  | Some g ->
    let sigma_w = src.rw_sigma in
    let y = ref (FA.get src.rw_carry 0) in
    for i = pos to pos + len - 1 do
      y := !y +. (sigma_w *. Ptrng_prng.Gaussian.draw g);
      FA.unsafe_set buf i (FA.unsafe_get buf i +. (t0 *. !y))
    done;
    FA.set src.rw_carry 0 !y);
  src.s_pos <- src.s_pos + len

let fill_periods src ?len buf =
  fill_periods_n src ~pos:0
    ~len:(match len with Some l -> l | None -> FA.length buf)
    buf

(* The scenario path needs the two noise components separately — the
   schedule rescales them per sample before they are combined — so this
   writes the raw thermal jitter (seconds, baseline sigma included) and
   the fractional flicker frequency y_k into caller buffers, drawing
   from the same sources in the same order as {!fill_periods}. *)
(* [len] is required: the scenario loop calls this per segment, and an
   optional argument would allocate a [Some] block each time (R7). *)
let fill_components src ~len ~thermal ~flicker =
  if len < 0 || len > FA.length thermal || len > FA.length flicker then
    invalid_arg "Oscillator.fill_components: bad len";
  if Option.is_some src.rw then
    invalid_arg
      "Oscillator.fill_components: random-walk FM sources are not \
       scenario-capable (express aging as a Scenario drift profile)";
  (match src.thermal with
  | Some th -> Source.fill_range th thermal ~pos:0 ~len
  | None -> FA.fill thermal 0 len 0.0);
  (match src.flicker with
  | Some fl -> Source.fill_range fl flicker ~pos:0 ~len
  | None -> FA.fill flicker 0 len 0.0);
  src.s_pos <- src.s_pos + len

let source_position src = src.s_pos

(* Only the flicker source has blocks: the thermal stream is white. *)
let block_room src =
  match src.flicker with Some fl -> Source.block_room fl | None -> max_int

let sync_blocks s1 s2 =
  match s1.flicker with
  | Some f1 -> (
    match s2.flicker with
    | Some f2 -> Source.sync_blocks f1 f2
    | None -> Source.sync_blocks f1 f1)
  | None -> (
    match s2.flicker with Some f2 -> Source.sync_blocks f2 f2 | None -> ())

(* A whole trace is the stream read with [flicker_block = n] (one
   spectral block spanning the trace), staged through a fixed segment
   so no second trace-length buffer is built. *)
let periods rng cfg ~n =
  if n <= 0 then invalid_arg "Oscillator.periods: n <= 0";
  let src = source ~flicker_block:n rng cfg in
  let out = Array.make n 0.0 in
  let seg = FA.create (min n flicker_seg) in
  let pos = ref 0 in
  while !pos < n do
    let len = min (FA.length seg) (n - !pos) in
    fill_periods_n src ~pos:0 ~len seg;
    for i = 0 to len - 1 do
      out.(!pos + i) <- FA.unsafe_get seg i
    done;
    pos := !pos + len
  done;
  out

let source_skip src n =
  if n < 0 then invalid_arg "Oscillator.source_skip: n < 0";
  Option.iter (fun th -> Source.skip th n) src.thermal;
  Option.iter (fun fl -> Source.skip fl n) src.flicker;
  (match src.rw with
  | None -> ()
  | Some g ->
    let sigma_w = src.rw_sigma in
    let y = ref (FA.get src.rw_carry 0) in
    for _ = 1 to n do
      y := !y +. (sigma_w *. Ptrng_prng.Gaussian.draw g)
    done;
    FA.set src.rw_carry 0 !y);
  src.s_pos <- src.s_pos + n

let source_reset src =
  (* The random-walk sampler draws from the creating generator itself,
     so its stream cannot be re-derived. *)
  if Option.is_some src.rw then
    invalid_arg "Oscillator.source_reset: random-walk FM sources cannot rewind";
  Option.iter Source.reset src.thermal;
  Option.iter Source.reset src.flicker;
  FA.set src.rw_carry 0 0.0;
  src.s_pos <- 0

let edges_of_periods ?(t0 = 0.0) periods =
  let n = Array.length periods in
  let edges = Array.make (n + 1) t0 in
  for k = 0 to n - 1 do
    edges.(k + 1) <- edges.(k) +. periods.(k)
  done;
  edges

let jitter_of_periods ~f0 periods =
  if f0 <= 0.0 then invalid_arg "Oscillator.jitter_of_periods: f0 <= 0";
  let t0 = 1.0 /. f0 in
  Array.map (fun t -> t -. t0) periods

let excess_phase ~f0 periods =
  if f0 <= 0.0 then invalid_arg "Oscillator.excess_phase: f0 <= 0";
  let t0 = 1.0 /. f0 in
  let n = Array.length periods in
  let phi = Array.make n 0.0 in
  let time_error = ref 0.0 in
  for k = 0 to n - 1 do
    time_error := !time_error +. (periods.(k) -. t0);
    phi.(k) <- -2.0 *. Float.pi *. f0 *. !time_error
  done;
  phi
