type verdict = [ `Pass | `Caution | `Fail ]

type t = {
  bits_evaluated : int;
  bias : float;
  serial_correlation : float;
  ais31_a : Ptrng_ais31.Report.summary option;
  ais31_b : Ptrng_ais31.Report.summary option;
  nist : Ptrng_nist22.Sp80022.result list;
  sp90b : Ptrng_sp90b.Estimators.estimate list;
  sp90b_aggregate : float;
  predictors : Ptrng_sp90b.Estimators.estimate list;
  predictor_aggregate : float;
  health_rct_alarms : int;
  health_apt_alarms : int;
  verdict : verdict;
}

let decide ~ais31_a ~nist ~aggregate ~rct ~apt =
  let ais_fail =
    match ais31_a with Some s -> not s.Ptrng_ais31.Report.verdict | None -> false
  in
  let nist_failures =
    List.length (List.filter (fun r -> not r.Ptrng_nist22.Sp80022.pass) nist)
  in
  if ais_fail || nist_failures >= 2 || rct > 0 || apt > 0 || aggregate < 0.3 then `Fail
  else if nist_failures = 1 || aggregate < 0.5 then `Caution
  else `Pass

let evaluate ?(claimed_entropy = 0.997) stream =
  let n = Ptrng_trng.Bitstream.length stream in
  if n < 2000 then invalid_arg "Assessment.evaluate: need >= 2000 bits";
  let bits = Ptrng_trng.Bitstream.to_bools stream in
  (* Every family only reads [bits], so they run as one pool section.
     Each task fills its own slot; the tasks are listed costliest first
     (as timed on 2^17 fair bits) so the long ones start early, and each
     predictor is a task of its own. *)
  let module P = Ptrng_sp90b.Predictors in
  let ais31_a = ref None and ais31_b = ref None and nist = ref [] in
  let sp90b = ref ([], 1.0) and health = ref (0, 0) in
  let mcw = ref None and lag = ref None and mmc = ref None and lz78y = ref None in
  let predict slot f () = if n >= 4096 then slot := Some (f bits) in
  let tasks =
    [|
      (fun () -> nist := Ptrng_nist22.Sp80022.run_all bits);
      predict lz78y P.lz78y;
      predict mmc (fun bits -> P.multi_mmc bits);
      (fun () ->
        if n >= Ptrng_ais31.Procedure_a.block_bits then
          ais31_a := Some (Ptrng_ais31.Procedure_a.run stream));
      (fun () -> sp90b := Ptrng_sp90b.Estimators.run_all bits);
      predict mcw P.multi_mcw;
      predict lag (fun bits -> P.lag bits);
      (fun () -> ais31_b := Some (Ptrng_ais31.Procedure_b.run stream));
      (fun () ->
        health :=
          Ptrng_sp90b.Health.scan
            ~cutoff_rct:(Ptrng_sp90b.Health.rct_cutoff ~h:claimed_entropy ())
            ~cutoff_apt:(Ptrng_sp90b.Health.apt_cutoff ~h:claimed_entropy ())
            ~window:1024 bits);
    |]
  in
  Ptrng_exec.Pool.parallel_iter (fun task -> task ()) tasks;
  let ais31_a = !ais31_a and ais31_b = !ais31_b and nist = !nist in
  let sp90b, sp90b_aggregate = !sp90b in
  let health_rct_alarms, health_apt_alarms = !health in
  let predictors = List.filter_map ( ! ) [ mcw; lag; mmc; lz78y ] in
  let predictor_aggregate =
    List.fold_left
      (fun acc (e : Ptrng_sp90b.Estimators.estimate) -> Float.min acc e.min_entropy)
      1.0 predictors
  in
  let aggregate = Float.min sp90b_aggregate predictor_aggregate in
  let serial_correlation =
    (* A constant stream has no defined correlation; report 0 and let
       the batteries condemn it. *)
    try Ptrng_trng.Bitstream.serial_correlation stream with Invalid_argument _ -> 0.0
  in
  {
    bits_evaluated = n;
    bias = Ptrng_trng.Bitstream.bias stream;
    serial_correlation;
    ais31_a;
    ais31_b;
    nist;
    sp90b;
    sp90b_aggregate;
    predictors;
    predictor_aggregate;
    health_rct_alarms;
    health_apt_alarms;
    verdict =
      decide ~ais31_a ~nist ~aggregate ~rct:health_rct_alarms ~apt:health_apt_alarms;
  }

let verdict_name = function
  | `Pass -> "PASS"
  | `Caution -> "CAUTION"
  | `Fail -> "FAIL"

let pp ppf t =
  Format.fprintf ppf "@[<v>";
  Format.fprintf ppf "=== TRNG assessment (%d bits) ===@," t.bits_evaluated;
  Format.fprintf ppf "bias %+.4f, lag-1 correlation %+.4f@," t.bias t.serial_correlation;
  (match t.ais31_a with
  | Some s ->
    Format.fprintf ppf "AIS31 procedure A: %d/%d -> %s@," s.Ptrng_ais31.Report.passed
      (s.Ptrng_ais31.Report.passed + s.Ptrng_ais31.Report.failed)
      (if s.Ptrng_ais31.Report.verdict then "pass" else "FAIL")
  | None -> Format.fprintf ppf "AIS31 procedure A: (not enough bits)@,");
  (match t.ais31_b with
  | Some s ->
    Format.fprintf ppf "AIS31 procedure B: %d/%d -> %s@," s.Ptrng_ais31.Report.passed
      (s.Ptrng_ais31.Report.passed + s.Ptrng_ais31.Report.failed)
      (if s.Ptrng_ais31.Report.verdict then "pass" else "FAIL")
  | None -> ());
  let nist_failed = List.filter (fun r -> not r.Ptrng_nist22.Sp80022.pass) t.nist in
  Format.fprintf ppf "SP 800-22: %d/%d pass%s@,"
    (List.length t.nist - List.length nist_failed)
    (List.length t.nist)
    (match nist_failed with
    | [] -> ""
    | fs ->
      " (failing: "
      ^ String.concat ", " (List.map (fun r -> r.Ptrng_nist22.Sp80022.name) fs)
      ^ ")");
  Format.fprintf ppf "SP 800-90B estimators: ";
  List.iter
    (fun (e : Ptrng_sp90b.Estimators.estimate) ->
      Format.fprintf ppf "%s %.3f  " e.name e.min_entropy)
    t.sp90b;
  Format.fprintf ppf "-> %.3f@," t.sp90b_aggregate;
  if t.predictors <> [] then begin
    Format.fprintf ppf "SP 800-90B predictors: ";
    List.iter
      (fun (e : Ptrng_sp90b.Estimators.estimate) ->
        Format.fprintf ppf "%s %.3f  " e.name e.min_entropy)
      t.predictors;
    Format.fprintf ppf "-> %.3f@," t.predictor_aggregate
  end;
  Format.fprintf ppf "health tests: %d RCT alarms, %d APT alarms@," t.health_rct_alarms
    t.health_apt_alarms;
  Format.fprintf ppf "overall: %s@]" (verdict_name t.verdict)
