(* Shared helpers for the alcotest suites. *)

let check_rel ~tol name expected actual =
  let ok =
    if expected = 0.0 then Float.abs actual <= tol
    else Float.abs ((actual -. expected) /. expected) <= tol
  in
  if not ok then
    Alcotest.failf "%s: expected %.8g within %.2g%% but got %.8g"
      name expected (tol *. 100.0) actual

let check_abs ~tol name expected actual =
  if Float.abs (actual -. expected) > tol then
    Alcotest.failf "%s: expected %.8g +- %.3g but got %.8g" name expected tol actual

let check_in_range name ~lo ~hi actual =
  if actual < lo || actual > hi then
    Alcotest.failf "%s: %.8g outside [%.8g, %.8g]" name actual lo hi

let check_true name cond = Alcotest.(check bool) name true cond
let check_false name cond = Alcotest.(check bool) name false cond

let rng ?(seed = 0x5EEDL) () = Ptrng_prng.Rng.create ~seed ()

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

(* [seed] fixes the generator's random state, so every run draws the
   same cases. *)
let qcheck ?(count = 200) ?seed ?print name gen prop =
  let rand = Option.map (fun s -> Random.State.make [| s |]) seed in
  QCheck_alcotest.to_alcotest ?rand (QCheck2.Test.make ~count ~name ?print gen prop)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec scan i = i + nl <= hl && (String.sub haystack i nl = needle || scan (i + 1)) in
  nl = 0 || scan 0
