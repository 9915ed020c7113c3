let variance_of_level ~level ~fs =
  if level < 0.0 then invalid_arg "White.variance_of_level: negative level";
  if fs <= 0.0 then invalid_arg "White.variance_of_level: fs <= 0";
  level *. fs /. 2.0

let level_of_variance ~variance ~fs =
  if variance < 0.0 then invalid_arg "White.level_of_variance: negative variance";
  if fs <= 0.0 then invalid_arg "White.level_of_variance: fs <= 0";
  2.0 *. variance /. fs
