let bits = 62
let mask = (1 lsl bits) - 1

let pack (a : bool array) =
  let n = Array.length a in
  let words = Array.make ((n / bits) + 3) 0 in
  for i = 0 to n - 1 do
    let q = i / bits in
    words.(q) <- words.(q) lor (Bool.to_int a.(i) lsl (i mod bits))
  done;
  words

let window words p =
  let q = p / bits and r = p mod bits in
  ((words.(q) lsr r) lor (words.(q + 1) lsl (bits - r))) land mask

(* SWAR: 2-, 4- and 8-bit partial sums, then the bytes summed into the
   top byte by one multiplication. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  ((x * 0x0101010101010101) lsr 56) land 0x7F
