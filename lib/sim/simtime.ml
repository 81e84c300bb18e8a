type t = int

let zero = 0
let infinity = max_int
let of_us us = us
let of_ms ms = ms * 1_000
let of_sec s = int_of_float (s *. 1_000_000.)
let to_us t = t
let to_ms t = float_of_int t /. 1_000.
let to_sec t = float_of_int t /. 1_000_000.
let add a b = if a = max_int || b = max_int then max_int else a + b
let sub a b = Stdlib.max 0 (a - b)
let mul a k = a * k
let max = Stdlib.max
let min = Stdlib.min
let compare = Int.compare
let equal = Int.equal
let ( < ) = Stdlib.( < )
let ( <= ) = Stdlib.( <= )
let ( > ) = Stdlib.( > )
let ( >= ) = Stdlib.( >= )

let pp ppf t =
  if t = max_int then Format.fprintf ppf "+inf"
  else if t >= 1_000_000 then Format.fprintf ppf "%.3fs" (to_sec t)
  else if t >= 1_000 then Format.fprintf ppf "%.3fms" (to_ms t)
  else Format.fprintf ppf "%dus" t

let to_string t = Format.asprintf "%a" pp t
