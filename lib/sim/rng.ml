(* The splitmix64 state lives in 8 bytes rather than a mutable [int64]
   field, which would box a fresh int64 on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 s;
  mix64 s

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 s;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))
let split t = of_state (mix64 (next_int64 t))

let int t bound =
  assert (bound > 0);
  (* Keep the value strictly below 2^61 so it fits OCaml's native int. *)
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 3) in
  r mod bound

let range t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

let float t bound =
  (* 53 random bits -> [0, 1) *)
  let bits = Int64.to_int (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (float_of_int bits /. 9007199254740992.)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Avoid log 0. *)
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

module Zipf = struct
  (* Inverse-CDF sampling from a precomputed cumulative distribution. *)
  type sampler = { cdf : float array }

  let make ~n ~theta =
    assert (n > 0);
    let weights = Array.init n (fun i -> 1.0 /. ((float_of_int (i + 1)) ** theta)) in
    let total = Array.fold_left ( +. ) 0.0 weights in
    let cdf = Array.make n 0.0 in
    let acc = ref 0.0 in
    for i = 0 to n - 1 do
      acc := !acc +. (weights.(i) /. total);
      cdf.(i) <- !acc
    done;
    cdf.(n - 1) <- 1.0;
    { cdf }

  let draw t { cdf } =
    let u = float t 1.0 in
    let n = Array.length cdf in
    (* Binary search for the first index whose cdf exceeds u. *)
    let rec search lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if cdf.(mid) > u then search lo mid else search (mid + 1) hi
    in
    search 0 (n - 1)
end
