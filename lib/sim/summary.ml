(* Single home for the sample-summary record and the percentile
   arithmetic: the workload runner, audit and benchmark harness summarise
   samples with it, so there is exactly one definition of "percentile",
   "mean" and "max" in the tree. *)

type t = {
  count : int;
  mean : float;
  p50 : float;
  p90 : float;
  p95 : float;
  p99 : float;
  min : float;
  max : float;
}

let empty =
  {
    count = 0;
    mean = 0.;
    p50 = 0.;
    p90 = 0.;
    p95 = 0.;
    p99 = 0.;
    min = 0.;
    max = 0.;
  }

let of_constant v =
  { count = 1; mean = v; p50 = v; p90 = v; p95 = v; p99 = v; min = v; max = v }

(* Nearest-rank on a sorted array, clamped to the ends: a single sample
   is every quantile of itself, and the empty array has no quantiles at
   all (callers must check [count]). *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let idx = int_of_float (p *. float_of_int (n - 1)) in
    sorted.(Stdlib.max 0 (Stdlib.min (n - 1) idx))

let summarize values =
  match values with
  | [] -> empty
  | [ v ] -> of_constant v
  | _ ->
      let sorted = Array.of_list values in
      Array.sort Float.compare sorted;
      let n = Array.length sorted in
      let total = Array.fold_left ( +. ) 0. sorted in
      {
        count = n;
        mean = total /. float_of_int n;
        p50 = percentile sorted 0.5;
        p90 = percentile sorted 0.9;
        p95 = percentile sorted 0.95;
        p99 = percentile sorted 0.99;
        min = sorted.(0);
        max = sorted.(n - 1);
      }

let pp ppf s =
  Format.fprintf ppf
    "n=%d mean=%.2f p50=%.2f p90=%.2f p95=%.2f p99=%.2f max=%.2f" s.count
    s.mean s.p50 s.p90 s.p95 s.p99 s.max
