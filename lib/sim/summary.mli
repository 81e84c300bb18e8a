(** The shared sample-summary record: count, mean and nearest-rank
    quantiles. The workload runner, audit and benchmark harness summarise
    samples with it and {!Metrics} renders histogram snapshots through
    it, so percentile arithmetic exists exactly once. *)

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

(** The [count = 0] sentinel: every statistic is [0.]; consumers must
    check [count] before reading quantiles. *)
val empty : t

(** A single sample is every quantile of itself. *)
val of_constant : float -> t

(** Nearest-rank quantile of a sorted array ([0. <= p <= 1.]), clamped
    to the array ends; [0.] on the empty array. *)
val percentile : float array -> float -> float

(** Summarise a batch of samples (order-independent). The empty batch is
    {!empty}; a one-sample batch is {!of_constant} of that sample —
    neither produces NaN or mixed zero/real quantiles. *)
val summarize : float list -> t

val pp : Format.formatter -> t -> unit
