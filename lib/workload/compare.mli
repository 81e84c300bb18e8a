(** Cross-run comparison/regression engine.

    Diffs two {!Run_record} sets — run-vs-run, or a sweep directory
    against a committed baseline — under per-metric relative thresholds,
    classifying every (cell, metric) pair as improved, regressed or
    unchanged. Cells are matched by {!Run_record.cell_id}; metrics flow
    through the records' flat metric view, so the engine knows nothing
    of the record schema beyond each metric's declared direction.
    [replisim compare] exits non-zero unless {!ok}, which is how perf
    and msgs/txn regressions gate CI. *)

type direction = Run_record.direction = Lower_better | Higher_better

type rule = { metric : string; dir : direction; threshold : float }

(** [rule metric] with the direction the record's field table declares
    for [metric] ({!Run_record.direction}) and a 20% relative threshold,
    unless overridden. Raises [Invalid_argument] when [dir] is omitted
    and [metric] is not a record metric. *)
val rule : ?dir:direction -> ?threshold:float -> string -> rule

(** The default CI gate: latency p50/p95 (20%), p99 (25%), throughput
    (20%) and msgs/txn (10%). *)
val default_rules : rule list

type verdict = Improved | Regressed | Unchanged

type finding = {
  cell : string;
  metric : string;
  base : float;
  cand : float;
  delta_pct : float;
  verdict : verdict;
}

type report = {
  findings : finding list;
  missing : string list;  (** baseline cells with no candidate record *)
  extra : string list;  (** candidate cells absent from the baseline *)
  cells : int;
}

(** [compare_sets ~base ~cand ()] diffs candidate against baseline;
    both sides are [(cell_id, metrics)] assoc lists. Only metrics
    present on both sides are judged. *)
val compare_sets :
  ?rules:rule list ->
  base:(string * (string * float) list) list ->
  cand:(string * (string * float) list) list ->
  unit ->
  report

val count : verdict -> report -> int

(** No regressions and no missing baseline cells. *)
val ok : report -> bool

val verdict_to_string : verdict -> string
val pp_finding : Format.formatter -> finding -> unit
val pp_report : Format.formatter -> report -> unit
