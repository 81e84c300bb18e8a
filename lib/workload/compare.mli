(** Cross-run comparison/regression engine, the one evaluator of every
    number CI gates.

    Diffs two sets of cells (a name and a flat metric view) under
    per-metric relative thresholds, classifying every (cell, metric)
    pair as improved, regressed, unchanged or missing. The cells are
    {!Run_record}s matched by {!Run_record.cell_id} — run-vs-run, or a
    sweep directory against a committed baseline — or bench files
    judged against a gate file's absolute bounds ({!parse_gates}), each
    bound a zero-threshold rule against a baseline cell that holds it.
    [replisim compare] exits non-zero unless {!ok}. *)

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

(** [Missing]: the candidate cell lacks a metric the baseline cell has. *)
type verdict = Improved | Regressed | Unchanged | Missing

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
    both sides are [(cell_id, metrics)] assoc lists. A rule judges each
    baseline cell that carries its metric; a matched candidate cell
    lacking that metric yields a {!Missing} finding. *)
val compare_sets :
  ?rules:rule list ->
  base:(string * (string * float) list) list ->
  cand:(string * (string * float) list) list ->
  unit ->
  report

val count : verdict -> report -> int

(** No regressions, no missing baseline cells and no missing metrics. *)
val ok : report -> bool

val verdict_to_string : verdict -> string

(** The findings that are not unchanged (every finding with [all]), the
    missing and new cells, then a one-line count of the verdicts. *)
val pp_report : ?all:bool -> Format.formatter -> report -> unit

(** {2 Absolute bounds} *)

(** Parse a gate file: one bound per line, [BENCH METRIC >= VALUE] or
    [BENCH METRIC <= VALUE], ['#'] to end of line a comment. Returns one
    zero-threshold rule per metric and one baseline cell per bench
    holding its bounds; a malformed line, a bound given twice or a
    metric bounded from both sides is an error naming the line. *)
val parse_gates :
  string -> (rule list * (string * (string * float) list) list, string) result

(** A [BENCH_<name>.json] document as the cell named by its ["bench"]
    field, each metric the max over its rows; an error without a name,
    a row, or a string ["metric"] and number ["value"] in every row. *)
val bench_cell :
  Sim.Json.t -> (string * (string * float) list, string) result
