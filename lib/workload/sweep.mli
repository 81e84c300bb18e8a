(** Sweep orchestration: grid algebra, aggregate manifest and matrix
    rendering for cross-run studies.

    A sweep is a declared grid — techniques × shards × load ×
    update-ratio × zipf skew × seeds, plus any per-technique config axis
    — expanded into {!cell}s in a fixed deterministic order. The caller
    ([replisim sweep], bench perf18) runs each cell through {!run_cell},
    which produces one {!Run_record} per cell; this module renders the
    record set as an ASCII heatmap or Markdown matrix over
    any record metric (the measured form of the paper's Figure-6
    technique × workload matrix) and emits the aggregate manifest. *)

type axes = {
  techniques : string list;
  shards : int list;
  loads : float list;  (** transactions/s; [0.] = closed loop *)
  updates : float list;
  zipfs : float list;
  seeds : int list;
  vary : (string * string * string list) list;
      (** [(technique, key, values)]: a config axis applying only to
          cells of the named technique *)
}

(** Single-point axes everywhere ([shards=\[1\]], [loads=\[0.\]],
    [updates=\[0.5\]], [zipfs=\[0.6\]], [seeds=\[11\]]) and no
    techniques — the caller fills in what it sweeps. *)
val default_axes : axes

type cell = {
  technique : string;
  shards : int;
  load : float;
  updates : float;
  zipf : float;
  seed : int;
  vary : (string * string) list;
}

(** Deterministic grid expansion: techniques outermost, seeds innermost. *)
val cells : axes -> cell list

(** The one per-cell run, shared by {!run_cell} and [replisim run
    --record]: [factory] under [spec] and [faults], sampled every 5 ms
    with the audit on, and the run's normalized record, which carries
    [factory]'s single-transaction census ({!Builder.probe}) when the
    probe replies soundly. A cell therefore has one record, whichever
    command wrote it. *)
val run_recorded :
  ?router:Router.config ->
  ?faults:Runner.fault list ->
  technique:string ->
  config:(string * string) list ->
  factory:Runner.factory ->
  seed:int ->
  n_replicas:int ->
  n_clients:int ->
  arrival:Runner.arrival ->
  spec:Spec.t ->
  unit ->
  Runner.result * Run_record.t

(** Run one cell through [factory] (its technique configured for the
    cell): {!run_recorded} with [spec] under the cell's skew, update
    ratio, shards, arrival and seed. Returns its record. *)
val run_cell :
  ?router:Router.config ->
  n_replicas:int ->
  n_clients:int ->
  spec:Spec.t ->
  config:(string * string) list ->
  factory:Runner.factory ->
  cell ->
  Run_record.t

(** The sweep directory's aggregate document: declared axes, record
    files in cell order, and min/max-with-winner aggregates for
    [metrics]. [records] pairs each record with its file name. *)
val manifest_json :
  axes -> records:(string * Run_record.t) list -> metrics:string list -> string

type matrix = {
  metric : string;
  rows : string list;
      (** technique plus whichever non-load dimensions vary *)
  cols : string list;  (** arrival loads *)
  values : float option array array;  (** [values.(row).(col)] *)
}

val matrix : metric:string -> Run_record.t list -> matrix
val render_ascii : matrix -> string
val render_markdown : matrix -> string
