(** Sampled resource time-series driven by the simulation clock.

    Subsystems register gauge thunks ({!register}); a periodic sampler
    polls them at a fixed virtual interval and records
    [(sim_time, value)] points per [(metric, replica)] series. Sampling
    follows the engine's virtual clock only, so timelines are exactly
    reproducible for a given seed. *)

(** What the gauge measures — drives which {!Saturation} detector
    applies:
    - [Queue]: a backlog that should drain (message/pending queues)
    - [Level]: a monotone or free-running level (view id, store size)
    - [Flag]: a 0/1 condition (view-change flush in progress)
    - [Waiters]: entities blocked behind a resource (lock waiters)
    - [Window]: a condition with a bounded healthy duration (2PC
      in-doubt). *)
type kind = Queue | Level | Flag | Waiters | Window

val kind_to_string : kind -> string

type point = { at : Simtime.t; value : float }

type series = {
  name : string;
  replica : int;  (** [-1] for whole-system series. *)
  kind : kind;
  unit_ : string;
  mutable points_rev : point list;
  mutable n_points : int;
  mutable thunks : (unit -> float) list;
}

type t

(** [create engine] starts sampling immediately: once at the current
    instant, then every [interval] (default 5ms of virtual time) until
    the run ends. Each series keeps at most 50k points. *)
val create : ?interval:Simtime.t -> Engine.t -> t

val interval : t -> Simtime.t

(** [register t ~name ~replica ~kind thunk] adds a gauge. Registering
    the same [(name, replica)] twice sums the thunks into one series
    (e.g. one registration per group member living on the same node). *)
val register :
  t -> name:string -> replica:int -> kind:kind -> ?unit_:string ->
  (unit -> float) -> unit

(** All series sorted by (name, replica). *)
val series : t -> series list

val find : t -> name:string -> replica:int -> series option

(** Points in chronological order. *)
val points : series -> point list

(** Points recorded across all series so far (deterministic; feeds the
    profiler's samples-taken meta counter). *)
val total_points : t -> int

val max_value : series -> float

(** One JSON object per series; points as [[sim_us, value]] pairs
    (integer microseconds — byte-stable for a fixed seed). *)
val series_to_json : series -> string
