(** Shadow-copy (overlay) transaction execution.

    The paper's certification-based technique executes on shadow copies
    (§5.4.2), and every technique that can abort after executing (2PC
    voting, certification) needs writes that are invisible until commit.
    A shadow buffers a transaction's writes over a base store: reads see
    the transaction's own writes first, then the base; nothing touches the
    base until [install]. *)

type t

val create : Kv.t -> t

(** Execute one operation. [choose] resolves [Write_random] (default
    constant 0). *)
val exec_op : ?choose:(Operation.key -> int) -> t -> Operation.op -> unit

val exec_ops : ?choose:(Operation.key -> int) -> t -> Operation.op list -> unit

(** Reads performed so far: (key, value, base-store version). Reads of the
    transaction's own writes are not listed (they create no inter-
    transaction dependency). *)
val reads : t -> (Operation.key * int * int) list

(** Buffered writes, in program order, last write per key:
    (key, value). *)
val writes : t -> (Operation.key * int) list

(** Install the buffered writes into the base store with freshly assigned
    versions; returns them as (key, value, version) for history
    recording. The shadow must not be used afterwards. *)
val install : t -> (Operation.key * int * int) list

(** The value the client response carries: last read value, if any. *)
val last_read : t -> int option

(** The full execution result (reads + writes as installed); only valid
    after [install]. *)
val result : t -> installed:(Operation.key * int * int) list -> Apply.result
