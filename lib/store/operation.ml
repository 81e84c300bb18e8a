(** The transaction model (paper §4.1 and §5.1).

    A transaction is a sequence of read and write operations over logical
    data items. A one-operation transaction (a single [op]) models the
    stored-procedure interface of §2.2/§4.1; a longer list models the
    interactive transactions of §5. [Write_random] marks a
    non-deterministic choice: executing it picks a fresh value, so replicas
    that execute it independently diverge — exactly the situation
    semi-active and passive replication exist to handle (§3.3, §3.4). *)

type key = string

type op =
  | Read of key
  | Write of key * int
  | Incr of key * int  (** read-modify-write: add the delta to the item *)
  | Write_random of key
      (** non-deterministic write; the executing replica chooses the value *)

(** A client request: one transaction. *)
type request = { rid : int; client : int; ops : op list }

let request net ~client ops = { rid = Sim.Network.fresh_rid net; client; ops }

(** Keys read by an operation (for lock acquisition). *)
let read_keys = function
  | Read k -> [ k ]
  | Incr (k, _) -> [ k ]
  | Write _ | Write_random _ -> []

(** Keys written by an operation. *)
let write_keys = function
  | Read _ -> []
  | Write (k, _) | Incr (k, _) | Write_random k -> [ k ]

let is_update = function Read _ -> false | Write _ | Incr _ | Write_random _ -> true
let request_is_update r = List.exists is_update r.ops

let read_set r = List.concat_map read_keys r.ops |> List.sort_uniq String.compare
let write_set r = List.concat_map write_keys r.ops |> List.sort_uniq String.compare
