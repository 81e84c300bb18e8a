(** Extensible message payload type.

    Each protocol layer extends [t] with its own constructors; a node's
    handler stack pattern-matches on the constructors it owns and leaves
    the rest to lower layers (see {!Network.add_handler}). A layer built
    on a channel it owns ({!Group.Rchan}) sees only its own traffic and
    needs no instance tag. Only constructors that reach a handler stack
    several instances share carry one (the channel's own [Data]/[Ack],
    the failure detector's [Heartbeat], the client [Reply]); it is drawn
    from the run's network ({!Network.fresh_id}). *)

type t = ..

(** Constructors used by the simulator's own tests. *)
type t += Ping of int | Pong of int

(** [name msg] — a human-readable name for [msg], used to label message
    spans. Tries registered printers (most recent first), falling back to
    the extension constructor's name with the module path stripped. *)
val name : t -> string

(** Layers whose constructors wrap a payload register a printer that
    unwraps it recursively (returning [None] for foreign constructors),
    so a span reads e.g. ["Data(Inject(Req))"] — transport, ordering and
    protocol layer at a glance. Call it only from a module's
    initialisation (a top-level [let () = ...], including inside a
    functor applied at top level): the printer list is then frozen once
    initialisation ends, so it is the same for every run in a process and
    is the one process-wide table [Msg] keeps. *)
val register_printer : (t -> string option) -> unit
