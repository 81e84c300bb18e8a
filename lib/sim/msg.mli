(** Extensible message payload type.

    Each protocol layer extends [t] with its own constructors; a node's
    handler stack pattern-matches on the constructors it owns and leaves
    the rest to lower layers (see {!Network.add_handler}). A layer built
    on a channel it owns ({!Group.Rchan}) sees only its own traffic and
    needs no instance tag. Only constructors that reach a handler stack
    several instances share carry one (the channel's own [Data]/[Ack],
    the failure detector's [Fd_ping]/[Fd_pong], the client [Reply]); it is drawn
    from the run's network ({!Network.fresh_id}). *)

type t = ..

(** Constructors used by the simulator's own tests. *)
type t += Ping of int | Pong of int

(** {2 Names}

    A message's name labels its message span: ["Data(Inject(Req))"] shows
    transport, ordering and protocol layer at a glance. Each layer names
    its own constructors in a registry keyed by extension constructor:
    a {!leaf} by its label, a {!wrapper} by its label around its
    payload's name, a {!counted} one by its label and a count. Register
    only from a module's initialisation (a top-level [let () = ...],
    including inside a functor applied at top level): the registry is
    then frozen once initialisation ends, so it is the same for every run
    in a process and is the one process-wide table [Msg] keeps. A later
    registration of the same constructor replaces the earlier one. *)

(** [name msg] — [msg]'s name, built afresh: the registered label (with
    its payload's name or its count), or for an unregistered constructor
    its own name with the module path stripped. One registry lookup and
    one string per nesting level. *)
val name : t -> string

(** [leaf [%extension_constructor C] label]: [C] is named [label]. *)
val leaf : Obj.Extension_constructor.t -> string -> unit

(** [wrapper [%extension_constructor C] label payload]: a [C] message is
    named [label ^ "(" ^ name (payload msg) ^ ")"]. [payload] is called
    only on [C] messages. *)
val wrapper : Obj.Extension_constructor.t -> string -> (t -> t) -> unit

(** [counted ?shown_from [%extension_constructor C] label count]: a [C]
    message is named ["label[k]"] for [k = count msg] when [k >=
    shown_from] (default 0), and [label] otherwise. *)
val counted :
  ?shown_from:int -> Obj.Extension_constructor.t -> string -> (t -> int) -> unit

(** {2 A name cache}

    [names ~prefix] caches [prefix ^ name msg] for every constructor path
    it has seen (the constructors from the outermost inwards, and the
    count where a counted constructor shows one). [interned names msg]
    walks [msg]'s path, one short list scan per nesting level, and
    returns the one string built for that path, so it builds no string
    and hashes nothing once the path is known; equal paths share one
    string. A cache belongs to one run (the network keeps one). For a
    three-level message such as ["Data(Rb(Refresh))"] a lookup takes
    about 40 ns, against about 200 ns for {!name} and a hash of its
    result (2-core x86-64 VM). *)
type names

val names : prefix:string -> names
val interned : names -> t -> string

(** Names the cache has built: one per distinct path seen. *)
val built : names -> int
