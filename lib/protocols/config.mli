(** Typed technique configuration.

    Every protocol declares a {!schema}: one {!key} per setting, with a
    type, a default and a doc string — the only description of the
    setting; the technique's [create] reads it by name. The CLI
    resolves [--set technique.key=value] directives (and config-file
    lines of the same shape) against the schema, so every
    behaviour-defining parameter can be changed without recompilation,
    and the resolved configuration is echoed into each export's header
    record. Values round-trip through their string form. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | Time of Sim.Simtime.t
  | Enum of string
  | Opt_int of int option

type ty = TBool | TInt | TFloat | TTime | TEnum of string list | TOpt_int

type key = { name : string; ty : ty; default : value; doc : string }
type schema = key list

(** A resolved configuration: every schema key bound to a value. *)
type t = (string * value) list

val ty_to_string : ty -> string
val value_to_string : value -> string

(** A virtual-time literal: [500us], [5ms], [1.5s], or a bare integer
    in milliseconds; [None] for anything else. *)
val parse_time : string -> Sim.Simtime.t option

(** [parse_value ty s] — parse [s] according to [ty]. Times accept
    [500us] / [5ms] / [1.5s] and bare-integer milliseconds. *)
val parse_value : ty -> string -> (value, string) result

val find_key : schema -> string -> key option
val keys : schema -> string list

(** Every key bound to its declared default. *)
val defaults : schema -> t

(** [set schema t ~key ~value] rebinds [key] to the parsed [value]; an
    unknown key fails with a message listing the schema's valid keys,
    and a value out of its key's range with a message naming the key
    and the range. Ranges: every time [>= 0], a float between 0 and
    1, an int (or an [int|none] other than [none]) [>= 1]. *)
val set : schema -> t -> key:string -> value:string -> (t, string) result

(** [apply schema pairs] — defaults overridden by [pairs], left to
    right. *)
val apply : schema -> (string * string) list -> (t, string) result

(** Typed accessors; raise [Invalid_argument] on an unbound key or a
    key/type mismatch (each technique's [create] reads exactly the keys
    its schema declares). *)

val get_bool : t -> string -> bool
val get_int : t -> string -> int
val get_float : t -> string -> float
val get_time : t -> string -> Sim.Simtime.t
val get_enum : t -> string -> string
val get_opt_int : t -> string -> int option

(** ["sequencer"]/["consensus"] to the {!Group.Abcast.impl} it names. *)
val abcast_impl_of_enum : string -> Group.Abcast.impl

(** Shared key descriptors (identical across techniques). *)

val abcast_impl_key : key
val batch_window_key : key
val shards_key : key

(** String form of every binding, schema order. *)
val to_strings : t -> (string * string) list

(** {2 CLI directives} *)

type directive = { technique : string; key : string; value : string }

(** Parse ["technique.key=value"]. *)
val parse_directive : string -> (directive, string) result

val directive_to_string : directive -> string

(** Parse a config file: one directive per line, ['#'] comments and
    blank lines ignored. *)
val parse_file : string -> (directive list, string) result

(** The [(key, value)] pairs of the directives naming [technique]. *)
val pairs_for : technique:string -> directive list -> (string * string) list
