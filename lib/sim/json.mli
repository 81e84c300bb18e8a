(** JSON values: one type, one encoder, one parser.

    Every machine-readable export (run records, BENCH files, the sweep
    manifest, and the header, campaign, explain, audit, metrics,
    timeline and profile lines) is built as a {!t} and written by
    {!to_string}; every reader parses with {!parse}. Only
    {!Trace_export}, which sizes its output exactly, writes JSON text
    itself, with the escaping rule below. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in the order given *)

(** Compact JSON, no whitespace. [Int] prints with [%d]; [Num] prints
    an integer-valued float below 1e15 as ["N.0"] and any other with
    [%.6g]; strings are escaped by {!escape}. *)
val to_string : t -> string

(** [parse s] reads one JSON value filling all of [s] (surrounding
    whitespace allowed). Every number reads as [Num]; every string
    escape is decoded, [\uXXXX] (surrogate pairs included) to UTF-8. *)
val parse : string -> (t, string) result

(** [member k v]: the value of key [k] when [v] is an object holding
    it. *)
val member : string -> t -> t option

(** [path keys v]: {!member} applied along [keys], outermost first. *)
val path : string list -> t -> t option

(** {2 The escaping rule}

    A quote, a backslash and every byte below 0x20 are escaped ([\n],
    [\r] and [\t] by name, the others as [\u00XX]); every other byte
    stands for itself. *)

(** [s] escaped, without the surrounding quotes; [s] itself when
    nothing needs escaping. *)
val escape : string -> string
