(** The one verdict shape: what every check in the system — a campaign
    oracle, an audit window, the §5 message-cost check, the timeline and
    profile self-checks — says about one run. A check returns a list of
    them; [replisim] reports every list the same way. *)

type t = {
  oracle : string;  (** what was judged, e.g. ["serializable"] *)
  ok : bool;  (** observed behaviour matches the expectation *)
  detail : string;  (** the observed values, for the report *)
}

val v : string -> bool -> string -> t

(** The verdicts that are not ok. *)
val failed : t list -> t list
