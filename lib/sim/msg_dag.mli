(** Per-transaction message DAG analysis.

    {!Network} records every traced send as a message span; the parent
    chain follows causality (a message's parent is the span on whose
    behalf it was sent). This module reconstructs, per transaction: the
    message census, the communication-step depth — the longest causal
    message chain from request to the client's reply — and the critical
    path itself, which is exactly the ancestry of the reply that resolved
    the transaction.

    This is the measurement side of the paper's §5 comparison: message
    counts and step depths come only from observed, causally-linked
    message spans (the claim side lives in {!Core.Technique.info}). *)

(** One point-to-point message, reconstructed from its span. *)
type msg = {
  span : Span.span;
  label : string;  (** message name, transport wrappers included *)
  src : int;
  dst : int option;  (** destination, once known (deliver or drop event) *)
  delivered : bool;
  drop : string option;  (** drop cause, when the message was dropped *)
}

(** ["msg:"], the name prefix of every message span; the rest of the
    name is the message's label. *)
val prefix : string

(** Span [id] is a message span (name ["msg:..."]). Allocates nothing. *)
val is_msg_span : Span.t -> Span.id -> bool

(** The destination of message span [id] if it was delivered, else
    {!Span.none}: the [dst] of its {!msg} when [delivered] holds, read by
    the one decoder of a message span's events without building the
    message. *)
val delivered_to : Span.t -> Span.id -> int

(** All messages of [trace], in send order. *)
val messages : Span.t -> trace:int -> msg list

type summary = {
  rid : int;
  sends : int;  (** every traced point-to-point send *)
  messages : int;
      (** §5-comparable count: delivered, excluding self-addressed
          messages and transport acks *)
  transport_acks : int;
  self_sends : int;
  dropped : int;
  steps : int;  (** communication-step depth of the critical path *)
  critical_path : msg list;  (** in causal order, ending at the reply *)
  replied : bool;  (** a message reached the client *)
}

(** [analyze t ~trace ~clients] — [clients] tells the analysis which
    endpoints are clients, so it can identify the resolving reply (the
    first message delivered to a client). *)
val analyze : Span.t -> trace:int -> clients:int list -> summary

(** Structural invariants of a message trace (the property-test oracle):
    every delivered message span has a parent in the same trace, and a
    dropped message causes nothing — no span claims it as parent. *)
val causally_sound : Span.t -> trace:int -> bool
