(* Message spans are recorded by {!Network} with a fixed shape: name
   "msg:<label>", track = sender, a "send" event at the sender, and
   either a "deliver" or a "drop:<cause>" event at the destination. The
   parent chain follows causality: a message's parent is the span on
   whose behalf it was sent — the delivered message upstream, or the
   transaction root at submit time. *)

let prefix = "msg:"

let is_msg_span (s : Span.span) =
  String.length s.Span.name > String.length prefix
  && String.sub s.Span.name 0 (String.length prefix) = prefix

type msg = {
  span : Span.span;
  label : string;  (** message name, transport wrappers included *)
  src : int;
  dst : int option;  (** destination, once known (deliver or drop event) *)
  delivered : bool;
  drop : string option;  (** drop cause, when the message was dropped *)
}

let of_span (s : Span.span) =
  let label =
    String.sub s.Span.name (String.length prefix)
      (String.length s.Span.name - String.length prefix)
  in
  let src = Option.value ~default:(-1) s.Span.track in
  let dst = ref None in
  let delivered = ref false in
  let drop = ref None in
  List.iter
    (fun (e : Span.event) ->
      if e.Span.note = "deliver" then begin
        delivered := true;
        dst := e.Span.track
      end
      else if
        String.length e.Span.note > 5 && String.sub e.Span.note 0 5 = "drop:"
      then begin
        drop :=
          Some (String.sub e.Span.note 5 (String.length e.Span.note - 5));
        dst := e.Span.track
      end)
    (Span.events s);
  { span = s; label; src; dst = !dst; delivered = !delivered; drop = !drop }

(** All messages of [trace], in send order. *)
let messages t ~trace =
  Span.trace_spans t ~trace |> List.filter is_msg_span |> List.map of_span

let is_self m = m.dst = Some m.src

(* Stubborn-channel acknowledgements are transport bookkeeping, not part
   of the technique's §5 message complexity (a real system piggybacks
   them); they are counted separately. *)
let is_transport_ack m = m.label = "Ack"

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

(* The message that resolved the transaction: the first protocol message
   delivered to the client (paper §3.2 — the client waits for the first
   answer). Transport acks also flow back to the client (its stubborn
   channel is acked by the replicas) and do not resolve anything. *)
let reply_msg ~clients msgs =
  msgs
  |> List.filter (fun m ->
         m.delivered
         && (not (is_transport_ack m))
         && match m.dst with Some d -> List.mem d clients | None -> false)
  |> List.fold_left
       (fun acc m ->
         match (acc, m.span.Span.stop) with
         | None, Some _ -> Some m
         | Some best, Some stop
           when Simtime.(stop < Option.get best.span.Span.stop) ->
             Some m
         | _ -> acc)
       None

(* Causal ancestry of [m]: message spans only, oldest first. The chain
   bottoms out at the transaction root ("txn"), which is not a message. *)
let ancestry t msgs m =
  let by_id = Hashtbl.create 64 in
  List.iter (fun m -> Hashtbl.replace by_id m.span.Span.id m) msgs;
  let rec up acc id =
    match Span.find t id with
    | None -> acc
    | Some s -> (
        let acc =
          match Hashtbl.find_opt by_id s.Span.id with
          | Some m -> m :: acc
          | None -> acc
        in
        match s.Span.parent with None -> acc | Some p -> up acc p)
  in
  up [] m.span.Span.id

let analyze t ~trace ~clients =
  let msgs = messages t ~trace in
  let reply = reply_msg ~clients msgs in
  let critical_path =
    match reply with None -> [] | Some m -> ancestry t msgs m
  in
  {
    rid = trace;
    sends = List.length msgs;
    messages =
      List.length
        (List.filter
           (fun m ->
             m.delivered && (not (is_self m)) && not (is_transport_ack m))
           msgs);
    transport_acks = List.length (List.filter is_transport_ack msgs);
    self_sends = List.length (List.filter is_self msgs);
    dropped = List.length (List.filter (fun m -> m.drop <> None) msgs);
    steps = List.length critical_path;
    critical_path;
    replied = reply <> None;
  }

(** Structural invariants of a message trace (the property-test oracle):
    every delivered message span has a parent in the same trace, and a
    dropped message causes nothing — no span claims it as parent. *)
let causally_sound t ~trace =
  let msgs = messages t ~trace in
  (* Every id some span of the trace names as its parent, collected once
     so each dropped message's check is a lookup, not a scan. *)
  let parents = Hashtbl.create 64 in
  List.iter
    (fun (s : Span.span) ->
      Option.iter (fun p -> Hashtbl.replace parents p ()) s.Span.parent)
    (Span.trace_spans t ~trace);
  let parent_ok m =
    match m.span.Span.parent with
    | None -> false
    | Some p -> (
        match Span.find t p with
        | Some ps -> ps.Span.trace = trace
        | None -> false)
  in
  let childless m = not (Hashtbl.mem parents m.span.Span.id) in
  List.for_all
    (fun m ->
      (if m.delivered then parent_ok m else true)
      && if m.drop <> None then childless m else true)
    msgs
