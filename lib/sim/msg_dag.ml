(* Message spans are recorded by {!Network} with a fixed shape: name
   "msg:<label>", track = sender, a "send" event at the sender, and
   either a "deliver" or a "drop:<cause>" event at the destination. The
   parent chain follows causality: a message's parent is the span on
   whose behalf it was sent — the delivered message upstream, or the
   transaction root at submit time. *)

let prefix = "msg:"
let drop_prefix = "drop:"

(* [s] is [p] followed by at least one more character, compared in
   place: the per-span checks below allocate nothing. *)
let rec same p s i =
  i = String.length p || (String.unsafe_get s i = String.unsafe_get p i && same p s (i + 1))

let extends p s = String.length s > String.length p && same p s 0

let is_msg_span t id = extends prefix (Span.name_of t id)

type msg = {
  span : Span.span;
  label : string;  (** message name, transport wrappers included *)
  src : int;
  dst : int option;  (** destination, once known (deliver or drop event) *)
  delivered : bool;
  drop : string option;  (** drop cause, when the message was dropped *)
}

type note = Other | Deliver | Drop

let note_kind note =
  if note = "deliver" then Deliver else if extends drop_prefix note then Drop else Other

(* The one decoder of a message span's events, walked in recording
   order: a "deliver" or "drop:<cause>" event names the destination (the
   last such event wins), any "deliver" marks the message delivered, and
   [drop] is the last "drop:" event ({!Span.none} when there is none). *)
type fate = { f_dst : int; f_delivered : bool; f_drop : int }

let fate t id =
  let dst = ref Span.none and delivered = ref false and drop = ref Span.none in
  let e = ref (Span.first_event t id) in
  while !e <> Span.none do
    (match note_kind (Span.event_note t !e) with
    | Deliver ->
        dst := Span.event_track t !e;
        delivered := true
    | Drop ->
        dst := Span.event_track t !e;
        drop := !e
    | Other -> ());
    e := Span.next_event t !e
  done;
  { f_dst = !dst; f_delivered = !delivered; f_drop = !drop }

let of_span t id =
  let f = fate t id in
  let after p s = String.sub s (String.length p) (String.length s - String.length p) in
  let opt v = if v = Span.none then None else Some v in
  {
    span = Option.get (Span.find t id);
    label = after prefix (Span.name_of t id);
    src = Span.track_of t id;
    dst = opt f.f_dst;
    delivered = f.f_delivered;
    drop = Option.map (fun e -> after drop_prefix (Span.event_note t e)) (opt f.f_drop);
  }

(** All messages of [trace], in send order. *)
let messages t ~trace =
  Span.trace_ids t ~trace |> List.filter (is_msg_span t) |> List.map (of_span t)

(* Stubborn-channel acknowledgements are transport bookkeeping, not part
   of the technique's §5 message complexity (a real system piggybacks
   them); they are counted separately. *)
let is_transport_ack m = m.label = "Ack"

type summary = {
  rid : int;
  sends : int;  (** every traced point-to-point send *)
  messages : int;
      (** §5-comparable count: delivered, excluding transport acks *)
  transport_acks : int;
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
    if id < 0 || id >= Span.count t then acc
    else
      let acc =
        match Hashtbl.find_opt by_id id with Some m -> m :: acc | None -> acc
      in
      up acc (Span.parent_of t id)
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
        (List.filter (fun m -> m.delivered && not (is_transport_ack m)) msgs);
    transport_acks = List.length (List.filter is_transport_ack msgs);
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
    (fun id ->
      let p = Span.parent_of t id in
      if p <> Span.none then Hashtbl.replace parents p ())
    (Span.trace_ids t ~trace);
  let parent_ok m =
    match m.span.Span.parent with
    | None -> false
    | Some p -> p >= 0 && p < Span.count t && Span.trace_of t p = trace
  in
  let childless m = not (Hashtbl.mem parents m.span.Span.id) in
  List.for_all
    (fun m ->
      (if m.delivered then parent_ok m else true)
      && if m.drop <> None then childless m else true)
    msgs
