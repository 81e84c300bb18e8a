open Sim

module Iset = Set.Make (Int)

type id = int * int (* origin node, per-origin seq; origin -1 = no-op filler *)

type Msg.t +=
  | Inject of { gid : int; id : id; payload : Msg.t }
  | Order of { gid : int; epoch : int; seq : int; ids : id list }
  | Fetch of { gid : int; id : id }
  | Fetch_reply of { gid : int; id : id; payload : Msg.t }
  | Order_ack of { gid : int; seq : int; ids : id list; from : int }

let () =
  Msg.register_printer (function
    | Inject { payload; _ } -> Some ("Inject(" ^ Msg.name payload ^ ")")
    | Fetch_reply { payload; _ } -> Some ("Fetch_reply(" ^ Msg.name payload ^ ")")
    | Order { ids; _ } when List.length ids > 1 ->
        Some (Printf.sprintf "Order[%d]" (List.length ids))
    | _ -> None)

type t = {
  gid : int;
  me : int;
  net : Network.t;
  members : int list;
  fd : Fd.t;
  chan : Rchan.t;
  batch_window : Simtime.t;
  mutable epoch : int;
  mutable next_send : int; (* per-origin seq for our own broadcasts *)
  mutable next_order : int; (* as leader: next global slot *)
  mutable next_deliver : int;
  mutable undelivered : int; (* slots at or above [next_deliver] *)
  mutable ack_floor : int; (* slots below this are acked by every member *)
  known : (id, Msg.t) Hashtbl.t;
  pending : (id, unit) Hashtbl.t; (* known, not yet ordered under cur epoch *)
  slots : (int, id list * int) Hashtbl.t; (* seq -> (ids, epoch) *)
  slot_count : (id, int) Hashtbl.t; (* id -> number of slots holding it *)
  acks : (int * id list, Iset.t ref) Hashtbl.t;
  delivered_set : (id, unit) Hashtbl.t;
  mutable delivered_rev : id list;
  mutable noop_seq : int;
  mutable batch_rev : id list; (* leader: injects awaiting the window flush *)
  mutable batch_armed : bool;
  mutable deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
  mutable opt_deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
  mutable opt_delivered_rev : id list;
}

type group = {
  g_gid : int;
  g_members : int list;
  chan_group : Rchan.group;
  handles : (int, t) Hashtbl.t;
  client_seq : (int, int ref) Hashtbl.t;
}

let next_gid = ref 0
let nth_member t e = List.nth t.members (e mod List.length t.members)
let leader t = nth_member t t.epoch
let is_leader t = leader t = t.me
let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]
let on_opt_deliver t f = t.opt_deliver_cbs <- t.opt_deliver_cbs @ [ f ]
let delivered t = List.rev t.delivered_rev
let opt_delivered t = List.rev t.opt_delivered_rev

let mcast t msg = Rchan.mcast t.chan ~dsts:t.members msg

let ack_set t seq ids =
  match Hashtbl.find_opt t.acks (seq, ids) with
  | Some s -> s
  | None ->
      let s = ref Iset.empty in
      Hashtbl.replace t.acks (seq, ids) s;
      s

(* A member that suspects a majority of the group is far more likely to be
   the partitioned minority (or freshly recovered with a stale detector)
   than the survivor; such a member must neither shrink the stability
   quorum, order messages, nor start an epoch change — any of those lets
   it deliver in an order the majority never agreed on. *)
let quorate t = 2 * List.length (Fd.trusted t.fd) > List.length t.members

let stable t seq ids =
  let ackers = !(ack_set t seq ids) in
  if quorate t then
    List.for_all
      (fun m -> Iset.mem m ackers || Fd.suspected t.fd m)
      t.members
  else List.for_all (fun m -> Iset.mem m ackers) t.members

(* Is [id] already assigned to some slot? Batched slots hold several.
   [slot_count] indexes [slots] by id, so the leader's test on every
   inject, flush and takeover is one lookup however long the run; it stays
   exact because {!set_slot} is the only writer of [slots]. *)
let slotted t id = Hashtbl.mem t.slot_count id

let uncount t id =
  match Hashtbl.find t.slot_count id with
  | 1 -> Hashtbl.remove t.slot_count id
  | c -> Hashtbl.replace t.slot_count id (c - 1)

let count t id =
  Hashtbl.replace t.slot_count id
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.slot_count id))

(* Assign [ids] to slot [seq], replacing (and uncounting) whatever the
   slot held before. A new slot at or above the delivery cursor counts
   as undelivered until [try_deliver] passes it. *)
let set_slot t seq ids epoch =
  (match Hashtbl.find_opt t.slots seq with
  | Some (old_ids, _) -> List.iter (uncount t) old_ids
  | None -> if seq >= t.next_deliver then t.undelivered <- t.undelivered + 1);
  List.iter (count t) ids;
  Hashtbl.replace t.slots seq (ids, epoch)

let rec try_deliver t =
  match Hashtbl.find_opt t.slots t.next_deliver with
  | None -> ()
  | Some (ids, _epoch) ->
      if stable t t.next_deliver ids then begin
        let payload_ready id =
          fst id = -1 (* no-op filler: deliver nothing *)
          || Hashtbl.mem t.delivered_set id
          || Hashtbl.mem t.known id
        in
        if List.for_all payload_ready ids then begin
          (* One slot may hold a whole batch: deliver its messages in
             batch order, each exactly once. *)
          List.iter
            (fun ((origin, _) as id) ->
              if origin <> -1 && not (Hashtbl.mem t.delivered_set id) then begin
                Hashtbl.replace t.delivered_set id ();
                t.delivered_rev <- id :: t.delivered_rev;
                let payload = Hashtbl.find t.known id in
                List.iter (fun f -> f ~origin payload) t.deliver_cbs
              end;
              Hashtbl.remove t.pending id)
            ids;
          t.next_deliver <- t.next_deliver + 1;
          t.undelivered <- t.undelivered - 1;
          try_deliver t
        end
        else
          (* Stable slot but a payload missing: ask the group. *)
          List.iter
            (fun id ->
              if not (payload_ready id) then mcast t (Fetch { gid = t.gid; id }))
            ids
      end

let assign t ids =
  let seq = t.next_order in
  t.next_order <- t.next_order + 1;
  mcast t (Order { gid = t.gid; epoch = t.epoch; seq; ids })

(* Batched ordering: instead of assigning each injected message its own
   slot (one Order + one all-to-all ack wave per request), the leader
   buffers injects for [batch_window] of virtual time and assigns the
   whole buffer to a single slot — one ordering round amortised over the
   batch (the sequencer-side mirror of {!Abcast_ct}'s per-instance
   batches). *)
let flush_batch t =
  t.batch_armed <- false;
  let ids =
    List.rev t.batch_rev
    |> List.filter (fun id ->
           Hashtbl.mem t.pending id && not (slotted t id))
  in
  t.batch_rev <- [];
  if ids <> [] && is_leader t && quorate t then assign t ids

let enqueue_for_order t id =
  if Simtime.equal t.batch_window Simtime.zero then assign t [ id ]
  else begin
    t.batch_rev <- id :: t.batch_rev;
    if not t.batch_armed then begin
      t.batch_armed <- true;
      ignore
        (Engine.schedule (Network.engine t.net) ~label:"abcast:batch" ~after:t.batch_window
           (Network.guard t.net t.me (fun () -> flush_batch t)))
    end
  end

(* As the new leader of [epoch]: re-announce everything we know, fill the
   holes with no-ops, then order any pending messages. *)
let takeover t =
  let max_seq = Hashtbl.fold (fun seq _ acc -> max seq acc) t.slots (-1) in
  for seq = 0 to max_seq do
    match Hashtbl.find_opt t.slots seq with
    | Some (ids, _) -> mcast t (Order { gid = t.gid; epoch = t.epoch; seq; ids })
    | None ->
        t.noop_seq <- t.noop_seq + 1;
        mcast t
          (Order { gid = t.gid; epoch = t.epoch; seq; ids = [ (-1, t.noop_seq) ] })
  done;
  t.next_order <- max_seq + 1;
  Hashtbl.iter (fun id () -> if not (slotted t id) then assign t [ id ]) t.pending

let adopt_epoch t e =
  if e > t.epoch then begin
    t.epoch <- e;
    if is_leader t then takeover t
    else
      (* Make sure the new leader knows about everything we still expect to
         see ordered. *)
      Hashtbl.iter
        (fun id () ->
          match Hashtbl.find_opt t.known id with
          | Some payload ->
              Rchan.send t.chan ~dst:(leader t)
                (Inject { gid = t.gid; id; payload })
          | None -> ())
        t.pending
  end

(* Leader anti-entropy: keep re-announcing slots that some trusted member
   has not acknowledged, together with their payloads, so members that
   were unreachable longer than the stubborn channels' retry budget still
   catch up after a partition heals or a crashed member recovers. The
   scan starts at [ack_floor] — not at the leader's own delivery cursor,
   which races ahead of an absent member the moment the detector suspects
   it and shrinks the stability quorum. *)
let anti_entropy t =
  if is_leader t then begin
    (* Advance the floor past slots every member has acknowledged. *)
    let all_acked seq =
      match Hashtbl.find_opt t.slots seq with
      | None -> false
      | Some (ids, _) ->
          let ackers = !(ack_set t seq ids) in
          List.for_all (fun m -> Iset.mem m ackers) t.members
    in
    while t.ack_floor < t.next_order && all_acked t.ack_floor do
      t.ack_floor <- t.ack_floor + 1
    done;
    let resent = ref 0 in
    let horizon = t.next_order - 1 in
    let s = ref (min t.ack_floor t.next_deliver) in
    while !resent < 20 && !s <= horizon do
      (match Hashtbl.find_opt t.slots !s with
      | Some (ids, epoch) ->
          let ackers = !(ack_set t !s ids) in
          let missing =
            List.exists
              (fun m -> (not (Iset.mem m ackers)) && not (Fd.suspected t.fd m))
              t.members
          in
          if missing then begin
            incr resent;
            mcast t (Order { gid = t.gid; epoch; seq = !s; ids });
            List.iter
              (fun id ->
                match Hashtbl.find_opt t.known id with
                | Some payload -> mcast t (Inject { gid = t.gid; id; payload })
                | None -> ())
              ids
          end
      | None -> ());
      incr s
    done
  end

let poll t =
  if Fd.suspected t.fd (leader t) && quorate t then adopt_epoch t (t.epoch + 1);
  anti_entropy t;
  (* Suspicions shrink the stability quorum, which can make blocked slots
     deliverable without any new message arriving. *)
  try_deliver t

let inject t id payload =
  if not (Hashtbl.mem t.known id) then begin
    Hashtbl.replace t.known id payload;
    (* Optimistic delivery: the spontaneous receipt order, before the
       total order is fixed (KPAS99a). *)
    t.opt_delivered_rev <- id :: t.opt_delivered_rev;
    List.iter (fun f -> f ~origin:(fst id) payload) t.opt_deliver_cbs;
    if not (Hashtbl.mem t.delivered_set id) then begin
      Hashtbl.replace t.pending id ();
      if is_leader t && quorate t then
        (* Order it unless some slot already holds it. *)
        if not (slotted t id) then enqueue_for_order t id
    end;
    try_deliver t
  end

let broadcast t msg =
  let id = (t.me, t.next_send) in
  t.next_send <- t.next_send + 1;
  Rchan.mcast t.chan ~dsts:t.members (Inject { gid = t.gid; id; payload = msg })

let handle_msg t msg =
  match msg with
  | Inject { gid; id; payload } when gid = t.gid -> inject t id payload
  | Order { gid; epoch; seq; ids } when gid = t.gid ->
      if epoch >= t.epoch then begin
        adopt_epoch t epoch;
        if seq >= t.next_deliver then begin
          (match Hashtbl.find_opt t.slots seq with
          | Some (old_ids, old_epoch) when old_epoch < epoch && old_ids <> ids
            ->
              (* Overridden assignment: the old messages must be re-ordered. *)
              List.iter
                (fun old_id ->
                  if
                    (not (Hashtbl.mem t.delivered_set old_id))
                    && fst old_id <> -1
                  then Hashtbl.replace t.pending old_id ())
                old_ids
          | _ -> ());
          let accept =
            match Hashtbl.find_opt t.slots seq with
            | Some (_, old_epoch) -> epoch >= old_epoch
            | None -> true
          in
          if accept then begin
            set_slot t seq ids epoch;
            mcast t (Order_ack { gid = t.gid; seq; ids; from = t.me })
          end
        end
        else begin
          (* Slot already delivered here. Re-acknowledge it anyway: a
             recovered member replaying this slot needs a full ack set to
             reach stability, and everyone who was present when it first
             stabilised has long stopped talking about it. *)
          match Hashtbl.find_opt t.slots seq with
          | Some (sids, _) when sids = ids ->
              mcast t (Order_ack { gid = t.gid; seq; ids; from = t.me })
          | _ -> ()
        end;
        try_deliver t
      end
  | Order_ack { gid; seq; ids; from } when gid = t.gid ->
      let s = ack_set t seq ids in
      s := Iset.add from !s;
      try_deliver t
  | Fetch { gid; id } when gid = t.gid -> (
      match Hashtbl.find_opt t.known id with
      | Some payload ->
          (* Reply point-to-point is impossible without the requester id in
             the message; broadcast the payload instead (idempotent). *)
          mcast t (Fetch_reply { gid = t.gid; id; payload })
      | None -> ())
  | Fetch_reply { gid; id; payload } when gid = t.gid ->
      if not (Hashtbl.mem t.known id) then Hashtbl.replace t.known id payload;
      try_deliver t
  | _ -> ()

let broadcast_from group ~src msg =
  let seq_ref =
    match Hashtbl.find_opt group.client_seq src with
    | Some r -> r
    | None ->
        let r = ref 0 in
        Hashtbl.replace group.client_seq src r;
        r
  in
  let id = (src, !seq_ref) in
  incr seq_ref;
  let chan = Rchan.handle group.chan_group ~me:src in
  Rchan.mcast chan ~dsts:group.g_members
    (Inject { gid = group.g_gid; id; payload = msg })

let create_group net ~members ?(clients = []) ?fd ?rto ?passthrough
    ?(batch_window = Simtime.zero) () =
  incr next_gid;
  let gid = !next_gid in
  let fd_group =
    match fd with Some g -> g | None -> Fd.create_group net ~members ()
  in
  let chan_group =
    Rchan.create_group net ~nodes:(members @ clients) ?rto ?passthrough ()
  in
  let handles = Hashtbl.create 8 in
  List.iter
    (fun me ->
      let t =
        {
          gid;
          me;
          net;
          members;
          fd = Fd.handle fd_group ~me;
          chan = Rchan.handle chan_group ~me;
          batch_window;
          epoch = 0;
          next_send = 0;
          next_order = 0;
          next_deliver = 0;
          undelivered = 0;
          ack_floor = 0;
          known = Hashtbl.create 64;
          pending = Hashtbl.create 32;
          slots = Hashtbl.create 64;
          slot_count = Hashtbl.create 64;
          acks = Hashtbl.create 64;
          delivered_set = Hashtbl.create 64;
          delivered_rev = [];
          noop_seq = 0;
          batch_rev = [];
          batch_armed = false;
          deliver_cbs = [];
          opt_deliver_cbs = [];
          opt_delivered_rev = [];
        }
      in
      (match Network.timeseries net with
      | Some ts ->
          Timeseries.register ts ~name:"abcast_pending" ~replica:me
            ~kind:Timeseries.Queue ~unit_:"messages" (fun () ->
              float_of_int (Hashtbl.length t.pending));
          Timeseries.register ts ~name:"abcast_undelivered" ~replica:me
            ~kind:Timeseries.Queue ~unit_:"messages" (fun () ->
              float_of_int t.undelivered)
      | None -> ());
      Rchan.on_deliver t.chan (fun ~src msg ->
          ignore src;
          handle_msg t msg);
      ignore
        (Engine.periodic (Network.engine net) ~label:"abcast:poll" ~every:(Simtime.of_ms 25)
           (Network.guard net me (fun () -> poll t)));
      Hashtbl.replace handles me t)
    members;
  { g_gid = gid; g_members = members; chan_group; handles; client_seq = Hashtbl.create 8 }

let handle group ~me = Hashtbl.find group.handles me
