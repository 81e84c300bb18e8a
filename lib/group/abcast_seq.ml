open Sim

type id = int * int (* origin node, per-origin seq; origin -1 = no-op filler *)

(* Tables on ids with a monomorphic equality and an arithmetic hash, for
   the id tables that are never iterated. [pending] is iterated, so it
   keeps [Hashtbl]'s hash and with it its iteration order. *)
module Id_table = Hashtbl.Make (struct
  type t = id

  let equal ((o, s) : t) (o', s') = Int.equal o o' && Int.equal s s'
  let hash ((o, s) : t) = ((o * 65_599) + s) land max_int
end)

let rec same_ids (a : id list) b =
  a == b
  ||
  match (a, b) with
  | (o, s) :: a, (o', s') :: b ->
      Int.equal o o' && Int.equal s s' && same_ids a b
  | _ -> false

(* The members that acked one assignment of a slot: a bitset over member
   positions, [Sys.int_size] bits a word, so any group size fits. *)
type acks = { a_ids : id list; bits : int array; mutable count : int }

(* One sequence slot: the assignment held for it, if any, and one ack
   set per assignment heard for it (acks may arrive before the Order, or
   for an assignment a later epoch overrides). *)
type cell = {
  mutable ids : id list;
  mutable epoch : int; (* the assignment's epoch; -1 while none is held *)
  mutable acks : acks list;
}

type Msg.t +=
  | Inject of { id : id; payload : Msg.t }
  | Order of { epoch : int; seq : int; ids : id list }
  | Fetch of { id : id }
  | Fetch_reply of { id : id; payload : Msg.t }
  | Order_ack of { seq : int; ids : id list; epoch : int; from : int; cursor : int }
      (* [epoch]: the acked assignment's; [cursor]: the sender's
         [next_deliver] when it acked *)
  | Epoch of { epoch : int } (* to its leader: a member moved to [epoch] *)

let () =
  Msg.wrapper [%extension_constructor Inject] "Inject" (function
    | Inject { payload; _ } -> payload
    | _ -> assert false);
  Msg.wrapper [%extension_constructor Fetch_reply] "Fetch_reply" (function
    | Fetch_reply { payload; _ } -> payload
    | _ -> assert false);
  (* A batch of one is a plain "Order". *)
  Msg.counted ~shown_from:2 [%extension_constructor Order] "Order" (function
    | Order { ids; _ } -> List.length ids
    | _ -> assert false)

type t = {
  me : int;
  net : Network.t;
  members : int list;
  fd : Fd.t;
  chan : Rchan.t;
  batch_window : Simtime.t;
  n : int; (* group size *)
  member_at : int array; (* position -> member *)
  position : int array; (* node -> its position in [members], -1 if none *)
  fd_members : int array; (* the detector's members, counted by [quorate] *)
  mutable epoch : int;
  mutable next_send : int; (* per-origin seq for our own broadcasts *)
  mutable next_order : int; (* as leader: next global slot *)
  mutable max_slot : int; (* highest assigned slot, -1 when none *)
  mutable next_deliver : int;
  mutable undelivered : int; (* slots at or above [next_deliver] *)
  mutable ack_floor : int; (* slots below this are acked by every member *)
  known : Msg.t Id_table.t;
  fetched : unit Id_table.t; (* payloads asked for since the last poll *)
  pending : (id, unit) Hashtbl.t; (* known, not yet ordered under cur epoch *)
  mutable window : cell array; (* seq -> its cell; grows by doubling *)
  no_acks : acks; (* the ack set of an assignment nobody acked *)
  slot_count : int Id_table.t; (* id -> number of slots holding it *)
  cursors : int array; (* position -> highest cursor heard *)
  delivered_set : unit Id_table.t;
  mutable delivered_rev : id list;
  mutable noop_seq : int;
  mutable batch_rev : id list; (* leader: injects awaiting the window flush *)
  mutable batch_armed : bool;
  mutable deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
  mutable opt_deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
  mutable opt_delivered_rev : id list;
}

type group = {
  g_members : int list;
  chan_group : Rchan.group;
  handles : (int, t) Hashtbl.t;
  client_seq : (int, int ref) Hashtbl.t;
}

let leader t = t.member_at.(t.epoch mod t.n)
let is_leader t = leader t = t.me
let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]
let on_opt_deliver t f = t.opt_deliver_cbs <- t.opt_deliver_cbs @ [ f ]
let delivered t = List.rev t.delivered_rev
let opt_delivered t = List.rev t.opt_delivered_rev

let mcast t msg = Rchan.mcast t.chan ~dsts:t.members msg

(* The cell of slot [seq], growing the window to hold it. *)
let cell t seq =
  let len = Array.length t.window in
  if seq >= len then
    t.window <-
      Array.init
        (max (2 * len) (seq + 1))
        (fun i ->
          if i < len then t.window.(i) else { ids = []; epoch = -1; acks = [] });
  t.window.(seq)

let assigned (c : cell) = c.epoch >= 0

let new_acks n ids =
  { a_ids = ids; bits = Array.make (1 + ((n - 1) / Sys.int_size)) 0; count = 0 }

(* The ack set of assignment [ids] in [acks], or [t.no_acks], which
   nothing writes to, when none was heard. *)
let rec find_acks t ids = function
  | a :: rest -> if same_ids a.a_ids ids then a else find_acks t ids rest
  | [] -> t.no_acks

let acked a p = a.bits.(p / Sys.int_size) land (1 lsl (p mod Sys.int_size)) <> 0

let add_ack t c ids from =
  let a =
    match find_acks t ids c.acks with
    | a when a == t.no_acks ->
        let a = new_acks t.n ids in
        c.acks <- a :: c.acks;
        a
    | a -> a
  in
  let p = t.position.(from) in
  if not (acked a p) then begin
    let w = p / Sys.int_size in
    a.bits.(w) <- a.bits.(w) lor (1 lsl (p mod Sys.int_size));
    a.count <- a.count + 1
  end

(* Has every member acked the assignment [c] holds? *)
let all_acked t c = (find_acks t c.ids c.acks).count = t.n

(* A member that suspects a majority of the group is far more likely to be
   the partitioned minority (or freshly recovered with a stale detector)
   than the survivor; such a member must neither shrink the stability
   quorum, order messages, nor start an epoch change — any of those lets
   it deliver in an order the majority never agreed on. *)
let quorate t =
  let trusted = ref 0 in
  for i = 0 to Array.length t.fd_members - 1 do
    if not (Fd.suspected t.fd t.fd_members.(i)) then incr trusted
  done;
  2 * !trusted > t.n

let rec acked_or_suspected t a p =
  p = t.n
  || (acked a p || Fd.suspected t.fd t.member_at.(p))
     && acked_or_suspected t a (p + 1)

(* Has every member acked the assignment [c] holds or, in a quorate
   view, is it suspected? *)
let stable t c =
  let a = find_acks t c.ids c.acks in
  a.count = t.n || (quorate t && acked_or_suspected t a 0)

(* Is [id] already assigned to some slot? Batched slots hold several.
   [slot_count] indexes the assignments by id, so the leader's test on
   every inject, flush and takeover is one lookup however long the run;
   it stays exact because {!set_slot} is the only writer of assignments. *)
let slotted t id = Id_table.mem t.slot_count id

let uncount t id =
  match Id_table.find t.slot_count id with
  | 1 -> Id_table.remove t.slot_count id
  | c -> Id_table.replace t.slot_count id (c - 1)

let count t id =
  match Id_table.find t.slot_count id with
  | c -> Id_table.replace t.slot_count id (c + 1)
  | exception Not_found -> Id_table.add t.slot_count id 1

(* Assign [ids] to slot [seq], replacing (and uncounting) whatever the
   slot held before. A new slot at or above the delivery cursor counts
   as undelivered until [try_deliver] passes it. *)
let set_slot t seq ids epoch =
  let c = cell t seq in
  if assigned c then List.iter (uncount t) c.ids
  else if seq >= t.next_deliver then t.undelivered <- t.undelivered + 1;
  List.iter (count t) ids;
  if seq > t.max_slot then t.max_slot <- seq;
  c.ids <- ids;
  c.epoch <- epoch

(* Cursors only grow, so the last one heard from a member is a lower
   bound on its delivery cursor; a member never heard from counts as 0. *)
let heard_cursor t m =
  if m < Array.length t.position && t.position.(m) >= 0 then
    t.cursors.(t.position.(m))
  else 0

(* Ours included: every member has delivered the slots below it, with
   the ids we hold for them. *)
let lowest_cursor t =
  List.fold_left
    (fun acc m -> if m = t.me then acc else min acc (heard_cursor t m))
    t.next_deliver t.members

let ack_msg t seq ids epoch =
  Order_ack { seq; ids; epoch; from = t.me; cursor = t.next_deliver }

(* Take assignment [ids] for slot [seq] under [epoch] unless we hold one
   from a newer epoch; the messages of an assignment it overrides must be
   ordered again. True when taken. *)
let take_slot t seq ids epoch =
  let c = cell t seq in
  if c.epoch > epoch then false
  else begin
    if assigned c && c.epoch < epoch && not (same_ids c.ids ids) then
      List.iter
        (fun old_id ->
          if (not (Id_table.mem t.delivered_set old_id)) && fst old_id <> -1
          then Hashtbl.replace t.pending old_id ())
        c.ids;
    set_slot t seq ids epoch;
    true
  end

let rec try_deliver t =
  let c = cell t t.next_deliver in
  if assigned c && stable t c then begin
    let ids = c.ids in
    let payload_ready id =
      fst id = -1 (* no-op filler: deliver nothing *)
      || Id_table.mem t.delivered_set id
      || Id_table.mem t.known id
    in
    if List.for_all payload_ready ids then begin
      (* One slot may hold a whole batch: deliver its messages in
         batch order, each exactly once. *)
      List.iter
        (fun ((origin, _) as id) ->
          if origin <> -1 && not (Id_table.mem t.delivered_set id) then begin
            Id_table.replace t.delivered_set id ();
            t.delivered_rev <- id :: t.delivered_rev;
            let payload = Id_table.find t.known id in
            List.iter (fun f -> f ~origin payload) t.deliver_cbs
          end;
          Hashtbl.remove t.pending id)
        ids;
      t.next_deliver <- t.next_deliver + 1;
      t.undelivered <- t.undelivered - 1;
      try_deliver t
    end
    else
      (* Stable slot but a payload missing: ask the group, once per
         poll. Asking on every message received instead feeds a storm:
         each Fetch draws a reply from every member, and each reply
         that lands here before the payload asks again. *)
      List.iter
        (fun id ->
          if not (payload_ready id || Id_table.mem t.fetched id) then begin
            Id_table.replace t.fetched id ();
            mcast t (Fetch { id })
          end)
        ids
  end

(* As leader: put [ids] in slot [seq] under our epoch. We record the slot
   before the Order goes out, so a crash that drops our own copy leaves
   no hole that only we could fill. *)
let announce t seq ids =
  set_slot t seq ids t.epoch;
  mcast t (Order { epoch = t.epoch; seq; ids })

let assign t ids =
  let seq = t.next_order in
  t.next_order <- t.next_order + 1;
  announce t seq ids

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

(* As leader: order every pending message no slot holds. *)
let order_pending t =
  Hashtbl.iter (fun id () -> if not (slotted t id) then assign t [ id ]) t.pending

(* As the new leader of [epoch]: re-announce what some member may still
   lack, fill the holes with no-ops, then order any pending messages.
   Every member has delivered the slots below the lowest cursor heard
   (ours included), with the ids we hold for them, so the re-announcement
   starts there. It covers at least the highest slot, so the new epoch
   still spreads when every member is caught up. *)
let takeover t =
  let max_seq = t.max_slot in
  for seq = max 0 (min (lowest_cursor t) max_seq) to max_seq do
    let c = cell t seq in
    if assigned c then announce t seq c.ids
    else begin
      t.noop_seq <- t.noop_seq + 1;
      announce t seq [ (-1, t.noop_seq) ]
    end
  done;
  t.next_order <- max_seq + 1;
  order_pending t

let adopt_epoch t e =
  if e > t.epoch then begin
    t.epoch <- e;
    if is_leader t then takeover t
    else
      (* Make sure the new leader knows about everything we still expect to
         see ordered. *)
      Hashtbl.iter
        (fun id () ->
          match Id_table.find_opt t.known id with
          | Some payload ->
              Rchan.send t.chan ~dst:(leader t) (Inject { id; payload })
          | None -> ())
        t.pending
  end

(* Leader anti-entropy: keep re-announcing slots that some trusted member
   has not acknowledged, together with their payloads, so members that
   were unreachable longer than the stubborn channels' retry budget still
   catch up after a partition heals or a crashed member recovers. The
   scan starts at [ack_floor] — not at the leader's own delivery cursor,
   which races ahead of an absent member the moment the detector suspects
   it and shrinks the stability quorum. A slot goes out under the current
   epoch: one below the last takeover's re-announcement keeps an older
   stamp, which a member that adopted this epoch would drop. *)
let anti_entropy t =
  if is_leader t then begin
    (* Advance the floor past slots every member has acknowledged. *)
    let floor_acked seq =
      let c = cell t seq in
      assigned c && all_acked t c
    in
    while t.ack_floor < t.next_order && floor_acked t.ack_floor do
      t.ack_floor <- t.ack_floor + 1
    done;
    let resent = ref 0 in
    let horizon = t.next_order - 1 in
    let s = ref (min t.ack_floor t.next_deliver) in
    while !resent < 20 && !s <= horizon do
      let c = cell t !s in
      (if assigned c then
         let ids = c.ids in
         let a = find_acks t ids c.acks in
         let missing =
           List.exists
             (fun m -> not (acked a t.position.(m) || Fd.suspected t.fd m))
             t.members
         in
         if missing then begin
           incr resent;
           mcast t (Order { epoch = t.epoch; seq = !s; ids });
           List.iter
             (fun id ->
               match Id_table.find_opt t.known id with
               | Some payload -> mcast t (Inject { id; payload })
               | None -> ())
             ids
         end);
      incr s
    done
  end

(* Re-acknowledge to [dsts] every slot we hold from [from] on. Acks lost
   to a crash are resent by nothing else: a channel's retransmits stop
   while its sender is down and give up on a receiver down longer than
   the retry budget, and the leader's anti-entropy skips a slot it counts
   acked by all. So a member back from a crash re-acks, to everyone
   (itself above all), what some member may still lack; and a member
   that trusts a peer again re-acks to it what that peer may lack. *)
let reack t ~dsts from =
  for seq = from to t.max_slot do
    let c = cell t seq in
    if assigned c then Rchan.mcast t.chan ~dsts (ack_msg t seq c.ids c.epoch)
  done

let poll t =
  if Id_table.length t.fetched > 0 then Id_table.reset t.fetched;
  if Fd.suspected t.fd (leader t) && quorate t then begin
    adopt_epoch t (t.epoch + 1);
    (* The new leader's detector may never time out on its predecessor (a
       crash can end first), and until it takes over we drop every Order
       of the old epoch: tell it that the epoch moved. *)
    if not (is_leader t) then
      Rchan.send t.chan ~dst:(leader t) (Epoch { epoch = t.epoch })
  end;
  anti_entropy t;
  (* Suspicions shrink the stability quorum, which can make blocked slots
     deliverable without any new message arriving. *)
  try_deliver t

let inject t id payload =
  if not (Id_table.mem t.known id) then begin
    Id_table.replace t.known id payload;
    (* Optimistic delivery: the spontaneous receipt order, before the
       total order is fixed (KPAS99a). *)
    t.opt_delivered_rev <- id :: t.opt_delivered_rev;
    List.iter (fun f -> f ~origin:(fst id) payload) t.opt_deliver_cbs;
    if not (Id_table.mem t.delivered_set id) then begin
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
  Rchan.mcast t.chan ~dsts:t.members (Inject { id; payload = msg })

let handle_msg t msg =
  match msg with
  | Inject { id; payload } -> inject t id payload
  | Order { epoch; seq; ids } ->
      if epoch >= t.epoch then begin
        adopt_epoch t epoch;
        if seq >= t.next_deliver then begin
          if take_slot t seq ids epoch then mcast t (ack_msg t seq ids epoch)
        end
        else begin
          (* Slot already delivered here. Re-acknowledge it anyway: a
             recovered member replaying this slot needs a full ack set to
             reach stability, and everyone who was present when it first
             stabilised has long stopped talking about it. *)
          let c = cell t seq in
          if assigned c && same_ids c.ids ids then
            mcast t (ack_msg t seq ids epoch)
        end;
        try_deliver t
      end
  | Order_ack { seq; ids; epoch; from; cursor } ->
      add_ack t (cell t seq) ids from;
      let p = t.position.(from) in
      if cursor > t.cursors.(p) then t.cursors.(p) <- cursor;
      (* An ack from past the slot shows an assignment its sender
         delivered, which is final. Take it if we lack the slot or hold it
         from an older epoch: a member that missed Orders while it was down
         then holds what the others delivered before it may take over, and
         never numbers a new message into that slot. *)
      if cursor > seq && seq >= t.next_deliver && take_slot t seq ids epoch then
        t.next_order <- max t.next_order (seq + 1);
      try_deliver t
  | Epoch { epoch } -> adopt_epoch t epoch
  | Fetch { id } -> (
      match Id_table.find_opt t.known id with
      | Some payload ->
          (* Reply point-to-point is impossible without the requester id in
             the message; broadcast the payload instead (idempotent). *)
          mcast t (Fetch_reply { id; payload })
      | None -> ())
  | Fetch_reply { id; payload } ->
      if not (Id_table.mem t.known id) then Id_table.replace t.known id payload;
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
  Rchan.mcast chan ~dsts:group.g_members (Inject { id; payload = msg })

let create_group net ~members ?(clients = []) ?fd
    ?(batch_window = Simtime.zero) () =
  let fd_group =
    match fd with Some g -> g | None -> Fd.create_group net ~members ()
  in
  let chan_group = Rchan.create_group net ~nodes:(members @ clients) () in
  let handles = Hashtbl.create 8 in
  let member_at = Array.of_list members in
  let n = Array.length member_at in
  let position = Array.make (1 + List.fold_left max 0 members) (-1) in
  Array.iteri (fun p m -> position.(m) <- p) member_at;
  List.iter
    (fun me ->
      let fd = Fd.handle fd_group ~me in
      let t =
        {
          me;
          net;
          members;
          fd;
          n;
          member_at;
          position;
          fd_members = Array.of_list (Fd.members fd);
          chan = Rchan.handle chan_group ~me;
          batch_window;
          epoch = 0;
          next_send = 0;
          next_order = 0;
          max_slot = -1;
          next_deliver = 0;
          undelivered = 0;
          ack_floor = 0;
          known = Id_table.create 64;
          fetched = Id_table.create 8;
          pending = Hashtbl.create 32;
          window = [||];
          no_acks = new_acks n [];
          slot_count = Id_table.create 64;
          cursors = Array.make n 0;
          delivered_set = Id_table.create 64;
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
      Network.on_recover net (fun node ->
          if node = me then reack t ~dsts:members (lowest_cursor t));
      Fd.on_trust t.fd (fun peer ->
          reack t ~dsts:[ peer ] (heard_cursor t peer);
          (* A leader that lost its quorum left what it received meanwhile
             unordered; nothing else orders it before the next epoch. *)
          if is_leader t && quorate t then order_pending t);
      Rchan.on_deliver t.chan (fun ~src msg ->
          ignore src;
          handle_msg t msg);
      ignore
        (Engine.periodic (Network.engine net) ~label:"abcast:poll" ~every:(Simtime.of_ms 25)
           (Network.guard net me (fun () -> poll t)));
      Hashtbl.replace handles me t)
    members;
  { g_members = members; chan_group; handles; client_seq = Hashtbl.create 8 }

let handle group ~me = Hashtbl.find group.handles me
