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
  mutable sent : Simtime.t; (* leader: when its last Order for it went out *)
}

type Msg.t +=
  | Inject of { id : id; payload : Msg.t }
  | Order of { epoch : int; seq : int; ids : id list; cursor : int }
      (* also its sender's ack; [cursor]: the sender's [next_deliver] *)
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
  others : int list; (* the members but us: no message goes to its sender *)
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
  mutable unslotted : int Id_table.t;
      (* pending ids no slot held at the last poll, with how many polls
         in a row *)
  mutable window : cell array; (* seq -> its cell; grows by doubling *)
  no_acks : acks; (* the ack set of an assignment nobody acked *)
  slot_count : int Id_table.t; (* id -> number of slots holding it *)
  cursors : int array; (* position -> highest cursor heard *)
  delivered_set : unit Id_table.t;
  mutable delivered_rev : id list;
  mutable noop_seq : int;
  mutable batch_rev : id list; (* leader: injects awaiting the window flush *)
  mutable batch_armed : bool;
  mutable lagging : bool;
      (* leader: the last anti-entropy pass found a slot some trusted
         member has not acked *)
  mutable kick : unit -> unit; (* arms the poll while [busy] *)
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

let mcast t msg = Rchan.mcast t.chan ~dsts:t.others msg

(* The cell of slot [seq], growing the window to hold it. *)
let cell t seq =
  let len = Array.length t.window in
  if seq >= len then
    t.window <-
      Array.init
        (max (2 * len) (seq + 1))
        (fun i ->
          if i < len then t.window.(i)
          else { ids = []; epoch = -1; acks = []; sent = Simtime.zero });
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
   slot held before, and record our own ack of it: holding an assignment
   is acking it, so no ack is ever sent to ourselves. A new slot at or
   above the delivery cursor counts as undelivered until [try_deliver]
   passes it. *)
let set_slot t seq ids epoch =
  let c = cell t seq in
  if assigned c then List.iter (uncount t) c.ids
  else if seq >= t.next_deliver then t.undelivered <- t.undelivered + 1;
  List.iter (count t) ids;
  if seq > t.max_slot then t.max_slot <- seq;
  c.ids <- ids;
  c.epoch <- epoch;
  add_ack t c ids t.me

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

(* Take the assignment an [Order] carries: true when we hold it, and so
   ack it. A slot already delivered here is acked again when we hold the
   same ids: a recovered member replaying it needs a full ack set to
   reach stability, and everyone who was present when it first
   stabilised has long stopped talking about it. *)
let hold t seq ids epoch =
  if seq >= t.next_deliver then take_slot t seq ids epoch
  else
    let c = cell t seq in
    assigned c && same_ids c.ids ids

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

(* As leader: send the others the Order for [seq] under our epoch. It
   is our ack of the slot too. *)
let send_order t seq ids =
  (cell t seq).sent <- Engine.now (Network.engine t.net);
  mcast t (Order { epoch = t.epoch; seq; ids; cursor = t.next_deliver })

(* As leader: put [ids] in slot [seq] under our epoch, and tell the
   others. *)
let announce t seq ids =
  set_slot t seq ids t.epoch;
  send_order t seq ids

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
  if ids <> [] && is_leader t && quorate t then begin
    assign t ids;
    (* Our own ack may be the last one: a group of one. *)
    try_deliver t
  end

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

(* Re-announce slot [seq] with its payloads. We take it as the others
   will, so a slot not yet delivered here is restamped with our epoch. *)
let resend t seq ids =
  ignore (hold t seq ids t.epoch);
  send_order t seq ids;
  List.iter
    (fun id ->
      match Id_table.find_opt t.known id with
      | Some payload -> mcast t (Inject { id; payload })
      | None -> ())
    ids

(* Leader anti-entropy: keep re-announcing slots that some trusted member
   has not acknowledged, together with their payloads: a member that
   moved to a newer epoch drops the older epoch's Orders. The
   scan starts at [ack_floor] — not at the leader's own delivery cursor,
   which races ahead of an absent member the moment the detector suspects
   it and shrinks the stability quorum. A slot goes out under the current
   epoch: one below the last takeover's re-announcement keeps an older
   stamp, which a member that adopted this epoch would drop. A slot whose
   Order went out less than a channel timeout ago is still in flight: it
   keeps the leader [lagging] but is not sent again yet. *)
let anti_entropy t =
  t.lagging <- false;
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
    let now = Engine.now (Network.engine t.net) and rto = Rchan.rto t.chan in
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
           t.lagging <- true;
           if Simtime.(now >= add c.sent rto) then begin
             incr resent;
             resend t !s ids
           end
         end);
      incr s
    done
  end

(* A pending message that no slot holds poll after poll may be one the
   leader never received: a leader that crashes right after it
   broadcasts loses its own copy (a self-send has no channel entry).
   Send it to a trusted leader on the second poll that finds it so, and
   every eighth after. *)
let forward_unslotted t =
  if Hashtbl.length t.pending > 0 || Id_table.length t.unslotted > 0 then begin
    let last = t.unslotted and now = Id_table.create 8 in
    Hashtbl.iter
      (fun id () ->
        if not (slotted t id) then begin
          let polls =
            1 + Option.value ~default:0 (Id_table.find_opt last id)
          in
          Id_table.replace now id polls;
          if polls mod 8 = 2 then
            match Id_table.find_opt t.known id with
            | Some payload ->
                Rchan.send t.chan ~dst:(leader t) (Inject { id; payload })
            | None -> ()
        end)
      t.pending;
    t.unslotted <- now
  end

(* Is a slot from [seq] up waiting on the group? An older epoch's slot
   whose messages were all delivered through other slots is not: it is
   a crashed leader's assignment nobody else took, and the next Order
   for its seq replaces it. *)
let rec waiting t seq =
  seq <= t.max_slot
  && ((let c = cell t seq in
       assigned c
       && (c.epoch >= t.epoch
          || not
               (List.for_all
                  (fun id -> fst id = -1 || Id_table.mem t.delivered_set id)
                  c.ids)))
     || waiting t (seq + 1))

(* Work that waits on the group: a message known but not delivered, a
   slot not delivered, or (leader) a slot some trusted member lacks. *)
let busy t =
  Hashtbl.length t.pending > 0
  || t.lagging
  || (t.undelivered > 0 && waiting t t.next_deliver)

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
  if not (is_leader t || Fd.suspected t.fd (leader t)) then forward_unslotted t;
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

(* [from] acked assignment [ids] for [seq] when its cursor stood at
   [cursor]. *)
let take_ack t ~seq ~ids ~epoch ~from ~cursor =
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

let handle_msg t ~src msg =
  match msg with
  | Inject { id; payload } -> inject t id payload
  | Order { epoch; seq; ids; cursor } ->
      if epoch >= t.epoch then begin
        adopt_epoch t epoch;
        if hold t seq ids epoch then mcast t (ack_msg t seq ids epoch)
      end;
      (* The leader holds what it orders: its Order is its ack. *)
      take_ack t ~seq ~ids ~epoch ~from:src ~cursor
  | Order_ack { seq; ids; epoch; from; cursor } ->
      take_ack t ~seq ~ids ~epoch ~from ~cursor
  | Epoch { epoch } ->
      adopt_epoch t epoch;
      (* A takeover records our own ack of every slot it re-announces,
         which may be the last one a slot lacked. *)
      try_deliver t
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
          others = List.filter (fun m -> m <> me) members;
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
          unslotted = Id_table.create 1;
          window = [||];
          no_acks = new_acks n [];
          slot_count = Id_table.create 64;
          cursors = Array.make n 0;
          delivered_set = Id_table.create 64;
          delivered_rev = [];
          noop_seq = 0;
          batch_rev = [];
          batch_armed = false;
          lagging = false;
          kick = ignore;
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
      t.kick <-
        Fd.poller fd ~label:"abcast:poll" ~every:(Simtime.of_ms 25)
          ~busy:(fun () -> busy t)
          ~waits:(fun () -> members)
          (fun () -> poll t);
      Network.on_recover net (fun node -> if node = me then t.kick ());
      Fd.on_trust t.fd (fun peer ->
          (* The peer learns what it missed while suspected from acks. *)
          for seq = heard_cursor t peer to t.max_slot do
            let c = cell t seq in
            if assigned c then
              Rchan.send t.chan ~dst:peer (ack_msg t seq c.ids c.epoch)
          done;
          (* A leader that lost its quorum left what it received meanwhile
             unordered; nothing else orders it before the next epoch. *)
          if is_leader t && quorate t then order_pending t;
          (* The peer may lack slots delivered while it was suspected:
             let the leader's anti-entropy look. *)
          if is_leader t then t.lagging <- true;
          t.kick ());
      Rchan.on_deliver t.chan (fun ~src msg ->
          handle_msg t ~src msg;
          t.kick ());
      Hashtbl.replace handles me t)
    members;
  { g_members = members; chan_group; handles; client_seq = Hashtbl.create 8 }

let handle group ~me = Hashtbl.find group.handles me
