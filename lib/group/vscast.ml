open Sim

module Iset = Set.Make (Int)

type vmsg = { origin : int; vseq : int; payload : Msg.t }

module Flush = struct
  type t = { f_members : int list; f_msgs : vmsg list }
end

module C = Consensus.Make (Flush)

type Msg.t +=
  | Vs_msg of { view : int; origin : int; vseq : int; payload : Msg.t }
  | Vs_ack of { view : int; origin : int; vseq : int; from : int }
  | Join_req of { joiner : int; held : int }
      (* [held]: the id of the view the joiner held when it asked *)
  | View_probe of { view_id : int }
  | Vs_flush of { view : int; suspects : int list }

let () =
  Msg.wrapper [%extension_constructor Vs_msg] "Vs" (function
    | Vs_msg { payload; _ } -> payload
    | _ -> assert false)

type t = {
  me : int;
  net : Network.t;
  fd : Fd.t;
  chan : Rchan.t;
  cons : C.t;
  mutable view : View.t;
  admitted : (int, int) Hashtbl.t;
      (* member -> id of the view that last admitted it (0: initial) *)
  mutable kick : unit -> unit; (* arms the poll while [busy] *)
  mutable excluded : bool;
  mutable joining : bool; (* excluded member asking to come back *)
  mutable stale_polls : int; (* consecutive polls with unreachable future *)
  mutable pending_joins : Iset.t;
  all_members : int list; (* the group's full potential membership *)
  mutable next_vseq : int; (* our per-view send sequence *)
  (* Messages of the current view, keyed by (origin, vseq). *)
  buffered : (int * int, vmsg) Hashtbl.t;
  acks : (int * int, Iset.t ref) Hashtbl.t;
  delivered : (int * int * int, unit) Hashtbl.t; (* (view, origin, vseq) *)
  next_expected : (int, int) Hashtbl.t; (* per-origin FIFO cursor *)
  mutable view_log : vmsg list; (* all messages seen in the current view *)
  mutable own_unstable : vmsg list; (* our sends not yet known delivered *)
  mutable future : (int * Msg.t) list;
      (* [Vs_msg]s and [Vs_ack]s of views we have not installed yet,
         newest first *)
  pending_views : (int, Flush.t) Hashtbl.t; (* decisions awaiting their turn *)
  mutable proposed_for : int;
  mutable deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
  mutable view_cbs : (View.t -> unit) list; (* in order *)
}

type group = { handles : (int, t) Hashtbl.t }

let current_view t = t.view
let in_view t = (not t.excluded) && View.is_member t.view t.me
let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]
let on_view_change t f = t.view_cbs <- t.view_cbs @ [ f ]

let ack_set t key =
  match Hashtbl.find_opt t.acks key with
  | Some s -> s
  | None ->
      let s = ref Iset.empty in
      Hashtbl.replace t.acks key s;
      s

let deliver_one t m =
  let key = (t.view.id, m.origin, m.vseq) in
  if not (Hashtbl.mem t.delivered key) then begin
    Hashtbl.replace t.delivered key ();
    if m.origin = t.me then
      t.own_unstable <-
        List.filter (fun u -> u.vseq <> m.vseq) t.own_unstable;
    List.iter (fun f -> f ~origin:m.origin m.payload) t.deliver_cbs
  end

(* Deliver, per origin in vseq order, every buffered message acknowledged by
   all current-view members. *)
let rec try_deliver t =
  let progressed = ref false in
  Hashtbl.iter
    (fun (origin, vseq) m ->
      let expected =
        Option.value ~default:0 (Hashtbl.find_opt t.next_expected origin)
      in
      if vseq = expected then begin
        let ackers = !(ack_set t (origin, vseq)) in
        if List.for_all (fun p -> Iset.mem p ackers) t.view.members then begin
          Hashtbl.replace t.next_expected origin (vseq + 1);
          Hashtbl.remove t.buffered (origin, vseq);
          deliver_one t m;
          progressed := true
        end
      end)
    (Hashtbl.copy t.buffered);
  if !progressed then try_deliver t

let mcast_view t msg =
  List.iter (fun dst -> Rchan.send t.chan ~dst msg) t.view.members

let send_vmsg t m =
  mcast_view t
    (Vs_msg
       {
         view = t.view.id;
         origin = m.origin;
         vseq = m.vseq;
         payload = m.payload;
       })

(* A message or ack of the current view. Once we have proposed the next
   view, its flush set is fixed: an ack for a message it lacks could let
   the others deliver what the next view drops, so we ack no more. *)
let receive t msg =
  match msg with
  | Vs_msg { view; origin; vseq; payload } ->
      if
        (not (Hashtbl.mem t.delivered (view, origin, vseq)))
        && not (Hashtbl.mem t.buffered (origin, vseq))
      then begin
        let m = { origin; vseq; payload } in
        Hashtbl.replace t.buffered (origin, vseq) m;
        t.view_log <- m :: t.view_log;
        if t.proposed_for <= view then
          mcast_view t (Vs_ack { view; origin; vseq; from = t.me })
      end;
      try_deliver t
  | Vs_ack { origin; vseq; from; _ } ->
      let s = ack_set t (origin, vseq) in
      s := Iset.add from !s;
      try_deliver t
  | _ -> ()

(* Take the early arrivals of the view just entered out of [future] and
   handle them in arrival order; those of older views are dropped. *)
let receive_early t =
  let ready, still_future =
    List.partition (fun (v, _) -> v = t.view.id) t.future
  in
  t.future <- List.filter (fun (v, _) -> v > t.view.id) still_future;
  List.iter (fun (_, msg) -> receive t msg) (List.rev ready)

let broadcast t payload =
  if in_view t then begin
    let m = { origin = t.me; vseq = t.next_vseq; payload } in
    t.next_vseq <- t.next_vseq + 1;
    t.own_unstable <- t.own_unstable @ [ m ];
    send_vmsg t m
  end

(* Propose the next view: current members minus suspects plus joiners,
   flushing every view message we know about (delivered or buffered).
   Having proposed, we ack nothing more of this view ([receive]), so
   nothing is delivered until the view changes: [Vs_flush] makes every
   member propose too, [forced] with no reason of its own, and the
   instance decides. A forced member also drops the suspects of the
   member that flushed ([also]): a member that waited on nobody has no
   suspicion of its own, and its proposal would otherwise keep a crashed
   member in view after view. *)
let propose_change ?(forced = false) ?(also = []) t =
  if in_view t && t.proposed_for < t.view.id + 1 then begin
    let suspects =
      List.filter
        (fun m -> Fd.suspected t.fd m || (m <> t.me && List.mem m also))
        t.view.members
    in
    (* A join request from a node that is still in our view means it
       crashed and recovered faster than the failure detector noticed:
       its standing in the current view is void, and it needs a fresh
       view (same membership) to jump to. *)
    let joins =
      Iset.elements
        (Iset.filter (fun j -> not (Fd.suspected t.fd j)) t.pending_joins)
    in
    if forced || suspects <> [] || joins <> [] then begin
      t.proposed_for <- t.view.id + 1;
      let members =
        List.filter (fun m -> not (List.mem m suspects)) t.view.members
        @ List.filter (fun j -> not (View.is_member t.view j)) joins
      in
      (* The flush set must contain every message we have seen in this view
         — including ones we already delivered — so that whichever proposal
         wins, it is a superset of anything anyone delivered (delivery
         requires all-member acknowledgement, hence everyone saw it). *)
      C.propose t.cons ~instance:(t.view.id + 1)
        { Flush.f_members = members; f_msgs = t.view_log };
      List.iter
        (fun dst ->
          if dst <> t.me then
            Rchan.send t.chan ~dst (Vs_flush { view = t.view.id; suspects }))
        t.view.members
    end
  end

let rec install t (flush : Flush.t) =
  (* Deliver the agreed flush set (FIFO per origin) before installing. *)
  let sorted =
    List.sort
      (fun a b ->
        match Int.compare a.origin b.origin with
        | 0 -> Int.compare a.vseq b.vseq
        | c -> c)
      flush.f_msgs
  in
  List.iter (fun m -> deliver_one t m) sorted;
  let old_unsent =
    if List.mem t.me flush.f_members then
      List.filter
        (fun u ->
          not
            (List.exists
               (fun m -> m.origin = t.me && m.vseq = u.vseq)
               flush.f_msgs))
        t.own_unstable
    else []
  in
  let old_members = t.view.members in
  t.view <- View.next t.view ~members:flush.f_members;
  List.iter
    (fun m ->
      if not (List.mem m old_members) then
        Hashtbl.replace t.admitted m t.view.id)
    t.view.members;
  (* A member dropped on suspicion may be up and cut off: once the
     channel reaches it (a link parked towards it probes it, and resumes
     when it is heard from), it learns that the group moved on and asks
     to be readmitted. *)
  List.iter
    (fun m ->
      if m <> t.me && not (View.is_member t.view m) then
        Rchan.send t.chan ~dst:m (View_probe { view_id = t.view.id }))
    old_members;
  if not (View.is_member t.view t.me) then t.excluded <- true
  else begin
    t.excluded <- false;
    t.joining <- false
  end;
  t.pending_joins <-
    Iset.filter (fun j -> not (View.is_member t.view j)) t.pending_joins;
  Hashtbl.reset t.buffered;
  Hashtbl.reset t.acks;
  Hashtbl.reset t.next_expected;
  t.next_vseq <- 0;
  t.view_log <- [];
  t.own_unstable <- [];
  List.iter (fun f -> f t.view) t.view_cbs;
  (* Rebroadcast our messages that were dropped by the view change. *)
  if in_view t then
    List.iter (fun u -> broadcast t u.payload) old_unsent;
  receive_early t;
  (* Cascade: members that crashed during the flush still need removing. *)
  propose_change t;
  (* Dropped from the view while up: ask to be readmitted. *)
  if t.excluded && not t.joining then request_join t else apply_pending_views t

and apply_pending_views t =
  (if not t.excluded then
     match Hashtbl.find_opt t.pending_views (t.view.id + 1) with
     | Some flush ->
         Hashtbl.remove t.pending_views (t.view.id + 1);
         install t flush
     | None -> ());
  if t.joining then begin
    (* A recovering member cannot replay the views it missed; it jumps to
       the first decided view that readmits it (the application is
       responsible for state transfer, cf. Passive replication). *)
    let target =
      Hashtbl.fold
        (fun instance (flush : Flush.t) acc ->
          if instance > t.view.id && List.mem t.me flush.f_members then
            match acc with
            | Some (i, _) when i <= instance -> acc
            | _ -> Some (instance, flush)
          else acc)
        t.pending_views None
    in
    match target with
    | None -> ()
    | Some (instance, flush) ->
        Hashtbl.remove t.pending_views instance;
        Hashtbl.reset t.buffered;
        Hashtbl.reset t.acks;
        Hashtbl.reset t.next_expected;
        t.view_log <- [];
        t.own_unstable <- [];
        t.next_vseq <- 0;
        (* Normalise exactly like [View.next] does on the sequential
           install path — every member must agree on the member order
           (Passive replication derives primaryship from the head). *)
        t.view <-
          {
            View.id = instance;
            members = List.sort_uniq Int.compare flush.Flush.f_members;
          };
        t.excluded <- false;
        t.joining <- false;
        t.stale_polls <- 0;
        t.proposed_for <- instance;
        List.iter (fun f -> f t.view) t.view_cbs;
        receive_early t;
        apply_pending_views t
  end

(* Ask the group to readmit this (recovered or left-behind) member. The
   request is repeated by [poll] until a view containing us is
   installed. *)
and request_join t =
  t.joining <- true;
  List.iter
    (fun dst ->
      if dst <> t.me then
        Rchan.send t.chan ~dst (Join_req { joiner = t.me; held = t.view.id }))
    t.all_members;
  apply_pending_views t

let handle_msg t msg =
  (match msg with
  | Join_req { joiner; held } ->
      (* A request older than the view that readmitted the joiner is
         stale: it was answered already. *)
      let answered =
        View.is_member t.view joiner
        && held < Option.value ~default:0 (Hashtbl.find_opt t.admitted joiner)
      in
      if joiner <> t.me && not answered then
        t.pending_joins <- Iset.add joiner t.pending_joins
  | View_probe { view_id } ->
      (* Someone installed a view we never saw: we were dropped from the
         view while cut off (crash or partition). Ask to be readmitted;
         harmless if we are merely lagging a decision in flight. *)
      if view_id > t.view.id && not t.joining then request_join t
  | Vs_flush { view; suspects } ->
      if view = t.view.id then propose_change ~forced:true ~also:suspects t
  | _ -> ());
  (* What arrives for a view we have not entered is kept for it: a
     member installing the view, or a joiner jumping to it, needs the
     acks as much as the messages, for nobody delivers a message of the
     view until every member has acked it. *)
  match msg with
  | Vs_msg { view; _ } | Vs_ack { view; _ } ->
      if view > t.view.id then t.future <- (view, msg) :: t.future
      else if view = t.view.id && not t.excluded then receive t msg
  | _ -> ()

let poll t =
  if t.joining then request_join t
  else if in_view t then begin
    propose_change t;
    (* A member holding messages of future views it cannot reach missed
       one or more view installations (it was crashed while the group
       moved on): rejoin. *)
    if List.exists (fun (v, _) -> v > t.view.id) t.future then begin
      t.stale_polls <- t.stale_polls + 1;
      if t.stale_polls > 10 then request_join t
    end
    else t.stale_polls <- 0
  end

(* Work that needs the poll: a join to ask for or to grant, a suspect
   to remove, messages waiting for acks, or messages of a view not
   installed yet. *)
let busy t =
  t.joining
  || in_view t
     && ((not (Iset.is_empty t.pending_joins))
        || Hashtbl.length t.buffered > 0
        || t.future <> []
        || List.exists (Fd.suspected t.fd) t.view.members)

let create_group net ~members ?fd () =
  let fd_group =
    match fd with Some g -> g | None -> Fd.create_group net ~members ()
  in
  let chan_group = Rchan.create_group net ~nodes:members () in
  let cons_group = C.create_group net ~members ~fd:fd_group () in
  let handles = Hashtbl.create 8 in
  List.iter
    (fun me ->
      let t =
        {
          me;
          net;
          fd = Fd.handle fd_group ~me;
          chan = Rchan.handle chan_group ~me;
          cons = C.handle cons_group ~me;
          view = View.initial members;
          admitted = Hashtbl.create 8;
          kick = ignore;
          excluded = false;
          joining = false;
          stale_polls = 0;
          pending_joins = Iset.empty;
          all_members = members;
          next_vseq = 0;
          buffered = Hashtbl.create 32;
          acks = Hashtbl.create 32;
          delivered = Hashtbl.create 64;
          next_expected = Hashtbl.create 8;
          view_log = [];
          own_unstable = [];
          future = [];
          pending_views = Hashtbl.create 4;
          proposed_for = 0;
          deliver_cbs = [];
          view_cbs = [];
        }
      in
      (match Network.timeseries net with
      | Some ts ->
          Timeseries.register ts ~name:"vscast_view" ~replica:me
            ~kind:Timeseries.Level ~unit_:"view" (fun () -> float_of_int t.view.View.id);
          Timeseries.register ts ~name:"vscast_flushing" ~replica:me
            ~kind:Timeseries.Flag ~unit_:"bool" (fun () ->
              if t.proposed_for > t.view.View.id || t.joining then 1. else 0.);
          Timeseries.register ts ~name:"vscast_buffered" ~replica:me
            ~kind:Timeseries.Queue ~unit_:"messages" (fun () ->
              float_of_int (Hashtbl.length t.buffered))
      | None -> ());
      t.kick <-
        Fd.poller t.fd ~label:"vscast:poll" ~every:(Simtime.of_ms 30)
          ~busy:(fun () -> busy t)
          ~waits:(fun () ->
            if Hashtbl.length t.buffered > 0 then t.view.members else [])
          (fun () -> poll t);
      Rchan.on_deliver t.chan (fun ~src:_ msg ->
          handle_msg t msg;
          t.kick ());
      Fd.on_suspect t.fd (fun _ -> t.kick ());
      (* A recovering member must not resume its pre-crash view: messages
         may have been delivered (or views installed) without it while it
         was down, so its standing is void. It re-enters through the
         join/jump path like any left-behind member. *)
      Network.on_recover net (fun node ->
          if node = t.me then begin
            t.excluded <- true;
            t.stale_polls <- 0;
            request_join t;
            t.kick ()
          end);
      C.on_decide t.cons (fun ~instance flush ->
          Hashtbl.replace t.pending_views instance flush;
          apply_pending_views t;
          t.kick ());
      Hashtbl.replace handles me t)
    members;
  { handles }

let handle group ~me = Hashtbl.find group.handles me
