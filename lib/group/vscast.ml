open Sim

module Iset = Set.Make (Int)

type vmsg = { origin : int; vseq : int; payload : Msg.t }

module Flush = struct
  type t = { f_members : int list; f_msgs : vmsg list }
end

module C = Consensus.Make (Flush)

type Msg.t +=
  | Vs_msg of { gid : int; view : int; origin : int; vseq : int; payload : Msg.t }
  | Vs_ack of { gid : int; view : int; origin : int; vseq : int; from : int }
  | Join_req of { gid : int; joiner : int }
  | View_probe of { gid : int; view_id : int }

let () =
  Msg.register_printer (function
    | Vs_msg { payload; _ } -> Some ("Vs(" ^ Msg.name payload ^ ")")
    | _ -> None)

type t = {
  gid : int;
  me : int;
  net : Network.t;
  fd : Fd.t;
  chan : Rchan.t;
  cons : C.t;
  mutable view : View.t;
  mutable excluded : bool;
  mutable joining : bool; (* excluded member asking to come back *)
  mutable stale_polls : int; (* consecutive polls with unreachable future *)
  mutable polls : int;
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
  mutable future : (int * vmsg) list; (* messages for views we lag behind *)
  pending_views : (int, Flush.t) Hashtbl.t; (* decisions awaiting their turn *)
  mutable proposed_for : int;
  mutable deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
  mutable view_cbs : (View.t -> unit) list; (* in order *)
}

type group = { handles : (int, t) Hashtbl.t }

let next_gid = ref 0
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
         gid = t.gid;
         view = t.view.id;
         origin = m.origin;
         vseq = m.vseq;
         payload = m.payload;
       })

let broadcast t payload =
  if in_view t then begin
    let m = { origin = t.me; vseq = t.next_vseq; payload } in
    t.next_vseq <- t.next_vseq + 1;
    t.own_unstable <- t.own_unstable @ [ m ];
    send_vmsg t m
  end

(* Propose the next view: current members minus suspects plus joiners,
   flushing every view message we know about (delivered or buffered). *)
let propose_change t =
  if in_view t && t.proposed_for < t.view.id + 1 then begin
    let suspects = List.filter (Fd.suspected t.fd) t.view.members in
    (* A join request from a node that is still in our view means it
       crashed and recovered faster than the failure detector noticed:
       its standing in the current view is void, and it needs a fresh
       view (same membership) to jump to. *)
    let joins =
      Iset.elements
        (Iset.filter (fun j -> not (Fd.suspected t.fd j)) t.pending_joins)
    in
    if suspects <> [] || joins <> [] then begin
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
        { Flush.f_members = members; f_msgs = t.view_log }
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
  t.view <- View.next t.view ~members:flush.f_members;
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
  (* Process messages that arrived early for this view. *)
  let ready, still_future =
    List.partition (fun (v, _) -> v = t.view.id) t.future
  in
  t.future <- still_future;
  List.iter
    (fun (_, m) ->
      Hashtbl.replace t.buffered (m.origin, m.vseq) m;
      t.view_log <- m :: t.view_log;
      mcast_view t
        (Vs_ack
           { gid = t.gid; view = t.view.id; origin = m.origin; vseq = m.vseq; from = t.me }))
    ready;
  try_deliver t;
  (* Cascade: members that crashed during the flush still need removing. *)
  propose_change t;
  apply_pending_views t

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
        t.future <- [];
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
        apply_pending_views t
  end

let rec handle_msg t msg =
  (match msg with
  | Join_req { gid; joiner } when gid = t.gid ->
      if joiner <> t.me then t.pending_joins <- Iset.add joiner t.pending_joins
  | View_probe { gid; view_id } when gid = t.gid ->
      (* Someone installed a view we never saw: we were cut off past the
         retransmission budget (crash or partition). Ask to be readmitted;
         harmless if we are merely lagging a decision in flight. *)
      if view_id > t.view.id && not t.joining then request_join t
  | _ -> ());
  if not t.excluded then
    match msg with
    | Vs_msg { gid; view; origin; vseq; payload } when gid = t.gid ->
        let m = { origin; vseq; payload } in
        if view = t.view.id then begin
          if
            (not (Hashtbl.mem t.delivered (view, origin, vseq)))
            && not (Hashtbl.mem t.buffered (origin, vseq))
          then begin
            Hashtbl.replace t.buffered (origin, vseq) m;
            t.view_log <- m :: t.view_log;
            mcast_view t
              (Vs_ack { gid = t.gid; view; origin; vseq; from = t.me })
          end;
          try_deliver t
        end
        else if view > t.view.id then t.future <- (view, m) :: t.future
    | Vs_ack { gid; view; origin; vseq; from } when gid = t.gid ->
        if view = t.view.id then begin
          let s = ack_set t (origin, vseq) in
          s := Iset.add from !s;
          try_deliver t
        end
    | _ -> ()

(* Ask the group to readmit this (recovered or left-behind) member. The
   request is repeated by [poll] until a view containing us is
   installed. *)
and request_join t =
  t.joining <- true;
  List.iter
    (fun dst ->
      if dst <> t.me then
        Rchan.send t.chan ~dst (Join_req { gid = t.gid; joiner = t.me }))
    t.all_members;
  apply_pending_views t

let probe_period = 6 (* polls between view probes: ~180ms *)

let poll t =
  t.polls <- t.polls + 1;
  if in_view t && t.polls mod probe_period = 0 then
    List.iter
      (fun dst ->
        if dst <> t.me then
          Rchan.send t.chan ~dst (View_probe { gid = t.gid; view_id = t.view.id }))
      t.all_members;
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

let create_group net ~members ?fd ?rto ?passthrough () =
  incr next_gid;
  let gid = !next_gid in
  let fd_group =
    match fd with Some g -> g | None -> Fd.create_group net ~members ()
  in
  let chan_group = Rchan.create_group net ~nodes:members ?rto ?passthrough () in
  let cons_group =
    C.create_group net ~members ~fd:fd_group ?rto ?passthrough ()
  in
  let handles = Hashtbl.create 8 in
  List.iter
    (fun me ->
      let t =
        {
          gid;
          me;
          net;
          fd = Fd.handle fd_group ~me;
          chan = Rchan.handle chan_group ~me;
          cons = C.handle cons_group ~me;
          view = View.initial members;
          excluded = false;
          joining = false;
          stale_polls = 0;
          polls = 0;
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
      Rchan.on_deliver t.chan (fun ~src msg ->
          ignore src;
          handle_msg t msg);
      (* A recovering member must not resume its pre-crash view: messages
         may have been delivered (or views installed) without it while it
         was down, so its standing is void. It re-enters through the
         join/jump path like any left-behind member. *)
      Network.on_recover net (fun node ->
          if node = t.me then begin
            t.excluded <- true;
            t.stale_polls <- 0;
            request_join t
          end);
      C.on_decide t.cons (fun ~instance flush ->
          Hashtbl.replace t.pending_views instance flush;
          apply_pending_views t);
      ignore
        (Engine.periodic (Network.engine net) ~label:"vscast:poll" ~every:(Simtime.of_ms 30)
           (Network.guard net me (fun () -> poll t)));
      Hashtbl.replace handles me t)
    members;
  { handles }

let handle group ~me = Hashtbl.find group.handles me
