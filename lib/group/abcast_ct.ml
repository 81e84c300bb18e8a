open Sim

type id = int * int (* origin node, per-origin sequence number *)

type Msg.t +=
  | Inject of { gid : int; id : id; payload : Msg.t }
  | Progress of { gid : int; next_inst : int; from : int }
  | Catchup of { gid : int; instance : int; batch : (id * Msg.t) list }

let () =
  Msg.register_printer (function
    | Inject { payload; _ } -> Some ("Inject(" ^ Msg.name payload ^ ")")
    | Catchup { batch; _ } ->
        Some (Printf.sprintf "Catchup[%d]" (List.length batch))
    | _ -> None)

module Batch = struct
  type t = (id * Msg.t) list
end

module C = Consensus.Make (Batch)

type t = {
  gid : int;
  me : int;
  chan : Rchan.t;
  members : int list;
  cons : C.t;
  mutable next_send : int;
  mutable next_inst : int; (* next consensus instance to decide *)
  mutable proposed_for : int; (* highest instance we proposed for *)
  pending : (id, Msg.t) Hashtbl.t; (* injected, not yet delivered *)
  decided_ahead : (int, Batch.t) Hashtbl.t; (* out-of-order decisions *)
  decided_log : (int, Batch.t) Hashtbl.t; (* all decisions, for catch-up *)
  delivered_set : (id, unit) Hashtbl.t;
  mutable delivered_rev : id list;
  mutable deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
  mutable opt_deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
  mutable opt_delivered_rev : id list;
}

type group = {
  g_gid : int;
  g_members : int list;
  chan_group : Rchan.group;
  handles : (int, t) Hashtbl.t;
  mutable client_seq : (int, int ref) Hashtbl.t;
}

let next_gid = ref 0

let compare_id (o1, s1) (o2, s2) =
  match Int.compare o1 o2 with 0 -> Int.compare s1 s2 | c -> c

let maybe_propose t =
  if t.proposed_for < t.next_inst && Hashtbl.length t.pending > 0 then begin
    t.proposed_for <- t.next_inst;
    let batch =
      Hashtbl.fold (fun id payload acc -> (id, payload) :: acc) t.pending []
      |> List.sort (fun (a, _) (b, _) -> compare_id a b)
    in
    C.propose t.cons ~instance:t.next_inst batch
  end

let rec apply_decisions t =
  match Hashtbl.find_opt t.decided_ahead t.next_inst with
  | None -> ()
  | Some batch ->
      Hashtbl.remove t.decided_ahead t.next_inst;
      List.iter
        (fun ((origin, _) as id, payload) ->
          Hashtbl.remove t.pending id;
          if not (Hashtbl.mem t.delivered_set id) then begin
            Hashtbl.replace t.delivered_set id ();
            t.delivered_rev <- id :: t.delivered_rev;
            List.iter (fun f -> f ~origin payload) t.deliver_cbs
          end)
        batch;
      t.next_inst <- t.next_inst + 1;
      maybe_propose t;
      apply_decisions t

let inject t id payload =
  if
    (not (Hashtbl.mem t.delivered_set id))
    && not (Hashtbl.mem t.pending id)
  then begin
    Hashtbl.replace t.pending id payload;
    t.opt_delivered_rev <- id :: t.opt_delivered_rev;
    List.iter (fun f -> f ~origin:(fst id) payload) t.opt_deliver_cbs;
    maybe_propose t
  end

let broadcast t msg =
  let id = (t.me, t.next_send) in
  t.next_send <- t.next_send + 1;
  Rchan.mcast t.chan ~dsts:t.members (Inject { gid = t.gid; id; payload = msg })

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

let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]
let on_opt_deliver t f = t.opt_deliver_cbs <- t.opt_deliver_cbs @ [ f ]
let delivered t = List.rev t.delivered_rev
let opt_delivered t = List.rev t.opt_delivered_rev

let create_group net ~members ?(clients = []) ?fd ?rto ?passthrough () =
  incr next_gid;
  let gid = !next_gid in
  let fd_group =
    match fd with Some g -> g | None -> Fd.create_group net ~members ()
  in
  let chan_group =
    Rchan.create_group net ~nodes:(members @ clients) ?rto ?passthrough ()
  in
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
          chan = Rchan.handle chan_group ~me;
          members;
          cons = C.handle cons_group ~me;
          next_send = 0;
          next_inst = 0;
          proposed_for = -1;
          pending = Hashtbl.create 32;
          decided_ahead = Hashtbl.create 8;
          decided_log = Hashtbl.create 64;
          delivered_set = Hashtbl.create 64;
          delivered_rev = [];
          deliver_cbs = [];
          opt_deliver_cbs = [];
          opt_delivered_rev = [];
        }
      in
      (match Network.timeseries net with
      | Some ts ->
          Timeseries.register ts ~name:"abcast_pending" ~replica:me
            ~kind:Timeseries.Queue ~unit_:"messages" (fun () ->
              float_of_int (Hashtbl.length t.pending))
      | None -> ());
      Rchan.on_deliver t.chan (fun ~src msg ->
          ignore src;
          match msg with
          | Inject { gid = g; id; payload } when g = gid -> inject t id payload
          | Progress { gid = g; next_inst; from } when g = gid ->
              (* A member that lags behind us missed decided instances
                 (e.g. it was partitioned past the retransmission budget):
                 replay the decisions it needs. *)
              if next_inst < t.next_inst then
                for instance = next_inst to min (t.next_inst - 1) (next_inst + 9) do
                  match Hashtbl.find_opt t.decided_log instance with
                  | Some batch ->
                      Rchan.send t.chan ~dst:from
                        (Catchup { gid = t.gid; instance; batch })
                  | None -> ()
                done
          | Catchup { gid = g; instance; batch } when g = gid ->
              if instance >= t.next_inst
                 && not (Hashtbl.mem t.decided_ahead instance)
              then begin
                Hashtbl.replace t.decided_ahead instance batch;
                apply_decisions t
              end
          | _ -> ());
      C.on_decide t.cons (fun ~instance batch ->
          Hashtbl.replace t.decided_ahead instance batch;
          Hashtbl.replace t.decided_log instance batch;
          apply_decisions t);
      ignore
        (Engine.periodic (Network.engine net) ~label:"abcast:poll" ~every:(Simtime.of_ms 100)
           (Network.guard net me (fun () ->
                Rchan.mcast t.chan ~dsts:t.members
                  (Progress { gid = t.gid; next_inst = t.next_inst; from = t.me }))));
      Hashtbl.replace handles me t)
    members;
  { g_gid = gid; g_members = members; chan_group; handles; client_seq = Hashtbl.create 8 }

let handle group ~me = Hashtbl.find group.handles me
