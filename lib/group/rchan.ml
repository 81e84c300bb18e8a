open Sim

type Msg.t +=
  | Data of { gid : int; src : int; seq : int; payload : Msg.t }
  | Ack of { gid : int; seq : int }

let () =
  Msg.wrapper [%extension_constructor Data] "Data" (function
    | Data { payload; _ } -> payload
    | _ -> assert false)

(* A sent message still waiting for its ack: the packet, where it goes,
   how many retransmits it has spent, and its next retransmit: the key
   (due, seq) it fires at and the context it was first sent under. A
   retransmit keeps that context, as a timer armed under it would. *)
type unacked = {
  packet : Msg.t;
  dst : int;
  mutable retries : int;
  mutable due : Simtime.t;
  mutable seq : int; (* claimed with [Engine.claim_seq] *)
  ctx : Engine.ctx option;
  mutable acked : bool;
}

(* Fills the ring slots nothing occupies, so that popped entries (and
   their packets) are not kept reachable. *)
let vacant =
  {
    packet = Ack { gid = -1; seq = -1 };
    dst = -1;
    retries = 0;
    due = Simtime.zero;
    seq = -1;
    ctx = None;
    acked = true;
  }

(* Sequence numbers are per link (sender, receiver). Per-link tables are
   keyed by [link_key t seq peer = seq * nodes + peer], one int per
   (peer, seq) pair. *)
type t = {
  net : Network.t;
  gid : int;
  me : int;
  nodes : int; (* endpoints of the network: peers are [0 .. nodes-1] *)
  rto : Simtime.t;
  max_retries : int;
  passthrough : bool;
  (* Sender side: next seq towards each destination, and the un-acked
     messages keyed by (dst, seq). *)
  next_seq : int array;
  unacked : unacked Int_table.t;
  (* The retransmit ring: the entries whose chains still run, in (due,
     seq) order, as a circular buffer of [len] entries from [first]
     (capacity a power of two). Acked entries stay until they reach the
     head. One engine timer, [armed], waits at the head's key, and
     [fire] is the action it runs. *)
  mutable ring : unacked array;
  mutable first : int;
  mutable len : int;
  mutable armed : Engine.timer option;
  mutable fire : unit -> unit;
  (* Receiver side: the per-origin seqs delivered so far. *)
  seen : Dedup.t;
  mutable deliver_cbs : (src:int -> Msg.t -> unit) list; (* in order *)
  mutable settled_cbs : (dst:int -> Msg.t -> unit) list; (* in order *)
}

type group = { handles : (int, t) Hashtbl.t }

let link_key t seq peer = (seq * t.nodes) + peer

let deliver t ~src payload = List.iter (fun f -> f ~src payload) t.deliver_cbs

(* [u]'s chain has ended by an ack or by its last retry: report it once.
   [acked] marks it, so a late ack of a message given up reports
   nothing. An endpoint with no [on_settled] callback skips all of it. *)
let settle t u =
  match (t.settled_cbs, u.packet) with
  | [], _ -> ()
  | cbs, Data { payload; _ } when not u.acked ->
      u.acked <- true;
      List.iter (fun f -> f ~dst:u.dst payload) cbs
  | _ -> ()

(* --- the retransmit ring ----------------------------------------------- *)

let push t u =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    let ring = Array.make (max 8 (2 * cap)) vacant in
    for i = 0 to t.len - 1 do
      ring.(i) <- t.ring.((t.first + i) land (cap - 1))
    done;
    t.ring <- ring;
    t.first <- 0
  end;
  t.ring.((t.first + t.len) land (Array.length t.ring - 1)) <- u;
  t.len <- t.len + 1

let pop t =
  let u = t.ring.(t.first) in
  t.ring.(t.first) <- vacant;
  t.first <- (t.first + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  u

(* Drop the acked entries at the head, then arm the timer at the key of
   the first entry left. *)
let rec arm_head t =
  if t.len = 0 then t.armed <- None
  else
    let u = t.ring.(t.first) in
    if u.acked then begin
      ignore (pop t);
      arm_head t
    end
    else
      t.armed <-
        Some
          (Engine.schedule_claimed (Network.engine t.net)
             ~label:"rchan:retransmit" ~at:u.due ~seq:u.seq t.fire)

(* The armed timer: handles the head entry at its key, as a timer of its
   own would. Like a [Network.guard]ed timer it does nothing while we
   are crashed, which ends the entry's chain; so does its last retry,
   which settles it. An ended entry leaves the ring but stays
   un-acked. *)
let fire t () =
  let u = pop t in
  if Network.alive t.net t.me then
    if u.retries < t.max_retries then begin
      let engine = Network.engine t.net in
      u.retries <- u.retries + 1;
      Engine.set_ctx engine u.ctx;
      Network.send t.net ~src:t.me ~dst:u.dst u.packet;
      u.due <- Simtime.add (Engine.now engine) t.rto;
      u.seq <- Engine.claim_seq engine;
      push t u
    end
    else settle t u;
  arm_head t

let send t ~dst msg =
  let seq = t.next_seq.(dst) in
  t.next_seq.(dst) <- seq + 1;
  let packet = Data { gid = t.gid; src = t.me; seq; payload = msg } in
  Network.send t.net ~src:t.me ~dst packet;
  if not t.passthrough then begin
    let engine = Network.engine t.net in
    let u =
      {
        packet;
        dst;
        retries = 0;
        due = Simtime.add (Engine.now engine) t.rto;
        seq = Engine.claim_seq engine;
        ctx = Engine.ctx engine;
        acked = false;
      }
    in
    Int_table.replace t.unacked (link_key t seq dst) u;
    push t u;
    if t.len = 1 then arm_head t
  end

(* [u] is acked: forget it, and move the timer on if it waited for [u]. *)
let ack t key u =
  settle t u;
  u.acked <- true;
  Int_table.remove t.unacked key;
  if t.ring.(t.first) == u then begin
    Option.iter Engine.cancel t.armed;
    arm_head t
  end

let mcast t ~dsts msg = List.iter (fun dst -> send t ~dst msg) dsts
let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]
let on_settled t f = t.settled_cbs <- t.settled_cbs @ [ f ]
let rto t = t.rto

let create_group net ~nodes ?(rto = Simtime.of_ms 10) ?(max_retries = 100) () =
  let gid = Network.fresh_id net in
  let handles = Hashtbl.create 8 in
  let size = Network.size net in
  List.iter
    (fun me ->
      let t =
        {
          net;
          gid;
          me;
          nodes = size;
          rto;
          max_retries;
          passthrough = Network.passthrough net;
          next_seq = Array.make size 0;
          unacked = Int_table.create 32;
          ring = [||];
          first = 0;
          len = 0;
          armed = None;
          fire = ignore;
          seen = Dedup.create ~nodes:size;
          deliver_cbs = [];
          settled_cbs = [];
        }
      in
      t.fire <- fire t;
      (match Network.timeseries net with
      | Some ts ->
          Timeseries.register ts ~name:"rchan_unacked" ~replica:me
            ~kind:Timeseries.Queue ~unit_:"messages" (fun () ->
              float_of_int (Int_table.length t.unacked))
      | None -> ());
      Network.add_handler net me (fun ~src msg ->
          match msg with
          | Data { gid = g; src = origin; seq; payload } when g = gid ->
              if not t.passthrough then
                Network.send net ~src:me ~dst:src (Ack { gid; seq });
              if Dedup.fresh t.seen ~origin ~seq then
                deliver t ~src:origin payload;
              true
          | Ack { gid = g; seq } when g = gid ->
              (* [src] is the receiver the acked message was sent to. *)
              let key = link_key t seq src in
              (match Int_table.find_opt t.unacked key with
              | Some u -> ack t key u
              | None -> ());
              true
          | _ -> false);
      Hashtbl.replace handles me t)
    nodes;
  { handles }

let handle group ~me = Hashtbl.find group.handles me
