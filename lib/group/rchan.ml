open Sim

type Msg.t +=
  | Data of { gid : int; src : int; seq : int; payload : Msg.t }
  | Ack of { gid : int; seq : int }

let () =
  Msg.register_printer (function
    | Data { payload; _ } -> Some ("Data(" ^ Msg.name payload ^ ")")
    | Ack _ -> Some "Ack"
    | _ -> None)

(* A sent message still waiting for its ack: the packet, where it goes,
   how many retransmits it has spent, and the armed retransmit timer. *)
type unacked = {
  packet : Msg.t;
  dst : int;
  mutable retries : int;
  mutable timer : Engine.timer;
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
  (* Receiver side: the per-origin seqs delivered so far. *)
  seen : Dedup.t;
  mutable deliver_cbs : (src:int -> Msg.t -> unit) list; (* in order *)
}

type group = { handles : (int, t) Hashtbl.t }

let next_gid = ref 0
let link_key t seq peer = (seq * t.nodes) + peer

let deliver t ~src payload = List.iter (fun f -> f ~src payload) t.deliver_cbs

(* The retransmit timer of the message keyed [key]. Like a
   [Network.guard]ed timer it does nothing while we are crashed, which
   ends the chain. *)
let rec retransmit t key () =
  if Network.alive t.net t.me then
    match Int_table.find_opt t.unacked key with
    | Some u when u.retries < t.max_retries ->
        u.retries <- u.retries + 1;
        Network.send t.net ~src:t.me ~dst:u.dst u.packet;
        u.timer <- arm t key
    | _ -> ()

and arm t key =
  Engine.schedule (Network.engine t.net) ~label:"rchan:retransmit" ~after:t.rto
    (retransmit t key)

let send t ~dst msg =
  let seq = t.next_seq.(dst) in
  t.next_seq.(dst) <- seq + 1;
  let packet = Data { gid = t.gid; src = t.me; seq; payload = msg } in
  Network.send t.net ~src:t.me ~dst packet;
  if not t.passthrough then begin
    let key = link_key t seq dst in
    Int_table.replace t.unacked key { packet; dst; retries = 0; timer = arm t key }
  end

let mcast t ~dsts msg = List.iter (fun dst -> send t ~dst msg) dsts
let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]

let create_group net ~nodes ?(rto = Simtime.of_ms 10) ?(max_retries = 100)
    ?(passthrough = false) () =
  incr next_gid;
  let gid = !next_gid in
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
          passthrough;
          next_seq = Array.make size 0;
          unacked = Int_table.create 32;
          seen = Dedup.create ~nodes:size;
          deliver_cbs = [];
        }
      in
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
              | Some u ->
                  Engine.cancel u.timer;
                  Int_table.remove t.unacked key
              | None -> ());
              true
          | _ -> false);
      Hashtbl.replace handles me t)
    nodes;
  { handles }

let handle group ~me = Hashtbl.find group.handles me
