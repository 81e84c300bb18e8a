open Sim

type Msg.t += Fifo_msg of { fseq : int; payload : Msg.t }

let () =
  Msg.register_printer (function
    | Fifo_msg { payload; _ } -> Some ("Fifo(" ^ Msg.name payload ^ ")")
    | _ -> None)

type t = {
  rb : Rbcast.t;
  mutable next_send : int;
  nodes : int; (* endpoints of the network: origins are [0 .. nodes-1] *)
  expected : int array; (* origin -> next fseq to deliver *)
  holdback : Msg.t Int_table.t; (* fseq * nodes + origin -> payload *)
  mutable deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
}

type group = { handles : (int, t) Hashtbl.t }

let broadcast t msg =
  let fseq = t.next_send in
  t.next_send <- t.next_send + 1;
  Rbcast.broadcast t.rb (Fifo_msg { fseq; payload = msg })

let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]

let rec drain t origin =
  let key = (t.expected.(origin) * t.nodes) + origin in
  match Int_table.find_opt t.holdback key with
  | None -> ()
  | Some payload ->
      Int_table.remove t.holdback key;
      t.expected.(origin) <- t.expected.(origin) + 1;
      List.iter (fun f -> f ~origin payload) t.deliver_cbs;
      drain t origin

let create_group net ~members ?rto ?passthrough () =
  let rb_group = Rbcast.create_group net ~members ?rto ?passthrough () in
  let handles = Hashtbl.create 8 in
  let nodes = Network.size net in
  List.iter
    (fun me ->
      let rb = Rbcast.handle rb_group ~me in
      let t =
        {
          rb;
          next_send = 0;
          nodes;
          expected = Array.make nodes 0;
          holdback = Int_table.create 32;
          deliver_cbs = [];
        }
      in
      Rbcast.on_deliver rb (fun ~origin msg ->
          match msg with
          | Fifo_msg { fseq; payload } ->
              Int_table.replace t.holdback ((fseq * t.nodes) + origin) payload;
              drain t origin
          | _ -> ());
      Hashtbl.replace handles me t)
    members;
  { handles }

let handle group ~me = Hashtbl.find group.handles me
