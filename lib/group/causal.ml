open Sim

type Msg.t += Causal_msg of { vc : int array; payload : Msg.t }

let () =
  Msg.register_printer (function
    | Causal_msg { payload; _ } -> Some ("Causal(" ^ Msg.name payload ^ ")")
    | _ -> None)

type t = {
  rb : Rbcast.t;
  me_idx : int;
  index_of : (int, int) Hashtbl.t; (* member id -> vector index *)
  vc : int array; (* vc.(i) = messages delivered from member i *)
  mutable pending : (int * int array * Msg.t) list; (* origin, vc, payload *)
  mutable deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
}

type group = { handles : (int, t) Hashtbl.t }

let broadcast t msg =
  let vc = Array.copy t.vc in
  vc.(t.me_idx) <- vc.(t.me_idx) + 1;
  Rbcast.broadcast t.rb (Causal_msg { vc; payload = msg })

let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]
let clock t = Array.copy t.vc

let deliverable t ~origin_idx vc =
  let ok = ref (vc.(origin_idx) = t.vc.(origin_idx) + 1) in
  Array.iteri
    (fun i v -> if i <> origin_idx && v > t.vc.(i) then ok := false)
    vc;
  !ok

let rec drain t =
  let progressed = ref false in
  let still_pending =
    List.filter
      (fun (origin, vc, payload) ->
        let origin_idx = Hashtbl.find t.index_of origin in
        if deliverable t ~origin_idx vc then begin
          t.vc.(origin_idx) <- t.vc.(origin_idx) + 1;
          List.iter (fun f -> f ~origin payload) t.deliver_cbs;
          progressed := true;
          false
        end
        else true)
      t.pending
  in
  t.pending <- still_pending;
  if !progressed then drain t

let create_group net ~members ?rto ?passthrough () =
  let rb_group = Rbcast.create_group net ~members ?rto ?passthrough () in
  let n = List.length members in
  let handles = Hashtbl.create 8 in
  List.iteri
    (fun idx me ->
      let rb = Rbcast.handle rb_group ~me in
      let index_of = Hashtbl.create 8 in
      List.iteri (fun i m -> Hashtbl.replace index_of m i) members;
      let t =
        {
          rb;
          me_idx = idx;
          index_of;
          vc = Array.make n 0;
          pending = [];
          deliver_cbs = [];
        }
      in
      Rbcast.on_deliver rb (fun ~origin msg ->
          match msg with
          | Causal_msg { vc; payload } ->
              t.pending <- t.pending @ [ (origin, vc, payload) ];
              drain t
          | _ -> ());
      Hashtbl.replace handles me t)
    members;
  { handles }

let handle group ~me = Hashtbl.find group.handles me
