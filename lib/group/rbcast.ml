open Sim

type Msg.t += Rb of { gid : int; origin : int; seq : int; payload : Msg.t }

let () =
  Msg.register_printer (function
    | Rb { payload; _ } -> Some ("Rb(" ^ Msg.name payload ^ ")")
    | _ -> None)

type t = {
  gid : int;
  me : int;
  others : int list; (* the members but [me]: relay destinations *)
  chan : Rchan.t;
  mutable next_seq : int;
  seen : Dedup.t; (* (origin, seq) already delivered *)
  mutable deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
}

type group = { handles : (int, t) Hashtbl.t }

let next_gid = ref 0

let deliver_local t ~origin ~seq payload =
  if Dedup.fresh t.seen ~origin ~seq then begin
    (* Relay before delivering: if this member crashes mid-protocol the
       relayed copies preserve agreement among the survivors. *)
    Rchan.mcast t.chan ~dsts:t.others
      (Rb { gid = t.gid; origin; seq; payload });
    List.iter (fun f -> f ~origin payload) t.deliver_cbs
  end

let broadcast t msg =
  let seq = t.next_seq in
  t.next_seq <- t.next_seq + 1;
  deliver_local t ~origin:t.me ~seq msg

let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]
let last_seq t = t.next_seq - 1

let create_group net ~members ?rto ?passthrough () =
  incr next_gid;
  let gid = !next_gid in
  let chan_group = Rchan.create_group net ~nodes:members ?rto ?passthrough () in
  let handles = Hashtbl.create 8 in
  List.iter
    (fun me ->
      let chan = Rchan.handle chan_group ~me in
      let t =
        {
          gid;
          me;
          others = List.filter (fun p -> p <> me) members;
          chan;
          next_seq = 0;
          seen = Dedup.create ~nodes:(Network.size net);
          deliver_cbs = [];
        }
      in
      (* [seen] counts every message ever delivered, not a backlog — a
         Level, so the queue-growth detector ignores it. *)
      (match Network.timeseries net with
      | Some ts ->
          Timeseries.register ts ~name:"rbcast_seen" ~replica:me
            ~kind:Timeseries.Level ~unit_:"messages" (fun () ->
              float_of_int (Dedup.count t.seen))
      | None -> ());
      Rchan.on_deliver chan (fun ~src msg ->
          ignore src;
          match msg with
          | Rb { gid = g; origin; seq; payload } when g = gid ->
              deliver_local t ~origin ~seq payload
          | _ -> ());
      Hashtbl.replace handles me t)
    members;
  { handles }

let handle group ~me = Hashtbl.find group.handles me
