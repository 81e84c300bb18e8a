open Sim

module Iset = Set.Make (Int)

type Msg.t += Heartbeat of { gid : int; from : int }

type t = {
  net : Network.t;
  gid : int;
  me : int;
  members : int list;
  timeout : Simtime.t;
  last_heard : (int, Simtime.t) Hashtbl.t;
  mutable suspects : Iset.t;
  mutable suspect_cbs : (int -> unit) list;
  mutable trust_cbs : (int -> unit) list;
}

type group = { g_members : int list; handles : (int, t) Hashtbl.t }

let now t = Engine.now (Network.engine t.net)

let hear t peer =
  Hashtbl.replace t.last_heard peer (now t);
  if Iset.mem peer t.suspects then begin
    t.suspects <- Iset.remove peer t.suspects;
    List.iter (fun f -> f peer) t.trust_cbs
  end

let check t =
  let horizon = Simtime.sub (now t) t.timeout in
  List.iter
    (fun peer ->
      if peer <> t.me && not (Iset.mem peer t.suspects) then
        match Hashtbl.find_opt t.last_heard peer with
        | Some last when Simtime.(last >= horizon) -> ()
        | _ ->
            t.suspects <- Iset.add peer t.suspects;
            List.iter (fun f -> f peer) t.suspect_cbs)
    t.members

let create_member net ~gid ~members ~heartbeat_every ~timeout me =
  let t =
    {
      net;
      gid;
      me;
      members;
      timeout;
      last_heard = Hashtbl.create 8;
      suspects = Iset.empty;
      suspect_cbs = [];
      trust_cbs = [];
    }
  in
  let engine = Network.engine net in
  List.iter
    (fun peer ->
      if peer <> me then Hashtbl.replace t.last_heard peer (Engine.now engine))
    members;
  Network.add_handler net me (fun ~src msg ->
      match msg with
      | Heartbeat { gid = g; from } when g = gid ->
          ignore src;
          hear t from;
          true
      | _ -> false);
  let beat () =
    List.iter
      (fun peer ->
        if peer <> me then
          Network.send net ~src:me ~dst:peer (Heartbeat { gid; from = me }))
      members
  in
  ignore (Engine.periodic engine ~label:"fd:heartbeat" ~every:heartbeat_every (Network.guard net me beat));
  ignore
    (Engine.periodic engine ~label:"fd:check" ~every:heartbeat_every
       (Network.guard net me (fun () -> check t)));
  (* Recovery voids the detector's timing assumptions: every peer looks
     silent for the whole outage. Restart the deadlines and trust everyone
     until a fresh [timeout] elapses, so a recovering node does not act on
     an epoch of universal (and almost surely wrong) suspicion. *)
  Network.on_recover net (fun node ->
      if node = me then begin
        List.iter
          (fun peer ->
            if peer <> me then Hashtbl.replace t.last_heard peer (now t))
          members;
        let frozen = t.suspects in
        t.suspects <- Iset.empty;
        Iset.iter (fun peer -> List.iter (fun f -> f peer) t.trust_cbs) frozen
      end);
  t

let create_group net ~members ?(heartbeat_every = Simtime.of_ms 20)
    ?(timeout = Simtime.of_ms 100) () =
  let gid = Network.fresh_id net in
  let handles = Hashtbl.create 8 in
  List.iter
    (fun me ->
      Hashtbl.replace handles me
        (create_member net ~gid ~members ~heartbeat_every ~timeout me))
    members;
  { g_members = members; handles }

let handle group ~me = Hashtbl.find group.handles me
let me t = t.me
let members t = t.members
let suspected t peer = Iset.mem peer t.suspects
let trusted t = List.filter (fun p -> not (Iset.mem p t.suspects)) t.members
let on_suspect t f = t.suspect_cbs <- f :: t.suspect_cbs
let on_trust t f = t.trust_cbs <- f :: t.trust_cbs
