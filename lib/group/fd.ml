open Sim

module Iset = Set.Make (Int)

type Msg.t += Fd_ping of { gid : int } | Fd_pong of { gid : int }

type t = {
  net : Network.t;
  gid : int;
  me : int;
  members : int list;
  heartbeat_every : Simtime.t;
  timeout : Simtime.t;
  (* By node id: when we last heard from the peer (or began waiting on
     it, if later), and how many waiters wait on it. *)
  heard : Simtime.t array;
  waited : int array;
  mutable probe : unit -> unit; (* arms the probe timer while waits are open *)
  mutable suspects : Iset.t;
  mutable suspect_cbs : (int -> unit) list;
  mutable trust_cbs : (int -> unit) list;
}

and waiter = { fd : t; mutable on : int list }

type group = { handles : (int, t) Hashtbl.t }

let now t = Engine.now (Network.engine t.net)
let peer t p = p <> t.me && p < Array.length t.waited && List.mem p t.members

let trust t peer =
  if Iset.mem peer t.suspects then begin
    t.suspects <- Iset.remove peer t.suspects;
    List.iter (fun f -> f peer) t.trust_cbs
  end

(* One probe: a waited-on peer silent for [timeout] is suspected, and
   one silent for [heartbeat_every] gets a ping, suspected or not, so a
   suspect that is up is heard from again. Peers that went silent
   together are suspected together: once one is, so is every waited-on
   peer that the next probe would suspect, lest a member cut off from
   all its peers count the others as live for one more probe. *)
let probe t () =
  let now = now t in
  let silent p = Simtime.sub now t.heard.(p) in
  let waited p = p <> t.me && t.waited.(p) > 0 in
  let timeout =
    if
      List.exists
        (fun p ->
          waited p && Simtime.(silent p >= t.timeout)
          && not (Iset.mem p t.suspects))
        t.members
    then Simtime.sub t.timeout t.heartbeat_every
    else t.timeout
  in
  List.iter
    (fun p ->
      if waited p then begin
        let silent = silent p in
        if Simtime.(silent >= timeout) && not (Iset.mem p t.suspects)
        then begin
          t.suspects <- Iset.add p t.suspects;
          List.iter (fun f -> f p) t.suspect_cbs
        end;
        if Simtime.(silent >= t.heartbeat_every) then
          Network.send t.net ~src:t.me ~dst:p (Fd_ping { gid = t.gid })
      end)
    t.members

let waiter fd = { fd; on = [] }

(* A peer's first wait restarts its silence clock. *)
let open_wait t p =
  if t.waited.(p) = 0 then t.heard.(p) <- Simtime.max t.heard.(p) (now t);
  t.waited.(p) <- t.waited.(p) + 1

(* The new waits are counted before the old ones are dropped, so a peer
   in both stays waited on and its silence clock keeps running. *)
let wait w peers =
  if not (List.equal Int.equal peers w.on) then begin
    let t = w.fd in
    List.iter (fun p -> if peer t p then open_wait t p) peers;
    List.iter (fun p -> if peer t p then t.waited.(p) <- t.waited.(p) - 1) w.on;
    w.on <- peers;
    t.probe ()
  end

let poller t ~label ~every ~busy ~waits f =
  let w = waiter t in
  Network.poller t.net t.me ~label ~every
    ~busy:(fun () ->
      let busy = busy () in
      wait w (if busy then waits () else []);
      busy)
    f

let hear t src =
  if src <> t.me && src < Array.length t.heard then begin
    t.heard.(src) <- now t;
    trust t src
  end

let create_member net ~gid ~members ~heartbeat_every ~timeout me =
  let size = 1 + List.fold_left max 0 members in
  let t =
    {
      net;
      gid;
      me;
      members;
      heartbeat_every;
      timeout;
      heard = Array.make size Simtime.zero;
      waited = Array.make size 0;
      probe = ignore;
      suspects = Iset.empty;
      suspect_cbs = [];
      trust_cbs = [];
    }
  in
  t.probe <-
    Network.poller net me ~label:"fd:check" ~every:heartbeat_every
      ~busy:(fun () -> Array.exists (fun n -> n > 0) t.waited)
      (probe t);
  Network.on_hear net me (hear t);
  Network.add_handler net me (fun ~src msg ->
      match msg with
      | Fd_ping { gid = g } when g = gid ->
          Network.send net ~src:me ~dst:src (Fd_pong { gid });
          true
      | Fd_pong { gid = g } -> g = gid
      | _ -> false);
  (* Recovery voids the detector's timing assumptions: every peer looks
     silent for the whole outage. Restart the silence clocks and trust
     everyone until a fresh [timeout] elapses, so a recovering node does
     not act on an epoch of universal (and almost surely wrong)
     suspicion; ping every peer once, so those that suspected us while
     waiting on us hear that we are back. *)
  Network.on_recover net (fun node ->
      if node = me then begin
        List.iter
          (fun p ->
            if p <> me then begin
              t.heard.(p) <- now t;
              Network.send net ~src:me ~dst:p (Fd_ping { gid })
            end)
          members;
        Iset.iter (trust t) t.suspects;
        t.probe ()
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
  { handles }

let handle group ~me = Hashtbl.find group.handles me
let me t = t.me
let members t = t.members
let suspected t peer = Iset.mem peer t.suspects
let trusted t = List.filter (fun p -> not (Iset.mem p t.suspects)) t.members
let on_suspect t f = t.suspect_cbs <- f :: t.suspect_cbs
let on_trust t f = t.trust_cbs <- f :: t.trust_cbs
