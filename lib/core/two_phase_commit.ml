open Sim

type decision = Commit | Abort

type Msg.t +=
  | Prepare of { txn : int; coordinator : int }
  | Vote of { txn : int; from : int; yes : bool }
  | Decision of { txn : int; decision : decision }
  | Decision_req of { txn : int; from : int }

type round = {
  participants : int list;
  mutable yes_votes : int list;
  mutable decided : decision option;
  on_complete : decision -> unit;
  timeout_timer : Engine.timer option;
}

type t = {
  me : int;
  chan : Group.Rchan.t;
  vote : me:int -> txn:int -> bool;
  learn : me:int -> txn:int -> decision -> unit;
  rounds : (int, round) Hashtbl.t; (* coordinator-side, by txn *)
  learned : (int, decision) Hashtbl.t; (* participant-side dedup *)
  prepared : (int, int) Hashtbl.t;
      (* in-doubt participant-side: txn -> coordinator. Voted YES, no
         decision learned yet — drives the termination protocol. *)
}

type group = {
  net : Network.t;
  chan_group : Group.Rchan.group;
  handles : (int, t) Hashtbl.t;
  participant_timeout : Simtime.t option;
  mutable n_commits : int;
  mutable n_aborts : int;
}

let decide group t ~txn round decision =
  if round.decided = None then begin
    round.decided <- Some decision;
    (match round.timeout_timer with Some tm -> Engine.cancel tm | None -> ());
    (match decision with
    | Commit -> group.n_commits <- group.n_commits + 1
    | Abort -> group.n_aborts <- group.n_aborts + 1);
    List.iter
      (fun dst ->
        if dst <> t.me then
          Group.Rchan.send t.chan ~dst (Decision { txn; decision }))
      round.participants;
    (* The coordinator learns synchronously, before [on_complete], so a
       caller that starts dependent work from [on_complete] sees the
       decision's effects already applied locally. *)
    if not (Hashtbl.mem t.learned txn) then begin
      Hashtbl.replace t.learned txn decision;
      Hashtbl.remove t.prepared txn;
      t.learn ~me:t.me ~txn decision
    end;
    round.on_complete decision
  end

let handle_msg group t msg =
  match msg with
  | Prepare { txn; coordinator } ->
      let yes = t.vote ~me:t.me ~txn in
      if yes && not (Hashtbl.mem t.learned txn) then
        Hashtbl.replace t.prepared txn coordinator;
      Group.Rchan.send t.chan ~dst:coordinator (Vote { txn; from = t.me; yes })
  | Vote { txn; from; yes } -> (
      match Hashtbl.find_opt t.rounds txn with
      | None -> ()
      | Some round ->
          if round.decided = None then
            if not yes then decide group t ~txn round Abort
            else begin
              if not (List.mem from round.yes_votes) then
                round.yes_votes <- from :: round.yes_votes;
              if List.length round.yes_votes = List.length round.participants
              then decide group t ~txn round Commit
            end)
  | Decision { txn; decision } ->
      if not (Hashtbl.mem t.learned txn) then begin
        Hashtbl.replace t.learned txn decision;
        Hashtbl.remove t.prepared txn;
        t.learn ~me:t.me ~txn decision
      end
  | Decision_req { txn; from } -> (
      match Hashtbl.find_opt t.learned txn with
      | Some decision ->
          Group.Rchan.send t.chan ~dst:from (Decision { txn; decision })
      | None -> () (* still undecided here; the participant keeps asking *))
  | _ -> ()

let create_group net ~nodes ?participant_timeout ~vote ~learn () =
  let chan_group = Group.Rchan.create_group net ~nodes () in
  let group =
    {
      net;
      chan_group;
      handles = Hashtbl.create 8;
      participant_timeout;
      n_commits = 0;
      n_aborts = 0;
    }
  in
  List.iter
    (fun me ->
      let t =
        {
          me;
          chan = Group.Rchan.handle chan_group ~me;
          vote;
          learn;
          rounds = Hashtbl.create 16;
          learned = Hashtbl.create 16;
          prepared = Hashtbl.create 16;
        }
      in
      (match Network.timeseries net with
      | Some ts ->
          (* In-doubt is healthy only for the round trip between vote
             and decision; a Window series so overruns are findings. *)
          Timeseries.register ts ~name:"tpc_in_doubt" ~replica:me
            ~kind:Timeseries.Window ~unit_:"transactions" (fun () ->
              float_of_int (Hashtbl.length t.prepared))
      | None -> ());
      Group.Rchan.on_deliver t.chan (fun ~src msg ->
          ignore src;
          handle_msg group t msg);
      (* Termination protocol: an in-doubt participant (voted YES, heard
         no decision — e.g. the decision was in flight when a partition
         or crash cut it off) periodically asks the coordinator again.
         Without this, a participant that misses the stubborn channel's
         retry window holds its prepared state forever even after the
         coordinator becomes reachable. *)
      Option.iter
        (fun delay ->
          ignore
            (Engine.periodic (Network.engine net) ~label:"commit:timer" ~every:delay
               (Network.guard net me (fun () ->
                    Hashtbl.iter
                      (fun txn coordinator ->
                        Group.Rchan.send t.chan ~dst:coordinator
                          (Decision_req { txn; from = me }))
                      t.prepared))))
        participant_timeout;
      Hashtbl.replace group.handles me t)
    nodes;
  group

let start group ~coordinator ~participants ~txn ~on_complete =
  let t = Hashtbl.find group.handles coordinator in
  let timeout_timer =
    match group.participant_timeout with
    | None -> None
    | Some delay ->
        Some
          (Engine.schedule (Network.engine group.net) ~label:"commit:timer" ~after:delay (fun () ->
               match Hashtbl.find_opt t.rounds txn with
               | Some round when round.decided = None ->
                   (* Presumed abort: missing votes count as NO. *)
                   decide group t ~txn round Abort
               | _ -> ()))
  in
  let round =
    { participants; yes_votes = []; decided = None; on_complete; timeout_timer }
  in
  Hashtbl.replace t.rounds txn round;
  List.iter
    (fun dst ->
      Group.Rchan.send t.chan ~dst (Prepare { txn; coordinator }))
    participants

let commits group = group.n_commits
let aborts group = group.n_aborts

let in_doubt group ~me =
  match Hashtbl.find_opt group.handles me with
  | Some t -> Hashtbl.fold (fun txn _ acc -> txn :: acc) t.prepared []
  | None -> []
