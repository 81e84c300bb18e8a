open Sim

type decision = Commit | Abort

(* Participant's view of a transaction's progress. *)
type state =
  | Uncertain (* voted yes, pre-commit not yet seen *)
  | Precommitted
  | Done of decision

type Msg.t +=
  | Can_commit of {
      txn : int;
      coordinator : int;
      participants : int list;
    }
  | Vote3 of { txn : int; from : int; yes : bool }
  | Pre_commit of { txn : int }
  | Pre_ack of { txn : int; from : int }
  | Do_decide of { txn : int; decision : decision }
  | State_req of { txn : int; from : int }
  | State_rsp of { txn : int; from : int; state : state }

type round = {
  participants : int list;
  mutable yes_votes : int list;
  mutable pre_acks : int list;
  mutable decided : decision option;
  on_complete : decision -> unit;
}

type t = {
  me : int;
  net : Network.t;
  chan : Group.Rchan.t;
  fd : Group.Fd.t;
  vote : me:int -> txn:int -> bool;
  learn : me:int -> txn:int -> decision -> unit;
  rounds : (int, round) Hashtbl.t; (* coordinator side *)
  states : (int, state) Hashtbl.t; (* participant side *)
  coordinator_of : (int, int) Hashtbl.t;
  participants_of : (int, int list) Hashtbl.t;
  recovery_states : (int, (int * state) list ref) Hashtbl.t;
  recovering : (int, unit) Hashtbl.t;
}

type group = {
  handles : (int, t) Hashtbl.t;
  mutable n_commits : int;
  mutable n_aborts : int;
}

let learn_decision t ~txn decision =
  match Hashtbl.find_opt t.states txn with
  | Some (Done _) -> ()
  | _ ->
      Hashtbl.replace t.states txn (Done decision);
      t.learn ~me:t.me ~txn decision

let set_decided group t ~txn round decision =
  if round.decided = None then begin
    round.decided <- Some decision;
    (match decision with
    | Commit -> group.n_commits <- group.n_commits + 1
    | Abort -> group.n_aborts <- group.n_aborts + 1);
    List.iter
      (fun dst ->
        if dst <> t.me then
          Group.Rchan.send t.chan ~dst (Do_decide { txn; decision }))
      round.participants;
    learn_decision t ~txn decision;
    round.on_complete decision
  end

(* Recovery coordinator: poll survivor states and terminate the protocol
   (the non-blocking termination rule). *)
let try_finish_recovery group t ~txn =
  match Hashtbl.find_opt t.recovery_states txn with
  | None -> ()
  | Some collected ->
      let participants =
        Option.value ~default:[] (Hashtbl.find_opt t.participants_of txn)
      in
      let expected =
        List.filter
          (fun p -> p = t.me || not (Group.Fd.suspected t.fd p))
          participants
      in
      if List.for_all (fun p -> List.mem_assoc p !collected) expected then begin
        let decision =
          if
            List.exists
              (fun (_, s) -> s = Precommitted || s = Done Commit)
              !collected
          then Commit
          else Abort
        in
        Hashtbl.remove t.recovery_states txn;
        (match decision with
        | Commit -> group.n_commits <- group.n_commits + 1
        | Abort -> group.n_aborts <- group.n_aborts + 1);
        learn_decision t ~txn decision;
        List.iter
          (fun dst ->
            if dst <> t.me then
              Group.Rchan.send t.chan ~dst (Do_decide { txn; decision }))
          participants
      end

let start_recovery t ~txn =
  if not (Hashtbl.mem t.recovering txn) then begin
    Hashtbl.replace t.recovering txn ();
    let participants =
      Option.value ~default:[] (Hashtbl.find_opt t.participants_of txn)
    in
    Hashtbl.replace t.recovery_states txn
      (ref
         [
           ( t.me,
             Option.value ~default:Uncertain (Hashtbl.find_opt t.states txn) );
         ]);
    List.iter
      (fun dst ->
        if dst <> t.me then
          Group.Rchan.send t.chan ~dst (State_req { txn; from = t.me }))
      participants
  end

(* Periodic non-blocking termination check at every participant. *)
let poll group t =
  Hashtbl.iter
    (fun txn state ->
      match state with
      | Done _ -> ()
      | Uncertain | Precommitted -> (
          match Hashtbl.find_opt t.coordinator_of txn with
          | Some coordinator when Group.Fd.suspected t.fd coordinator ->
              (* Elect: the lowest unsuspected participant recovers. *)
              let participants =
                Option.value ~default:[]
                  (Hashtbl.find_opt t.participants_of txn)
              in
              let electable =
                List.filter
                  (fun p -> p = t.me || not (Group.Fd.suspected t.fd p))
                  participants
              in
              (match electable with
              | leader :: _ when leader = t.me ->
                  start_recovery t ~txn;
                  try_finish_recovery group t ~txn
              | _ -> ())
          | _ -> ()))
    (Hashtbl.copy t.states)

let handle_msg group t msg =
  match msg with
  | Can_commit { txn; coordinator; participants } ->
      Hashtbl.replace t.coordinator_of txn coordinator;
      Hashtbl.replace t.participants_of txn participants;
      if not (Hashtbl.mem t.states txn) then begin
        let yes = t.vote ~me:t.me ~txn in
        if yes then Hashtbl.replace t.states txn Uncertain
        else begin
          Hashtbl.replace t.states txn (Done Abort);
          t.learn ~me:t.me ~txn Abort
        end;
        Group.Rchan.send t.chan ~dst:coordinator
          (Vote3 { txn; from = t.me; yes })
      end
  | Vote3 { txn; from; yes } -> (
      match Hashtbl.find_opt t.rounds txn with
      | None -> ()
      | Some round ->
          if round.decided = None then
            if not yes then set_decided group t ~txn round Abort
            else begin
              if not (List.mem from round.yes_votes) then
                round.yes_votes <- from :: round.yes_votes;
              let needed =
                List.filter
                  (fun p -> p = t.me || not (Group.Fd.suspected t.fd p))
                  round.participants
              in
              if List.for_all (fun p -> List.mem p round.yes_votes) needed
              then
                (* Including ourselves: the coordinator is a participant
                   too, and its own pre-ack counts. *)
                List.iter
                  (fun dst ->
                    Group.Rchan.send t.chan ~dst (Pre_commit { txn }))
                  round.participants
            end)
  | Pre_commit { txn } ->
      (match Hashtbl.find_opt t.states txn with
      | Some Uncertain -> Hashtbl.replace t.states txn Precommitted
      | _ -> ());
      (match Hashtbl.find_opt t.coordinator_of txn with
      | Some coordinator ->
          Group.Rchan.send t.chan ~dst:coordinator
            (Pre_ack { txn; from = t.me })
      | None -> ())
  | Pre_ack { txn; from } -> (
      match Hashtbl.find_opt t.rounds txn with
      | None -> ()
      | Some round ->
          if round.decided = None then begin
            if not (List.mem from round.pre_acks) then
              round.pre_acks <- from :: round.pre_acks;
            let needed =
              List.filter
                (fun p -> p = t.me || not (Group.Fd.suspected t.fd p))
                round.participants
            in
            if List.for_all (fun p -> List.mem p round.pre_acks) needed then
              set_decided group t ~txn round Commit
          end)
  | Do_decide { txn; decision } ->
      learn_decision t ~txn decision
  | State_req { txn; from } ->
      let state =
        Option.value ~default:Uncertain (Hashtbl.find_opt t.states txn)
      in
      Group.Rchan.send t.chan ~dst:from (State_rsp { txn; from = t.me; state })
  | State_rsp { txn; from; state } -> (
      match Hashtbl.find_opt t.recovery_states txn with
      | None -> ()
      | Some collected ->
          if not (List.mem_assoc from !collected) then
            collected := (from, state) :: !collected;
          try_finish_recovery group t ~txn)
  | _ -> ()

let create_group net ~nodes ?fd ?rto ?passthrough
    ?(decision_timeout = Simtime.of_ms 150) ~vote ~learn () =
  let fd_group =
    match fd with Some g -> g | None -> Group.Fd.create_group net ~members:nodes ()
  in
  let chan_group = Group.Rchan.create_group net ~nodes ?rto ?passthrough () in
  let group =
    { handles = Hashtbl.create 8; n_commits = 0; n_aborts = 0 }
  in
  List.iter
    (fun me ->
      let t =
        {
          me;
          net;
          chan = Group.Rchan.handle chan_group ~me;
          fd = Group.Fd.handle fd_group ~me;
          vote;
          learn;
          rounds = Hashtbl.create 16;
          states = Hashtbl.create 16;
          coordinator_of = Hashtbl.create 16;
          participants_of = Hashtbl.create 16;
          recovery_states = Hashtbl.create 4;
          recovering = Hashtbl.create 4;
        }
      in
      Group.Rchan.on_deliver t.chan (fun ~src msg ->
          ignore src;
          handle_msg group t msg);
      ignore
        (Engine.periodic (Network.engine net) ~label:"commit:timer" ~every:decision_timeout
           (Network.guard net me (fun () -> poll group t)));
      Hashtbl.replace group.handles me t)
    nodes;
  group

let start group ~coordinator ~participants ~txn ~on_complete =
  let t = Hashtbl.find group.handles coordinator in
  Hashtbl.replace t.rounds txn
    { participants; yes_votes = []; pre_acks = []; decided = None; on_complete };
  Hashtbl.replace t.participants_of txn participants;
  List.iter
    (fun p ->
      Group.Rchan.send t.chan ~dst:p
        (Can_commit { txn; coordinator; participants }))
    participants

let commits group = group.n_commits
let aborts group = group.n_aborts
