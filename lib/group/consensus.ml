open Sim

module Iset = Set.Make (Int)

module Make (V : sig
  type t
end) =
struct
  type Msg.t +=
    | Est of { inst : int; round : int; est : V.t option; ts : int; from : int }
    | Proposal of { inst : int; round : int; v : V.t }
    | Reply of { inst : int; round : int; from : int; ok : bool }
    | Abort of { inst : int; round : int }
    | Decide of { inst : int; v : V.t }

  (* Disambiguate from other layers' like-named constructors (the client
     reply in Protocols.Common is also "Reply"). *)
  let () =
    Msg.leaf [%extension_constructor Est] "Cons_est";
    Msg.leaf [%extension_constructor Proposal] "Cons_proposal";
    Msg.leaf [%extension_constructor Reply] "Cons_reply";
    Msg.leaf [%extension_constructor Abort] "Cons_abort";
    Msg.leaf [%extension_constructor Decide] "Cons_decide"

  type inst = {
    id : int;
    mutable est : V.t option;
    mutable ts : int;
    mutable round : int; (* -1 until started *)
    mutable decided : V.t option;
    (* Coordinator-side per-round bookkeeping. *)
    estimates : (int, (int, V.t option * int) Hashtbl.t) Hashtbl.t;
    proposals : (int, V.t) Hashtbl.t;
    replies : (int, Iset.t ref * Iset.t ref) Hashtbl.t; (* acks, nacks *)
    mutable aborted : Iset.t; (* rounds this coordinator gave up on *)
  }

  type t = {
    net : Network.t;
    me : int;
    members : int array;
    majority : int;
    fd : Fd.t;
    chan : Rchan.t;
    insts : (int, inst) Hashtbl.t;
    mutable decide_cbs : (instance:int -> V.t -> unit) list; (* in order *)
  }

  type group = { handles : (int, t) Hashtbl.t }

  let coord t round = t.members.(round mod Array.length t.members)

  let get_inst t id =
    match Hashtbl.find_opt t.insts id with
    | Some inst -> inst
    | None ->
        let inst =
          {
            id;
            est = None;
            ts = 0;
            round = -1;
            decided = None;
            estimates = Hashtbl.create 4;
            proposals = Hashtbl.create 4;
            replies = Hashtbl.create 4;
            aborted = Iset.empty;
          }
        in
        Hashtbl.replace t.insts id inst;
        inst

  let round_estimates inst round =
    match Hashtbl.find_opt inst.estimates round with
    | Some tbl -> tbl
    | None ->
        let tbl = Hashtbl.create 8 in
        Hashtbl.replace inst.estimates round tbl;
        tbl

  let round_replies inst round =
    match Hashtbl.find_opt inst.replies round with
    | Some pair -> pair
    | None ->
        let pair = (ref Iset.empty, ref Iset.empty) in
        Hashtbl.replace inst.replies round pair;
        pair

  let mcast_members t msg =
    Array.iter (fun dst -> Rchan.send t.chan ~dst msg) t.members

  let decide t inst v =
    if inst.decided = None then begin
      inst.decided <- Some v;
      (* Relay so a coordinator crash mid-multicast cannot leave survivors
         undecided. *)
      mcast_members t (Decide { inst = inst.id; v });
      List.iter (fun f -> f ~instance:inst.id v) t.decide_cbs
    end

  (* As coordinator of [round], propose once a majority of estimates
     including at least one real value has arrived. *)
  let try_propose t inst round =
    if
      inst.decided = None
      && coord t round = t.me
      && (not (Hashtbl.mem inst.proposals round))
      && not (Iset.mem round inst.aborted)
    then begin
      let tbl = round_estimates inst round in
      if Hashtbl.length tbl >= t.majority then begin
        let best = ref None in
        Hashtbl.iter
          (fun _ (est, ts) ->
            match est with
            | None -> ()
            | Some v -> (
                match !best with
                | Some (_, best_ts) when best_ts >= ts -> ()
                | _ -> best := Some (v, ts)))
          tbl;
        match !best with
        | None -> () (* nobody proposed anything yet; wait *)
        | Some (v, _) ->
            Hashtbl.replace inst.proposals round v;
            mcast_members t (Proposal { inst = inst.id; round; v })
      end
    end

  let send_estimate t inst =
    let dst = coord t inst.round in
    if dst = t.me then begin
      (* Record our own estimate directly. *)
      let tbl = round_estimates inst inst.round in
      Hashtbl.replace tbl t.me (inst.est, inst.ts);
      try_propose t inst inst.round
    end
    else
      Rchan.send t.chan ~dst
        (Est
           {
             inst = inst.id;
             round = inst.round;
             est = inst.est;
             ts = inst.ts;
             from = t.me;
           })

  let start_round t inst round =
    if inst.decided = None && round > inst.round then begin
      inst.round <- round;
      send_estimate t inst
    end

  let propose t ~instance v =
    let inst = get_inst t instance in
    if inst.est = None then begin
      inst.est <- Some v;
      inst.ts <- 0
    end;
    if inst.round < 0 then start_round t inst 0
    else
      (* Already participating with est = None: refresh the coordinator. *)
      send_estimate t inst

  let participate t ~instance =
    let inst = get_inst t instance in
    if inst.round < 0 && inst.decided = None then start_round t inst 0

  let on_decide t f = t.decide_cbs <- t.decide_cbs @ [ f ]

  let decision t ~instance =
    match Hashtbl.find_opt t.insts instance with
    | None -> None
    | Some inst -> inst.decided

  (* Give up on blocked undecided instances whose coordinator is suspected. *)
  let poll t =
    Hashtbl.iter
      (fun _ inst ->
        if inst.decided = None && inst.round >= 0 then
          let c = coord t inst.round in
          if c <> t.me && Fd.suspected t.fd c then
            start_round t inst (inst.round + 1))
      t.insts

  let handle_msg t msg =
    match msg with
    | Est { inst = id; round; est; ts; from } ->
        let inst = get_inst t id in
        (* A participant asking about an already-decided instance is a
           recovering process: tell it the outcome. *)
        (match inst.decided with
        | Some v ->
            Rchan.send t.chan ~dst:from (Decide { inst = id; v })
        | None -> ());
        if inst.decided = None then begin
          if inst.round < 0 then inst.round <- 0;
          let tbl = round_estimates inst round in
          Hashtbl.replace tbl from (est, ts);
          (* A higher round from a peer means earlier rounds failed. *)
          if round > inst.round then begin
            inst.round <- round;
            send_estimate t inst
          end;
          try_propose t inst round
        end
    | Proposal { inst = id; round; v } ->
        let inst = get_inst t id in
        if inst.decided = None && round >= inst.round then begin
          inst.round <- round;
          inst.est <- Some v;
          inst.ts <- round;
          Rchan.send t.chan ~dst:(coord t round)
            (Reply { inst = id; round; from = t.me; ok = true })
        end
        else if inst.decided = None then
          (* Stale proposal: tell the old coordinator to give up. *)
          Rchan.send t.chan ~dst:(coord t round)
            (Reply { inst = id; round; from = t.me; ok = false })
    | Reply { inst = id; round; from; ok } ->
        let inst = get_inst t id in
        if inst.decided = None && coord t round = t.me then begin
          let acks, nacks = round_replies inst round in
          if ok then acks := Iset.add from !acks else nacks := Iset.add from !nacks;
          if Iset.cardinal !acks >= t.majority then
            match Hashtbl.find_opt inst.proposals round with
            | Some v -> decide t inst v
            | None -> ()
          else if
            Array.length t.members - Iset.cardinal !nacks < t.majority
            && not (Iset.mem round inst.aborted)
          then begin
            inst.aborted <- Iset.add round inst.aborted;
            mcast_members t (Abort { inst = id; round })
          end
        end
    | Abort { inst = id; round } ->
        let inst = get_inst t id in
        if inst.decided = None && inst.round = round then
          start_round t inst (round + 1)
    | Decide { inst = id; v } ->
        let inst = get_inst t id in
        if inst.decided = None then begin
          inst.decided <- Some v;
          mcast_members t (Decide { inst = id; v });
          List.iter (fun f -> f ~instance:id v) t.decide_cbs
        end
    | _ -> ()

  let create_group net ~members ~fd ?rto () =
    let chan_group = Rchan.create_group net ~nodes:members ?rto () in
    let handles = Hashtbl.create 8 in
    let n = List.length members in
    List.iter
      (fun me ->
        let t =
          {
            net;
            me;
            members = Array.of_list members;
            majority = (n / 2) + 1;
            fd = Fd.handle fd ~me;
            chan = Rchan.handle chan_group ~me;
            insts = Hashtbl.create 16;
            decide_cbs = [];
          }
        in
        (match Network.timeseries net with
        | Some ts ->
            Timeseries.register ts ~name:"consensus_open" ~replica:me
              ~kind:Timeseries.Queue ~unit_:"instances" (fun () ->
                float_of_int
                  (Hashtbl.fold
                     (fun _ inst acc ->
                       if inst.decided = None then acc + 1 else acc)
                     t.insts 0))
        | None -> ());
        Rchan.on_deliver t.chan (fun ~src msg ->
            ignore src;
            handle_msg t msg);
        ignore
          (Engine.periodic (Network.engine net) ~label:"consensus:poll"
             ~every:(Simtime.of_ms 25)
             (Network.guard net me (fun () -> poll t)));
        Hashtbl.replace handles me t)
      members;
    { handles }

  let handle group ~me = Hashtbl.find group.handles me
end
