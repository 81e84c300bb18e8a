open Sim

type Msg.t +=
  | Lreq of { client : int; request : Store.Operation.request }
  | Lock_req of {
      rid : int;
      op_index : int;
      keys : (Store.Operation.key * Store.Lock_table.mode) list;
      delegate : int;
      missed : int list; (* the replicas the delegate runs [rid] without *)
    }
  | Lock_grant of {
      rid : int;
      op_index : int;
      from : int;
      copies : (Store.Operation.key * (int * int)) list;
          (* current (value, version) of the locked items at [from] —
             quorum mode reads the freshest copy among the grants *)
    }
  | Lock_refuse of { rid : int; from : int }
  | Exec of {
      rid : int;
      op_index : int;
      op : Store.Operation.op;
      delegate : int;
      missed : int list;
    }
  | Exec_ack of { rid : int; op_index : int; from : int }
  | Complete of {
      rid : int;
      delegate : int;
      writes : (Store.Operation.key * int * int) list;
          (* quorum mode ships the delegate-computed writeset; empty when
             every site executed the operations itself *)
      missed : int list;
    }
  | Complete_ack of { rid : int; from : int }
  | Txn_abort of { rid : int }

let schema : Config.schema =
  [
    {
      Config.name = "read_one_write_all";
      ty = Config.TBool;
      default = Config.Bool false;
      doc = "lock and execute reads at the delegate only (ROWA)";
    };
    {
      Config.name = "lock_quorum";
      ty = Config.TOpt_int;
      default = Config.Opt_int None;
      doc =
        "grants needed before executing (quorum locking); none = all sites";
    };
  ]

let info =
  {
    Core.Technique.name = "Eager update everywhere (distributed locking)";
    community = Databases;
    propagation = Eager;
    ownership = Update_everywhere;
    requires_determinism = false;
    failure_transparent = false;
    strong_consistency = true;
    expected_phases =
      [
        Request; Server_coordination; Execution; Agreement_coordination; Response;
      ];
    (* Measured §5 cost (single-operation transaction): every round is
       delegate <-> other replicas point-to-point, so the cost is linear
       rather than quadratic — Lock_req/Lock_grant, Exec/Exec_ack,
       Complete/Complete_ack, Prepare/Vote/Decision at n-1 each, framed
       by the request and the reply: 9(n-1) + 2 = 9n - 7 messages. *)
    expected_messages = (fun ~n -> (9 * n) - 7);
    (* Lreq -> Lock_req -> Lock_grant -> Exec -> Exec_ack -> Complete ->
       Complete_ack -> Prepare -> Vote -> Reply. Per-operation lock and
       execute round-trips make this by far the deepest technique —
       the paper's "one round per operation" scaling argument (§5.4.1). *)
    expected_steps = (fun ~n:_ -> 10);
    section = "4.4.1 / 5.4.1";
  }

(* Keys and lock modes needed by one operation. *)
let op_locks op =
  let reads = Store.Operation.read_keys op in
  let writes = Store.Operation.write_keys op in
  let write_locks = List.map (fun k -> (k, Store.Lock_table.X)) writes in
  let read_locks =
    List.filter_map
      (fun k ->
        if List.mem k writes then None else Some (k, Store.Lock_table.S))
      reads
  in
  write_locks @ read_locks

type delegate_txn = {
  client : int;
  ops : Store.Operation.op list; (* non-determinism already resolved *)
  mutable op_index : int;
  mutable stage : [ `Locking | `Executing | `Completing | `Committing | `Done ];
  mutable grants : int list; (* replicas that granted the current op *)
  mutable exec_acks : int list;
  mutable complete_acks : int list;
  mutable lock_sites : int list; (* replicas the current op locks at *)
  mutable exec_sites : int list; (* replicas the current op executes at *)
  (* Quorum mode: the freshest copies seen among lock grants, the
     transaction's own writes, and the reads performed. *)
  q_base : (Store.Operation.key, int * int) Hashtbl.t;
  q_overlay : (Store.Operation.key, int) Hashtbl.t;
  mutable q_reads : (Store.Operation.key * int * int) list;
  mutable q_last_read : int option;
}

(* Quorum mode: the writeset the delegate computed, each write one
   version past the freshest copy it read. *)
let quorum_writes txn =
  Hashtbl.fold
    (fun k v acc ->
      let _, base_version =
        Option.value ~default:(0, 0) (Hashtbl.find_opt txn.q_base k)
      in
      (k, v, base_version + 1) :: acc)
    txn.q_overlay []

type replica_state = {
  me : int;
  locks : Store.Lock_table.t;
  shadows : (int, Store.Shadow.t) Hashtbl.t; (* rid -> overlay *)
  executed : (int * int, unit) Hashtbl.t; (* (rid, op_index) done here *)
  complete : (int, unit) Hashtbl.t; (* all operations processed *)
  quorum_writes : (int, (Store.Operation.key * int * int) list) Hashtbl.t;
  delegate_of : (int, int) Hashtbl.t; (* rid -> delegate replica *)
  missed : (int, int * int list) Hashtbl.t;
      (* rid -> its delegate and the replicas down at some point while it
         was live here: they missed operations, so it commits without
         them and only a state transfer can bring it to them *)
  cache : Common.reply_cache;
  dropped : (int, int) Hashtbl.t;
      (* rid -> the suspected delegate whose run of it we released: that
         run lost our shadow, so we take no further part and vote no *)
  txns : (int, delegate_txn) Hashtbl.t; (* delegate side *)
  xfer : Common.transfer; (* unsynced between recovery and state transfer *)
}

let create ?shared cfg net ~replicas ~clients =
  let read_one_write_all = Config.get_bool cfg "read_one_write_all" in
  let lock_quorum = Config.get_opt_int cfg "lock_quorum" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let fd_group = Group.Fd.create_group net ~members:replicas () in
  let chan_group = Common.client_channel ctx in
  let states = Hashtbl.create 8 in
  let state r = Hashtbl.find states r in
  let chan r = Group.Rchan.handle chan_group ~me:r in
  let release_txn st rid =
    Store.Lock_table.release_all st.locks ~txn:rid;
    Hashtbl.remove st.shadows rid;
    Hashtbl.remove st.complete rid;
    Hashtbl.remove st.quorum_writes rid;
    Hashtbl.remove st.delegate_of rid;
    Hashtbl.remove st.missed rid;
    (* The per-op dedup entries must die with the shadow: if the
       transaction is ever re-driven (client resubmission after a delegate
       crash), every operation has to re-execute into the fresh shadow —
       stale entries would make this site ack ops it silently skipped and
       commit a partial writeset. *)
    let stale_ops =
      Hashtbl.fold
        (fun ((r, _) as key) () acc -> if r = rid then key :: acc else acc)
        st.executed []
    in
    List.iter (Hashtbl.remove st.executed) stale_ops
  in
  (* Quorum mode ships the delegate's writeset in [Complete], so a
     replica that missed operations can still install it: only the mode
     where every site executes the operations keeps track. *)
  let went_live st rid ~delegate ~missed =
    if lock_quorum = None then
      match Hashtbl.find_opt st.missed rid with
      | Some (d, _) when d = delegate -> ()
      | _ ->
          (* First contact, or a resubmission re-driven by a new
             delegate: a fresh run of the transaction. It runs without
             whom the delegate runs it without, which may have recovered
             since, and without whoever is down now. *)
          Hashtbl.replace st.missed rid
            ( delegate,
              missed
              @ List.filter
                  (fun p -> not (Network.alive net p || List.mem p missed))
                  ctx.Common.replicas )
  in
  (* What the delegate tells the other sites about [rid]'s absentees. *)
  let missed_of st rid =
    match Hashtbl.find_opt st.missed rid with Some (_, m) -> m | None -> []
  in
  (* A run of [rid] by [delegate] whose state we released on suspecting
     it: its operations so far are gone from here. *)
  let dropped st rid ~delegate =
    Hashtbl.find_opt st.dropped rid = Some delegate
  in
  (* The live replicas that took part in all of [rid] so far: the only
     ones its later operations, its completion and its vote involve. *)
  let members st rid =
    let missed =
      match Hashtbl.find_opt st.missed rid with Some (_, m) -> m | None -> []
    in
    List.filter
      (fun p -> Network.alive net p && not (List.mem p missed))
      ctx.Common.replicas
  in
  let tpc =
    Core.Two_phase_commit.create_group net ~nodes:replicas
      ~participant_timeout:(Simtime.of_ms 300)
      ~vote:(fun ~me ~txn ->
        let st = state me in
        Hashtbl.mem st.complete txn)
      ~learn:(fun ~me ~txn decision ->
        let st = state me in
        (match
           (decision, Hashtbl.find_opt st.quorum_writes txn,
            Hashtbl.find_opt st.shadows txn)
         with
        | Core.Two_phase_commit.Commit, Some writes, _ ->
            (* Quorum mode: install the delegate-computed writeset with its
               explicit versions (stale copies catch up here). *)
            Store.Apply.apply_writes (Common.store ctx me) writes;
            if not (Hashtbl.mem st.cache txn) then
              Hashtbl.replace st.cache txn (true, None)
        | Core.Two_phase_commit.Commit, None, Some shadow ->
            let installed = Store.Shadow.install shadow in
            Hashtbl.replace st.cache txn (true, Store.Shadow.last_read shadow);
            Common.record_once ctx ~rid:txn ~replica:me
              (Store.Shadow.result shadow ~installed)
        | Core.Two_phase_commit.Commit, None, None -> ()
        | Core.Two_phase_commit.Abort, _, _ ->
            Hashtbl.replace st.cache txn (false, None));
        release_txn st txn)
      ()
  in
  (* Delegate side: abort the transaction everywhere. *)
  let abort_txn r rid =
    let st = state r in
    match Hashtbl.find_opt st.txns rid with
    | None -> ()
    | Some txn when txn.stage = `Committing || txn.stage = `Done -> ()
    | Some txn ->
        txn.stage <- `Done;
        Common.count ctx "lock_aborts_total";
        List.iter
          (fun dst ->
            Group.Rchan.send (chan r) ~dst (Txn_abort { rid }))
          ctx.Common.replicas;
        Hashtbl.replace st.cache rid (false, None);
        Hashtbl.remove st.txns rid;
        Common.send_reply ctx ~replica:r ~client:txn.client ~rid
          ~committed:false ~value:None
  in
  (* Where the current operation's locks are requested. *)
  let lock_sites_for r op =
    if read_one_write_all && Store.Operation.write_keys op = [] then
      [ r ] (* read-one *)
    else
      let alive = List.filter (Network.alive net) ctx.Common.replicas in
      match lock_quorum with
      | None -> alive
      | Some q ->
          (* A rotating quorum starting at the delegate: any two quorums of
             size > n/2 intersect, which is what serialises conflicting
             transactions. *)
          let arr = Array.of_list ctx.Common.replicas in
          let n = Array.length arr in
          let start =
            match List.find_index (Int.equal r) ctx.Common.replicas with
            | Some i -> i
            | None -> 0
          in
          List.init n (fun i -> arr.((start + i) mod n))
          |> List.filter (Network.alive net)
          |> List.filteri (fun i _ -> i < q)
  (* Quorum mode: execute an operation at the delegate against the
     freshest quorum copies (base) plus the transaction's own writes. *)
  and exec_quorum_op txn op =
    let read k =
      match Hashtbl.find_opt txn.q_overlay k with
      | Some v ->
          txn.q_last_read <- Some v;
          v
      | None ->
          let v, version =
            Option.value ~default:(0, 0) (Hashtbl.find_opt txn.q_base k)
          in
          txn.q_reads <- (k, v, version) :: txn.q_reads;
          txn.q_last_read <- Some v;
          v
    in
    let write k v = Hashtbl.replace txn.q_overlay k v in
    match op with
    | Store.Operation.Read k -> ignore (read k)
    | Store.Operation.Write (k, v) -> write k v
    | Store.Operation.Incr (k, d) -> write k (read k + d)
    | Store.Operation.Write_random k -> write k (Common.random_choice ctx k)
  (* Where it executes: every copy must apply updates. *)
  and exec_sites_for r op =
    if read_one_write_all && Store.Operation.write_keys op = [] then
      [ r ]
    else List.filter (Network.alive net) ctx.Common.replicas
  in
  let rec next_op r rid =
    let st = state r in
    match Hashtbl.find_opt st.txns rid with
    | None -> ()
    | Some txn ->
        if txn.op_index >= List.length txn.ops then start_complete r rid
        else begin
          let op = List.nth txn.ops txn.op_index in
          txn.stage <- `Locking;
          txn.grants <- [];
          txn.exec_acks <- [];
          let took_part = members st rid in
          let among = List.filter (fun p -> List.mem p took_part) in
          txn.lock_sites <- among (lock_sites_for r op);
          txn.exec_sites <- among (exec_sites_for r op);
          Common.phase_begin ctx ~rid ~replica:r
            ~note:"lock request at all replicas (2-phase locking)"
            Core.Phase.Server_coordination;
          List.iter
            (fun dst ->
              Group.Rchan.send (chan r) ~dst
                (Lock_req
                   {
                     rid;
                     op_index = txn.op_index;
                     keys = op_locks op;
                     delegate = r;
                     missed = missed_of st rid;
                   }))
            txn.lock_sites
        end
  and start_exec r rid =
    let st = state r in
    match Hashtbl.find_opt st.txns rid with
    | None -> ()
    | Some txn ->
        txn.stage <- `Executing;
        let op = List.nth txn.ops txn.op_index in
        Common.phase_begin ctx ~rid ~replica:r ~note:"operation executes at all sites"
          Core.Phase.Execution;
        List.iter
          (fun dst ->
            Group.Rchan.send (chan r) ~dst
              (Exec
                 {
                   rid;
                   op_index = txn.op_index;
                   op;
                   delegate = r;
                   missed = missed_of st rid;
                 }))
          txn.exec_sites
  and start_complete r rid =
    let st = state r in
    match Hashtbl.find_opt st.txns rid with
    | None -> ()
    | Some txn ->
        (* Synchronisation point: every replica confirms it has processed
           every operation before the 2PC begins, so no PREPARE can
           overtake an Exec in flight. *)
        txn.stage <- `Completing;
        txn.complete_acks <- [];
        let writes = if lock_quorum = None then [] else quorum_writes txn in
        List.iter
          (fun dst ->
            Group.Rchan.send (chan r) ~dst
              (Complete
                 { rid; delegate = r; writes; missed = missed_of st rid }))
          (members st rid)
  and start_commit r rid =
    let st = state r in
    match Hashtbl.find_opt st.txns rid with
    | None -> ()
    | Some txn ->
        txn.stage <- `Committing;
        Common.phase_begin ctx ~rid ~replica:r ~note:"two-phase commit"
          Core.Phase.Agreement_coordination;
        let participants = members st rid in
        Core.Two_phase_commit.start tpc ~coordinator:r ~participants ~txn:rid
          ~on_complete:(fun decision ->
            let st = state r in
            (match Hashtbl.find_opt st.txns rid with
            | Some txn -> (
                txn.stage <- `Done;
                Hashtbl.remove st.txns rid;
                let committed = decision = Core.Two_phase_commit.Commit in
                if committed && lock_quorum <> None then begin
                  (* Quorum mode: the delegate knows the reads/writes. *)
                  Common.record_once ctx ~rid ~replica:r
                    {
                      Store.Apply.reads = List.rev txn.q_reads;
                      writes = quorum_writes txn;
                    };
                  Hashtbl.replace st.cache rid (true, txn.q_last_read);
                  Common.send_reply ctx ~replica:r ~client:txn.client ~rid
                    ~committed:true ~value:txn.q_last_read
                end
                else
                  (* The delegate's own learn callback has already fired
                     (coordinator is a participant), filling the cache. *)
                  match Hashtbl.find_opt st.cache rid with
                  | Some (committed, value) ->
                      Common.send_reply ctx ~replica:r ~client:txn.client ~rid
                        ~committed ~value
                  | None ->
                      Common.send_reply ctx ~replica:r ~client:txn.client ~rid
                        ~committed ~value:None)
            | None -> ()))
  in
  List.iter
    (fun r ->
      let cache = Common.reply_cache () in
      let missed = Hashtbl.create 16 in
      let st =
        {
          me = r;
          locks = Store.Lock_table.create ();
          shadows = Hashtbl.create 16;
          executed = Hashtbl.create 64;
          complete = Hashtbl.create 16;
          quorum_writes = Hashtbl.create 16;
          delegate_of = Hashtbl.create 16;
          missed;
          cache;
          dropped = Hashtbl.create 4;
          txns = Hashtbl.create 8;
          (* A donor snapshots only once its store holds every write the
             joiner will not hear of again: none of its 2PC rounds is in
             doubt (decided but unapplied here), and no live transaction
             whose delegate stayed up left the joiner out. *)
          xfer =
            Common.transfer ctx ~me:r ~chan:(chan r) ~cache ~counts:`Requests
              ~mute_until_synced:true
              ~may_snapshot:(fun ~joiner ->
                Core.Two_phase_commit.in_doubt tpc ~me:r = []
                && not
                     (Hashtbl.fold
                        (fun _ (delegate, m) left_out ->
                          left_out
                          || (List.mem joiner m && not (List.mem delegate m)))
                        missed false));
        }
      in
      Hashtbl.replace states r st;
      (match Network.timeseries net with
      | Some ts ->
          Timeseries.register ts ~name:"lock_held" ~replica:r
            ~kind:Timeseries.Level ~unit_:"locks" (fun () ->
              float_of_int (Store.Lock_table.held_count st.locks));
          Timeseries.register ts ~name:"lock_waiters" ~replica:r
            ~kind:Timeseries.Waiters ~unit_:"requests" (fun () ->
              float_of_int (Store.Lock_table.waiting_count st.locks))
      | None -> ());
      (* Rejoin after a crash: the copy is stale and any pre-crash
         transaction context is dead (its delegates aborted or committed
         without us long ago). Drop that context, stop serving, and ask a
         surviving peer for the database + reply cache; service resumes
         when the transfer lands. *)
      Network.on_recover net (fun node ->
          if node = r then begin
            let stale_rids =
              Hashtbl.fold (fun rid _ acc -> rid :: acc) st.delegate_of []
              @ Hashtbl.fold (fun rid _ acc -> rid :: acc) st.txns []
            in
            List.iter (release_txn st) (List.sort_uniq compare stale_rids);
            Hashtbl.reset st.txns;
            (* The per-op dedup table must die with the shadows it guarded:
               a retransmitted Exec for a still-running transaction has to
               re-execute into the fresh shadow, or the shadow commits with
               that operation's write silently missing. Committed
               transactions stay deduped through the reply cache. *)
            Hashtbl.reset st.executed;
            Common.request_state_from_first_peer st.xfer
          end);
      (* Whoever crashes missed the rest of every transaction live here. *)
      Network.on_crash net (fun node ->
          if node <> r then
            Hashtbl.filter_map_inplace
              (fun _ ((delegate, m) as entry) ->
                Some (if List.mem node m then entry else (delegate, node :: m)))
              st.missed);
      let fd = Group.Fd.handle fd_group ~me:r in
      let waits = Group.Fd.waiter fd in
      (* Clean up transactions whose delegate crashed, so their locks do
         not block the system forever. In-doubt transactions — fully
         processed here, i.e. we may already have voted YES in the 2PC —
         are exempt: a prepared participant must hold its locks until it
         learns the decision (the textbook 2PC blocking window; the
         termination protocol in [Core.Two_phase_commit] resolves it once
         the coordinator is reachable again). *)
      let running rid delegate =
        delegate <> r && not (Hashtbl.mem st.complete rid)
      in
      let sweep () =
        let stale =
          Hashtbl.fold
            (fun rid delegate acc ->
              if running rid delegate && Group.Fd.suspected fd delegate then
                rid :: acc
              else acc)
            st.delegate_of []
        in
        List.iter
          (fun rid ->
            Hashtbl.replace st.dropped rid (Hashtbl.find st.delegate_of rid);
            release_txn st rid)
          stale
      in
      (* Wait on the delegates of the runs live here, and sweep when the
         detector suspects one of them. *)
      let watch () =
        if Hashtbl.length st.delegate_of > 0 then sweep ();
        Group.Fd.wait waits
          (Hashtbl.fold
             (fun rid delegate acc ->
               if running rid delegate && not (List.mem delegate acc) then
                 delegate :: acc
               else acc)
             st.delegate_of [])
      in
      Group.Fd.on_suspect fd (fun _ -> watch ());
      Network.on_recover net (fun node -> if node = r then watch ());
      Common.on_deliver st.xfer (fun ~src:_ msg ->
          (match msg with
          | Lreq { client; request } ->
              let rid = request.Store.Operation.rid in
              Common.serve ctx st.cache ~replica:r ~client ~rid (fun () ->
                  if not (Hashtbl.mem st.txns rid) then begin
                    let ops =
                      Common.resolve_random ctx request.Store.Operation.ops
                    in
                    let txn =
                      {
                        client;
                        ops;
                        op_index = 0;
                        stage = `Locking;
                        grants = [];
                        exec_acks = [];
                        complete_acks = [];
                        lock_sites = [];
                        exec_sites = [];
                        q_base = Hashtbl.create 8;
                        q_overlay = Hashtbl.create 8;
                        q_reads = [];
                        q_last_read = None;
                      }
                    in
                    Hashtbl.replace st.txns rid txn;
                    went_live st rid ~delegate:r ~missed:[];
                    (* A 250 ms lock timeout resolves distributed
                       deadlocks: abort and release after that wait. *)
                    ignore
                      (Engine.schedule (Network.engine net) ~label:"proto:lock-timeout"
                         ~after:(Simtime.of_ms 250)
                         (Network.guard net r (fun () ->
                              match Hashtbl.find_opt st.txns rid with
                              | Some t
                                when t.stage = `Locking || t.stage = `Executing
                                ->
                                  abort_txn r rid
                              | _ -> ())));
                    next_op r rid
                  end)
          | Lock_req { rid; op_index; keys; delegate; missed } ->
              if not (Hashtbl.mem st.cache rid || dropped st rid ~delegate)
              then begin
                Hashtbl.replace st.delegate_of rid delegate;
                went_live st rid ~delegate ~missed;
                let total = List.length keys in
                let send_grant () =
                  let copies =
                    List.map
                      (fun (key, _) ->
                        (key, Store.Kv.read (Common.store ctx r) key))
                      keys
                  in
                  Group.Rchan.send (chan r) ~dst:delegate
                    (Lock_grant
                       { rid; op_index; from = r; copies })
                in
                if total = 0 then send_grant ()
                else begin
                  let granted = ref 0 in
                  let refused = ref false in
                  List.iter
                    (fun (key, mode) ->
                      if not !refused then
                        match
                          Store.Lock_table.acquire st.locks ~txn:rid ~key mode
                            ~granted:(fun () ->
                              incr granted;
                              if !granted = total then send_grant ())
                        with
                        | `Granted -> ()
                        | `Waiting ->
                            Common.count ctx
                              ~labels:[ ("replica", string_of_int r) ]
                              "lock_waits_total"
                        | `Deadlock ->
                            Common.count ctx
                              ~labels:[ ("replica", string_of_int r) ]
                              "deadlock_refusals_total";
                            refused := true;
                            Group.Rchan.send (chan r) ~dst:delegate
                              (Lock_refuse { rid; from = r }))
                    keys
                end
              end
          | Lock_grant { rid; op_index; from; copies } -> (
              match Hashtbl.find_opt st.txns rid with
              | Some txn when txn.stage = `Locking && txn.op_index = op_index ->
                  if not (List.mem from txn.grants) then begin
                    txn.grants <- from :: txn.grants;
                    (* Keep the freshest copy of each item seen so far. *)
                    List.iter
                      (fun (k, (v, version)) ->
                        match Hashtbl.find_opt txn.q_base k with
                        | Some (_, cur) when cur >= version -> ()
                        | _ -> Hashtbl.replace txn.q_base k (v, version))
                      copies
                  end;
                  if List.for_all (fun s -> List.mem s txn.grants) txn.lock_sites
                  then
                    if lock_quorum <> None then begin
                      (* Quorum mode: the delegate executes against the
                         freshest quorum copies; other sites only install
                         the writeset at commit. *)
                      Common.phase_begin ctx ~rid ~replica:r
                        ~note:"operation executes on the freshest quorum copy"
                        Core.Phase.Execution;
                      exec_quorum_op txn (List.nth txn.ops txn.op_index);
                      txn.op_index <- txn.op_index + 1;
                      next_op r rid
                    end
                    else start_exec r rid
              | _ -> ())
          | Lock_refuse { rid; from = _ } ->
              abort_txn r rid
          | Exec { rid; op_index; op; delegate; missed } ->
              if not (Hashtbl.mem st.cache rid || dropped st rid ~delegate)
              then begin
                Hashtbl.replace st.delegate_of rid delegate;
                went_live st rid ~delegate ~missed;
                let shadow =
                  match Hashtbl.find_opt st.shadows rid with
                  | Some s -> s
                  | None ->
                      let s = Store.Shadow.create (Common.store ctx r) in
                      Hashtbl.replace st.shadows rid s;
                      s
                in
                (* The delegate finishes each round before starting the
                   next, so arrival order equals operation order; dedup
                   guards against retransmissions. *)
                if not (Hashtbl.mem st.executed (rid, op_index)) then begin
                  Hashtbl.replace st.executed (rid, op_index) ();
                  Store.Shadow.exec_op shadow op
                end;
                Group.Rchan.send (chan r) ~dst:delegate
                  (Exec_ack { rid; op_index; from = r })
              end
          | Exec_ack { rid; op_index; from } -> (
              match Hashtbl.find_opt st.txns rid with
              | Some txn when txn.stage = `Executing && txn.op_index = op_index
                ->
                  if not (List.mem from txn.exec_acks) then
                    txn.exec_acks <- from :: txn.exec_acks;
                  if
                    List.for_all
                      (fun s -> List.mem s txn.exec_acks)
                      txn.exec_sites
                  then begin
                    txn.op_index <- txn.op_index + 1;
                    next_op r rid
                  end
              | _ -> ())
          | Complete { rid; delegate; writes; missed } ->
              (* A dropped run is acked, so its delegate moves on to the
                 2PC, which our no vote aborts. *)
              if not (Hashtbl.mem st.cache rid || dropped st rid ~delegate)
              then begin
                Hashtbl.replace st.complete rid ();
                if writes <> [] then Hashtbl.replace st.quorum_writes rid writes;
                Hashtbl.replace st.delegate_of rid delegate;
                went_live st rid ~delegate ~missed
              end;
              Group.Rchan.send (chan r) ~dst:delegate
                (Complete_ack { rid; from = r })
          | Complete_ack { rid; from } -> (
              match Hashtbl.find_opt st.txns rid with
              | Some txn when txn.stage = `Completing ->
                  if not (List.mem from txn.complete_acks) then
                    txn.complete_acks <- from :: txn.complete_acks;
                  if
                    List.for_all
                      (fun s -> List.mem s txn.complete_acks)
                      (members st rid)
                  then start_commit r rid
              | _ -> ())
          | Txn_abort { rid } ->
              (* Cached like an aborted 2PC: a Lock_req or Exec of the
                 run that the channel retransmits after the abort (it
                 keeps no order between messages) must not take locks
                 again that nothing would release. *)
              release_txn st rid;
              Hashtbl.replace st.cache rid (false, None)
          | _ -> ());
          watch ()))
    replicas;
  let submit ~client request cb =
    Common.submit_to ctx chan_group ~client ~request
      ~timeout:(Simtime.of_ms 600) ~preferred:(Common.nearest ctx ~client)
      (Lreq { client; request }) cb
  in
  Common.instance ctx ~info ~submit
