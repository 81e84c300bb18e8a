open Sim

type Msg.t +=
  | Ereq of { client : int; request : Store.Operation.request }
  | Propagate of {
      rid : int;
      writes : (Store.Operation.key * int * int) list;
      final : bool; (* last batch of the transaction *)
    }
  | Propagate_ack of { rid : int; from : int }
  | Sync_req of { from : int }
  | Sync_state of {
      entries : (Store.Operation.key * (int * int)) list;
      cache_entries : (int * (bool * int option)) list;
    }

let schema : Config.schema =
  [
    {
      Config.name = "interactive";
      ty = Config.TBool;
      default = Config.Bool false;
      doc =
        "propagate each operation as it executes (statement-level \
         interaction) instead of one deferred writeset";
    };
    {
      Config.name = "nonblocking_commit";
      ty = Config.TBool;
      default = Config.Bool false;
      doc = "terminate with 3PC instead of 2PC (non-blocking commitment)";
    };
    Config.client_retry_key ~default:(Simtime.of_ms 400);
    {
      Config.name = "abort_probability";
      ty = Config.TFloat;
      default = Config.Float 0.0;
      doc = "probability that a site votes NO in the commitment phase";
    };
    Config.passthrough_key;
  ]

let info =
  {
    Core.Technique.name = "Eager primary copy";
    community = Databases;
    propagation = Eager;
    ownership = Primary;
    requires_determinism = false;
    failure_transparent = false;
    strong_consistency = true;
    expected_phases = [ Request; Execution; Agreement_coordination; Response ];
    (* Measured §5 cost: request to the primary (1), FIFO-broadcast of
       the writeset with everyone-to-everyone relays (n(n-1)), backup
       acks (n-1), then 2PC — Prepare, Vote and Decision rounds at n-1
       each — and the reply (1): n^2 + 3n - 2 protocol messages. *)
    expected_messages = (fun ~n -> (n * n) + (3 * n) - 2);
    (* Ereq -> Propagate -> Propagate_ack -> Prepare -> Vote -> Reply
       (the Decision round is concurrent with the reply). *)
    expected_steps = 6;
    section = "4.3 / 5.2";
  }

(* Deterministic stand-in for site-local abort causes. *)
let site_votes_no ~probability ~rid ~replica =
  probability > 0.0
  && Hashtbl.hash (rid, replica, "vote") mod 10_000
     < int_of_float (probability *. 10_000.)

type txn_state = {
  client : int;
  request : Store.Operation.request;
  shadow : Store.Shadow.t;
  mutable next_op : int;
  mutable propagated : (Store.Operation.key * int * int) list;
      (* writes already shipped (interactive mode) *)
  mutable acks : int list; (* replicas that acked the final batch *)
}

type replica_state = {
  me : int;
  (* Tentative writesets received from the primary, by rid. *)
  buffered : (int, (Store.Operation.key * int * int) list ref) Hashtbl.t;
  cache : (int, bool * int option) Hashtbl.t;
  active : (int, txn_state) Hashtbl.t; (* primary-side *)
  attempts : (int, int) Hashtbl.t; (* commit attempts per rid *)
  (* The primary serialises update transactions: one at a time. *)
  mutable run_queue : (int * int * Store.Operation.request) list;
      (* rid, client, request *)
  mutable busy : bool;
  mutable synced : bool; (* false between recovery and state transfer *)
}

let create ?shared cfg net ~replicas ~clients =
  let interactive = Config.get_bool cfg "interactive" in
  let nonblocking_commit = Config.get_bool cfg "nonblocking_commit" in
  let client_retry = Config.get_time cfg "client_retry" in
  let abort_probability = Config.get_float cfg "abort_probability" in
  let passthrough = Config.get_bool cfg "passthrough" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let fifo_group =
    Group.Fifo.create_group net ~members:replicas ~passthrough ()
  in
  let chan_group =
    Group.Rchan.create_group net ~nodes:(replicas @ clients) ~passthrough ()
  in
  let states = Hashtbl.create 8 in
  let state r = Hashtbl.find states r in
  (* A commit round gets a fresh id per (attempt, coordinator): a client
     resubmission after a primary crash re-runs the same rid, and the
     atomic-commitment protocols treat a round id as terminated forever —
     including rounds of the same attempt number started by the previous
     primary. Supports up to 63 attempts and 16 replicas. *)
  let coord_index r =
    match List.find_index (Int.equal r) ctx.Common.replicas with
    | Some i -> i
    | None -> 0
  in
  let round_of_rid rid attempt ~coordinator =
    (rid * 1024) + (attempt * 16) + coord_index coordinator
  in
  let rid_of_round round = round / 1024 in
  let vote ~me ~txn =
    let rid = rid_of_round txn in
    let st = state me in
    Hashtbl.mem st.buffered rid
    &&
    let no =
      site_votes_no ~probability:abort_probability ~rid ~replica:me
    in
    if no then
      Common.count ctx
        ~labels:[ ("replica", string_of_int me) ]
        "site_no_votes_total";
    not no
  in
  let learn_commit ~me ~txn committed =
    let rid = rid_of_round txn in
    let st = state me in
    (match Hashtbl.find_opt st.buffered rid with
    | Some writes when committed ->
        Store.Apply.apply_writes (Common.store ctx me) !writes
    | _ -> ());
    (* Remember committed outcomes at every participant: after a
       coordinator crash the non-blocking termination can commit a
       transaction whose reply never left, and the client's resubmission
       must find the outcome instead of re-executing (exactly-once). *)
    if committed && not (Hashtbl.mem st.cache rid) then
      Hashtbl.replace st.cache rid (true, None);
    Hashtbl.remove st.buffered rid
  in
  let tpc =
    Core.Two_phase_commit.create_group net ~nodes:replicas ~passthrough
      ~participant_timeout:(Simtime.of_ms 300)
      ~vote
      ~learn:(fun ~me ~txn decision ->
        learn_commit ~me ~txn (decision = Core.Two_phase_commit.Commit))
      ()
  in
  let tpc3 =
    if nonblocking_commit then
      Some
        (Core.Three_phase_commit.create_group net ~nodes:replicas
           ~passthrough ~vote
           ~learn:(fun ~me ~txn decision ->
             learn_commit ~me ~txn (decision = Core.Three_phase_commit.Commit))
           ())
    else None
  in
  let start_commit_round ~coordinator ~participants ~txn ~on_complete =
    match tpc3 with
    | Some g ->
        Core.Three_phase_commit.start g ~coordinator ~participants ~txn
          ~on_complete:(fun d ->
            on_complete (d = Core.Three_phase_commit.Commit))
    | None ->
        Core.Two_phase_commit.start tpc ~coordinator ~participants ~txn
          ~on_complete:(fun d -> on_complete (d = Core.Two_phase_commit.Commit))
  in
  (* The lowest alive replica owns the primary copy — but a freshly
     recovered copy is stale and must not reclaim ownership (or serve
     local reads) until a surviving peer ships it the database. *)
  let is_primary r = (state r).synced && Common.lowest_alive ctx = r in
  (* Primary-side transaction driver: execute the next operation; in
     interactive mode propagate its changes and wait for secondary acks
     before continuing; after the last operation run the 2PC. *)
  let rec advance r rid =
    let st = state r in
    match Hashtbl.find_opt st.active rid with
    | None -> ()
    | Some txn ->
        let ops = txn.request.Store.Operation.ops in
        if txn.next_op < List.length ops then begin
          let op = List.nth ops txn.next_op in
          txn.next_op <- txn.next_op + 1;
          Common.phase_begin ctx ~rid ~replica:r
            ~note:
              (if interactive then "primary executes one operation"
               else "primary executes the stored procedure")
            Core.Phase.Execution;
          Store.Shadow.exec_op
            ~choose:(fun k -> Common.random_choice ctx k)
            txn.shadow op;
          if interactive then propagate r rid ~final:false
          else if txn.next_op < List.length ops then advance r rid
          else propagate r rid ~final:true
        end
        else propagate r rid ~final:true
  and propagate r rid ~final =
    let st = state r in
    match Hashtbl.find_opt st.active rid with
    | None -> ()
    | Some txn ->
        (* Ship the writes accumulated so far but not yet propagated. *)
        let all_writes =
          List.map
            (fun (k, v) -> (k, v, 1 + Store.Kv.version (Common.store ctx r) k))
            (Store.Shadow.writes txn.shadow)
        in
        let fresh =
          List.filter (fun w -> not (List.mem w txn.propagated)) all_writes
        in
        txn.propagated <- all_writes;
        let final = final || txn.next_op >= List.length txn.request.ops in
        Common.phase_begin ctx ~rid ~replica:r
          ~note:(if final then "change propagation + 2PC" else "change propagation")
          Core.Phase.Agreement_coordination;
        txn.acks <- [ r ];
        let st_buf =
          match Hashtbl.find_opt st.buffered rid with
          | Some b -> b
          | None ->
              let b = ref [] in
              Hashtbl.replace st.buffered rid b;
              b
        in
        st_buf := !st_buf @ fresh;
        let fifo = Group.Fifo.handle fifo_group ~me:r in
        Group.Fifo.broadcast fifo (Propagate { rid; writes = fresh; final });
        check_acks r rid ~final
  and check_acks r rid ~final =
    let st = state r in
    match Hashtbl.find_opt st.active rid with
    | None -> ()
    | Some txn ->
        let needed =
          List.filter (fun p -> Network.alive net p) ctx.Common.replicas
        in
        if List.for_all (fun p -> List.mem p txn.acks) needed then
          if final then begin
            let participants = needed in
            let attempt =
              let a = 1 + Option.value ~default:0 (Hashtbl.find_opt st.attempts rid) in
              Hashtbl.replace st.attempts rid a;
              a
            in
            start_commit_round ~coordinator:r ~participants
              ~txn:(round_of_rid rid attempt ~coordinator:r)
              ~on_complete:(fun committed ->
                let value =
                  if committed then Store.Shadow.last_read txn.shadow else None
                in
                if committed then begin
                  let installed = txn.propagated in
                  Common.record_once ctx ~rid ~replica:r
                    (Store.Shadow.result txn.shadow ~installed)
                end;
                Hashtbl.replace st.cache rid (committed, value);
                Hashtbl.remove st.active rid;
                Common.send_reply ctx ~replica:r ~client:txn.client ~rid
                  ~committed ~value;
                st.busy <- false;
                launch_next r)
          end
          else advance r rid
  and launch_next r =
    let st = state r in
    if not st.busy then
      match st.run_queue with
      | [] -> ()
      | (rid, client, request) :: rest ->
          st.run_queue <- rest;
          if Hashtbl.mem st.cache rid || Hashtbl.mem st.active rid then
            launch_next r
          else begin
            st.busy <- true;
            let txn =
              {
                client;
                request;
                shadow = Store.Shadow.create (Common.store ctx r);
                next_op = 0;
                propagated = [];
                acks = [];
              }
            in
            Hashtbl.replace st.active rid txn;
            advance r rid
          end
  in
  List.iter
    (fun r ->
      let st =
        {
          me = r;
          buffered = Hashtbl.create 32;
          cache = Hashtbl.create 64;
          active = Hashtbl.create 8;
          attempts = Hashtbl.create 8;
          run_queue = [];
          busy = false;
          synced = true;
        }
      in
      Hashtbl.replace states r st;
      (* Rejoin after a crash: pre-crash primary context is dead (the
         survivors took over and the clients resubmitted), tentative
         writesets may belong to rounds that resolved without us. Drop
         them and request a state transfer; primaryship and client
         service resume when it lands. *)
      Network.on_recover net (fun node ->
          if node = r then begin
            Hashtbl.reset st.active;
            Hashtbl.reset st.buffered;
            st.run_queue <- [];
            st.busy <- false;
            match
              List.filter
                (fun p -> p <> r && Network.alive net p)
                ctx.Common.replicas
            with
            | [] -> ()
            | peer :: _ ->
                st.synced <- false;
                Common.count ctx "state_transfers_total";
                let chan = Group.Rchan.handle chan_group ~me:r in
                Group.Rchan.send chan ~dst:peer (Sync_req { from = r })
          end);
      let fifo = Group.Fifo.handle fifo_group ~me:r in
      Group.Fifo.on_deliver fifo (fun ~origin msg ->
          match msg with
          | Propagate { rid; writes; final } ->
              if origin <> r then begin
                Common.phase_begin ctx ~rid ~replica:r ~note:"secondary applies log records"
                  Core.Phase.Agreement_coordination;
                let buf =
                  match Hashtbl.find_opt st.buffered rid with
                  | Some b -> b
                  | None ->
                      let b = ref [] in
                      Hashtbl.replace st.buffered rid b;
                      b
                in
                buf := !buf @ writes;
                let chan = Group.Rchan.handle chan_group ~me:r in
                Group.Rchan.send chan ~dst:origin
                  (Propagate_ack { rid; from = r });
                ignore final
              end
          | _ -> ());
      let chan = Group.Rchan.handle chan_group ~me:r in
      Group.Rchan.on_deliver chan (fun ~src msg ->
          ignore src;
          match msg with
          | Sync_req { from } when st.synced ->
              (* Defer the snapshot while this copy is in-doubt in a 2PC —
                 a snapshot taken then would omit decided-but-unapplied
                 writes the joiner can never recover. *)
              let rec answer () =
                if not (st.synced && Network.alive net r) then ()
                else if Core.Two_phase_commit.in_doubt tpc ~me:r > 0 then
                  ignore
                    (Engine.schedule (Network.engine net) ~label:"commit:indoubt"
                       ~after:(Simtime.of_ms 50)
                       (Network.guard net r answer))
                else begin
                  let entries = Store.Kv.snapshot (Common.store ctx r) in
                  let cache_entries =
                    Hashtbl.fold (fun rid v acc -> (rid, v) :: acc) st.cache []
                  in
                  Group.Rchan.send chan ~dst:from
                    (Sync_state { entries; cache_entries })
                end
              in
              answer ()
          | Sync_state { entries; cache_entries } ->
              if not st.synced then begin
                List.iter
                  (fun (k, (value, version)) ->
                    Store.Kv.install (Common.store ctx r) k ~value ~version)
                  entries;
                List.iter
                  (fun (rid, outcome) ->
                    if not (Hashtbl.mem st.cache rid) then
                      Hashtbl.replace st.cache rid outcome)
                  cache_entries;
                st.synced <- true
              end
          | _ when not st.synced ->
              () (* no client service until the transfer lands *)
          | Ereq { client; request } -> (
              let rid = request.Store.Operation.rid in
              match Hashtbl.find_opt st.cache rid with
              | Some (committed, value) ->
                  Common.send_reply ctx ~replica:r ~client ~rid ~committed
                    ~value
              | None ->
                  if not (Store.Operation.request_is_update request) then begin
                    (* Read-only transactions run on any site (§4.3). *)
                    Common.count ctx
                      ~labels:[ ("replica", string_of_int r) ]
                      "local_reads_total";
                    Common.phase_begin ctx ~rid ~replica:r ~note:"local read"
                      Core.Phase.Execution;
                    let result =
                      Store.Apply.execute (Common.store ctx r)
                        request.Store.Operation.ops
                    in
                    Common.record_once ctx ~rid ~replica:r result;
                    Common.send_reply ctx ~replica:r ~client ~rid
                      ~committed:true ~value:(Common.reply_value result)
                  end
                  else if
                    is_primary r
                    && (not (Hashtbl.mem st.active rid))
                    && not
                         (List.exists
                            (fun (rid', _, _) -> rid' = rid)
                            st.run_queue)
                  then begin
                    st.run_queue <- st.run_queue @ [ (rid, client, request) ];
                    launch_next r
                  end)
          | Propagate_ack { rid; from } -> (
              match Hashtbl.find_opt st.active rid with
              | None -> ()
              | Some txn ->
                  if not (List.mem from txn.acks) then
                    txn.acks <- from :: txn.acks;
                  let final = txn.next_op >= List.length txn.request.ops in
                  check_acks r rid ~final)
          | _ -> ()))
    replicas;
  let submit ~client request cb =
    Common.register_submit ctx ~client ~request cb;
    let rid = request.Store.Operation.rid in
    let chan = Group.Rchan.handle chan_group ~me:client in
    let read_only = not (Store.Operation.request_is_update request) in
    let local_replica =
      List.nth ctx.Common.replicas (client mod List.length ctx.Common.replicas)
    in
    let preferred () =
      if read_only && Network.alive net local_replica then local_replica
      else Common.lowest_alive ctx
    in
    let send ~dst =
      Group.Rchan.send chan ~dst (Ereq { client; request })
    in
    send ~dst:(preferred ());
    Common.retry_until_replied ctx ~rid ~timeout:client_retry
      ~target:(fun ~attempt ->
        Common.cycling_target ctx ~preferred:(preferred ()) ~attempt)
      ~send
  in
  Common.instance ctx ~info ~submit
