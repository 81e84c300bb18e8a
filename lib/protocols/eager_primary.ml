open Sim

type Msg.t +=
  | Ereq of { client : int; request : Store.Operation.request }
  | Propagate of {
      rid : int;
      writes : (Store.Operation.key * int * int) list;
      final : bool; (* last batch of the transaction *)
    }
  | Propagate_ack of { rid : int; from : int }

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
      Config.name = "abort_probability";
      ty = Config.TFloat;
      default = Config.Float 0.0;
      doc = "probability that a site votes NO in the commitment phase";
    };
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
       the writeset to the n-1 backups, backup acks (n-1), then 2PC —
       Prepare, Vote and Decision rounds at n-1 each — the reply (1),
       and the broadcast's stability notice once the primary goes idle
       (n-1): 6n - 4 protocol messages, 5n - 3 on a network declared
       loss-free (no notice). *)
    expected_messages = (fun ~n -> (6 * n) - 4);
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
  cache : Common.reply_cache;
  active : (int, txn_state) Hashtbl.t; (* primary-side *)
  attempts : (int, int) Hashtbl.t; (* commit attempts per rid *)
  (* The primary serialises update transactions: one at a time. *)
  mutable run_queue : (int * int * Store.Operation.request) list;
      (* rid, client, request *)
  mutable busy : bool;
  xfer : Common.transfer; (* unsynced between recovery and state transfer *)
}

let create ?shared cfg net ~replicas ~clients =
  let interactive = Config.get_bool cfg "interactive" in
  let abort_probability = Config.get_float cfg "abort_probability" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let bcast_group = Group.Rbcast.create_group net ~members:replicas () in
  let chan_group = Common.client_channel ctx in
  let states = Hashtbl.create 8 in
  let state r = Hashtbl.find states r in
  (* A commit round gets a fresh id per (attempt, coordinator): a client
     resubmission after a primary crash re-runs the same rid, and 2PC
     treats a round id as terminated forever — including rounds of the
     same attempt number started by the previous primary. Supports up to 63 attempts and 16 replicas. *)
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
  (* [launch_next], bound below: a learned decision can unblock it. *)
  let relaunch = ref ignore in
  (* Append [writes] to [rid]'s tentative writeset at [st]. *)
  let buffer st rid writes =
    match Hashtbl.find_opt st.buffered rid with
    | Some b -> b := !b @ writes
    | None -> Hashtbl.replace st.buffered rid (ref writes)
  in
  let learn ~me ~txn decision =
    let committed = decision = Core.Two_phase_commit.Commit in
    let rid = rid_of_round txn in
    let st = state me in
    (match Hashtbl.find_opt st.buffered rid with
    | Some writes when committed ->
        Store.Apply.apply_writes (Common.store ctx me) !writes
    | _ -> ());
    (* Remember committed outcomes at every participant: a primary can
       crash after its decision left but before its reply did, and the
       client's resubmission must find the outcome instead of
       re-executing (exactly-once). *)
    if committed && not (Hashtbl.mem st.cache rid) then
      Hashtbl.replace st.cache rid (true, None);
    Hashtbl.remove st.buffered rid;
    !relaunch me
  in
  let tpc =
    Core.Two_phase_commit.create_group net ~nodes:replicas
      ~participant_timeout:(Simtime.of_ms 300)
      ~vote ~learn ()
  in
  (* The lowest alive replica owns the primary copy — but a freshly
     recovered copy is stale and must not reclaim ownership (or serve
     local reads) until a surviving peer ships it the database. *)
  let is_primary r =
    (state r).xfer.Common.synced && Common.lowest_alive ctx = r
  in
  (* The rids [r] voted YES for without learning the outcome. The old
     primary replies as soon as it decides, while its decision is still
     on the way to the backups; so a backup that takes over must not run
     another transaction on top of a writeset that may have committed.
     Learning any round of a rid settles its earlier rounds too (they
     share the buffered writeset), so a client's resubmission of a rid
     whose primary died undecided supersedes the old round. *)
  let in_doubt_rids r =
    let st = state r in
    List.filter_map
      (fun txn ->
        let rid = rid_of_round txn in
        if Hashtbl.mem st.buffered rid then Some rid else None)
      (Core.Two_phase_commit.in_doubt tpc ~me:r)
  in
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
        buffer st rid fresh;
        let bcast = Group.Rbcast.handle bcast_group ~me:r in
        Group.Rbcast.broadcast bcast (Propagate { rid; writes = fresh; final });
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
            Core.Two_phase_commit.start tpc ~coordinator:r ~participants
              ~txn:(round_of_rid rid attempt ~coordinator:r)
              ~on_complete:(fun decision ->
                let committed = decision = Core.Two_phase_commit.Commit in
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
    if (not st.busy) && st.run_queue <> [] then
      (* While in doubt, only a resubmission of an in-doubt rid may run. *)
      let runnable =
        match in_doubt_rids r with
        | [] -> fun _ -> true
        | rids -> fun (rid, _, _) -> List.mem rid rids
      in
      match List.find_opt runnable st.run_queue with
      | None -> ()
      | Some ((rid, client, request) as next) ->
          st.run_queue <- List.filter (fun e -> e != next) st.run_queue;
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
  relaunch := launch_next;
  List.iter
    (fun r ->
      let cache = Common.reply_cache () in
      let chan = Group.Rchan.handle chan_group ~me:r in
      let st =
        {
          me = r;
          buffered = Hashtbl.create 32;
          cache;
          active = Hashtbl.create 8;
          attempts = Hashtbl.create 8;
          run_queue = [];
          busy = false;
          (* A donor in doubt in a 2PC holds decided-but-unapplied
             writes: it snapshots only once the doubt resolves. So does
             a primary whose own transaction has shipped its writes but
             not decided yet: the joiner is no participant of that
             round, so a snapshot taken before the decision would lose
             the write for good. *)
          xfer =
            Common.transfer ctx ~me:r ~chan ~cache ~counts:`Requests
              ~mute_until_synced:true
              ~may_snapshot:(fun ~joiner:_ ->
                let st = state r in
                Core.Two_phase_commit.in_doubt tpc ~me:r = []
                && not
                     (Hashtbl.fold
                        (fun rid _ shipped ->
                          shipped || Hashtbl.mem st.buffered rid)
                        st.active false));
        }
      in
      Hashtbl.replace states r st;
      (* A crashed backup owes no more acks: re-check the transactions
         that were waiting for its ack, or they would wait forever. *)
      Network.on_crash net (fun node ->
          if node <> r && Network.alive net r then
            Hashtbl.fold
              (fun rid txn waiting ->
                if List.mem node txn.acks then waiting
                else (rid, txn) :: waiting)
              st.active []
            |> List.iter (fun (rid, txn) ->
                   check_acks r rid
                     ~final:(txn.next_op >= List.length txn.request.ops)));
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
            Common.request_state_from_first_peer st.xfer
          end);
      let bcast = Group.Rbcast.handle bcast_group ~me:r in
      Group.Rbcast.on_deliver bcast (fun ~origin msg ->
          match msg with
          | Propagate { rid; writes; final } ->
              if origin <> r then begin
                Common.phase_begin ctx ~rid ~replica:r ~note:"secondary applies log records"
                  Core.Phase.Agreement_coordination;
                buffer st rid writes;
                Group.Rchan.send chan ~dst:origin
                  (Propagate_ack { rid; from = r });
                ignore final
              end
          | _ -> ());
      Common.on_deliver st.xfer (fun ~src:_ msg ->
          match msg with
          | Ereq { client; request } ->
              let rid = request.Store.Operation.rid in
              Common.serve ctx st.cache ~replica:r ~client ~rid (fun () ->
                  if not (Store.Operation.request_is_update request) then
                    (* Read-only transactions run on any site (§4.3). *)
                    Common.local_read ctx ~replica:r ~client
                      ~counter:"local_reads_total" ~note:"local read" request
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
    (* Reads go to the client's own replica, updates to the primary. *)
    let preferred =
      if Store.Operation.request_is_update request then fun () ->
        Common.lowest_alive ctx
      else Common.nearest ctx ~client
    in
    Common.submit_to ctx chan_group ~client ~request
      ~timeout:(Simtime.of_ms 400) ~preferred (Ereq { client; request }) cb
  in
  Common.instance ctx ~info ~submit
