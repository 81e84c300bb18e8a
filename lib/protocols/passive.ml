open Sim

type Msg.t +=
  | Preq of { client : int; request : Store.Operation.request }
  | Update of {
      client : int;
      rid : int;
      result : Store.Apply.result;
      value : int option;
    }

let schema : Config.schema = []

let info =
  {
    Core.Technique.name = "Passive replication";
    community = Distributed_systems;
    propagation = Eager;
    ownership = Primary;
    requires_determinism = false;
    failure_transparent = false;
    strong_consistency = true;
    expected_phases = [ Request; Execution; Agreement_coordination; Response ];
    (* Measured §5 cost: request to the primary (1), VSCAST of the
       update — reliable-broadcast relays flood it everyone-to-everyone
       (n(n-1)) and stability acks come back (n-1) — then the reply (1):
       n^2 + 1 protocol messages. *)
    expected_messages = (fun ~n -> (n * n) + 1);
    (* Preq -> Update broadcast -> stability ack -> Reply: the primary
       answers only once the update is stable at the backups. *)
    expected_steps = (fun ~n:_ -> 4);
    section = "3.3";
  }

type replica_state = {
  me : int;
  vs : Group.Vscast.t;
  (* Results of requests whose update went stable, for resubmissions. *)
  cache : Common.reply_cache;
  executing : (int, unit) Hashtbl.t;
      (* requests executed here, update not yet stable *)
  mutable prev_members : int list; (* membership of the last view we saw *)
  mutable last_view_id : int;
  xfer : Common.transfer; (* unsynced between a rejoin and state transfer *)
  awaiting : (int, unit) Hashtbl.t;
      (* as a backup: requests a client sent us, not yet seen stable —
         the client could not reach the primary *)
  waits : Group.Fd.waiter; (* on the primary, while [awaiting] *)
}

let create ?shared _cfg net ~replicas ~clients =
  let ctx = Common.make ?shared net ~replicas ~clients in
  let fd_group = Group.Fd.create_group net ~members:replicas () in
  let vs_group =
    Group.Vscast.create_group net ~members:replicas ~fd:fd_group ()
  in
  (* Stubborn client->primary channel so requests survive message loss. *)
  let chan_group = Common.client_channel ctx in
  let states = Hashtbl.create 8 in
  let head st =
    match (Group.Vscast.current_view st.vs).Group.View.members with
    | [] -> -1
    | p :: _ -> p
  in
  let is_primary st =
    st.xfer.Common.synced && Group.Vscast.in_view st.vs && head st = st.me
  in
  (* A backup that holds a request waits on the primary, so a primary
     that crashed while idle is still suspected and replaced. *)
  let watch st =
    Group.Fd.wait st.waits
      (if Hashtbl.length st.awaiting > 0 then [ head st ] else [])
  in
  List.iter
    (fun r ->
      let vs = Group.Vscast.handle vs_group ~me:r in
      let chan = Group.Rchan.handle chan_group ~me:r in
      let cache = Common.reply_cache () in
      let st =
        {
          me = r;
          vs;
          cache;
          executing = Hashtbl.create 8;
          prev_members = replicas;
          last_view_id = 0;
          (* Any synced member may donate at once: what is stable is in
             its store. Each snapshot it sends counts as a transfer. *)
          xfer =
            Common.transfer ctx ~me:r ~chan ~cache ~counts:`Snapshots
              ~mute_until_synced:false
              ~may_snapshot:(fun ~joiner:_ -> true);
          awaiting = Hashtbl.create 8;
          waits = Group.Fd.waiter (Group.Fd.handle fd_group ~me:r);
        }
      in
      Hashtbl.replace states r st;
      (* Pull-based state transfer: membership diffs cannot always tell
         the survivors who rejoined (a member that crashes and recovers
         within a single view change reappears in a view with unchanged
         membership), so an unsynced member asks for the database itself,
         every 150 ms once it is back in the view, until some synced
         member answers. *)
      let resync =
        Network.poller net r ~label:"proto:rejoin" ~every:(Simtime.of_ms 150)
          ~busy:(fun () -> not st.xfer.Common.synced)
          (fun () ->
            if Group.Vscast.in_view vs then
              Common.request_state st.xfer
                ~peers:(List.filter (fun p -> p <> r) replicas))
      in
      (* A stale copy distrusts all it holds: updates it executed whose
         stability died with the old view will be re-executed on
         resubmission, and tentative writes that never reached the group
         are void — the state transfer rebuilds the database. *)
      let go_stale () =
        st.xfer.Common.synced <- false;
        Hashtbl.reset st.executing;
        Store.Kv.reset (Common.store ctx r);
        resync ()
      in
      (* Crash recovery: whatever this replica executed right before the
         crash may never have reached the group. *)
      Network.on_recover net (fun node -> if node = r then go_stale ());
      (* Recovery: an excluded replica asks to rejoin; when a view readmits
         it, every surviving member (locally: anyone whose previous view is
         the new view's predecessor) sends it the database and reply cache,
         so it becomes a valid hot standby again. A member that is itself
         the readmitted joiner must not volunteer state, and it defers any
         claim to primaryship until a state transfer arrives. *)
      Group.Vscast.on_view_change vs (fun view ->
          Common.count ctx
            ~labels:[ ("replica", string_of_int r) ]
            "view_changes_total";
          let rejoined =
            (* Either the view id advanced past us while we were out, or
               the previous view we saw did not contain us: both mean we
               are the stale joiner being readmitted. *)
            view.Group.View.id > st.last_view_id + 1
            || not (List.mem r st.prev_members)
          in
          st.last_view_id <- view.Group.View.id;
          let joiners =
            List.filter
              (fun m -> not (List.mem m st.prev_members))
              view.Group.View.members
          in
          st.prev_members <- view.Group.View.members;
          Hashtbl.reset st.awaiting;
          watch st;
          if rejoined then go_stale ()
          else if st.xfer.Common.synced && joiners <> [] then
            List.iter (fun dst -> Common.donate st.xfer ~dst) joiners);
      (* Backups (and the primary itself) learn updates through VSCAST. *)
      Group.Vscast.on_deliver vs (fun ~origin msg ->
          match msg with
          | Update { client; rid; result; value } ->
              Common.phase_begin ctx ~rid ~replica:r
                ~note:"update stable via VSCAST" Core.Phase.Agreement_coordination;
              if origin <> r then
                (* Backup: apply the primary's writeset. *)
                Store.Apply.apply_writes (Common.store ctx r)
                  result.Store.Apply.writes;
              Hashtbl.replace st.cache rid (true, value);
              Hashtbl.remove st.executing rid;
              Hashtbl.remove st.awaiting rid;
              watch st;
              if origin = r then begin
                (* We executed it: record and answer the client. *)
                Common.record_once ctx ~rid ~replica:r result;
                Common.send_reply ctx ~replica:r ~client ~rid ~committed:true
                  ~value
              end
          | _ -> ());
      Common.on_deliver st.xfer (fun ~src:_ msg ->
          match msg with
          | Preq { client; request } ->
              let rid = request.Store.Operation.rid in
              Common.serve ctx st.cache ~replica:r ~client ~rid (fun () ->
                  if is_primary st && not (Hashtbl.mem st.executing rid) then begin
                    Hashtbl.replace st.executing rid ();
                    Common.phase_begin ctx ~rid ~replica:r
                      ~note:"primary executes (non-determinism allowed)"
                      Core.Phase.Execution;
                    let choose _ = Common.random_choice ctx "" in
                    let result =
                      Store.Apply.execute ~choose (Common.store ctx r)
                        request.Store.Operation.ops
                    in
                    let value = Common.reply_value result in
                    Group.Vscast.broadcast vs
                      (Update { client; rid; result; value })
                  end
                  else if
                    st.xfer.Common.synced && Group.Vscast.in_view vs
                    && head st <> r
                  then begin
                    Hashtbl.replace st.awaiting rid ();
                    watch st
                  end)
          | _ -> ()))
    replicas;
  let submit ~client request cb =
    (* The primary as of submission: retries cycle from it. *)
    let primary = Common.lowest_alive ctx in
    Common.submit_to ctx chan_group ~client ~request
      ~timeout:(Simtime.of_ms 400) ~preferred:(fun () -> primary) (Preq { client; request }) cb
  in
  Common.instance ctx ~info ~submit
