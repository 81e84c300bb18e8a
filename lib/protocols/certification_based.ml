open Sim

type Msg.t +=
  | Creq of { client : int; request : Store.Operation.request }
  | Certify of {
      rid : int;
      client : int;
      delegate : int;
      reads : (Store.Operation.key * int) list;
      writes : (Store.Operation.key * int * int) list;
      value : int option;
    }

let schema : Config.schema =
  [
    Config.abcast_impl_key;
    {
      Config.name = "certify_time";
      ty = Config.TTime;
      default = Config.Time Simtime.zero;
      doc = "simulated cost of the certification test at each replica";
    };
    {
      Config.name = "optimistic";
      ty = Config.TBool;
      default = Config.Bool false;
      doc =
        "certify at optimistic delivery (KPAS99a): the test overlaps the \
         ordering protocol and is not re-paid when the spontaneous order \
         holds";
    };
    Config.batch_window_key;
  ]

let info =
  {
    Core.Technique.name = "Certification-based replication";
    community = Databases;
    propagation = Eager;
    ownership = Update_everywhere;
    requires_determinism = false;
    failure_transparent = false;
    strong_consistency = true;
    expected_phases = [ Request; Execution; Agreement_coordination; Response ];
    (* Measured §5 cost: request to one replica (1), which executes
       locally and atomically broadcasts the certification writeset —
       inject, sequencer order, all-to-all order acks: n^2 + n - 2
       non-self messages — then replies (1): n^2 + n protocol messages. *)
    expected_messages = (fun ~n -> (n * n) + n);
    (* Creq -> Inject -> Order -> Order_ack -> Reply: certification
       happens at delivery, adding no extra communication step. *)
    expected_steps = 5;
    section = "5.4.2";
  }

(* Every replica of a group certifies the same transactions in the same
   order, so each group's first replica speaks for the group. *)
let aborts (inst : Core.Technique.instance) =
  Common.sum_replica_counter inst "certification_aborts_total"
    (List.map List.hd inst.Core.Technique.groups)

let create ?shared cfg net ~replicas ~clients =
  let abcast_impl =
    Config.abcast_impl_of_enum (Config.get_enum cfg "abcast_impl")
  in
  let certify_time = Config.get_time cfg "certify_time" in
  let optimistic = Config.get_bool cfg "optimistic" in
  let batch_window = Config.get_time cfg "batch_window" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let ab =
    Group.Abcast.create_group net ~members:replicas ~impl:abcast_impl
      ~batch_window ()
  in
  let chan_group = Common.client_channel ctx in
  let engine = Network.engine net in
  List.iter
    (fun r ->
      let cache = Common.reply_cache () in
      let certifier = Core.Certification.create (Common.store ctx r) in
      let h = Group.Abcast.handle ab ~me:r in
      let replica_labels = [ ("replica", string_of_int r) ] in
      (* The certifier is a serial resource: certifications run one after
         another in delivery order, each costing [certify_time] unless a
         still-valid optimistic pre-check already paid for it. *)
      let busy_until = ref Simtime.zero in
      let decision_floor = ref Simtime.zero in
      let commit_count = ref 0 in
      (* rid -> (completion time of the pre-check, commits seen when it
         started). The pre-check is valid if no commit intervened. *)
      let prechecks : (int, Simtime.t * int) Hashtbl.t = Hashtbl.create 32 in
      if optimistic && Simtime.(certify_time > Simtime.zero) then
        Group.Abcast.on_opt_deliver h (fun ~origin:_ msg ->
            match msg with
            | Certify { rid; _ } ->
                if not (Hashtbl.mem prechecks rid) then begin
                  let start = Simtime.max (Engine.now engine) !busy_until in
                  let finish = Simtime.add start certify_time in
                  busy_until := finish;
                  Hashtbl.replace prechecks rid (finish, !commit_count)
                end
            | _ -> ());
      Group.Abcast.on_deliver h (fun ~origin msg ->
          ignore origin;
          match msg with
          | Certify { rid; client; delegate; reads; writes; value } ->
              Common.phase_begin ctx ~rid ~replica:r
                ~note:"deterministic certification in delivery order"
                Core.Phase.Agreement_coordination;
              let now = Engine.now engine in
              let finish =
                if Simtime.equal certify_time Simtime.zero then now
                else
                  match Hashtbl.find_opt prechecks rid with
                  | Some (done_at, commits_at_start)
                    when commits_at_start = !commit_count ->
                      (* Valid optimistic pre-check: only wait for it to
                         finish if it has not already. *)
                      Simtime.max now done_at
                  | _ ->
                      let start = Simtime.max now !busy_until in
                      let f = Simtime.add start certify_time in
                      busy_until := f;
                      f
              in
              (* Decisions must land in delivery order even when a fast
                 pre-checked transaction follows a slow one — the shared
                 certification order is what keeps the replicas' verdicts
                 identical. *)
              let finish = Simtime.max finish !decision_floor in
              decision_floor := finish;
              Hashtbl.remove prechecks rid;
              let decide () =
                let outcome =
                  Core.Certification.offer certifier ~reads ~writes
                in
                let committed = outcome <> None in
                Common.count ctx ~labels:replica_labels
                  (if committed then "certification_commits_total"
                   else "certification_aborts_total");
                if committed then incr commit_count;
                (match outcome with
                | Some installed ->
                    Common.record_once ctx ~rid ~replica:r
                      {
                        Store.Apply.reads =
                          List.map (fun (k, v) -> (k, 0, v)) reads;
                        writes = installed;
                      }
                | None -> ());
                Hashtbl.replace cache rid (committed, value);
                if delegate = r then
                  Common.send_reply ctx ~replica:r ~client ~rid ~committed
                    ~value:(if committed then value else None)
              in
              if Simtime.(finish <= now) then decide ()
              else
                ignore
                  (Engine.schedule_at engine ~label:"proto:decide" ~at:finish
                     (Network.guard net r decide))
          | _ -> ());
      let chan = Group.Rchan.handle chan_group ~me:r in
      Group.Rchan.on_deliver chan (fun ~src msg ->
          ignore src;
          match msg with
          | Creq { client; request } ->
              let rid = request.Store.Operation.rid in
              Common.serve ctx cache ~replica:r ~client ~rid (fun () ->
                  Common.phase_begin ctx ~rid ~replica:r
                    ~note:"optimistic execution on shadow copies"
                    Core.Phase.Execution;
                  let shadow = Store.Shadow.create (Common.store ctx r) in
                  Store.Shadow.exec_ops
                    ~choose:(fun k -> Common.random_choice ctx k)
                    shadow request.Store.Operation.ops;
                  let reads =
                    List.map
                      (fun (k, _, version) -> (k, version))
                      (Store.Shadow.reads shadow)
                  in
                  let writes =
                    List.map (fun (k, v) -> (k, v, 0)) (Store.Shadow.writes shadow)
                  in
                  Group.Abcast.broadcast h
                    (Certify
                       {
                         rid;
                         client;
                         delegate = r;
                         reads;
                         writes;
                         value = Store.Shadow.last_read shadow;
                       }))
          | _ -> ()))
    replicas;
  let submit ~client request cb =
    Common.submit_to ctx chan_group ~client ~request
      ~timeout:(Simtime.of_ms 500) ~preferred:(Common.nearest ctx ~client)
      (Creq { client; request }) cb
  in
  Common.instance ctx ~info ~submit
