open Sim

type Msg.t +=
  | Ureq of { client : int; request : Store.Operation.request }
  | Writeset of {
      rid : int;
      writes : (Store.Operation.key * int * int) list;
    }

let schema : Config.schema =
  [
    Config.abcast_impl_key;
    {
      Config.name = "propagation_delay";
      ty = Config.TTime;
      default = Config.Time (Simtime.of_ms 5);
      doc =
        "delay before the writeset's reconciliation broadcast (the lazy \
         window in which replicas diverge)";
    };
  ]

let info =
  {
    Core.Technique.name = "Lazy update everywhere";
    community = Databases;
    propagation = Lazy;
    ownership = Update_everywhere;
    requires_determinism = false;
    failure_transparent = false;
    strong_consistency = false;
    expected_phases = [ Request; Execution; Response; Agreement_coordination ];
    (* Measured §5 cost: request (1) and reply (1), plus the deferred
       ABCAST of the writeset for reconciliation — inject (n-1),
       sequencer order (n-1), order acks from every member but the
       sequencer ((n-1)^2): n^2 - 1 messages — after the client already
       returned: n^2 + 1 messages total. *)
    expected_messages = (fun ~n -> (n * n) + 1);
    (* Ureq -> Reply: same total cost as the eager ABCAST variant, but
       the ordering work is off the response path (§5.3 vs §5.4.2). *)
    expected_steps = (fun ~n:_ -> 2);
    section = "4.6";
  }

let conflicts (inst : Core.Technique.instance) =
  Common.sum_replica_counter inst "reconciliation_conflicts_total"
    inst.Core.Technique.replicas

let create ?shared cfg net ~replicas ~clients =
  let abcast_impl =
    Config.abcast_impl_of_enum (Config.get_enum cfg "abcast_impl")
  in
  let propagation_delay = Config.get_time cfg "propagation_delay" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let ab =
    Group.Abcast.create_group net ~members:replicas ~impl:abcast_impl ()
  in
  let chan_group = Common.client_channel ctx in
  List.iter
    (fun r ->
      let cache = Common.reply_cache () in
      let recon = Core.Reconciliation.create (Common.store ctx r) in
      let h = Group.Abcast.handle ab ~me:r in
      (* Redo log: writesets committed locally whose propagation broadcast
         has not fired yet. A crash inside the propagation delay would
         otherwise strand those updates on this copy forever — the classic
         lazy data-loss window. On recovery they are re-broadcast. *)
      let unsent : (int, (Store.Operation.key * int * int) list) Hashtbl.t =
        Hashtbl.create 8
      in
      Network.on_recover net (fun node ->
          if node = r then begin
            let backlog =
              Hashtbl.fold (fun rid ws acc -> (rid, ws) :: acc) unsent []
            in
            Hashtbl.reset unsent;
            List.iter
              (fun (rid, writes) ->
                Common.count ctx
                  ~labels:[ ("replica", string_of_int r) ]
                  "redo_rebroadcasts_total";
                Group.Abcast.broadcast h (Writeset { rid; writes }))
              backlog
          end);
      Group.Abcast.on_deliver h (fun ~origin msg ->
          ignore origin;
          match msg with
          | Writeset { rid; writes } ->
              Common.phase_begin ctx ~rid ~replica:r
                ~note:"reconciliation in after-commit order"
                Core.Phase.Agreement_coordination;
              let before = Core.Reconciliation.conflicts recon in
              ignore (Core.Reconciliation.deliver recon ~tid:rid ~writes);
              let after = Core.Reconciliation.conflicts recon in
              if after > before then
                Common.count ctx ~by:(after - before)
                  ~labels:[ ("replica", string_of_int r) ]
                  "reconciliation_conflicts_total"
          | _ -> ());
      let chan = Group.Rchan.handle chan_group ~me:r in
      Group.Rchan.on_deliver chan (fun ~src msg ->
          ignore src;
          match msg with
          | Ureq { client; request } ->
              let rid = request.Store.Operation.rid in
              Common.serve ctx cache ~replica:r ~client ~rid (fun () ->
                  Common.phase_begin ctx ~rid ~replica:r
                    ~note:"local execution and commit" Core.Phase.Execution;
                  let choose k = Common.random_choice ctx k in
                  let result =
                    Store.Apply.execute ~choose (Common.store ctx r)
                      request.Store.Operation.ops
                  in
                  let value = Common.reply_value result in
                  Hashtbl.replace cache rid (true, value);
                  Common.record_once ctx ~rid ~replica:r result;
                  Common.send_reply ctx ~replica:r ~client ~rid ~committed:true
                    ~value;
                  if result.Store.Apply.writes <> [] then begin
                    Core.Reconciliation.local_commit recon ~tid:rid
                      ~writes:result.Store.Apply.writes;
                    Hashtbl.replace unsent rid result.Store.Apply.writes;
                    ignore
                      (Engine.schedule (Network.engine net) ~label:"proto:propagate"
                         ~after:propagation_delay
                         (Network.guard net r (fun () ->
                              Hashtbl.remove unsent rid;
                              Group.Abcast.broadcast h
                                (Writeset
                                   {
                                     rid;
                                     writes = result.Store.Apply.writes;
                                   }))))
                  end)
          | _ -> ()))
    replicas;
  let submit ~client request cb =
    Common.submit_to ctx chan_group ~client ~request
      ~timeout:(Simtime.of_ms 400) ~preferred:(Common.nearest ctx ~client)
      (Ureq { client; request }) cb
  in
  Common.instance ctx ~info ~submit
