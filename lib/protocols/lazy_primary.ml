open Sim

type Msg.t +=
  | Lpreq of { client : int; request : Store.Operation.request }
  | Refresh of {
      rid : int;
      writes : (Store.Operation.key * int * int) list;
    }

let propagation_delay_key =
  {
    Config.name = "propagation_delay";
    ty = Config.TTime;
    default = Config.Time (Simtime.of_ms 5);
    doc = "lazy refresh delay after the reply (the paper's §5.3 window)";
  }

let schema : Config.schema = [ propagation_delay_key ]

let info =
  {
    Core.Technique.name = "Lazy primary copy";
    community = Databases;
    propagation = Lazy;
    ownership = Primary;
    requires_determinism = false;
    failure_transparent = false;
    strong_consistency = false;
    expected_phases = [ Request; Execution; Response; Agreement_coordination ];
    (* Measured §5 cost: request (1) and reply (1) frame the
       transaction; after the reply the primary FIFO-broadcasts the
       writeset to the n-1 others, and once the primary goes idle its
       stability notice follows (n-1): 2n messages per transaction, but
       only 2 before the client returns. On a network declared
       loss-free there is no notice: the paper's n+1. *)
    expected_messages = (fun ~n -> 2 * n);
    (* Lpreq -> Reply: propagation is off the response path — the
       paper's defining property of lazy techniques (§5.3). *)
    expected_steps = 2;
    section = "4.5 / 5.3";
  }

let create ?shared cfg net ~replicas ~clients =
  let propagation_delay = Config.get_time cfg "propagation_delay" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let bcast_group = Group.Rbcast.create_group net ~members:replicas () in
  let chan_group = Common.client_channel ctx in
  let is_primary r = Common.lowest_alive ctx = r in
  List.iter
    (fun r ->
      let cache = Common.reply_cache () in
      let bcast = Group.Rbcast.handle bcast_group ~me:r in
      Group.Rbcast.on_deliver bcast (fun ~origin msg ->
          match msg with
          | Refresh { rid; writes } ->
              if origin <> r then begin
                Common.phase_begin ctx ~rid ~replica:r
                  ~note:"secondary applies propagated changes"
                  Core.Phase.Agreement_coordination;
                Store.Apply.apply_writes (Common.store ctx r) writes;
                Hashtbl.replace cache rid (true, None)
              end
          | _ -> ());
      let chan = Group.Rchan.handle chan_group ~me:r in
      Group.Rchan.on_deliver chan (fun ~src msg ->
          ignore src;
          match msg with
          | Lpreq { client; request } ->
              let rid = request.Store.Operation.rid in
              Common.serve ctx cache ~replica:r ~client ~rid (fun () ->
                  if not (Store.Operation.request_is_update request) then
                    (* Local reads: response time is the whole point of
                       lazy replication — and the data may be stale. *)
                    Common.local_read ctx ~replica:r ~client
                      ~counter:"local_reads_total"
                      ~note:"local read (possibly stale)" request
                  else if is_primary r then begin
                    Common.phase_begin ctx ~rid ~replica:r
                      ~note:"primary executes and commits locally"
                      Core.Phase.Execution;
                    let choose k = Common.random_choice ctx k in
                    let result =
                      Store.Apply.execute ~choose (Common.store ctx r)
                        request.Store.Operation.ops
                    in
                    let value = Common.reply_value result in
                    Hashtbl.replace cache rid (true, value);
                    Common.record_once ctx ~rid ~replica:r result;
                    (* Respond first ... *)
                    Common.send_reply ctx ~replica:r ~client ~rid
                      ~committed:true ~value;
                    (* ... and propagate afterwards (END before AC). *)
                    ignore
                      (Engine.schedule (Network.engine net) ~label:"proto:propagate"
                         ~after:propagation_delay
                         (Network.guard net r (fun () ->
                              Common.count ctx "propagations_total";
                              Common.phase_begin ctx ~rid ~replica:r
                                ~note:"change propagation after commit"
                                Core.Phase.Agreement_coordination;
                              Group.Rbcast.broadcast bcast
                                (Refresh
                                   {
                                     rid;
                                     writes = result.Store.Apply.writes;
                                   }))))
                  end)
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
      ~timeout:(Simtime.of_ms 400) ~preferred (Lpreq { client; request }) cb
  in
  Common.instance ctx ~info ~submit
