open Sim

type Msg.t +=
  | Req of {
      client : int;
      request : Store.Operation.request;
      reply_from : int option; (* None: every replica answers *)
    }
  | Local_read of { client : int; request : Store.Operation.request }

let schema : Config.schema =
  [
    Config.abcast_impl_key;
    Config.passthrough_key;
    {
      Config.name = "local_reads";
      ty = Config.TBool;
      default = Config.Bool false;
      doc =
        "serve read-only requests from the client's local replica without \
         ordering (sequentially consistent, not linearizable)";
    };
    Config.batch_window_key;
  ]

let info =
  {
    Core.Technique.name = "Active replication";
    community = Distributed_systems;
    propagation = Eager;
    ownership = Update_everywhere;
    requires_determinism = true;
    failure_transparent = true;
    strong_consistency = true;
    expected_phases =
      [ Request; Server_coordination; Execution; Response ];
    (* Measured §5 cost (sequencer ABCAST, `replisim explain`): the
       client injects the request at every member (n), the sequencer
       orders it (n-1), order stability is acked all-to-all (n(n-1)),
       and every replica answers (n): n^2 + 2n - 1 protocol messages. *)
    expected_messages = (fun ~n -> (n * n) + (2 * n) - 1);
    (* Inject -> Order -> Order_ack -> Reply. *)
    expected_steps = 4;
    section = "3.2";
  }

let create ?shared cfg net ~replicas ~clients =
  let abcast_impl =
    Config.abcast_impl_of_enum (Config.get_enum cfg "abcast_impl")
  in
  let passthrough = Config.get_bool cfg "passthrough" in
  let local_reads = Config.get_bool cfg "local_reads" in
  let batch_window = Config.get_time cfg "batch_window" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let ab =
    Group.Abcast.create_group net ~members:replicas ~clients
      ~impl:abcast_impl ~passthrough ~batch_window ()
  in
  let chan_group = Common.client_channel ctx ~passthrough in
  List.iter
    (fun r ->
      let h = Group.Abcast.handle ab ~me:r in
      Group.Abcast.on_deliver h (fun ~origin msg ->
          ignore origin;
          match msg with
          | Req { client; request; reply_from } ->
              let rid = request.Store.Operation.rid in
              Common.phase_begin ctx ~rid ~replica:r
                ~note:"deterministic execution in delivery order"
                Core.Phase.Execution;
              let choose = Common.deterministic_choice ~rid in
              let result =
                Store.Apply.execute ~choose (Common.store ctx r)
                  request.Store.Operation.ops
              in
              Common.record_once ctx ~rid ~replica:r result;
              let should_reply =
                match reply_from with None -> true | Some only -> only = r
              in
              if should_reply then
                Common.send_reply ctx ~replica:r ~client ~rid ~committed:true
                  ~value:(Common.reply_value result)
          | _ -> ());
      let chan = Group.Rchan.handle chan_group ~me:r in
      Group.Rchan.on_deliver chan (fun ~src msg ->
          ignore src;
          match msg with
          | Local_read { client; request } ->
              Common.local_read ctx ~replica:r ~client
                ~counter:"local_reads_total"
                ~note:"local read without ordering (sequentially consistent)"
                request
          | _ -> ()))
    replicas;
  let submit ~client request cb =
    Common.register_submit ctx ~client ~request cb;
    if local_reads && not (Store.Operation.request_is_update request)
    then
      Group.Rchan.send
        (Group.Rchan.handle chan_group ~me:client)
        ~dst:(Common.local_replica ctx ~client)
        (Local_read { client; request })
    else begin
      Common.phase_begin ctx ~rid:request.Store.Operation.rid
        ~note:"atomic broadcast to the group (merged with RE)"
        Core.Phase.Server_coordination;
      let reply_from =
        if local_reads then Some (Common.local_replica ctx ~client) else None
      in
      Group.Abcast.broadcast_from ab ~src:client
        (Req { client; request; reply_from })
    end
  in
  Common.instance ctx ~info ~submit
