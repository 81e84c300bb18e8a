open Sim

type Msg.t += Req of { client : int; request : Store.Operation.request }

let schema : Config.schema = [ Config.abcast_impl_key; Config.batch_window_key ]

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
  let batch_window = Config.get_time cfg "batch_window" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let ab =
    Group.Abcast.create_group net ~members:replicas ~clients
      ~impl:abcast_impl ~batch_window ()
  in
  List.iter
    (fun r ->
      let h = Group.Abcast.handle ab ~me:r in
      Group.Abcast.on_deliver h (fun ~origin msg ->
          ignore origin;
          match msg with
          | Req { client; request } ->
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
              Common.send_reply ctx ~replica:r ~client ~rid ~committed:true
                ~value:(Common.reply_value result)
          | _ -> ()))
    replicas;
  let submit ~client request cb =
    Common.register_submit ctx ~client ~request cb;
    Common.phase_begin ctx ~rid:request.Store.Operation.rid
      ~note:"atomic broadcast to the group (merged with RE)"
      Core.Phase.Server_coordination;
    Group.Abcast.broadcast_from ab ~src:client (Req { client; request })
  in
  Common.instance ctx ~info ~submit
