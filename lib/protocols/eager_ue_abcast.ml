open Sim

type Msg.t +=
  | Areq of { client : int; request : Store.Operation.request }
  | Ordered of {
      client : int;
      delegate : int;
      ops : Store.Operation.op list; (* non-determinism resolved *)
      rid : int;
    }

let schema : Config.schema = [ Config.abcast_impl_key; Config.batch_window_key ]

let info =
  {
    Core.Technique.name = "Eager update everywhere (ABCAST)";
    community = Databases;
    propagation = Eager;
    ownership = Update_everywhere;
    requires_determinism = false;
    failure_transparent = false;
    strong_consistency = true;
    expected_phases = [ Request; Server_coordination; Execution; Response ];
    (* Measured §5 cost: request to one replica (1), which atomically
       broadcasts the ordered operation — inject (n-1), sequencer
       order (n-1) and order acks from every member but the sequencer
       ((n-1)^2), n^2 - 1 messages — and a single reply (1): n^2 + 1
       protocol messages. *)
    expected_messages = (fun ~n -> (n * n) + 1);
    (* Areq -> Order -> Order_ack -> Reply: the replica that takes the
       request is the sequencer, whose own inject never leaves it. *)
    expected_steps = (fun ~n:_ -> 4);
    section = "4.4.2";
  }

let create ?shared cfg net ~replicas ~clients =
  let abcast_impl =
    Config.abcast_impl_of_enum (Config.get_enum cfg "abcast_impl")
  in
  let batch_window = Config.get_time cfg "batch_window" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let ab =
    Group.Abcast.create_group net ~members:replicas ~impl:abcast_impl
      ~batch_window ()
  in
  let chan_group = Common.client_channel ctx in
  let forwarded = Hashtbl.create 64 in
  List.iter
    (fun r ->
      let cache = Common.reply_cache () in
      let h = Group.Abcast.handle ab ~me:r in
      Group.Abcast.on_deliver h (fun ~origin msg ->
          ignore origin;
          match msg with
          | Ordered { client; delegate; ops; rid } ->
              if not (Hashtbl.mem cache rid) then begin
                Common.phase_begin ctx ~rid ~replica:r
                  ~note:"execution in ABCAST delivery order" Core.Phase.Execution;
                let result =
                  Store.Apply.execute (Common.store ctx r) ops
                in
                Common.record_once ctx ~rid ~replica:r result;
                let value = Common.reply_value result in
                Hashtbl.replace cache rid (true, value);
                if delegate = r then
                  Common.send_reply ctx ~replica:r ~client ~rid ~committed:true
                    ~value
              end
          | _ -> ());
      let chan = Group.Rchan.handle chan_group ~me:r in
      Group.Rchan.on_deliver chan (fun ~src msg ->
          ignore src;
          match msg with
          | Areq { client; request } ->
              let rid = request.Store.Operation.rid in
              Common.serve ctx cache ~replica:r ~client ~rid (fun () ->
                  if not (Hashtbl.mem forwarded (r, rid)) then begin
                    Hashtbl.replace forwarded (r, rid) ();
                    Common.count ctx
                      ~labels:[ ("replica", string_of_int r) ]
                      "abcast_forwards_total";
                    Common.phase_begin ctx ~rid ~replica:r
                      ~note:"delegate forwards via atomic broadcast"
                      Core.Phase.Server_coordination;
                    let ops =
                      Common.resolve_random ctx request.Store.Operation.ops
                    in
                    Group.Abcast.broadcast h
                      (Ordered { client; delegate = r; ops; rid })
                  end)
          | _ -> ()))
    replicas;
  let submit ~client request cb =
    Common.submit_to ctx chan_group ~client ~request
      ~timeout:(Simtime.of_ms 500) ~preferred:(Common.nearest ctx ~client)
      (Areq { client; request }) cb
  in
  Common.instance ctx ~info ~submit
