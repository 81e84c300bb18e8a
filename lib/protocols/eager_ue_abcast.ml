open Sim

type Msg.t +=
  | Areq of { client : int; request : Store.Operation.request }
  | Ordered of {
      client : int;
      delegate : int;
      ops : Store.Operation.op list; (* non-determinism resolved *)
      rid : int;
    }

let schema : Config.schema =
  [
    Config.abcast_impl_key;
    Config.client_retry_key ~default:(Simtime.of_ms 500);
    Config.passthrough_key;
    Config.batch_window_key;
  ]

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
       broadcasts the ordered operation — inject, sequencer order and
       all-to-all order acks, n^2 + n - 2 non-self messages — and a
       single reply (1): n^2 + n protocol messages. *)
    expected_messages = (fun ~n -> (n * n) + n);
    (* Areq -> Inject -> Order -> Order_ack -> Reply. *)
    expected_steps = 5;
    section = "4.4.2";
  }

let create ?shared cfg net ~replicas ~clients =
  let abcast_impl =
    Config.abcast_impl_of_enum (Config.get_enum cfg "abcast_impl")
  in
  let client_retry = Config.get_time cfg "client_retry" in
  let passthrough = Config.get_bool cfg "passthrough" in
  let batch_window = Config.get_time cfg "batch_window" in
  let ctx = Common.make ?shared net ~replicas ~clients in
  let ab =
    Group.Abcast.create_group net ~members:replicas ~impl:abcast_impl
      ~passthrough ~batch_window ()
  in
  let chan_group =
    Group.Rchan.create_group net ~nodes:(replicas @ clients) ~passthrough ()
  in
  let forwarded = Hashtbl.create 64 in
  (* (replica, rid) -> outcome cache, for client resubmissions *)
  let caches = Hashtbl.create 8 in
  List.iter (fun r -> Hashtbl.replace caches r (Hashtbl.create 64)) replicas;
  List.iter
    (fun r ->
      let cache : (int, bool * int option) Hashtbl.t = Hashtbl.find caches r in
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
          | Areq { client; request } -> (
              let rid = request.Store.Operation.rid in
              match Hashtbl.find_opt cache rid with
              | Some (committed, value) ->
                  Common.send_reply ctx ~replica:r ~client ~rid ~committed
                    ~value
              | None ->
                  if not (Hashtbl.mem forwarded (r, rid)) then begin
                    Hashtbl.replace forwarded (r, rid) ();
                    Common.count ctx
                      ~labels:[ ("replica", string_of_int r) ]
                      "abcast_forwards_total";
                    Common.phase_begin ctx ~rid ~replica:r
                      ~note:"delegate forwards via atomic broadcast"
                      Core.Phase.Server_coordination;
                    (* The delegate resolves non-determinism so all sites
                       execute identical operations. *)
                    let ops =
                      List.map
                        (function
                          | Store.Operation.Write_random k ->
                              Store.Operation.Write
                                (k, Common.random_choice ctx k)
                          | op -> op)
                        request.Store.Operation.ops
                    in
                    Group.Abcast.broadcast h
                      (Ordered { client; delegate = r; ops; rid })
                  end)
          | _ -> ()))
    replicas;
  let submit ~client request cb =
    Common.register_submit ctx ~client ~request cb;
    let rid = request.Store.Operation.rid in
    let local_replica =
      List.nth ctx.Common.replicas (client mod List.length ctx.Common.replicas)
    in
    let preferred () =
      if Network.alive net local_replica then local_replica
      else Common.lowest_alive ctx
    in
    let send ~dst =
      Group.Rchan.send
        (Group.Rchan.handle chan_group ~me:client)
        ~dst
        (Areq { client; request })
    in
    send ~dst:(preferred ());
    Common.retry_until_replied ctx ~rid ~timeout:client_retry
      ~target:(fun ~attempt ->
        Common.cycling_target ctx ~preferred:(preferred ()) ~attempt)
      ~send
  in
  Common.instance ctx ~info ~submit
