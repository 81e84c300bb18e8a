open Sim

type Msg.t +=
  | Req of { client : int; request : Store.Operation.request }
  | Choice of { rid : int; choices : (Store.Operation.key * int) list }

let schema : Config.schema = [ Config.abcast_impl_key; Config.batch_window_key ]

let info =
  {
    Core.Technique.name = "Semi-active replication";
    community = Distributed_systems;
    propagation = Eager;
    ownership = Update_everywhere;
    requires_determinism = false;
    failure_transparent = true;
    strong_consistency = true;
    expected_phases =
      [
        Request; Server_coordination; Execution; Agreement_coordination; Response;
      ];
    (* Same RE->END message pattern as active replication: the leader's
       non-deterministic choices ride VSCAST off the reply path, so on a
       deterministic transaction the measured cost is the ABCAST cost —
       inject at every member (n), sequencer order (n-1), all-to-all
       order acks (n(n-1)), one reply per replica (n). *)
    expected_messages = (fun ~n -> (n * n) + (2 * n) - 1);
    (* Inject -> Order -> Order_ack -> Reply. *)
    expected_steps = 4;
    section = "3.4";
  }

let has_nondet (request : Store.Operation.request) =
  List.exists
    (function Store.Operation.Write_random _ -> true | _ -> false)
    request.ops

type replica_state = {
  me : int;
  (* Requests delivered by ABCAST, executed strictly in order. *)
  mutable queue : (int * Store.Operation.request) list; (* client, request *)
  choices : (int, (Store.Operation.key * int) list) Hashtbl.t; (* by rid *)
  generated : (int, unit) Hashtbl.t; (* choices we vscast, by rid *)
  ex_marked : (int, unit) Hashtbl.t; (* EX phase marked, by rid *)
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
  let vs_group = Group.Vscast.create_group net ~members:replicas () in
  let states = Hashtbl.create 8 in
  (* Execute the queue head once its non-deterministic choices (if any)
     are available; the leader is the one that generates them. *)
  let rec pump r =
    let st = Hashtbl.find states r in
    match st.queue with
    | [] -> ()
    | (client, request) :: rest ->
        let rid = request.Store.Operation.rid in
        let leader = Common.lowest_alive ctx in
        let nondet = has_nondet request in
        let ready_choices = Hashtbl.find_opt st.choices rid in
        if not (Hashtbl.mem st.ex_marked rid) then begin
          Hashtbl.replace st.ex_marked rid ();
          Common.phase_begin ctx ~rid ~replica:r ~note:"execution in delivery order"
            Core.Phase.Execution
        end;
        if nondet && ready_choices = None && r = leader then begin
          if not (Hashtbl.mem st.generated rid) then begin
            Hashtbl.replace st.generated rid ();
            (* The leader makes the choice and informs the followers
               (the AC phase of Figure 4). *)
            let choices =
              List.filter_map
                (function
                  | Store.Operation.Write_random k ->
                      Some (k, Common.random_choice ctx k)
                  | _ -> None)
                request.ops
            in
            Common.count ctx
              ~labels:[ ("replica", string_of_int r) ]
              "nondet_choices_total";
            Common.phase_begin ctx ~rid ~replica:r
              ~note:"leader resolves non-deterministic choice via VSCAST"
              Core.Phase.Agreement_coordination;
            let vs = Group.Vscast.handle vs_group ~me:r in
            Group.Vscast.broadcast vs (Choice { rid; choices })
          end
          (* Execute once our own VSCAST delivery loops back. *)
        end
        else if (not nondet) || ready_choices <> None then begin
          let choices = Option.value ~default:[] ready_choices in
          (* Consume choices positionally per key occurrence. *)
          let remaining = ref choices in
          let choose k =
            match !remaining with
            | (k', v) :: rest when String.equal k k' ->
                remaining := rest;
                v
            | _ -> Common.deterministic_choice ~rid k
          in
          let result =
            Store.Apply.execute ~choose (Common.store ctx r)
              request.Store.Operation.ops
          in
          Common.record_once ctx ~rid ~replica:r result;
          Common.send_reply ctx ~replica:r ~client ~rid ~committed:true
            ~value:(Common.reply_value result);
          st.queue <- rest;
          pump r
        end
  in
  List.iter
    (fun r ->
      let st =
        {
          me = r;
          queue = [];
          choices = Hashtbl.create 16;
          generated = Hashtbl.create 16;
          ex_marked = Hashtbl.create 16;
        }
      in
      Hashtbl.replace states r st;
      let h = Group.Abcast.handle ab ~me:r in
      Group.Abcast.on_deliver h (fun ~origin msg ->
          ignore origin;
          match msg with
          | Req { client; request } ->
              st.queue <- st.queue @ [ (client, request) ];
              pump r
          | _ -> ());
      let vs = Group.Vscast.handle vs_group ~me:r in
      Group.Vscast.on_deliver vs (fun ~origin msg ->
          ignore origin;
          match msg with
          | Choice { rid; choices } ->
              if not (Hashtbl.mem st.choices rid) then
                Hashtbl.replace st.choices rid choices;
              pump r
          | _ -> ());
      (* A leader crash before sending its choice stalls the head request:
         re-pump periodically so the next leader takes over. *)
      ignore
        (Engine.periodic (Network.engine net) ~label:"proto:pump" ~every:(Simtime.of_ms 50)
           (Network.guard net r (fun () -> pump r))))
    replicas;
  let submit ~client request cb =
    Common.register_submit ctx ~client ~request cb;
    Common.phase_begin ctx ~rid:request.Store.Operation.rid
      ~note:"atomic broadcast to the group (merged with RE)"
      Core.Phase.Server_coordination;
    Group.Abcast.broadcast_from ab ~src:client (Req { client; request })
  in
  Common.instance ctx ~info ~submit
