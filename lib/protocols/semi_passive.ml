open Sim

type Msg.t += Sreq of { client : int; request : Store.Operation.request }

module Decision_value = struct
  type t = {
    rid : int;
    client : int;
    result : Store.Apply.result;
    value : int option;
  }
end

module C = Group.Consensus.Make (Decision_value)

let schema : Config.schema = []

let info =
  {
    Core.Technique.name = "Semi-passive replication";
    community = Distributed_systems;
    propagation = Eager;
    ownership = Primary;
    requires_determinism = false;
    failure_transparent = true;
    strong_consistency = true;
    expected_phases = [ Request; Execution; Agreement_coordination; Response ];
    (* Measured §5 cost: the client multicasts to all replicas (n); one
       consensus instance — estimates to the coordinator (n-1), its
       proposal (n-1), participant replies (n-1) and an all-to-all
       decision flood (n(n-1)) — then every replica answers (n):
       n^2 + 4n - 3 protocol messages. *)
    expected_messages = (fun ~n -> (n * n) + (4 * n) - 3);
    (* Sreq -> Cons_est -> Cons_proposal -> Cons_reply -> Reply. *)
    expected_steps = 5;
    section = "3.5";
  }

type replica_state = {
  me : int;
  cons : C.t;
  fd : Group.Fd.t;
  pending : (int, int * Store.Operation.request) Hashtbl.t; (* rid -> client, req *)
  done_rids : (int, unit) Hashtbl.t;
  decisions : (int, Decision_value.t) Hashtbl.t; (* out-of-order buffer *)
  mutable next_instance : int;
  mutable proposed_for : int;
  mutable participated_for : int;
}

let create ?shared _cfg net ~replicas ~clients =
  let ctx = Common.make ?shared net ~replicas ~clients in
  let fd_group = Group.Fd.create_group net ~members:replicas () in
  let cons_group = C.create_group net ~members:replicas ~fd:fd_group () in
  let chan_group = Common.client_channel ctx in
  let states = Hashtbl.create 8 in
  (* The deferred-initial-value step: only when this replica believes it is
     the one in charge does it execute the oldest pending request and turn
     the outcome into a consensus proposal. *)
  let maybe_propose r =
    let st = Hashtbl.find states r in
    if Hashtbl.length st.pending > 0 then begin
      (* Every replica with pending work joins the instance (a majority of
         participants is needed for each consensus round) ... *)
      if st.participated_for < st.next_instance then begin
        st.participated_for <- st.next_instance;
        C.participate st.cons ~instance:st.next_instance
      end;
      (* ... but only the replica in charge executes and proposes. *)
      let in_charge =
        match Group.Fd.trusted st.fd with p :: _ -> p = r | [] -> false
      in
      if in_charge && st.proposed_for < st.next_instance then begin
        let oldest =
          Hashtbl.fold
            (fun rid cr acc ->
              match acc with
              | Some (rid', _) when rid' <= rid -> acc
              | _ -> Some (rid, cr))
            st.pending None
        in
        match oldest with
        | None -> ()
        | Some (rid, (client, request)) ->
            st.proposed_for <- st.next_instance;
            Common.phase_begin ctx ~rid ~replica:r
              ~note:"coordinator executes (deferred initial value)"
              Core.Phase.Execution;
            let choose k = Common.random_choice ctx k in
            let shadow = Store.Shadow.create (Common.store ctx r) in
            Store.Shadow.exec_ops ~choose shadow request.Store.Operation.ops;
            let result =
              {
                Store.Apply.reads = Store.Shadow.reads shadow;
                writes =
                  List.map
                    (fun (k, v) ->
                      (k, v, 1 + Store.Kv.version (Common.store ctx r) k))
                    (Store.Shadow.writes shadow);
              }
            in
            C.propose st.cons ~instance:st.next_instance
              {
                Decision_value.rid;
                client;
                result;
                value = Store.Shadow.last_read shadow;
              }
      end
    end
  in
  List.iter
    (fun r ->
      let st =
        {
          me = r;
          cons = C.handle cons_group ~me:r;
          fd = Group.Fd.handle fd_group ~me:r;
          pending = Hashtbl.create 16;
          done_rids = Hashtbl.create 64;
          decisions = Hashtbl.create 8;
          next_instance = 0;
          proposed_for = -1;
          participated_for = -1;
        }
      in
      Hashtbl.replace states r st;
      let chan = Group.Rchan.handle chan_group ~me:r in
      Group.Rchan.on_deliver chan (fun ~src msg ->
          ignore src;
          match msg with
          | Sreq { client; request } ->
              let rid = request.Store.Operation.rid in
              if not (Hashtbl.mem st.done_rids rid) then begin
                Hashtbl.replace st.pending rid (client, request);
                maybe_propose r
              end
          | _ -> ());
      let rec apply_decisions () =
        match Hashtbl.find_opt st.decisions st.next_instance with
        | None -> ()
        | Some { Decision_value.rid; client; result; value } ->
            Hashtbl.remove st.decisions st.next_instance;
            Common.count ctx
              ~labels:[ ("replica", string_of_int r) ]
              "consensus_decisions_total";
            Common.phase_begin ctx ~rid ~replica:r
              ~note:"consensus decides the update (SC/AC merged)"
              Core.Phase.Agreement_coordination;
            if not (Hashtbl.mem st.done_rids rid) then begin
              Hashtbl.replace st.done_rids rid ();
              Store.Apply.apply_writes (Common.store ctx r)
                result.Store.Apply.writes;
              Common.record_once ctx ~rid ~replica:r result;
              Common.send_reply ctx ~replica:r ~client ~rid ~committed:true
                ~value
            end;
            Hashtbl.remove st.pending rid;
            st.next_instance <- st.next_instance + 1;
            maybe_propose r;
            apply_decisions ()
      in
      C.on_decide st.cons (fun ~instance decision ->
          Hashtbl.replace st.decisions instance decision;
          apply_decisions ());
      ignore
        (Engine.periodic (Network.engine net) ~label:"proto:pump" ~every:(Simtime.of_ms 50)
           (Network.guard net r (fun () -> maybe_propose r))))
    replicas;
  let submit ~client request cb =
    Common.register_submit ctx ~client ~request cb;
    let chan = Group.Rchan.handle chan_group ~me:client in
    List.iter
      (fun dst ->
        Group.Rchan.send chan ~dst (Sreq { client; request }))
      replicas
  in
  Common.instance ctx ~info ~submit
