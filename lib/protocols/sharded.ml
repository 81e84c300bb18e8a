(* Sharded replication groups (see the .mli for the model). The wrapper
   is pure client-side middleware: it owns no replica, sends no payload
   messages of its own beyond the cross-group 2PC rounds, and builds the
   per-group instances through the wrapped technique's own factory. *)

open Sim

let partition ~shards replicas =
  let n = List.length replicas in
  if shards < 1 then
    invalid_arg (Printf.sprintf "Sharded: shards must be >= 1, got %d" shards);
  if shards > n then
    invalid_arg
      (Printf.sprintf
         "Sharded: %d shards need at least %d replicas, got %d (raise -n or \
          lower shards)"
         shards shards n);
  let arr = Array.of_list replicas in
  let base = n / shards and extra = n mod shards in
  let rec go i start acc =
    if i = shards then List.rev acc
    else
      let size = base + if i < extra then 1 else 0 in
      go (i + 1) (start + size) (Array.to_list (Array.sub arr start size) :: acc)
  in
  go 0 0 []

let probe_group_size ~n ~shards =
  (n / shards) + if n mod shards > 0 then 1 else 0

let create ~shards ~info ?shared ~factory net ~replicas ~clients =
  let groups = partition ~shards replicas in
  let map = Store.Shard_map.create ~shards () in
  let shared =
    match shared with Some s -> s | None -> Common.fresh_shared ()
  in
  (* One technique instance per group, all reporting into the shared
     observability objects. Build order is group order, so instance-id
     allocation stays deterministic. *)
  let subs =
    Array.of_list
      (List.map (fun g -> factory shared net ~replicas:g ~clients) groups)
  in
  let groups_arr = Array.of_list groups in
  let delegate s = List.hd groups_arr.(s) in
  let engine = Network.engine net in
  let now () = Engine.now engine in
  let phase = Common.mark_phase net shared.Common.s_spans in
  let count ?labels ?by name =
    Metrics.incr shared.Common.s_metrics ?labels ?by name
  in
  (* The cross-group commit protocol: one 2PC group spanning every
     delegate plus the clients (a cross-shard transaction's coordinator
     is the submitting client — the middleware tier — which never
     crashes in our campaigns, so no round blocks forever). The vote is
     an availability check: a crashed or partitioned delegate misses
     the deadline and the round presumed-aborts. *)
  let tpc =
    Core.Two_phase_commit.create_group net
      ~nodes:(List.init shards delegate @ clients)
      ~participant_timeout:(Simtime.of_ms 100)
      ~vote:(fun ~me:_ ~txn:_ -> true)
      ~learn:(fun ~me:_ ~txn:_ _ -> ())
      ()
  in
  (* Per-shard routing counters, exposed as time-series when sampling is
     on: shard identity rides in the [replica] slot (shards are the
     natural per-series axis of a sharded run). *)
  let routed = Array.make shards 0 in
  let cross_pending = ref 0 in
  (match Network.timeseries net with
  | Some ts ->
      Array.iteri
        (fun s _ ->
          Timeseries.register ts ~name:"shard_routed" ~replica:s
            ~kind:Timeseries.Level ~unit_:"transactions" (fun () ->
              float_of_int routed.(s)))
        subs;
      Timeseries.register ts ~name:"cross_shard_pending" ~replica:(-1)
        ~kind:Timeseries.Queue ~unit_:"transactions" (fun () ->
          float_of_int !cross_pending)
  | None -> ());
  let shard_label s = [ ("shard", string_of_int s) ] in
  let submit ~client (request : Store.Operation.request) cb =
    match Store.Shard_map.shards_of_request map request with
    | [ s ] ->
        (* Single-shard: the owning group runs the technique unchanged —
           same rid, same signature, no global coordination. *)
        routed.(s) <- routed.(s) + 1;
        count ~labels:(shard_label s) "single_shard_txns_total";
        subs.(s).Core.Technique.submit ~client request cb
    | concerned ->
        let m = List.length concerned in
        List.iter (fun s -> routed.(s) <- routed.(s) + 1) concerned;
        count
          ~labels:[ ("shards", string_of_int m) ]
          "cross_shard_txns_total";
        incr cross_pending;
        let rid = request.Store.Operation.rid in
        let shard_note =
          "shards " ^ String.concat "," (List.map string_of_int concerned)
        in
        phase ~rid ~note:("cross-shard request: " ^ shard_note)
          Core.Phase.Request;
        (match Core.Phase_span.root shared.Common.s_spans ~rid with
        | Some root ->
            Engine.set_ctx engine (Some { Engine.trace = rid; span = root })
        | None -> ());
        phase ~rid ~note:("cross-group 2PC: " ^ shard_note)
          Core.Phase.Agreement_coordination;
        let finish ~committed ~value =
          decr cross_pending;
          phase ~rid
            ~note:(if committed then "cross-shard commit" else "cross-shard abort")
            Core.Phase.Response;
          cb
            {
              Core.Technique.rid;
              committed;
              value;
              at = now ();
              replica = delegate (List.hd concerned);
            }
        in
        Core.Two_phase_commit.start tpc ~coordinator:client
          ~participants:(List.map delegate concerned) ~txn:rid
          ~on_complete:(fun decision ->
            match decision with
            | Core.Two_phase_commit.Abort ->
                count "cross_shard_abort_total";
                finish ~committed:false ~value:None
            | Core.Two_phase_commit.Commit ->
                count "cross_shard_commit_total";
                (* Every concerned group agreed to take its part: run one
                   sub-transaction per group, each under a fresh rid so
                   the group's protocol treats it as an ordinary (single-
                   shard) transaction. *)
                let parts = Store.Shard_map.split_request map request in
                let value_shard = Store.Shard_map.shard_of_last_read map request in
                let waiting = ref (List.length parts) in
                let all_committed = ref true in
                let value = ref None in
                List.iter
                  (fun (s, ops) ->
                    let sub = Store.Operation.request net ~client ops in
                    Store.History.link_parent shared.Common.s_history
                      ~parent:rid ~sub:sub.Store.Operation.rid;
                    phase ~rid
                      ~note:
                        (Printf.sprintf "sub-txn %d on shard %d"
                           sub.Store.Operation.rid s)
                      Core.Phase.Execution;
                    subs.(s).Core.Technique.submit ~client sub
                      (fun (r : Core.Technique.reply) ->
                        if not r.committed then all_committed := false;
                        if value_shard = Some s then value := r.value;
                        decr waiting;
                        if !waiting = 0 then begin
                          count
                            (if !all_committed then "cross_shard_atomic_total"
                             else "cross_shard_partial_total");
                          finish ~committed:!all_committed ~value:!value
                        end))
                  parts)
  in
  {
    Core.Technique.info;
    submit;
    (* Routed reads: a single-shard read is served by the owning group's
       own read path; a cross-shard read has no single replica holding
       all its keys, so it falls back to the full (2PC) submit path. *)
    read_at =
      Some
        (fun ~client ~replica request cb ->
          match Store.Shard_map.shards_of_request map request with
          | [ s ] -> (
              match subs.(s).Core.Technique.read_at with
              | Some f -> f ~client ~replica request cb
              | None -> subs.(s).Core.Technique.submit ~client request cb)
          | _ -> submit ~client request cb);
    read_targets =
      (fun request ->
        match Store.Shard_map.shards_of_request map request with
        | [ s ] -> subs.(s).Core.Technique.read_targets request
        | _ -> []);
    replica_store =
      (fun r ->
        let rec owner s =
          if s >= shards then subs.(0).Core.Technique.replica_store r
          else if List.mem r groups_arr.(s) then
            subs.(s).Core.Technique.replica_store r
          else owner (s + 1)
        in
        owner 0);
    history = shared.Common.s_history;
    spans = shared.Common.s_spans;
    metrics = shared.Common.s_metrics;
    replicas;
    groups;
  }
