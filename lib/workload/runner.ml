open Sim

type factory =
  Network.t -> replicas:int list -> clients:int list -> Core.Technique.instance

type fault =
  | Crash of { at : Simtime.t; replica : int }
  | Recover of { at : Simtime.t; replica : int }
  | Partition of { at : Simtime.t; group : int list; heal_at : Simtime.t }
  | Loss of { at : Simtime.t; probability : float; until : Simtime.t }

type arrival = [ `Closed | `Poisson of float ]

let pp_fault ppf = function
  | Crash { at; replica } ->
      Format.fprintf ppf "crash %d@@%gms" replica (Simtime.to_ms at)
  | Recover { at; replica } ->
      Format.fprintf ppf "recover %d@@%gms" replica (Simtime.to_ms at)
  | Partition { at; group; heal_at } ->
      Format.fprintf ppf "partition [%s] %gms..%gms"
        (String.concat ";" (List.map string_of_int group))
        (Simtime.to_ms at) (Simtime.to_ms heal_at)
  | Loss { at; probability; until } ->
      Format.fprintf ppf "loss %g %gms..%gms" probability (Simtime.to_ms at)
        (Simtime.to_ms until)

let check_faults ~n_replicas faults =
  let endpoints = function
    | Crash { replica; _ } | Recover { replica; _ } -> [ replica ]
    | Partition { group; _ } -> group
    | Loss _ -> []
  in
  let times = function
    | Crash { at; _ } | Recover { at; _ } -> [ at ]
    | Partition { at; heal_at; _ } -> [ at; heal_at ]
    | Loss { at; until; _ } -> [ at; until ]
  in
  let invalid f =
    match List.find_opt (fun r -> r < 0 || r >= n_replicas) (endpoints f) with
    | Some r ->
        Some
          ( f,
            Printf.sprintf "no replica %d (the cluster has replicas 0..%d)" r
              (n_replicas - 1) )
    | None when List.exists (fun t -> Simtime.(t < zero)) (times f) ->
        Some (f, "time must not be negative")
    | None -> None
  in
  (* Recoveries in time order, each using up one crash of its replica
     strictly before it. *)
  let crashes_before replica t =
    List.length
      (List.filter
         (function
           | Crash c -> c.replica = replica && Simtime.(c.at < t) | _ -> false)
         faults)
  in
  let recoveries =
    List.stable_sort
      (fun (a, _, _) (b, _, _) -> Simtime.compare a b)
      (List.filter_map
         (function
           | Recover { at; replica } as f -> Some (at, replica, f) | _ -> None)
         faults)
  in
  let rec unpaired used = function
    | [] -> None
    | (at, replica, f) :: rest ->
        let n = Option.value ~default:0 (List.assoc_opt replica used) in
        if crashes_before replica at <= n then
          Some (f, Printf.sprintf "no earlier crash of replica %d" replica)
        else unpaired ((replica, n + 1) :: List.remove_assoc replica used) rest
  in
  match List.find_map invalid faults with
  | Some e -> Error e
  | None -> ( match unpaired [] recoveries with Some e -> Error e | None -> Ok ())

let schedule_faults net faults =
  let engine = Network.engine net in
  let baseline = Network.drop_probability net in
  let at t f = ignore (Engine.schedule_at engine ~label:"fault" ~at:t f) in
  List.iter
    (function
      | Crash { at = t; replica } -> at t (fun () -> Network.crash net replica)
      | Recover { at = t; replica } -> at t (fun () -> Network.recover net replica)
      | Partition { at = t; group; heal_at } ->
          at t (fun () -> Network.partition net group);
          at heal_at (fun () -> Network.heal net)
      | Loss { at = t; probability; until } ->
          at t (fun () -> Network.set_drop_probability net probability);
          (* A window that never ends leaves nothing queued for its end. *)
          if Simtime.(until < infinity) then
            at until (fun () -> Network.set_drop_probability net baseline))
    faults

type result = {
  committed : int;
  aborted : int;
  unanswered : int;
  latency_ms : Summary.t;
  update_latency_ms : Summary.t;
  read_latency_ms : Summary.t;
  makespan : Simtime.t;
  throughput : float;
  messages : int;
  messages_per_txn : float;
  max_response_gap : Simtime.t;
  converged : bool;
  serializable : bool;
  phase_ms : (Core.Phase.t * Summary.t) list;
  metrics : Metrics.snapshot;
  resubmissions : int;
  dropped : int;
  dropped_loss : int;
  dropped_crashed : int;
  dropped_partitioned : int;
  series : Timeseries.series list;
  events : int;  (* engine events executed — deterministic *)
  drained : bool;
  wall_s : float;  (* wall time inside the event loop — nondeterministic *)
  audit : Audit.summary option;  (* consistency audit, when enabled *)
  router : Router.stats option;  (* routing-tier stats, when routed *)
}

let run_with_instance ?(seed = 11) ?(n_replicas = 3) ?(n_clients = 4)
    ?(net = Network.default_config) ?tune ?(arrival = `Closed)
    ?(faults = []) ?(deadline = Simtime.of_sec 120.)
    ?sample ?profiler ?(tracing = true) ?(analyze = true) ?(audit = false)
    ?router ~spec factory =
  (match check_faults ~n_replicas faults with
  | Ok () -> ()
  | Error (f, reason) ->
      invalid_arg (Format.asprintf "Runner.run: %a: %s" pp_fault f reason));
  let engine = Engine.create ~seed () in
  Engine.set_profiler engine profiler;
  let network = Network.create engine ~n:(n_replicas + n_clients) net in
  Network.set_tracing network tracing;
  let replicas = List.init n_replicas Fun.id in
  let clients = List.init n_clients (fun i -> n_replicas + i) in
  (* The sampler must exist before the factory runs: subsystems register
     their gauges at creation time via [Network.timeseries]. *)
  let sampler =
    match sample with
    | Some interval -> Some (Timeseries.create ~interval engine)
    | None -> None
  in
  Option.iter (Network.set_timeseries network) sampler;
  (match tune with Some f -> f network ~replicas ~clients | None -> ());
  schedule_faults network faults;
  let inst = factory network ~replicas ~clients in
  (* A workload generated for another partitioning sends uncontrolled
     cross-shard traffic (or none where some was asked for). *)
  let groups = List.length inst.Core.Technique.groups in
  if spec.Spec.shards <> groups then
    invalid_arg
      (Printf.sprintf
         "Runner.run: the workload is generated for %d shard(s), the \
          technique runs %d replication group(s)"
         spec.Spec.shards groups);
  (* The audit's Kv watchers and History subscription must be installed
     before the first submission below, or early applies go unseen. *)
  let auditor =
    if not audit then None
    else begin
      let a =
        Audit.create ~engine ~history:inst.Core.Technique.history
          ~groups:inst.Core.Technique.groups
          ~store_of:inst.Core.Technique.replica_store
          ~shards:spec.Spec.shards ()
      in
      (match sampler with Some ts -> Audit.register_series a ts | None -> ());
      Some a
    end
  in
  (* The routing tier, when requested: requests flow client session ->
     router -> replica instead of straight into the technique. With
     [router = None] the dispatch below IS the direct call — nothing
     else is constructed or scheduled, so an unrouted run stays
     byte-identical to the pre-router path. *)
  let routerv =
    Option.map (fun config -> Router.create ~config ~net:network inst) router
  in
  let dispatch ~client request cb =
    match routerv with
    | None -> inst.Core.Technique.submit ~client request cb
    | Some r -> Router.submit r ~client request cb
  in
  (* Flash-crowd load scaling: inside the spike window closed-loop think
     times shrink and open-loop arrival gaps compress by the declared
     intensity. Without a flash crowd both are the identity. *)
  let scale_time span ~at =
    match spec.Spec.flash_crowd with
    | Some fc when Spec.in_flash spec ~at ->
        Simtime.of_us
          (max 1
             (int_of_float
                (float_of_int (Simtime.to_us span) /. fc.Spec.fc_intensity)))
    | _ -> span
  in
  let committed = ref 0 and aborted = ref 0 and submitted = ref 0 in
  let answered = ref 0 in
  let all_lat = ref [] and upd_lat = ref [] and read_lat = ref [] in
  let last_response = ref Simtime.zero in
  let max_gap = ref Simtime.zero in
  let generator = Generator.for_spec spec in
  List.iter
    (fun client ->
      let gen = generator ~seed:(seed + client) in
      let arrival_rng = Sim.Rng.create ~seed:(seed + client + 7919) in
      (* Issue the client's next request; [k] runs after its reply has
         been accounted (the closed loop schedules its next arrival
         there). *)
      let submit_one k =
        let update, request =
          Generator.request ~at:(Engine.now engine) gen network ~client
        in
        incr submitted;
        let submitted_at = Engine.now engine in
        dispatch ~client request (fun reply ->
            incr answered;
            let gap = Simtime.sub reply.Core.Technique.at !last_response in
            if Simtime.(gap > !max_gap) then max_gap := gap;
            last_response := Simtime.max !last_response reply.Core.Technique.at;
            (match auditor with
            | Some a ->
                Audit.note_reply a ~client ~rid:request.Store.Operation.rid
                  ~committed:reply.Core.Technique.committed ~submitted_at
                  ~at:reply.Core.Technique.at
            | None -> ());
            let lat_ms =
              Simtime.to_ms (Simtime.sub reply.Core.Technique.at submitted_at)
            in
            if reply.Core.Technique.committed then begin
              incr committed;
              all_lat := lat_ms :: !all_lat;
              let by_kind = if update then upd_lat else read_lat in
              by_kind := lat_ms :: !by_kind
            end
            else incr aborted;
            k reply)
      in
      match arrival with
      | `Closed ->
          let rec next i =
            if i < spec.Spec.txns_per_client then
              submit_one (fun reply ->
                  ignore
                    (Engine.schedule engine ~label:"client:arrival"
                       ~after:
                         (scale_time spec.Spec.think_time
                            ~at:reply.Core.Technique.at)
                       (fun () -> next (i + 1))))
          in
          next 0
      | `Poisson rate ->
          let rec arrive i =
            if i < spec.Spec.txns_per_client then begin
              submit_one ignore;
              let gap_s = Sim.Rng.exponential arrival_rng ~mean:(1. /. rate) in
              ignore
                (Engine.schedule engine ~label:"client:arrival"
                   ~after:
                     (scale_time (Simtime.of_sec gap_s)
                        ~at:(Engine.now engine))
                   (fun () -> arrive (i + 1)))
            end
          in
          arrive 0)
    clients;
  (* One run until the queue is empty: lazy propagation, retransmissions
     and failure detection all end with their work. The hard stop, ten
     seconds past the probes of a link parked by a crash at the deadline,
     only cuts a run that never drains. *)
  let wall0 = Unix.gettimeofday () in
  let stop =
    Simtime.(add deadline (add Group.Rchan.quiet_after (of_sec 10.)))
  in
  ignore (Engine.run ~until:stop engine);
  let wall_s = Unix.gettimeofday () -. wall0 in
  (* Convergence is judged within each replication group: replicas in
     different groups hold different keyspace partitions (sharding), so
     comparing their stores across groups would be meaningless. Full
     replication is the single group [replicas]. *)
  let group_converged group =
    Core.Convergence.converged
      (List.filter_map
         (fun r ->
           if Network.alive network r then
             Some (inst.Core.Technique.replica_store r)
           else None)
         group)
  in
  let makespan = !last_response in
  let throughput =
    if Simtime.(makespan > Simtime.zero) then
      float_of_int !committed /. Simtime.to_sec makespan
    else 0.
  in
  let messages = Network.messages_sent network in
  (* Flush the span recorder so every phase interval is closed; the
     recorder has collected each span's duration as it closed. *)
  let spans = inst.Core.Technique.spans in
  Core.Phase_span.finalize spans ~at:(Engine.now engine);
  let phase_ms =
    List.map
      (fun (p, ds) -> (p, Summary.summarize ds))
      (Core.Phase_span.samples spans)
  in
  let metrics = Metrics.snapshot inst.Core.Technique.metrics in
  (match profiler with
  | None -> ()
  | Some p ->
      Profiler.set_engine_stats p
        ~events:(Engine.events_executed engine)
        ~scheduled:(Engine.timers_scheduled engine)
        ~cancelled:(Engine.timers_cancelled engine)
        ~queue_peak:(Engine.queue_peak engine);
      Profiler.set_meta p
        ~spans_created:
          (Span.count (Core.Phase_span.collector inst.Core.Technique.spans))
        ~samples_taken:
          (match sampler with Some ts -> Timeseries.total_points ts | None -> 0)
        ());
  ( {
      committed = !committed;
      aborted = !aborted;
      unanswered = !submitted - !answered;
      latency_ms = Summary.summarize !all_lat;
      update_latency_ms = Summary.summarize !upd_lat;
      read_latency_ms = Summary.summarize !read_lat;
      makespan;
      throughput;
      messages;
      messages_per_txn =
        (if !answered = 0 then 0.
         else float_of_int messages /. float_of_int !answered);
      max_response_gap = !max_gap;
      (* With [analyze:false] the O(txns)-and-worse post-run oracles are
         skipped and report vacuous truth — throughput benchmarks only. *)
      converged =
        (not analyze)
        || List.for_all group_converged inst.Core.Technique.groups;
      serializable =
        (not analyze)
        || (match Store.Serializability.check inst.Core.Technique.history with
           | Store.Serializability.Serializable _ -> true
           | _ -> false);
      phase_ms;
      metrics;
      resubmissions =
        Metrics.counter inst.Core.Technique.metrics "resubmissions_total";
      dropped = Network.messages_dropped network;
      dropped_loss = Network.dropped_loss network;
      dropped_crashed = Network.dropped_crashed network;
      dropped_partitioned = Network.dropped_partitioned network;
      series = (match sampler with Some ts -> Timeseries.series ts | None -> []);
      events = Engine.events_executed engine;
      drained = Engine.pending engine = 0;
      wall_s;
      audit = Option.map Audit.finalize auditor;
      router = Option.map Router.stats routerv;
    },
    inst )

let run ?seed ?n_replicas ?n_clients ?net ?tune ?arrival ?faults ?deadline
    ?sample ?profiler ?tracing ?analyze ?audit ?router ~spec factory =
  fst
    (run_with_instance ?seed ?n_replicas ?n_clients ?net ?tune ?arrival
       ?faults ?deadline ?sample ?profiler ?tracing ?analyze ?audit ?router
       ~spec factory)

let pp_result ppf r =
  Format.fprintf ppf
    "committed=%d aborted=%d unanswered=%d tput=%.1f/s lat(ms)[%a] msgs/txn=%.1f converged=%b 1SR=%b"
    r.committed r.aborted r.unanswered r.throughput Summary.pp
    r.latency_ms r.messages_per_txn r.converged r.serializable
