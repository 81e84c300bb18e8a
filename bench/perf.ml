(* The performance study the paper announces in §6: "a performance study
   of the different approaches, taking into account different workloads
   and failures assumptions". Absolute numbers are simulator-relative;
   the comparisons (who wins, where, by what shape) are the result. Each
   experiment is an [Exp] declaration; its BENCH_perfN.json rows are the
   numbers its table prints (CI judges them against ci/gates.txt with
   [replisim compare]). *)

open Sim

(* Every technique under its defaults; the experiments that run them on
   [Exp.net] see wire traffic == protocol message pattern. *)
let techniques =
  List.map (fun key -> (key, Exp.factory key)) Protocols.Registry.keys

let abort_pct (result : Workload.Runner.result) =
  let total = result.committed + result.aborted in
  if total = 0 then 0.
  else 100. *. float_of_int result.aborted /. float_of_int total

(* --- perf1: response time vs degree of replication ------------------- *)

let latency_vs_replicas =
  Exp.v "perf1"
    "Update response time (ms, mean) vs number of replicas (100% updates)"
  @@ fun x ->
  let spec = Workload.Builder.spec ~updates:1.0 ~txns:30 ~keys:200 () in
  let ns = [ 3; 5; 7; 9 ] in
  Exp.table ~width:10 (List.map (Printf.sprintf "n=%d") ns) techniques
  @@ fun name factory ->
  List.map
    (fun n ->
      let r =
        Workload.Runner.run ~net:Exp.net ~n_replicas:n ~n_clients:2 ~spec
          factory
      in
      Printf.sprintf "%.2f"
        (Exp.note x ~metric:"latency_mean" ~technique:name ~unit_:"ms"
           ~params:[ ("n", string_of_int n) ] r.latency_ms.mean))
    ns

(* --- perf2: throughput and aborts vs update ratio --------------------- *)

let mix_sweep =
  Exp.v "perf2"
    "Throughput (committed txn/s) and abort rate vs update ratio (n=3)"
  @@ fun x ->
  let ratios = [ 0.0; 0.2; 0.5; 0.8; 1.0 ] in
  Exp.table ~width:16
    (List.map (fun r -> Printf.sprintf "%.0f%%upd" (100. *. r)) ratios)
    techniques
  @@ fun name factory ->
  List.map
    (fun update_ratio ->
      let spec =
        Workload.Builder.spec ~updates:update_ratio ~txns:40 ~keys:50
          ~skew:0.9 ()
      in
      let r = Workload.Runner.run ~net:Exp.net ~n_clients:4 ~spec factory in
      let note =
        Exp.note x ~technique:name
          ~params:[ ("update_ratio", Printf.sprintf "%.1f" update_ratio) ]
      in
      let tput = note ~metric:"throughput" ~unit_:"txn/s" r.throughput in
      let ab = note ~metric:"abort_pct" ~unit_:"%" (abort_pct r) in
      Printf.sprintf "%.0f/s %.0f%%ab" tput ab)
    ratios

(* --- perf3: failover behaviour ---------------------------------------- *)

let failover =
  Exp.v "perf3"
    "Failure assumptions: crash of replica 0 at t=100ms under a steady \
     update stream"
    ~reading:
      "active/semi-active/semi-passive mask the crash (gap ≈ detection \
       time);\n\
       primary-based techniques pay a visible take-over (client retry) \
       spike."
  @@ fun x ->
  let spec =
    Workload.Builder.spec ~updates:1.0 ~txns:40 ~think:(Simtime.of_ms 2) ()
  in
  Fmt.pr "%-18s %14s %14s %10s %10s@." "technique" "max gap (ms)"
    "p99 lat (ms)" "committed" "converged";
  List.iter
    (fun (name, factory) ->
      let r =
        Workload.Runner.run ~net:Exp.net ~n_replicas:3 ~n_clients:2 ~spec
          ~faults:[ Workload.Runner.Crash { at = Simtime.of_ms 100; replica = 0 } ]
          factory
      in
      let note = Exp.note x ~technique:name ~unit_:"ms" in
      let gap =
        note ~metric:"max_response_gap" (Simtime.to_ms r.max_response_gap)
      in
      let p99 = note ~metric:"latency_p99" r.latency_ms.p99 in
      let committed =
        Exp.count x ~metric:"committed" ~technique:name ~unit_:"txns"
          r.committed
      in
      Fmt.pr "%-18s %14.1f %14.1f %10d %10b@." name gap p99 committed
        r.converged)
    techniques

(* --- perf4: eager vs lazy --------------------------------------------- *)

let eager_vs_lazy =
  Exp.v "perf4" "Eager vs lazy: client latency vs inconsistency window (n=3)"
    ~reading:
      "lazy halves the client-visible latency but leaves a window\n\
       during which copies diverge; eager pays the coordination before END."
  @@ fun x ->
  Fmt.pr "%-18s %16s %22s@." "technique" "upd latency (ms)"
    "convergence lag (ms)";
  let measure name =
    (* Custom loop to measure how long after the last client response the
       replicas take to converge: step the engine until no reply is
       outstanding, then in 1 ms slices until the stores agree. *)
    let engine = Engine.create ~seed:21 () in
    let net = Network.create engine ~n:5 Exp.net in
    let replicas = [ 0; 1; 2 ] and clients = [ 3; 4 ] in
    let inst = Exp.factory name net ~replicas ~clients in
    let lat = ref [] in
    let last = ref Simtime.zero in
    let gen = Workload.Generator.create ~seed:5
        (Workload.Builder.spec ~updates:1.0 ~txns:20 ())
    in
    List.iter
      (fun client ->
        let rec go i =
          if i < 20 then begin
            let _, req = Workload.Generator.request gen net ~client in
            let t0 = Engine.now engine in
            inst.Core.Technique.submit ~client req (fun reply ->
                lat := Simtime.to_ms (Simtime.sub reply.Core.Technique.at t0) :: !lat;
                last := Simtime.max !last reply.Core.Technique.at;
                go (i + 1))
          end
        in
        go 0)
      clients;
    (* Run until no more client work is outstanding. *)
    let rec drain_replies () =
      let before = !last in
      ignore
        (Engine.run
           ~until:(Simtime.add (Engine.now engine) (Simtime.of_ms 50))
           engine);
      if Simtime.(!last > before) then drain_replies ()
    in
    drain_replies ();
    let stores = List.map inst.Core.Technique.replica_store replicas in
    let t_last = !last in
    let rec until_converged () =
      if
        Core.Convergence.converged stores
        || Simtime.(Engine.now engine > Simtime.of_sec 60.)
      then Engine.now engine
      else begin
        ignore
          (Engine.run
             ~until:(Simtime.add (Engine.now engine) (Simtime.of_ms 1))
             engine);
        until_converged ()
      end
    in
    let t_conv = until_converged () in
    let lag = Simtime.to_ms (Simtime.sub t_conv t_last) in
    ((Summary.summarize !lat).Summary.mean, lag)
  in
  (* Each eager technique beside its lazy counterpart. *)
  List.iter
    (fun name ->
      let latency, lag = measure name in
      let note = Exp.note x ~technique:name ~unit_:"ms" in
      let latency = note ~metric:"update_latency_mean" latency in
      let lag = note ~metric:"convergence_lag" lag in
      Fmt.pr "%-18s %16.2f %22.1f@." name latency lag)
    [ "eager-primary"; "lazy-primary"; "eager-ue-abcast"; "lazy-ue" ]

(* --- perf5: messages per transaction ----------------------------------- *)

let message_counts =
  Exp.v "perf5" "Messages and communication steps per update transaction"
    ~reading:
      "lazy primary is the cheapest (one round + deferred refresh);\n\
       distributed locking pays per-operation lock+exec rounds plus 2PC."
  @@ fun x ->
  Fmt.pr "%-18s %12s %14s@." "technique" "msgs/txn" "latency (ms)";
  List.iter
    (fun (name, factory) ->
      (* Background traffic (heartbeats) is measured on an idle instance
         and subtracted. *)
      let instance () =
        let engine = Engine.create ~seed:9 () in
        let net = Network.create engine ~n:4 Exp.net in
        (engine, net, factory net ~replicas:[ 0; 1; 2 ] ~clients:[ 3 ])
      in
      let idle_rate =
        let engine, net, _ = instance () in
        ignore (Engine.run ~until:(Simtime.of_sec 1.) engine);
        float_of_int (Network.messages_sent net)
      in
      let engine, net, inst = instance () in
      let n_txns = 50 in
      let lat = ref [] in
      let rec go i =
        if i < n_txns then begin
          let req =
            Store.Operation.request net ~client:3 [ Store.Operation.Incr ("x", 1) ]
          in
          let t0 = Engine.now engine in
          inst.Core.Technique.submit ~client:3 req (fun reply ->
              lat := Simtime.to_ms (Simtime.sub reply.Core.Technique.at t0) :: !lat;
              go (i + 1))
        end
      in
      go 0;
      ignore (Engine.run ~until:(Simtime.of_sec 1.) engine);
      let total = float_of_int (Network.messages_sent net) in
      let note = Exp.note x ~technique:name in
      let per_txn =
        note ~metric:"messages_per_txn" ~unit_:"messages"
          (max 0. ((total -. idle_rate) /. float_of_int n_txns))
      in
      let latency =
        note ~metric:"latency_mean" ~unit_:"ms" (Summary.summarize !lat).mean
      in
      Fmt.pr "%-18s %12.1f %14.2f@." name per_txn latency)
    techniques

(* --- perf6: LAN vs WAN ------------------------------------------------- *)

let wan =
  Exp.v "perf6"
    "Geo-distribution: update latency (ms, mean), LAN vs WAN between sites"
    ~reading:
      "over a WAN the coordination rounds dominate: eager\n\
       techniques inflate by the number of wide-area round trips they\n\
       make before END, while lazy techniques stay at the local round\n\
       trip — the paper's \"access data locally\" motivation (§4)."
  @@ fun x ->
  (* WAN: replicas sit at distant sites (25ms one-way between them);
     each client is co-located with its local replica (0.5ms). *)
  let wan_tune net ~replicas ~clients =
    let wan = Network.Constant (Simtime.of_ms 25) in
    let lan = Network.Uniform (Simtime.of_us 300, Simtime.of_us 700) in
    List.iter
      (fun a ->
        List.iter
          (fun b -> if a < b then Network.set_link_latency net a b wan)
          replicas)
      replicas;
    List.iter
      (fun c ->
        let local = List.nth replicas (c mod List.length replicas) in
        List.iter
          (fun r ->
            Network.set_link_latency net c r
              (if r = local then lan else wan))
          replicas)
      clients
  in
  let spec = Workload.Builder.spec ~updates:1.0 ~txns:20 () in
  Fmt.pr "%-18s %12s %12s %10s@." "technique" "LAN" "WAN" "ratio";
  List.iter
    (fun (name, factory) ->
      let lan = Workload.Runner.run ~net:Exp.net ~n_clients:3 ~spec factory in
      let wan =
        Workload.Runner.run ~net:Exp.net ~n_clients:3 ~spec ~tune:wan_tune
          ~deadline:(Simtime.of_sec 600.) factory
      in
      let note =
        Exp.note x ~metric:"latency_mean" ~technique:name ~unit_:"ms"
      in
      let l = note ~params:[ ("net", "lan") ] lan.latency_ms.mean in
      let w = note ~params:[ ("net", "wan") ] wan.latency_ms.mean in
      Fmt.pr "%-18s %12.2f %12.2f %9.1fx@." name l w
        (if l > 0. then w /. l else 0.))
    techniques

(* --- perf7: where the time goes, phase by phase ------------------------ *)

let phase_breakdown =
  Exp.v "perf7"
    "Phase-by-phase latency decomposition (ms, mean span duration over a \
     100%-update run)"
    ~reading:
      "the functional model's phases as a latency budget, read\n\
       off each transaction's span tree. The tail column is span activity\n\
       after END — lazy propagation (AC after END) or slow replicas the\n\
       client never waits for."
  @@ fun x ->
  let columns = [ "RE"; "SC"; "EX"; "AC"; "total"; "tail" ] in
  Exp.table ~width:11 columns techniques
  @@ fun name factory ->
  let engine = Engine.create ~seed:77 () in
  let net = Network.create engine ~n:5 Exp.net in
  let replicas = [ 0; 1; 2 ] and clients = [ 3; 4 ] in
  let inst = factory net ~replicas ~clients in
  List.iter
    (fun client ->
      let rec go i =
        if i < 15 then
          inst.Core.Technique.submit ~client
            (Store.Operation.request net ~client
               [ Store.Operation.Incr (Printf.sprintf "k%d" i, 1) ])
            (fun _ -> go (i + 1))
      in
      go 0)
    clients;
  ignore (Engine.run ~until:(Simtime.of_sec 60.) engine);
  (* Span durations, not reverse-engineered mark gaps: each phase
     span's length is exactly the time until the next phase opened. *)
  let spans = inst.Core.Technique.spans in
  Core.Phase_span.finalize spans ~at:(Engine.now engine);
  let totals = Hashtbl.create 8 in
  let add key v =
    let s, c = Option.value ~default:(0., 0) (Hashtbl.find_opt totals key) in
    Hashtbl.replace totals key (v +. s, c + 1)
  in
  List.iter
    (fun rid ->
      if Core.Phase_span.responded spans ~rid then begin
        let ps = Core.Phase_span.phase_spans spans ~rid in
        let start_of p =
          Option.map (fun s -> s.Sim.Span.start) (List.assoc_opt p ps)
        in
        let re = start_of Core.Phase.Request in
        let fin = start_of Core.Phase.Response in
        (match (re, fin) with
        | Some a, Some b when Simtime.(b >= a) ->
            add "total" (Simtime.to_ms (Simtime.sub b a))
        | _ -> ());
        List.iter
          (fun (p, s) ->
            match p with
            | Core.Phase.Response -> ()
            | _ -> (
                let post_end =
                  match fin with
                  | Some e -> Simtime.(s.Sim.Span.start >= e)
                  | None -> false
                in
                match (post_end, s.Sim.Span.stop, fin) with
                | true, Some stop, Some e ->
                    (* Activity after END: lazy propagation, or slow
                       replicas finishing — the client never waits. *)
                    add "tail" (Simtime.to_ms (Simtime.sub stop e))
                | false, _, _ ->
                    add (Core.Phase.code p)
                      (Option.value ~default:0. (Sim.Span.duration_ms s))
                | _ -> ()))
          ps
      end)
    (Core.Phase_span.rids spans);
  List.map
    (fun key ->
      match Hashtbl.find_opt totals key with
      | Some (s, c) ->
          Printf.sprintf "%.2f"
            (Exp.note x ~metric:"phase_mean" ~technique:name ~unit_:"ms"
               ~params:[ ("phase", key) ]
               (s /. float_of_int c))
      | _ -> "-")
    columns

(* --- perf8: response time through a crash/recovery window -------------- *)

let crash_recovery_windows =
  Exp.v "perf8"
    "Failure assumptions: response time (ms, mean) before / during / after \
     a crash-recovery window (replica 0 down 100..250ms, n=3, 2 clients, \
     updates)"
    ~reading:
      "group-communication techniques mask the crash (during ~=\n\
       before, no resubmissions); primary-copy techniques pay a failover\n\
       spike (during >> before) and client resubmissions; after recovery the\n\
       rejoined replica serves again and latency returns to the baseline."
  @@ fun x ->
  (* Default (non-passthrough) stacks: failure handling needs the stubborn
     channels, so wire traffic is not the measured quantity here. *)
  let crash = Simtime.of_ms 100 and recover = Simtime.of_ms 250 in
  let spec =
    Workload.Builder.spec ~updates:1.0 ~txns:50 ~think:(Simtime.of_ms 2) ()
  in
  Fmt.pr "%-18s %10s %10s %10s %9s %12s@." "technique" "before" "during"
    "after" "resubmit" "max gap (ms)";
  List.iter
    (fun name ->
      let result, inst =
        Workload.Runner.run_with_instance ~n_clients:2 ~spec
          ~faults:
            Workload.Runner.
              [ Crash { at = crash; replica = 0 }; Recover { at = recover; replica = 0 } ]
          ~deadline:(Simtime.of_sec 300.)
          (Exp.factory name)
      in
      (* Bucket each answered transaction by its response instant: the
         span tree records absolute times, so the crash window is visible
         directly rather than only as a global mean. *)
      let spans = inst.Core.Technique.spans in
      let buckets = [| ref []; ref []; ref [] |] in
      List.iter
        (fun rid ->
          if Core.Phase_span.responded spans ~rid then
            match Core.Phase_span.phase_spans spans ~rid with
            | [] -> ()
            | (_, first) :: _ as ps -> (
                match List.assoc_opt Core.Phase.Response ps with
                | None -> ()
                | Some resp ->
                    let lat =
                      Simtime.to_ms
                        (Simtime.sub resp.Span.start first.Span.start)
                    in
                    let b =
                      if Simtime.(resp.Span.start < crash) then 0
                      else if Simtime.(resp.Span.start < recover) then 1
                      else 2
                    in
                    buckets.(b) := lat :: !(buckets.(b))))
        (Core.Phase_span.rids spans);
      let cells =
        List.mapi
          (fun b window ->
            match !(buckets.(b)) with
            | [] -> "-"
            | ls ->
                let n = List.length ls in
                Printf.sprintf "%.1f (%d)"
                  (Exp.note x ~metric:"latency_mean" ~technique:name
                     ~unit_:"ms" ~params:[ ("window", window) ]
                     (List.fold_left ( +. ) 0. ls /. float_of_int n))
                  n)
          [ "before"; "during"; "after" ]
      in
      let resubmissions =
        Exp.count x ~metric:"resubmissions" ~technique:name ~unit_:"count"
          result.resubmissions
      in
      Fmt.pr "%-18s" name;
      List.iter (Fmt.pr " %10s") cells;
      Fmt.pr " %9d %12.1f@." resubmissions
        (Simtime.to_ms result.max_response_gap))
    [
      "active";
      "passive";
      "semi-passive";
      "eager-primary";
      "eager-ue-locking";
      "lazy-ue";
      "certification";
    ]

(* --- perf9: abort/block rates vs loss and partition duration ------------ *)

let loss_and_partition_rates =
  Exp.v "perf9"
    "Failure assumptions: abort / blocked rates vs message-loss probability \
     and vs partition duration (n=3, 2 clients, updates)"
    ~reading:
      "loss is absorbed by retransmission everywhere (aborts only\n\
       from lock timeouts under delay); partitions price the strategies\n\
       apart — 2PC techniques may block or abort while the majority side of\n\
       a group-communication technique keeps committing."
  @@ fun x ->
  let spec =
    Workload.Builder.spec ~updates:1.0 ~txns:25 ~think:(Simtime.of_ms 2) ()
  in
  (* One table: a row per technique, a column per swept value. *)
  let sweep corner values ~column ~param run =
    Exp.table ~corner ~width:16 (List.map column values)
      (List.map
         (fun name -> (name, Exp.factory name))
         [ "active"; "eager-primary"; "eager-ue-locking"; "lazy-ue";
           "certification" ])
    @@ fun name factory ->
    List.map
      (fun v ->
        let result = run factory v in
        let params = [ param v ] in
        let ab =
          Exp.note x ~metric:"abort_pct" ~technique:name ~unit_:"%" ~params
            (abort_pct result)
        in
        let blocked =
          Exp.count x ~metric:"blocked" ~technique:name ~unit_:"txns" ~params
            result.unanswered
        in
        Printf.sprintf "%.0f%%ab %dblk" ab blocked)
      values
  in
  sweep "loss probability" [ 0.0; 0.02; 0.05; 0.10 ]
    ~column:(Printf.sprintf "p=%.2f")
    ~param:(fun p -> ("loss_p", Printf.sprintf "%.2f" p))
    (fun factory p ->
      Workload.Runner.run ~n_clients:2 ~spec
        ~tune:(fun net ~replicas:_ ~clients:_ ->
          Sim.Network.set_drop_probability net p)
        ~deadline:(Simtime.of_sec 300.) factory);
  Fmt.pr "@.";
  sweep "partition of r2" [ 100; 300; 600 ]
    ~column:(Printf.sprintf "%dms")
    ~param:(fun d -> ("partition_ms", string_of_int d))
    (fun factory d ->
      Workload.Runner.run ~n_clients:2 ~spec
        ~faults:
          [
            Workload.Runner.Partition
              {
                at = Simtime.of_ms 50;
                group = [ 2 ];
                heal_at = Simtime.of_ms (50 + d);
              };
          ]
        ~deadline:(Simtime.of_sec 300.) factory)

(* --- perf10: contention under open-loop load ---------------------------- *)

let contention =
  Exp.v "perf10"
    "Contention under open-loop (Poisson) load: abort rate and latency vs \
     offered load, hot keyspace (n=3, 4 clients)"
    ~reading:
      "open-loop load piles conflicting transactions up: locking\n\
       queues (latency grows) while certification aborts (optimism priced);\n\
       ordered execution (eager-ue-abcast) and lazy commits stay flat."
  @@ fun x ->
  let rates = [ 50.; 150.; 400. ] in
  let spec =
    Workload.Builder.spec ~updates:1.0 ~txns:60 ~keys:10 ~skew:0.95 ()
  in
  Exp.table ~width:22
    (List.map (Printf.sprintf "%.0f txn/s/client") rates)
    (List.map
       (fun name -> (name, Exp.factory name))
       [ "eager-ue-locking"; "certification"; "eager-ue-abcast"; "lazy-ue" ])
  @@ fun name factory ->
  List.map
    (fun rate ->
      let r =
        Workload.Runner.run ~net:Exp.net ~n_clients:4 ~spec
          ~arrival:(`Poisson rate) factory
      in
      let note =
        Exp.note x ~technique:name
          ~params:[ ("rate", Printf.sprintf "%.0f" rate) ]
      in
      let latency = note ~metric:"latency_mean" ~unit_:"ms" r.latency_ms.mean in
      let ab = note ~metric:"abort_pct" ~unit_:"%" (abort_pct r) in
      Printf.sprintf "%.1fms %.0f%%ab" latency ab)
    rates

(* --- perf11: partitions ------------------------------------------------- *)

let partitions =
  Exp.v "perf11"
    "Partition tolerance: replica 2 isolated from t=50ms to t=600ms \
     (consensus-based ordering engines)"
    ~reading:
      "majority sides keep committing through the partition;\n\
       the isolated replica catches up after the heal (progress gossip /\n\
       rejoin); lazy-ue never stalls at all and reconciles afterwards."
  @@ fun x ->
  (* Factories on the consensus-based engine where the ordering matters:
     the sequencer engine assumes accurate detection and is not safe under
     the wrong suspicions a partition causes (see Abcast_seq). *)
  let consensus = Exp.factory ~set:[ ("abcast_impl", "consensus") ] in
  let part_techniques =
    [
      ("active (CT)", consensus "active");
      ("passive", Exp.factory "passive");
      ("eager-ue-abcast(CT)", consensus "eager-ue-abcast");
      ("lazy-ue (CT)", consensus "lazy-ue");
    ]
  in
  let spec =
    Workload.Builder.spec ~updates:1.0 ~txns:30 ~think:(Simtime.of_ms 4) ()
  in
  Fmt.pr "%-22s %12s %14s %12s %12s@." "technique" "committed" "max gap (ms)"
    "converged" "1SR";
  List.iter
    (fun (name, factory) ->
      let r =
        Workload.Runner.run ~net:Exp.net ~n_clients:2 ~spec
          ~faults:
            [
              Workload.Runner.Partition
                {
                  at = Simtime.of_ms 50;
                  group = [ 2 ];
                  heal_at = Simtime.of_ms 600;
                };
            ]
          ~deadline:(Simtime.of_sec 300.) factory
      in
      let committed =
        Exp.count x ~metric:"committed" ~technique:name ~unit_:"txns"
          r.committed
      in
      let gap =
        Exp.note x ~metric:"max_response_gap" ~technique:name ~unit_:"ms"
          (Simtime.to_ms r.max_response_gap)
      in
      Fmt.pr "%-22s %12d %14.1f %12b %12b@." name committed gap r.converged
        r.serializable)
    part_techniques

(* --- perf12: tail latency ----------------------------------------------- *)

let tail_latency =
  Exp.v "perf12"
    "Tail latency (ms): mean vs p95/p99 under contention (n=3, 100% \
     updates, skewed keys)"
    ~reading:
      "the mean hides the queueing the paper's step counts imply:\n\
       deep critical paths (locking's per-operation rounds) stretch the tail\n\
       far more than the average, while lazy replies stay tight at p99."
  @@ fun x ->
  let spec =
    Workload.Builder.spec ~updates:1.0 ~txns:60 ~keys:40 ~skew:0.9 ()
  in
  Exp.table ~width:11 [ "mean"; "p95"; "p99"; "max" ] techniques
  @@ fun name factory ->
  let l =
    (Workload.Runner.run ~net:Exp.net ~n_clients:4 ~spec factory).latency_ms
  in
  List.map
    (fun (metric, v) ->
      Printf.sprintf "%.2f" (Exp.note x ~metric ~technique:name ~unit_:"ms" v))
    [
      ("latency_mean", l.mean);
      ("latency_p95", l.p95);
      ("latency_p99", l.p99);
      ("latency_max", l.max);
    ]

(* --- perf13: resource-gauge trajectories vs offered load ----------------- *)

let series_max name (result : Workload.Runner.result) =
  result.series
  |> List.filter (fun (s : Sim.Timeseries.series) -> s.name = name)
  |> List.map Sim.Timeseries.max_value
  |> List.fold_left Stdlib.max 0.

let resource_trajectory =
  Exp.v "perf13"
    "Resource trajectories under open-loop load: peak queue depth and lock \
     waiters vs offered rate (n=3, 4 clients, hot keys, sampled every 5ms)"
    ~reading:
      "the gauges localise the queueing perf10 only infers from\n\
       latency: locking's backlog shows up as lock waiters (a convoy on the\n\
       hot keys), certification's as aborts with zero waiters, and the\n\
       ordered-execution techniques as group-stack queue depth."
  @@ fun x ->
  let rates = [ 50.; 150.; 400. ] in
  let queue_names =
    [ "abcast_pending"; "abcast_undelivered"; "vscast_buffered"; "rchan_unacked" ]
  in
  let spec =
    Workload.Builder.spec ~updates:1.0 ~txns:60 ~keys:10 ~skew:0.95 ()
  in
  Fmt.pr "%-18s %8s %10s %8s %10s %10s %8s@." "technique" "rate" "lat(ms)"
    "abort%" "waiters^" "queue^" "txns^";
  List.iter
    (fun name ->
      let factory = Exp.factory name in
      List.iter
        (fun rate ->
          let result =
            Workload.Runner.run ~n_clients:4 ~spec ~arrival:(`Poisson rate)
              ~sample:(Simtime.of_ms 5) ~deadline:(Simtime.of_sec 8.) factory
          in
          let note =
            Exp.note x ~technique:name
              ~params:[ ("rate", Printf.sprintf "%.0f" rate) ]
          in
          let latency =
            note ~metric:"latency_mean" ~unit_:"ms" result.latency_ms.mean
          in
          let ab = note ~metric:"abort_pct" ~unit_:"%" (abort_pct result) in
          let waiters =
            note ~metric:"lock_waiters_max" ~unit_:"txns"
              (series_max "lock_waiters" result)
          in
          let queue =
            note ~metric:"queue_depth_max" ~unit_:"msgs"
              (List.fold_left
                 (fun acc n -> Stdlib.max acc (series_max n result))
                 0. queue_names)
          in
          let active =
            note ~metric:"active_txns_max" ~unit_:"txns"
              (series_max "active_txns" result)
          in
          Fmt.pr "%-18s %8.0f %10.1f %8.0f %10.0f %10.0f %8.0f@." name rate
            latency ab waiters queue active)
        rates)
    [ "eager-ue-locking"; "certification"; "eager-ue-abcast"; "lazy-ue" ]

(* --- perf14: sequencer batching — batch window vs offered load --------- *)

(* The batching trade-off: a wider sequencer batch window amortises one
   ordering round (one Order + one all-to-all ack wave) over every
   request that arrives inside the window, cutting wire messages per
   transaction at saturating load, at the price of up to one window of
   added latency per request. batch_window=0 is the unbatched §5
   protocol. *)
let batching =
  Exp.v "perf14" ~config:[ ("passthrough", "true") ]
    "Sequencer batching: wire messages per txn and mean latency vs batch \
     window under open-loop (Poisson) load (n=3, 4 clients, 100% updates, \
     passthrough)"
    ~reading:
      "at saturating load many requests land inside one window,\n\
       so the ordering round (Order + all-to-all acks) is paid once per\n\
       batch instead of once per transaction; at low load the window mostly\n\
       holds a single request and only adds its width to the latency."
  @@ fun x ->
  let windows_ms = [ 0; 1; 5; 20 ] in
  let rates = [ 100.; 1000. ] in
  let spec = Workload.Builder.spec ~updates:1.0 ~txns:60 ~keys:200 () in
  (* msgs/txn at (technique, window, rate), for the closing verdict *)
  let recorded = Hashtbl.create 16 in
  Fmt.pr "%-18s %10s %8s %10s %10s %8s@." "technique" "window" "rate"
    "msgs/txn" "lat(ms)" "abort%";
  List.iter
    (fun name ->
      List.iter
        (fun w ->
          let factory =
            Exp.factory name
              ~set:[ ("batch_window", Printf.sprintf "%dms" w) ]
          in
          List.iter
            (fun rate ->
              let result =
                Workload.Runner.run ~net:Exp.net ~n_clients:4 ~spec
                  ~arrival:(`Poisson rate) ~deadline:(Simtime.of_sec 8.) factory
              in
              let note =
                Exp.note x ~technique:name
                  ~params:
                    [
                      ("batch_window_ms", string_of_int w);
                      ("rate", Printf.sprintf "%.0f" rate);
                    ]
              in
              let msgs =
                note ~metric:"messages_per_txn" ~unit_:"msgs"
                  result.messages_per_txn
              in
              let latency =
                note ~metric:"latency_mean" ~unit_:"ms" result.latency_ms.mean
              in
              let ab = note ~metric:"abort_pct" ~unit_:"%" (abort_pct result) in
              Hashtbl.replace recorded (name, w, rate) msgs;
              Fmt.pr "%-18s %8dms %8.0f %10.1f %10.1f %8.0f@." name w rate
                msgs latency ab)
            rates)
        windows_ms)
    [ "active"; "certification" ];
  let saturating = List.fold_left Float.max 0. rates in
  List.iter
    (fun name ->
      match
        ( Hashtbl.find_opt recorded (name, 0, saturating),
          Hashtbl.find_opt recorded (name, 5, saturating) )
      with
      | Some unbatched, Some batched ->
          Fmt.pr
            "@.verdict: %s at %.0f/s: %.1f msgs/txn unbatched vs %.1f with \
             a 5ms window (%s)@."
            name saturating unbatched batched
            (if batched < unbatched then "batching wins"
             else "batching does not pay here")
      | _ -> ())
    [ "active"; "certification" ]

(* --- perf15: simulator self-throughput (meta-benchmark) ----------------- *)

(* The only perf* experiment whose subject is the simulator itself: a
   large run (>= 1e5 transactions by default, n=32) with the engine
   profiler attached, once with tracing off (the headline events/s and
   txns/s the scale roadmap depends on) and once with tracing on (the
   measured cost of the observability stack — the lazy-span gate's
   before/after). Post-run oracles are skipped ([analyze:false]): at this
   size their cost would dwarf the engine's. The tracing-on leg runs a
   fraction of the transactions — span memory is O(txns) — and the
   comparison uses events/s, which is size-independent. That leg also
   runs at four times its size, and each size times the whole
   [Runner.run]: the time spent outside the event loop (set-up and the
   post-run pass over every traced rid) per transaction, large over
   small, is [postloop_growth], so a super-linear post-run pass shows up
   as a number rather than as a stall.

   PERF15_TXNS overrides the total transaction count (CI smoke runs use
   a small value; the bounds in ci/gates.txt judge whatever this
   wrote). *)
let self_throughput x =
  let n = 32 and clients = 8 in
  let technique_name = "lazy-primary" in
  let total = x.Exp.txns in
  let spec txns = Workload.Builder.spec ~updates:0.1 ~txns ~keys:1_000 () in
  (* Each leg also reports the heap words its span collector keeps
     alive once the run is over. *)
  let leg ?(net = Exp.net) ~tracing ~txns () =
    let profiler = Sim.Profiler.create () in
    let t0 = Unix.gettimeofday () in
    let result, inst =
      Workload.Runner.run_with_instance ~seed:11 ~net ~n_replicas:n
        ~n_clients:clients ~spec:(spec txns) ~profiler ~tracing ~analyze:false
        ~deadline:(Simtime.of_sec 3600.) (Exp.factory technique_name)
    in
    let run_wall = Unix.gettimeofday () -. t0 in
    let span_words =
      Obj.reachable_words (Obj.repr (Core.Phase_span.collector inst.Core.Technique.spans))
    in
    (Sim.Profiler.report profiler, result, run_wall, span_words)
  in
  let note = Exp.note x ~technique:technique_name in
  (* A leg's params: its tracing side and its total transaction count. *)
  let leg_params tracing txns =
    [ ("tracing", tracing); ("txns", string_of_int (txns * clients)) ]
  in
  Fmt.pr "%-10s %10s %10s %12s %12s %14s %10s@." "tracing" "txns" "events"
    "events/s" "txns/s" "heap peak (w)" "spans";
  let record label (report : Sim.Profiler.report)
      (result : Workload.Runner.result) txns =
    let wall = result.wall_s in
    let params = leg_params label txns in
    let count = Exp.count x ~technique:technique_name ~params in
    let evps =
      note ~metric:"events_per_sec" ~unit_:"events/s" ~params
        report.p_events_per_sec
    in
    let txps =
      note ~metric:"txns_per_sec" ~unit_:"txn/s" ~params
        (if wall > 0. then float_of_int result.committed /. wall else 0.)
    in
    let heap =
      count ~metric:"peak_heap_words" ~unit_:"words" report.p_heap_peak_words
    in
    let events = count ~metric:"events" ~unit_:"events" report.p_events in
    let spans =
      count ~metric:"spans_created" ~unit_:"spans" report.p_spans_created
    in
    List.iter
      (fun (r : Sim.Profiler.row) ->
        ignore
          (note ~metric:"bucket_wall_share" ~unit_:"share"
             ~params:(params @ [ ("label", r.r_label) ])
             r.r_wall_share))
      report.p_buckets;
    Fmt.pr "%-10s %10d %10d %12.0f %12.0f %14d %10d@." label
      (result.committed + result.aborted) events evps txps heap spans
  in
  let txns_off = max 1 (total / clients) in
  let txns_on = max 1 (total / clients / 20) in
  let report_off, result_off, _, _ = leg ~tracing:false ~txns:txns_off () in
  (* The traced leg lasts a few milliseconds, so one collection more or
     less inside it moves its time outside the loop. Starting it from a
     collected heap makes the collections it meets depend on the leg
     alone, not on what the process allocated before. *)
  Gc.full_major ();
  let report_on, result_on, run_wall_on, span_words_on =
    leg ~tracing:true ~txns:txns_on ()
  in
  (* The traced leg again at four times the size, only for the time its
     run spends outside the event loop. *)
  let txns_large = 4 * txns_on in
  Gc.full_major ();
  let _, result_large, run_wall_large, _ =
    leg ~tracing:true ~txns:txns_large ()
  in
  (* The stubborn-channel leg: the tracing-off leg with passthrough off,
     so every channel send is acked and may be retransmitted. It reports
     the timers the engine queued and the cancelled timers it dropped,
     per network message sent. *)
  let report_st, result_st, _, _ =
    leg ~net:Network.default_config ~tracing:false ~txns:txns_off ()
  in
  let per_message metric count =
    note ~metric ~unit_:"timers/msg"
      ~params:
        [
          ("tracing", "off");
          ("passthrough", "false");
          ("txns", string_of_int (txns_off * clients));
        ]
      (float_of_int count /. float_of_int (max 1 result_st.messages))
  in
  let timers = per_message "timers_per_message" report_st.p_scheduled in
  let cancelled = per_message "cancelled_per_message" report_st.p_cancelled in
  (* The same leg's timers per transaction: a denominator that does not
     shrink when the group stack sends fewer messages. *)
  ignore
    (note ~metric:"timers_per_txn" ~unit_:"timers/txn"
       ~params:
         [
           ("tracing", "off");
           ("passthrough", "false");
           ("txns", string_of_int (txns_off * clients));
         ]
       (float_of_int report_st.p_scheduled
       /. float_of_int (max 1 (result_st.committed + result_st.aborted))));
  record "off" report_off result_off txns_off;
  record "on" report_on result_on txns_on;
  let off_params = leg_params "off" txns_off in
  let on_params = leg_params "on" txns_on in
  (* Peak heap per transaction of the tracing-off leg: bounded-memory
     bookkeeping keeps it flat as the run grows. *)
  ignore
    (note ~metric:"heap_words_per_txn" ~unit_:"words/txn" ~params:off_params
       (float_of_int report_off.p_heap_peak_words
       /. float_of_int (txns_off * clients)));
  (* Minor-heap words allocated inside the tracing-off leg's events, per
     transaction: the engine's and the delivery path's own allocation. *)
  ignore
    (note ~metric:"alloc_words_per_txn" ~unit_:"words/txn" ~params:off_params
       (report_off.p_alloc_words
       /. float_of_int (max 1 (result_off.committed + result_off.aborted))));
  (* The tracing-on leg's cost per recorded span: every word its events
     allocated, and the heap words the span collector holds at the end. *)
  let spans_on = float_of_int (max 1 report_on.p_spans_created) in
  ignore
    (note ~metric:"alloc_words_per_span" ~unit_:"words/span" ~params:on_params
       (report_on.p_alloc_words /. spans_on));
  ignore
    (note ~metric:"heap_words_per_span" ~unit_:"words/span" ~params:on_params
       (float_of_int span_words_on /. spans_on));
  (* A traced leg's time outside its event loop per transaction, at
     both sizes, and the large size's over the small one's: a set-up of
     fixed cost and a linear post-run pass read 1 or less, a post-run
     pass quadratic in the rids about 4. Unlike a share of the whole
     run, it does not rise when the event loop gets cheaper. *)
  let postloop_us (result : Workload.Runner.result) run_wall txns =
    note ~metric:"postloop_us_per_txn" ~unit_:"us/txn"
      ~params:(leg_params "on" txns)
      (1e6
      *. Float.max 0. (run_wall -. result.wall_s)
      /. float_of_int (txns * clients))
  in
  let postloop_small = postloop_us result_on run_wall_on txns_on in
  let postloop_large = postloop_us result_large run_wall_large txns_large in
  let postloop_growth =
    note ~metric:"postloop_growth" ~unit_:"ratio" ~params:on_params
      (if postloop_small > 0. then postloop_large /. postloop_small else 0.)
  in
  let evps_off = report_off.p_events_per_sec in
  let evps_on = report_on.p_events_per_sec in
  let overhead_pct =
    note ~metric:"tracing_overhead_pct" ~unit_:"%"
      (if evps_on > 0. then 100. *. (evps_off /. evps_on -. 1.) else 0.)
  in
  Fmt.pr
    "@.verdict: tracing off runs %.0f%% faster per event than tracing on@."
    overhead_pct;
  Fmt.pr
    "tracing on: %.1f us/txn outside the event loop at %d txns, %.1f at %d \
     (%.2fx)@."
    postloop_small (txns_on * clients) postloop_large (txns_large * clients)
    postloop_growth;
  Fmt.pr
    "stubborn channels (passthrough off): %.3f timers queued and %.3f \
     cancelled per message sent@."
    timers cancelled;
  Fmt.pr "top buckets (tracing off, by self time):@.";
  List.iteri
    (fun i r -> if i < 5 then Fmt.pr "  %a@." Sim.Profiler.pp_row r)
    (List.sort
       (fun (a : Sim.Profiler.row) b -> compare b.r_wall_ms a.r_wall_ms)
       report_off.p_buckets)

(* Its title names the size the run resolved. *)
let simulator_throughput =
  {
    (Exp.v "perf15" "" ~txns:100_000 ~n_replicas:32
       ~config:[ ("update_ratio", "0.1"); ("passthrough", "true") ]
       ~reading:
         "with the tracing gate off, span records are never\n\
          materialised (Network.set_tracing short-circuits message spans and\n\
          phase marks), so the off-leg's events/s is the engine's raw speed\n\
          and the on/off gap is the full, measured price of the observability\n\
          stack at this workload."
       self_throughput)
    with
    title =
      Printf.sprintf
        "Simulator self-throughput: events/s and txns/s of wall time, \
         tracing off vs on (n=32, lazy-primary, 10%% updates, %d txns)";
  }

(* --- perf16: sharded replication groups -------------------------------- *)

(* Partial replication's scaling claim (Sutra & Shapiro's "genuine
   partial replication" criterion): the coordination cost of a
   transaction should depend on the replicas that hold its data, not on
   the total cluster size.

   Part A measures it directly: the causal message count of one
   single-shard transaction (the [replisim explain] measurement — probe
   traffic only, background heartbeats excluded) at n = 16/32/64 with
   the shard count scaled to hold the group size at 4 replicas. Sharded,
   the count must be flat across n; unsharded (shards=1, the same §5
   protocol over the full cluster) it grows with n.

   Part B prices the other half of the bargain: a fixed cluster
   (n = 32, 8 groups of 4) under a rising cross-shard ratio, where every
   crossing transaction adds a 2PC round across the concerned groups
   plus one sub-transaction per group touched.

   PERF16_TXNS overrides Part B's per-client transaction count (CI
   smoke). *)
let sharding =
  Exp.v "perf16" ~txns:40 ~n_replicas:32 ~config:[ ("passthrough", "true") ]
    "Sharded replication groups: single-shard message cost vs cluster size \
     (group size 4), and throughput/p95 vs cross-shard ratio (n=32, 8 \
     shards, 2 ops/txn, passthrough)"
    ~reading:
      "Part A is the partial-replication bargain — a transaction\n\
       confined to one group pays the §5 protocol at the group size, however\n\
       large the cluster grows. Part B is its price: every cross-shard\n\
       transaction adds a 2PC round over the concerned groups' delegates and\n\
       splits into one sub-transaction per group, so message cost and tail\n\
       latency climb with the crossing ratio while single-shard traffic is\n\
       untouched."
  @@ fun x ->
  let group_size = 4 in
  let ns = [ 16; 32; 64 ] in
  let part_a_techniques = [ "active"; "certification"; "eager-primary" ] in
  let sharded shards = Exp.factory ~set:[ ("shards", string_of_int shards) ] in
  Fmt.pr "single-shard txn, causal messages (sharded: group size %d | \
          unsharded: full cluster)@."
    group_size;
  Fmt.pr "%-18s" "technique";
  List.iter (fun n -> Fmt.pr "%14s" (Printf.sprintf "n=%d" n)) ns;
  Fmt.pr "@.";
  (* Whether each technique's count is flat; every row is printed and
     recorded before the verdict reads them. *)
  let flat_rows =
    List.map
      (fun name ->
        Fmt.pr "%-18s" name;
        let probe_msgs ~n ~shards =
          let p =
            Workload.Builder.probe ~seed:7 ~n ~net:Exp.net (sharded shards name)
          in
          let _, _, s = Workload.Builder.probe_summary p in
          Exp.count x ~metric:"probe_messages" ~technique:name ~unit_:"msgs"
            ~params:[ ("n", string_of_int n); ("shards", string_of_int shards) ]
            s.messages
        in
        let counts =
          List.map
            (fun n ->
              let m_sharded = probe_msgs ~n ~shards:(n / group_size) in
              let m_full = probe_msgs ~n ~shards:1 in
              Fmt.pr "%8d |%4d" m_sharded m_full;
              m_sharded)
            ns
        in
        Fmt.pr "@.";
        match counts with
        | first :: rest -> List.for_all (Int.equal first) rest
        | [] -> true)
      part_a_techniques
  in
  (* Machine-checkable form of the verdict: ci/gates.txt floor-gates
     probe_flat at 1. *)
  let flat =
    Exp.flag x ~metric:"probe_flat" (List.for_all Fun.id flat_rows)
  in
  Fmt.pr
    "@.verdict: single-shard message cost %s of cluster size at fixed \
     group size@."
    (if flat then "is independent" else "DEPENDS — regression");
  (* Part B: cross-shard ratio sweep on a fixed sharded cluster. *)
  let n = 32 and shards = 8 and clients = 4 in
  let factory = sharded shards "active" in
  Fmt.pr "@.%-10s %10s %12s %10s %10s %10s %12s@." "cross" "committed"
    "msgs/txn" "tput/s" "p95(ms)" "p99(ms)" "2PC commits";
  List.iter
    (fun cross ->
      let spec =
        Workload.Builder.spec ~updates:0.5 ~ops:2 ~txns:x.Exp.txns ~keys:200
          ~shards ~cross ()
      in
      let r =
        Workload.Runner.run ~seed:11 ~net:Exp.net ~n_replicas:n
          ~n_clients:clients ~spec factory
      in
      let params = [ ("cross", Printf.sprintf "%.2f" cross) ] in
      let note = Exp.note x ~technique:"active" ~params in
      let tput = note ~metric:"throughput" ~unit_:"txn/s" r.throughput in
      let p95 = note ~metric:"latency_p95" ~unit_:"ms" r.latency_ms.p95 in
      let p99 = note ~metric:"latency_p99" ~unit_:"ms" r.latency_ms.p99 in
      let msgs =
        note ~metric:"messages_per_txn" ~unit_:"msgs" r.messages_per_txn
      in
      let cross_commits =
        Exp.count x ~metric:"cross_commits" ~technique:"active" ~unit_:"txns"
          ~params
          (Option.value ~default:0
             (Sim.Metrics.counter_value r.metrics "cross_shard_commit_total"))
      in
      Fmt.pr "%-10.2f %10d %12.1f %10.1f %10.2f %10.2f %12d@." cross
        r.committed msgs tput p95 p99 cross_commits)
    [ 0.0; 0.1; 0.3; 1.0 ]

(* --- perf17: measured consistency across the taxonomy ---------------- *)

(* The audit layer's numbers as a benchmark: visibility latency (how
   long a committed write stays invisible at other replicas), the
   post-commit staleness window, and session-guarantee violation rates,
   for every technique under open-loop load — the measured form of the
   paper's eager/lazy inconsistency-window claim. A sharded lazy leg
   adds the cross-shard snapshot-skew count.

   PERF17_TXNS overrides the per-client transaction count (CI smoke). *)
let consistency_audit =
  Exp.v "perf17" ~txns:40 ~config:[ ("passthrough", "true") ]
    "Measured consistency: visibility latency, staleness windows and \
     session-guarantee violations (all techniques × Poisson load; sharded \
     lazy leg)"
    ~reading:
      "vis p95 is how long a committed write stays invisible at\n\
       the other replicas; win the worst reply-to-last-install gap. Eager\n\
       techniques keep both inside the commit round (sub-ms residue is the\n\
       decision round racing the reply), lazy ones show the propagation\n\
       interval, and only lazy rows post session violations. The sharded\n\
       leg counts readers that caught a cross-shard write half-applied."
  @@ fun x ->
  (* Every run's failed audit verdicts; the aggregate rows read them. *)
  let failed = ref [] in
  let audited ?(n = 3) ?(shards = 1) ?(cross = 0.)
      ?(arrival = `Closed) (entry : Protocols.Registry.entry) =
    let factory =
      Exp.factory entry.key
        ~set:(if shards > 1 then [ ("shards", string_of_int shards) ] else [])
    in
    let spec =
      Workload.Builder.spec ~updates:0.5 ~ops:(if shards > 1 then 2 else 1)
        ~txns:x.Exp.txns ~keys:100 ~shards ~cross ()
    in
    let result =
      Workload.Runner.run ~seed:11 ~net:Exp.net ~n_replicas:n ~n_clients:4
        ~spec ~arrival ~sample:(Simtime.of_ms 5) ~audit:true factory
    in
    let a = Option.get result.audit in
    failed :=
      Workload.Verdict.failed
        (Workload.Audit.verdicts
           ~propagation:entry.info.Core.Technique.propagation ~shards a)
      @ !failed;
    (result, a)
  in
  let rates = [ 50.; 200. ] in
  Fmt.pr "%-18s %-6s" "technique" "prop";
  List.iter
    (fun r -> Fmt.pr "%26s" (Printf.sprintf "rate=%.0f/s: vis p95|win" r))
    rates;
  Fmt.pr "%18s@." "stale|ryw|mr";
  List.iter
    (fun (entry : Protocols.Registry.entry) ->
      let eager =
        entry.info.Core.Technique.propagation = Core.Technique.Eager
      in
      Fmt.pr "%-18s %-6s" entry.key (if eager then "eager" else "lazy");
      let totals = ref (0, 0, 0) in
      List.iter
        (fun rate ->
          let _, a = audited ~arrival:(`Poisson rate) entry in
          let note =
            Exp.note x ~technique:entry.key
              ~params:[ ("rate", Printf.sprintf "%.0f" rate); ("shards", "1") ]
          in
          let rate_of v =
            if a.reads_checked = 0 then 0.
            else float_of_int v /. float_of_int a.reads_checked
          in
          let vis_p95 =
            note ~metric:"visibility_p95_ms" ~unit_:"ms" a.visibility_ms.p95
          in
          ignore
            (note ~metric:"visibility_mean_ms" ~unit_:"ms"
               a.visibility_ms.mean);
          let window =
            note ~metric:"post_commit_window_ms" ~unit_:"ms"
              a.post_commit_max_ms
          in
          List.iter
            (fun (metric, unit_, v) -> ignore (note ~metric ~unit_ v))
            [
              ("session_window_ms", "ms", a.session_window_max_ms);
              ("stale_read_rate", "frac", rate_of a.stale_reads);
              ("ryw_violation_rate", "frac", rate_of a.ryw_violations);
              ("mr_violation_rate", "frac", rate_of a.mr_violations);
            ];
          let s, r, m = !totals in
          totals :=
            (s + a.stale_reads, r + a.ryw_violations, m + a.mr_violations);
          Fmt.pr "%16.2f |%7.2f" vis_p95 window)
        rates;
      let s, r, m = !totals in
      Fmt.pr "%10d |%2d |%2d@." s r m)
    Protocols.Registry.all;
  (* Sharded lazy leg: the skew detector under cross-shard traffic. *)
  let result, a =
    audited ~n:6 ~shards:2 ~cross:0.3
      (Option.get (Protocols.Registry.find "lazy-primary"))
  in
  let count =
    Exp.count x ~technique:"lazy-primary"
      ~params:[ ("shards", "2"); ("cross", "0.30") ]
  in
  let skew = count ~metric:"skew_pairs" ~unit_:"pairs" a.skew_pairs in
  let cross = count ~metric:"cross_txns" ~unit_:"txns" a.cross_txns in
  Fmt.pr
    "@.sharded lazy leg (lazy-primary, n=6, 2 shards, cross=0.30): %d \
     committed, %d cross-shard txns, %d skew pairs, postcmt %.2f ms@."
    result.committed cross skew a.post_commit_max_ms;
  (* Machine-checkable verdicts, single aggregate rows so the CI floor
     (max-over-rows >= 1) only passes when EVERY run satisfied them. *)
  let passed oracle =
    not
      (List.exists
         (fun (v : Workload.Verdict.t) -> v.oracle = oracle)
         !failed)
  in
  let all_drained = Exp.flag x ~metric:"audit_drained" (passed "drained") in
  let lazy_positive =
    Exp.flag x ~metric:"lazy_visibility_positive" (passed "lazy_window")
  in
  Fmt.pr
    "@.verdict: every run drained (%s) and every lazy run measured a \
     positive post-commit window (%s)@."
    (if all_drained then "yes" else "NO — regression")
    (if lazy_positive then "yes" else "NO — regression")

(* --- perf18: Figure-6 quadrant sweep ---------------------------------- *)

(* Gray's two-axis taxonomy as a measured matrix: the four database
   quadrants (eager/lazy × primary/update-everywhere) swept over arrival
   load and zipfian key skew through the same Sweep/Run_record path the
   CLI uses, rendered as the Figure-6 table with real numbers in the
   cells. Aggregate rows (cells, best latency, best throughput, worst
   msgs/txn) give CI a handle on the whole grid; the verdict row checks
   the taxonomy's headline claim — lazy replies before propagation, so
   each lazy quadrant commits faster than its eager column-mate in every
   cell.

   PERF18_TXNS overrides the per-client transaction count (CI smoke). *)
let quadrant_sweep =
  Exp.v "perf18" ~txns:30
    "Figure-6 quadrant sweep: eager/lazy × primary/update- everywhere under \
     arrival load and zipf key skew, one canonical run record per cell"
    ~reading:
      "rows are Gray's quadrants (× zipf when it matters),\n\
       columns the arrival loads. Lazy rows commit at local speed and pay\n\
       for it in the perf17 staleness windows; eager rows pay the\n\
       coordination round here instead. Skew moves contention, not the\n\
       propagation cost, so zipf rows only separate under abort-prone\n\
       techniques."
  @@ fun x ->
  (* A metric every record carries (outcome and perf sections). *)
  let measured r metric = Option.get (Workload.Run_record.metric r metric) in
  let axes =
    {
      Workload.Sweep.default_axes with
      techniques = [ "eager-primary"; "eager-ue-abcast"; "lazy-primary"; "lazy-ue" ];
      loads = [ 0.; 200. ];
      zipfs = [ 0.; 0.9 ];
    }
  in
  let records =
    List.map
      (fun (c : Workload.Sweep.cell) ->
        let r =
          Workload.Sweep.run_cell ~n_replicas:3 ~n_clients:4
            ~spec:(Workload.Builder.spec ~keys:100 ~ops:1 ~txns:x.Exp.txns ())
            ~config:[]
            ~factory:(Exp.factory c.technique)
            c
        in
        let params =
          [
            ( "rate",
              if c.load > 0. then Printf.sprintf "%.0f" c.load else "closed" );
            ("zipf", Printf.sprintf "%g" c.zipf);
          ]
        in
        List.iter
          (fun (metric, unit_) ->
            ignore
              (Exp.note x ~metric ~technique:c.technique ~unit_ ~params
                 (measured r metric)))
          [ ("latency_p95", "ms"); ("throughput", "txn/s");
            ("msgs_per_txn", "msgs") ];
        r)
      (Workload.Sweep.cells axes)
  in
  List.iter
    (fun metric ->
      Fmt.pr "%s@."
        (Workload.Sweep.render_ascii (Workload.Sweep.matrix ~metric records)))
    [ "latency_p95"; "throughput"; "msgs_per_txn" ];
  (* The headline claim, cell by cell: in both the primary-copy and the
     update-everywhere column, the lazy quadrant's p95 stays below its
     eager column-mate's under the same load and skew. *)
  let p95_of technique (c : Workload.Run_record.t) =
    List.find_map
      (fun (r : Workload.Run_record.t) ->
        if
          r.technique = technique
          && r.workload.arrival = c.workload.arrival
          && r.workload.zipf = c.workload.zipf
        then Some (measured r "latency_p95")
        else None)
      records
  in
  let lazy_faster =
    List.for_all
      (fun (r : Workload.Run_record.t) ->
        let eager_mate =
          match r.technique with
          | "lazy-primary" -> p95_of "eager-primary" r
          | "lazy-ue" -> p95_of "eager-ue-abcast" r
          | _ -> None
        in
        match eager_mate with
        | Some eager_p95 -> not (measured r "latency_p95" >= eager_p95)
        | None -> true)
      records
  in
  let values metric =
    List.filter_map (fun r -> Workload.Run_record.metric r metric) records
  in
  let note = Exp.note x ~technique:"all" in
  let cells =
    Exp.count x ~metric:"cells" ~technique:"all" ~unit_:"cells"
      (List.length records)
  in
  let best_latency =
    note ~metric:"best_latency_p95" ~unit_:"ms"
      (List.fold_left Float.min Float.infinity (values "latency_p95"))
  in
  let best_throughput =
    note ~metric:"best_throughput" ~unit_:"txn/s"
      (List.fold_left Float.max 0. (values "throughput"))
  in
  let worst_msgs =
    note ~metric:"worst_msgs_per_txn" ~unit_:"msgs"
      (List.fold_left Float.max 0. (values "msgs_per_txn"))
  in
  let lazy_faster = Exp.flag x ~metric:"lazy_faster_than_eager" lazy_faster in
  Fmt.pr
    "@.verdict: lazy quadrants reply below their eager column-mates in \
     every cell (%s); %d cells, best p95 %.2f ms, best throughput %.0f \
     txn/s, worst msgs/txn %.1f@."
    (if lazy_faster then "yes" else "NO — regression")
    cells best_latency best_throughput worst_msgs

(* --- perf19: the routed tier — sticky RYW, flash-crowd failover ------- *)

(* The routing-tier study the client refactor exists for, in two parts.
   Part A routes lazy-primary (propagation raised to 20 ms so staleness
   is visible) through the router with stickiness off and on: the audit
   layer must count strictly positive read-your-writes violations for
   the round-robin reads and exactly zero once sessions stick to their
   write replica — and the read p95 shows what that guarantee costs.
   Part B sweeps the four Figure-6 quadrants through a flash crowd
   (load ×4, hotter re-shifted zipf) with a mid-spike partition and a
   crash/recover of replica 0, all behind the router: per-quadrant
   throughput/p95 under the spike say which quadrant survives, and the
   failover counter proves at least one read was answered only because
   the router resent it elsewhere. The partition drops messages, so
   part B runs the techniques over retransmitting channels (the default
   network, not [Exp.net]): under passthrough a dropped copy is never
   resent.

   PERF19_TXNS overrides the per-client transaction count (CI smoke). *)
let routed_tier =
  Exp.v "perf19" ~txns:30
    "Routed tier: sticky sessions vs read-your-writes over lazy-primary, and \
     the Figure-6 quadrants through a flash crowd with mid-spike failover"
    ~reading:
      "round-robin reads over a lazy primary-copy scheme race\n\
       the refresh stream and lose (the session wrote at the primary but\n\
       read a stale secondary); pinning the session to its write replica\n\
       closes the window without touching the protocol — the paper's\n\
       middleware-tier argument, measured. The flash sweep stresses the\n\
       same router: the spike multiplies load and re-skews the hot set\n\
       while one replica is partitioned and another crashes, and reads\n\
       keep completing because the router retries them elsewhere."
  @@ fun x ->
  let txns = x.Exp.txns in
  (* -- part A: sticky on/off over lazy-primary ------------------------- *)
  let routed_audit ~sticky =
    let spec = Workload.Builder.spec ~updates:0.5 ~txns ~keys:40 () in
    let r =
      Workload.Runner.run ~seed:11 ~n_replicas:3 ~n_clients:4 ~spec ~audit:true
        ~router:{ Workload.Router.default_config with Workload.Router.sticky }
        (Exp.factory "lazy-primary" ~set:[ ("propagation_delay", "20ms") ])
    in
    (Option.get r.audit, Option.get r.router, r.read_latency_ms.p95)
  in
  let a_loose, r_loose, p95_loose = routed_audit ~sticky:false in
  let a_sticky, r_sticky, p95_sticky = routed_audit ~sticky:true in
  let note = Exp.note x ~technique:"lazy-primary" in
  let count = Exp.count x ~technique:"lazy-primary" in
  let ryw_loose =
    count ~metric:"ryw_nonsticky" ~unit_:"violations" a_loose.ryw_violations
  in
  let ryw_sticky =
    count ~metric:"ryw_sticky" ~unit_:"violations" a_sticky.ryw_violations
  in
  let p95_loose = note ~metric:"read_p95_nonsticky" ~unit_:"ms" p95_loose in
  let p95_sticky = note ~metric:"read_p95_sticky" ~unit_:"ms" p95_sticky in
  ignore (count ~metric:"sticky_reads" ~unit_:"reads" r_sticky.sticky_reads);
  ignore
    (Exp.flag x ~metric:"sticky_eliminates_ryw" ~technique:"lazy-primary"
       (ryw_sticky = 0 && ryw_loose > 0));
  Fmt.pr "lazy-primary, propagation 20ms, %d txns/client, routed:@." txns;
  Fmt.pr "  round-robin reads: ryw_violations=%d read_p95=%.3fms (%a)@."
    ryw_loose p95_loose Workload.Router.pp_stats r_loose;
  Fmt.pr "  sticky sessions  : ryw_violations=%d read_p95=%.3fms (%a)@."
    ryw_sticky p95_sticky Workload.Router.pp_stats r_sticky;
  (* -- part B: flash-crowd quadrant sweep with mid-spike failover ------ *)
  let flash =
    {
      Workload.Spec.fc_at = Simtime.of_ms 10;
      fc_duration = Simtime.of_ms 60;
      fc_intensity = 4.;
      fc_skew = 1.2;
      fc_shift = 50;
    }
  in
  let spec =
    Workload.Builder.spec ~keys:100 ~skew:0.6 ~updates:0.5 ~txns ~flash ()
  in
  Fmt.pr
    "@.flash crowd x%.0f at %a for %a (zipf %.1f, hot set shifted), \
     replica 2 partitioned 12-30ms, replica 0 crashed 35-50ms:@."
    flash.fc_intensity Simtime.pp flash.fc_at
    Simtime.pp flash.fc_duration flash.fc_skew;
  Fmt.pr "  %-16s %10s %9s %8s %9s %7s@." "quadrant" "tput" "p95" "retries"
    "failovers" "gave_up";
  let cells =
    List.map
      (fun name ->
        let r =
          Workload.Runner.run ~seed:11 ~n_replicas:3 ~n_clients:4 ~spec
            ~router:Workload.Router.default_config
            ~faults:
              Workload.Runner.
                [
                  Crash { at = Simtime.of_ms 35; replica = 0 };
                  Recover { at = Simtime.of_ms 50; replica = 0 };
                  Partition
                    {
                      at = Simtime.of_ms 12;
                      group = [ 2 ];
                      heal_at = Simtime.of_ms 30;
                    };
                ]
            (Exp.factory name)
        in
        let st = Option.get r.router in
        let params = [ ("phase", "flash") ] in
        let note = Exp.note x ~technique:name ~params in
        let tput =
          note ~metric:"flash_throughput" ~unit_:"txn/s" r.throughput
        in
        let p95 =
          note ~metric:"flash_latency_p95" ~unit_:"ms" r.latency_ms.p95
        in
        let failovers =
          Exp.count x ~metric:"flash_failovers" ~technique:name ~unit_:"reads"
            ~params st.failovers
        in
        Fmt.pr "  %-16s %8.0f/s %7.2fms %8d %9d %7d@." name tput p95
          st.retries failovers st.gave_up;
        (name, tput, st))
      [ "eager-primary"; "eager-ue-abcast"; "lazy-primary"; "lazy-ue" ]
  in
  let total count =
    List.fold_left (fun acc (_, _, st) -> acc + count st) 0 cells
  in
  let total_failovers = total (fun st -> st.Workload.Router.failovers) in
  let total_gave_up = total (fun st -> st.Workload.Router.gave_up) in
  let survivor, survivor_tput =
    List.fold_left
      (fun (best, best_t) (name, tput, _) ->
        if tput > best_t then (name, tput) else (best, best_t))
      ("none", 0.) cells
  in
  ignore
    (Exp.count x ~metric:"flash_cells" ~technique:"all" ~unit_:"cells"
       (List.length cells));
  ignore
    (Exp.flag x ~metric:"failover_success"
       (total_failovers >= 1 && total_gave_up = 0));
  let survivor_tput =
    Exp.note x ~metric:"flash_best_throughput" ~technique:"all"
      ~unit_:"txn/s" survivor_tput
  in
  Fmt.pr
    "@.verdict: sticky sessions eliminate read-your-writes over \
     lazy-primary (%d -> %d violations) at a read p95 cost of %.3f -> \
     %.3f ms; %s rides out the flash crowd best (%.0f txn/s) and %d \
     read%s survived mid-spike failover via router retry (%d abandoned)@."
    ryw_loose ryw_sticky p95_loose p95_sticky survivor survivor_tput
    total_failovers
    (if total_failovers = 1 then "" else "s")
    total_gave_up

let all =
  [
    latency_vs_replicas;
    mix_sweep;
    failover;
    eager_vs_lazy;
    message_counts;
    wan;
    phase_breakdown;
    crash_recovery_windows;
    loss_and_partition_rates;
    contention;
    partitions;
    tail_latency;
    resource_trajectory;
    batching;
    simulator_throughput;
    sharding;
    consistency_audit;
    quadrant_sweep;
    routed_tier;
  ]
