(* The performance study the paper announces in §6: "a performance study
   of the different approaches, taking into account different workloads
   and failures assumptions". Absolute numbers are simulator-relative;
   the comparisons (who wins, where, by what shape) are the result. *)

open Sim

let hr () = Fmt.pr "%s@." (String.make 78 '-')

let section title =
  hr ();
  Fmt.pr "%s@." title;
  hr ()

(* Passthrough factories: wire traffic == protocol message pattern.
   Every technique declares "passthrough" in its schema, so the whole
   sweep comes off the registry instead of ten hand-written configs. *)
let techniques : (string * Workload.Runner.factory) list =
  List.map
    (fun (e : Protocols.Registry.entry) ->
      (e.key, Protocols.Registry.configure_exn e [ ("passthrough", "true") ]))
    Protocols.Registry.all

let technique name = List.assoc name techniques

(* Machine-readable results: each perf* writes BENCH_perfN.json next to
   its printed table (same numbers, schema-checked by
   [replisim bench-check]). *)
let bench_out ?config name =
  Workload.Bench_out.create ?config ~bench:name ~seed:11 ~n_replicas:3 ()

let abort_pct (result : Workload.Runner.result) =
  let total = result.Workload.Runner.committed + result.Workload.Runner.aborted in
  if total = 0 then 0.
  else 100. *. float_of_int result.Workload.Runner.aborted /. float_of_int total

(* --- perf1: response time vs degree of replication ------------------- *)

let latency_vs_replicas () =
  section
    "perf1 — Update response time (ms, mean) vs number of replicas \
     (100% updates)";
  let spec =
    {
      Workload.Spec.default with
      update_ratio = 1.0;
      txns_per_client = 30;
      n_keys = 200;
    }
  in
  let ns = [ 3; 5; 7; 9 ] in
  let out = bench_out "perf1" in
  Fmt.pr "%-18s" "technique";
  List.iter (fun n -> Fmt.pr "%10s" (Printf.sprintf "n=%d" n)) ns;
  Fmt.pr "@.";
  List.iter
    (fun (name, factory) ->
      Fmt.pr "%-18s" name;
      List.iter
        (fun n ->
          let result =
            Workload.Runner.run ~n_replicas:n ~n_clients:2 ~spec factory
          in
          let mean = result.Workload.Runner.latency_ms.Sim.Summary.mean in
          Workload.Bench_out.add out ~metric:"latency_mean" ~technique:name
            ~unit_:"ms"
            ~params:[ ("n", string_of_int n) ]
            mean;
          Fmt.pr "%10.2f" mean)
        ns;
      Fmt.pr "@.")
    techniques;
  ignore (Workload.Bench_out.write out)

(* --- perf2: throughput and aborts vs update ratio --------------------- *)

let mix_sweep () =
  section
    "perf2 — Throughput (committed txn/s) and abort rate vs update ratio \
     (n=3)";
  let ratios = [ 0.0; 0.2; 0.5; 0.8; 1.0 ] in
  let out = bench_out "perf2" in
  Fmt.pr "%-18s" "technique";
  List.iter (fun r -> Fmt.pr "%16s" (Printf.sprintf "%.0f%%upd" (100. *. r))) ratios;
  Fmt.pr "@.";
  List.iter
    (fun (name, factory) ->
      Fmt.pr "%-18s" name;
      List.iter
        (fun update_ratio ->
          let spec =
            {
              Workload.Spec.default with
              update_ratio;
              txns_per_client = 40;
              n_keys = 50;
              key_skew = 0.9;
            }
          in
          let result = Workload.Runner.run ~n_clients:4 ~spec factory in
          let ab = abort_pct result in
          let params = [ ("update_ratio", Printf.sprintf "%.1f" update_ratio) ] in
          Workload.Bench_out.add out ~metric:"throughput" ~technique:name
            ~unit_:"txn/s" ~params result.Workload.Runner.throughput;
          Workload.Bench_out.add out ~metric:"abort_pct" ~technique:name
            ~unit_:"%" ~params ab;
          Fmt.pr "%16s"
            (Printf.sprintf "%.0f/s %.0f%%ab" result.Workload.Runner.throughput
               ab))
        ratios;
      Fmt.pr "@.")
    techniques;
  ignore (Workload.Bench_out.write out)

(* --- perf3: failover behaviour ---------------------------------------- *)

let failover () =
  section
    "perf3 — Failure assumptions: crash of replica 0 at t=100ms under a \
     steady update stream";
  let out = bench_out "perf3" in
  Fmt.pr "%-18s %14s %14s %10s %10s@." "technique" "max gap (ms)"
    "p99 lat (ms)" "committed" "converged";
  List.iter
    (fun (name, factory) ->
      let spec =
        {
          Workload.Spec.default with
          update_ratio = 1.0;
          txns_per_client = 40;
          think_time = Simtime.of_ms 2;
        }
      in
      let result =
        Workload.Runner.run ~n_replicas:3 ~n_clients:2 ~spec
          ~failures:[ Workload.Runner.crash_at ~at:(Simtime.of_ms 100) 0 ]
          factory
      in
      Workload.Bench_out.add out ~metric:"max_response_gap" ~technique:name
        ~unit_:"ms"
        (Simtime.to_ms result.Workload.Runner.max_response_gap);
      Workload.Bench_out.add out ~metric:"latency_p99" ~technique:name
        ~unit_:"ms" result.Workload.Runner.latency_ms.Sim.Summary.p99;
      Workload.Bench_out.add out ~metric:"committed" ~technique:name
        ~unit_:"txns"
        (float_of_int result.Workload.Runner.committed);
      Fmt.pr "%-18s %14.1f %14.1f %10d %10b@." name
        (Simtime.to_ms result.Workload.Runner.max_response_gap)
        result.Workload.Runner.latency_ms.Sim.Summary.p99
        result.Workload.Runner.committed result.Workload.Runner.converged)
    techniques;
  ignore (Workload.Bench_out.write out);
  Fmt.pr
    "@.Reading: active/semi-active/semi-passive mask the crash (gap ≈ \
     detection time);@.primary-based techniques pay a visible take-over \
     (client retry) spike.@."

(* --- perf4: eager vs lazy --------------------------------------------- *)

let eager_vs_lazy () =
  section
    "perf4 — Eager vs lazy: client latency vs inconsistency window (n=3)";
  let pairs =
    [
      ("eager-primary", "lazy-primary");
      ("eager-ue-abcast", "lazy-ue");
    ]
  in
  Fmt.pr "%-18s %16s %22s@." "technique" "upd latency (ms)"
    "convergence lag (ms)";
  let measure name =
    (* Custom loop to measure how long after the last client response the
       replicas take to converge. *)
    let factory = technique name in
    let engine = Engine.create ~seed:21 () in
    let net = Network.create engine ~n:5 Network.default_config in
    let replicas = [ 0; 1; 2 ] and clients = [ 3; 4 ] in
    let inst = factory net ~replicas ~clients in
    let lat = ref [] in
    let last_reply = ref Simtime.zero in
    let gen = Workload.Generator.create ~seed:5
        { Workload.Spec.default with update_ratio = 1.0; txns_per_client = 20 }
    in
    List.iter
      (fun client ->
        let rec go i =
          if i < 20 then begin
            let _, req = Workload.Generator.request gen ~client in
            let t0 = Engine.now engine in
            inst.Core.Technique.submit ~client req (fun reply ->
                lat := Simtime.to_ms (Simtime.sub reply.Core.Technique.at t0) :: !lat;
                last_reply := Simtime.max !last_reply reply.Core.Technique.at;
                go (i + 1))
          end
        in
        go 0)
      clients;
    (* Step until all replies are in, then until converged. *)
    ignore (Engine.run ~until:(Simtime.of_sec 30.) ~max_events:5_000_000 engine);
    let stores = List.map inst.Core.Technique.replica_store replicas in
    ignore stores;
    (* Re-run time-travel style: we can't rewind, so approximate the
       convergence lag with a second pass: run a fresh instance, stop the
       engine at the moment of the last reply, then step in 1ms slices
       until converged. *)
    let engine2 = Engine.create ~seed:21 () in
    let net2 = Network.create engine2 ~n:5 Network.default_config in
    let inst2 = factory net2 ~replicas ~clients in
    let gen2 = Workload.Generator.create ~seed:5
        { Workload.Spec.default with update_ratio = 1.0; txns_per_client = 20 }
    in
    let last2 = ref Simtime.zero in
    List.iter
      (fun client ->
        let rec go i =
          if i < 20 then begin
            let _, req = Workload.Generator.request gen2 ~client in
            inst2.Core.Technique.submit ~client req (fun reply ->
                last2 := Simtime.max !last2 reply.Core.Technique.at;
                go (i + 1))
          end
        in
        go 0)
      clients;
    (* Run until no more client work is outstanding. *)
    let rec drain_replies () =
      let before = !last2 in
      ignore
        (Engine.run
           ~until:(Simtime.add (Engine.now engine2) (Simtime.of_ms 50))
           engine2);
      if Simtime.(!last2 > before) then drain_replies ()
    in
    drain_replies ();
    let stores2 = List.map inst2.Core.Technique.replica_store replicas in
    let t_last = !last2 in
    let rec until_converged () =
      if
        Core.Convergence.converged stores2
        || Simtime.(Engine.now engine2 > Simtime.of_sec 60.)
      then Engine.now engine2
      else begin
        ignore
          (Engine.run
             ~until:(Simtime.add (Engine.now engine2) (Simtime.of_ms 1))
             engine2);
        until_converged ()
      end
    in
    let t_conv = until_converged () in
    let lag = Simtime.to_ms (Simtime.sub t_conv t_last) in
    ((Summary.summarize !lat).Summary.mean, lag)
  in
  let out = bench_out "perf4" in
  List.iter
    (fun (eager, lazy_) ->
      List.iter
        (fun name ->
          let latency, lag = measure name in
          Workload.Bench_out.add out ~metric:"update_latency_mean"
            ~technique:name ~unit_:"ms" latency;
          Workload.Bench_out.add out ~metric:"convergence_lag" ~technique:name
            ~unit_:"ms" lag;
          Fmt.pr "%-18s %16.2f %22.1f@." name latency lag)
        [ eager; lazy_ ])
    pairs;
  ignore (Workload.Bench_out.write out);
  Fmt.pr
    "@.Reading: lazy halves the client-visible latency but leaves a window@.\
     during which copies diverge; eager pays the coordination before END.@."

(* --- perf5: messages per transaction ----------------------------------- *)

let message_counts () =
  section "perf5 — Messages and communication steps per update transaction";
  let out = bench_out "perf5" in
  Fmt.pr "%-18s %12s %14s@." "technique" "msgs/txn" "latency (ms)";
  List.iter
    (fun (name, factory) ->
      (* Background traffic (heartbeats) is measured on an idle instance
         and subtracted. *)
      let idle_rate =
        let engine = Engine.create ~seed:9 () in
        let net = Network.create engine ~n:4 Network.default_config in
        let inst = factory net ~replicas:[ 0; 1; 2 ] ~clients:[ 3 ] in
        ignore inst;
        ignore (Engine.run ~until:(Simtime.of_sec 1.) engine);
        float_of_int (Network.messages_sent net)
      in
      let engine = Engine.create ~seed:9 () in
      let net = Network.create engine ~n:4 Network.default_config in
      let inst = factory net ~replicas:[ 0; 1; 2 ] ~clients:[ 3 ] in
      let n_txns = 50 in
      let lat = ref [] in
      let rec go i =
        if i < n_txns then begin
          let req =
            Store.Operation.request ~client:3 [ Store.Operation.Incr ("x", 1) ]
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
      let per_txn = (total -. idle_rate) /. float_of_int n_txns in
      Workload.Bench_out.add out ~metric:"messages_per_txn" ~technique:name
        ~unit_:"messages" (max 0. per_txn);
      Workload.Bench_out.add out ~metric:"latency_mean" ~technique:name
        ~unit_:"ms" (Summary.summarize !lat).Summary.mean;
      Fmt.pr "%-18s %12.1f %14.2f@." name (max 0. per_txn)
        (Summary.summarize !lat).Summary.mean)
    techniques;
  ignore (Workload.Bench_out.write out);
  Fmt.pr
    "@.Reading: lazy primary is the cheapest (one round + deferred refresh);@.\
     distributed locking pays per-operation lock+exec rounds plus 2PC.@."


(* --- perf6: LAN vs WAN ------------------------------------------------- *)

let wan () =
  section
    "perf6 — Geo-distribution: update latency (ms, mean), LAN vs WAN \
     between sites";
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
  let spec =
    { Workload.Spec.default with update_ratio = 1.0; txns_per_client = 20 }
  in
  let out = bench_out "perf6" in
  Fmt.pr "%-18s %12s %12s %10s@." "technique" "LAN" "WAN" "ratio";
  List.iter
    (fun (name, factory) ->
      let lan_result = Workload.Runner.run ~n_clients:3 ~spec factory in
      let wan_result =
        Workload.Runner.run ~n_clients:3 ~spec ~tune:wan_tune
          ~deadline:(Simtime.of_sec 600.) factory
      in
      let l = lan_result.Workload.Runner.latency_ms.Sim.Summary.mean in
      let w = wan_result.Workload.Runner.latency_ms.Sim.Summary.mean in
      Workload.Bench_out.add out ~metric:"latency_mean" ~technique:name
        ~unit_:"ms" ~params:[ ("net", "lan") ] l;
      Workload.Bench_out.add out ~metric:"latency_mean" ~technique:name
        ~unit_:"ms" ~params:[ ("net", "wan") ] w;
      Fmt.pr "%-18s %12.2f %12.2f %9.1fx@." name l w
        (if l > 0. then w /. l else 0.))
    techniques;
  ignore (Workload.Bench_out.write out);
  Fmt.pr
    "@.Reading: over a WAN the coordination rounds dominate: eager@.\
     techniques inflate by the number of wide-area round trips they@.\
     make before END, while lazy techniques stay at the local round@.\
     trip — the paper's \"access data locally\" motivation (§4).@."


(* --- perf7: where the time goes, phase by phase ------------------------ *)

let phase_breakdown () =
  section
    "perf7 — Phase-by-phase latency decomposition (ms, mean span duration \
     over a 100%-update run)";
  let out = bench_out "perf7" in
  Fmt.pr "%-18s %10s %10s %10s %10s %10s %10s@." "technique" "RE" "SC" "EX"
    "AC" "total" "tail";
  List.iter
    (fun (name, factory) ->
      let engine = Engine.create ~seed:77 () in
      let net = Network.create engine ~n:5 Network.default_config in
      let replicas = [ 0; 1; 2 ] and clients = [ 3; 4 ] in
      let inst = factory net ~replicas ~clients in
      List.iter
        (fun client ->
          let rec go i =
            if i < 15 then
              inst.Core.Technique.submit ~client
                (Store.Operation.request ~client
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
      let sums = Hashtbl.create 8 in
      let counts = Hashtbl.create 8 in
      let add key v =
        Hashtbl.replace sums key (v +. Option.value ~default:0. (Hashtbl.find_opt sums key));
        Hashtbl.replace counts key (1 + Option.value ~default:0 (Hashtbl.find_opt counts key))
      in
      List.iter
        (fun rid ->
          if Core.Phase_span.responded spans ~rid then begin
            let ps = Core.Phase_span.phase_spans spans ~rid in
            let start_of p =
              List.find_opt (fun (q, _) -> Core.Phase.equal p q) ps
              |> Option.map (fun (_, s) -> s.Sim.Span.start)
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
      let mean_v key =
        match (Hashtbl.find_opt sums key, Hashtbl.find_opt counts key) with
        | Some s, Some c when c > 0 -> Some (s /. float_of_int c)
        | _ -> None
      in
      let mean key =
        match mean_v key with
        | Some m -> Printf.sprintf "%.2f" m
        | None -> "-"
      in
      List.iter
        (fun key ->
          match mean_v key with
          | Some m ->
              Workload.Bench_out.add out ~metric:"phase_mean" ~technique:name
                ~unit_:"ms"
                ~params:[ ("phase", key) ]
                m
          | None -> ())
        [ "RE"; "SC"; "EX"; "AC"; "total"; "tail" ];
      Fmt.pr "%-18s %10s %10s %10s %10s %10s %10s@." name (mean "RE")
        (mean "SC") (mean "EX") (mean "AC") (mean "total") (mean "tail"))
    techniques;
  ignore (Workload.Bench_out.write out);
  Fmt.pr
    "@.Reading: the functional model's phases as a latency budget, read@.\
     off each transaction's span tree. The tail column is span activity@.\
     after END — lazy propagation (AC after END) or slow replicas the@.\
     client never waits for.@."


(* --- perf8: response time through a crash/recovery window -------------- *)

let registry_factory name =
  match Protocols.Registry.find name with
  | Some entry -> Protocols.Registry.default_factory entry
  | None -> invalid_arg name

let crash_recovery_windows () =
  section
    "perf8 — Failure assumptions: response time (ms, mean) before / during \
     / after a crash-recovery window (replica 0 down 100..250ms, n=3, 2 \
     clients, updates)";
  (* Default (non-passthrough) stacks: failure handling needs the stubborn
     channels, so wire traffic is not the measured quantity here. *)
  let crash = Simtime.of_ms 100 and recover = Simtime.of_ms 250 in
  let spec =
    {
      Workload.Spec.default with
      update_ratio = 1.0;
      txns_per_client = 50;
      think_time = Simtime.of_ms 2;
    }
  in
  let out = bench_out "perf8" in
  Fmt.pr "%-18s %10s %10s %10s %9s %12s@." "technique" "before" "during"
    "after" "resubmit" "max gap (ms)";
  List.iter
    (fun name ->
      let factory = registry_factory name in
      let result, inst =
        Workload.Runner.run_with_instance ~n_clients:2 ~spec
          ~failures:[ Workload.Runner.crash_recover ~at:crash ~recover_at:recover 0 ]
          ~deadline:(Simtime.of_sec 300.) factory
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
            | ((_, first) :: _ : (Core.Phase.t * Span.span) list) as ps -> (
                match
                  List.find_opt
                    (fun ((p, _) : Core.Phase.t * Span.span) ->
                      p = Core.Phase.Response)
                    ps
                with
                | None -> ()
                | Some (_, resp) ->
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
      let cell b =
        match !(buckets.(b)) with
        | [] -> "-"
        | ls ->
            Printf.sprintf "%.1f (%d)"
              (List.fold_left ( +. ) 0. ls /. float_of_int (List.length ls))
              (List.length ls)
      in
      List.iteri
        (fun b window ->
          match !(buckets.(b)) with
          | [] -> ()
          | ls ->
              Workload.Bench_out.add out ~metric:"latency_mean" ~technique:name
                ~unit_:"ms"
                ~params:[ ("window", window) ]
                (List.fold_left ( +. ) 0. ls /. float_of_int (List.length ls)))
        [ "before"; "during"; "after" ];
      Workload.Bench_out.add out ~metric:"resubmissions" ~technique:name
        ~unit_:"count"
        (float_of_int result.Workload.Runner.resubmissions);
      Fmt.pr "%-18s %10s %10s %10s %9d %12.1f@." name (cell 0) (cell 1)
        (cell 2) result.Workload.Runner.resubmissions
        (Simtime.to_ms result.Workload.Runner.max_response_gap))
    [
      "active";
      "passive";
      "semi-passive";
      "eager-primary";
      "eager-ue-locking";
      "lazy-ue";
      "certification";
    ];
  Fmt.pr
    "@.Reading: group-communication techniques mask the crash (during ~=@.\
     before, no resubmissions); primary-copy techniques pay a failover@.\
     spike (during >> before) and client resubmissions; after recovery the@.\
     rejoined replica serves again and latency returns to the baseline.@.";
  ignore (Workload.Bench_out.write out)

(* --- perf9: abort/block rates vs loss and partition duration ------------ *)

let loss_and_partition_rates () =
  section
    "perf9 — Failure assumptions: abort / blocked rates vs message-loss \
     probability and vs partition duration (n=3, 2 clients, updates)";
  let spec =
    {
      Workload.Spec.default with
      update_ratio = 1.0;
      txns_per_client = 25;
      think_time = Simtime.of_ms 2;
    }
  in
  let out = bench_out "perf9" in
  let names =
    [ "active"; "eager-primary"; "eager-ue-locking"; "lazy-ue"; "certification" ]
  in
  let cell (result : Workload.Runner.result) =
    Printf.sprintf "%.0f%%ab %dblk" (abort_pct result)
      result.Workload.Runner.unanswered
  in
  let record ~name ~params result =
    Workload.Bench_out.add out ~metric:"abort_pct" ~technique:name ~unit_:"%"
      ~params (abort_pct result);
    Workload.Bench_out.add out ~metric:"blocked" ~technique:name ~unit_:"txns"
      ~params
      (float_of_int result.Workload.Runner.unanswered)
  in
  let probabilities = [ 0.0; 0.02; 0.05; 0.10 ] in
  Fmt.pr "%-18s" "loss probability";
  List.iter (fun p -> Fmt.pr "%16s" (Printf.sprintf "p=%.2f" p)) probabilities;
  Fmt.pr "@.";
  List.iter
    (fun name ->
      let factory = registry_factory name in
      Fmt.pr "%-18s" name;
      List.iter
        (fun p ->
          let result =
            Workload.Runner.run ~n_clients:2 ~spec
              ~tune:(fun net ~replicas:_ ~clients:_ ->
                Sim.Network.set_drop_probability net p)
              ~deadline:(Simtime.of_sec 300.) factory
          in
          record ~name ~params:[ ("loss_p", Printf.sprintf "%.2f" p) ] result;
          Fmt.pr "%16s" (cell result))
        probabilities;
      Fmt.pr "@.")
    names;
  let durations_ms = [ 100; 300; 600 ] in
  Fmt.pr "@.%-18s" "partition of r2";
  List.iter (fun d -> Fmt.pr "%16s" (Printf.sprintf "%dms" d)) durations_ms;
  Fmt.pr "@.";
  List.iter
    (fun name ->
      let factory = registry_factory name in
      Fmt.pr "%-18s" name;
      List.iter
        (fun d ->
          let result =
            Workload.Runner.run ~n_clients:2 ~spec
              ~partitions:
                [
                  {
                    Workload.Runner.at = Simtime.of_ms 50;
                    group = [ 2 ];
                    heal_at = Simtime.of_ms (50 + d);
                  };
                ]
              ~deadline:(Simtime.of_sec 300.) factory
          in
          record ~name
            ~params:[ ("partition_ms", string_of_int d) ]
            result;
          Fmt.pr "%16s" (cell result))
        durations_ms;
      Fmt.pr "@.")
    names;
  Fmt.pr
    "@.Reading: loss is absorbed by retransmission everywhere (aborts only@.\
     from lock timeouts under delay); partitions price the strategies@.\
     apart — 2PC techniques may block or abort while the majority side of@.\
     a group-communication technique keeps committing.@.";
  ignore (Workload.Bench_out.write out)

(* --- perf10: contention under open-loop load ---------------------------- *)

let contention () =
  section
    "perf10 — Contention under open-loop (Poisson) load: abort rate and \
     latency vs offered load, hot keyspace (n=3, 4 clients)";
  let out = bench_out "perf10" in
  let rates = [ 50.; 150.; 400. ] in
  Fmt.pr "%-18s" "technique";
  List.iter
    (fun r -> Fmt.pr "%22s" (Printf.sprintf "%.0f txn/s/client" r))
    rates;
  Fmt.pr "@.";
  List.iter
    (fun name ->
      let factory = technique name in
      Fmt.pr "%-18s" name;
      List.iter
        (fun rate ->
          let spec =
            {
              Workload.Spec.default with
              update_ratio = 1.0;
              txns_per_client = 60;
              n_keys = 10;
              key_skew = 0.95;
            }
          in
          let result =
            Workload.Runner.run ~n_clients:4 ~spec ~arrival:(`Poisson rate)
              factory
          in
          let params = [ ("rate", Printf.sprintf "%.0f" rate) ] in
          Workload.Bench_out.add out ~metric:"latency_mean" ~technique:name
            ~unit_:"ms" ~params
            result.Workload.Runner.latency_ms.Sim.Summary.mean;
          Workload.Bench_out.add out ~metric:"abort_pct" ~technique:name
            ~unit_:"%" ~params (abort_pct result);
          Fmt.pr "%22s"
            (Printf.sprintf "%.1fms %.0f%%ab"
               result.Workload.Runner.latency_ms.Sim.Summary.mean
               (abort_pct result)))
        rates;
      Fmt.pr "@.")
    [ "eager-ue-locking"; "certification"; "eager-ue-abcast"; "lazy-ue" ];
  Fmt.pr
    "@.Reading: open-loop load piles conflicting transactions up: locking@.\
     queues (latency grows) while certification aborts (optimism priced);@.\
     ordered execution (eager-ue-abcast) and lazy commits stay flat.@.";
  ignore (Workload.Bench_out.write out)


(* --- perf11: partitions ------------------------------------------------- *)

let partitions () =
  section
    "perf11 — Partition tolerance: replica 2 isolated from t=50ms to \
     t=600ms (consensus-based ordering engines)";
  (* Factories on the consensus-based engine where the ordering matters:
     the sequencer engine assumes accurate detection and is not safe under
     the wrong suspicions a partition causes (see Abcast_seq). *)
  let part_techniques =
    [
      ( "active (CT)",
        fun net ~replicas ~clients ->
          Protocols.Active.create net ~replicas ~clients
            ~config:
              {
                Protocols.Active.default_config with
                abcast_impl = Group.Abcast.Consensus_based;
                passthrough = true;
              }
            () );
      ( "passive",
        fun net ~replicas ~clients ->
          Protocols.Passive.create net ~replicas ~clients
            ~config:
              { Protocols.Passive.default_config with passthrough = true }
            () );
      ( "eager-ue-abcast(CT)",
        fun net ~replicas ~clients ->
          Protocols.Eager_ue_abcast.create net ~replicas ~clients
            ~config:
              {
                Protocols.Eager_ue_abcast.default_config with
                abcast_impl = Group.Abcast.Consensus_based;
                passthrough = true;
              }
            () );
      ( "lazy-ue (CT)",
        fun net ~replicas ~clients ->
          Protocols.Lazy_ue.create net ~replicas ~clients
            ~config:
              {
                Protocols.Lazy_ue.default_config with
                abcast_impl = Group.Abcast.Consensus_based;
                passthrough = true;
              }
            () );
    ]
  in
  let out = bench_out "perf11" in
  Fmt.pr "%-22s %12s %14s %12s %12s@." "technique" "committed" "max gap (ms)"
    "converged" "1SR";
  List.iter
    (fun (name, factory) ->
      let spec =
        {
          Workload.Spec.default with
          update_ratio = 1.0;
          txns_per_client = 30;
          think_time = Simtime.of_ms 4;
        }
      in
      let result =
        Workload.Runner.run ~n_clients:2 ~spec
          ~partitions:
            [
              {
                Workload.Runner.at = Simtime.of_ms 50;
                group = [ 2 ];
                heal_at = Simtime.of_ms 600;
              };
            ]
          ~deadline:(Simtime.of_sec 300.) factory
      in
      Workload.Bench_out.add out ~metric:"committed" ~technique:name
        ~unit_:"txns"
        (float_of_int result.Workload.Runner.committed);
      Workload.Bench_out.add out ~metric:"max_response_gap" ~technique:name
        ~unit_:"ms"
        (Simtime.to_ms result.Workload.Runner.max_response_gap);
      Fmt.pr "%-22s %12d %14.1f %12b %12b@." name
        result.Workload.Runner.committed
        (Simtime.to_ms result.Workload.Runner.max_response_gap)
        result.Workload.Runner.converged result.Workload.Runner.serializable)
    part_techniques;
  Fmt.pr
    "@.Reading: majority sides keep committing through the partition;@.\
     the isolated replica catches up after the heal (progress gossip /@.\
     rejoin); lazy-ue never stalls at all and reconciles afterwards.@.";
  ignore (Workload.Bench_out.write out)

(* --- perf12: tail latency ----------------------------------------------- *)

let tail_latency () =
  section
    "perf12 — Tail latency (ms): mean vs p95/p99 under contention (n=3, \
     100% updates, skewed keys)";
  let spec =
    {
      Workload.Spec.default with
      update_ratio = 1.0;
      txns_per_client = 60;
      n_keys = 40;
      key_skew = 0.9;
    }
  in
  let out = bench_out "perf12" in
  Fmt.pr "%-18s %10s %10s %10s %10s@." "technique" "mean" "p95" "p99" "max";
  List.iter
    (fun (name, factory) ->
      let result = Workload.Runner.run ~n_clients:4 ~spec factory in
      let l = result.Workload.Runner.latency_ms in
      List.iter
        (fun (metric, v) ->
          Workload.Bench_out.add out ~metric ~technique:name ~unit_:"ms" v)
        [
          ("latency_mean", l.Sim.Summary.mean);
          ("latency_p95", l.Sim.Summary.p95);
          ("latency_p99", l.Sim.Summary.p99);
          ("latency_max", l.Sim.Summary.max);
        ];
      Fmt.pr "%-18s %10.2f %10.2f %10.2f %10.2f@." name l.Sim.Summary.mean
        l.Sim.Summary.p95 l.Sim.Summary.p99 l.Sim.Summary.max)
    techniques;
  Fmt.pr
    "@.Reading: the mean hides the queueing the paper's step counts imply:@.\
     deep critical paths (locking's per-operation rounds) stretch the tail@.\
     far more than the average, while lazy replies stay tight at p99.@.";
  ignore (Workload.Bench_out.write out)

(* --- perf13: resource-gauge trajectories vs offered load ----------------- *)

let series_stat ~f name (result : Workload.Runner.result) =
  result.Workload.Runner.series
  |> List.filter (fun (s : Sim.Timeseries.series) -> s.name = name)
  |> List.map f
  |> List.fold_left Stdlib.max 0.

let series_max = series_stat ~f:Sim.Timeseries.max_value

let resource_trajectory () =
  section
    "perf13 — Resource trajectories under open-loop load: peak queue depth \
     and lock waiters vs offered rate (n=3, 4 clients, hot keys, sampled \
     every 5ms)";
  let out = bench_out "perf13" in
  let rates = [ 50.; 150.; 400. ] in
  let queue_names =
    [ "abcast_pending"; "abcast_undelivered"; "vscast_buffered"; "rchan_unacked" ]
  in
  Fmt.pr "%-18s %8s %10s %8s %10s %10s %8s@." "technique" "rate" "lat(ms)"
    "abort%" "waiters^" "queue^" "txns^";
  List.iter
    (fun name ->
      let factory = registry_factory name in
      List.iter
        (fun rate ->
          let spec =
            {
              Workload.Spec.default with
              update_ratio = 1.0;
              txns_per_client = 60;
              n_keys = 10;
              key_skew = 0.95;
            }
          in
          let result =
            Workload.Runner.run ~n_clients:4 ~spec ~arrival:(`Poisson rate)
              ~sample:(Simtime.of_ms 5) ~deadline:(Simtime.of_sec 8.) factory
          in
          let waiters = series_max "lock_waiters" result in
          let queue =
            List.fold_left
              (fun acc n -> Stdlib.max acc (series_max n result))
              0. queue_names
          in
          let active = series_max "active_txns" result in
          let params = [ ("rate", Printf.sprintf "%.0f" rate) ] in
          Workload.Bench_out.add out ~metric:"latency_mean" ~technique:name
            ~unit_:"ms" ~params
            result.Workload.Runner.latency_ms.Sim.Summary.mean;
          Workload.Bench_out.add out ~metric:"abort_pct" ~technique:name
            ~unit_:"%" ~params (abort_pct result);
          Workload.Bench_out.add out ~metric:"lock_waiters_max" ~technique:name
            ~unit_:"txns" ~params waiters;
          Workload.Bench_out.add out ~metric:"queue_depth_max" ~technique:name
            ~unit_:"msgs" ~params queue;
          Workload.Bench_out.add out ~metric:"active_txns_max" ~technique:name
            ~unit_:"txns" ~params active;
          Fmt.pr "%-18s %8.0f %10.1f %8.0f %10.0f %10.0f %8.0f@." name rate
            result.Workload.Runner.latency_ms.Sim.Summary.mean
            (abort_pct result) waiters queue active)
        rates)
    [ "eager-ue-locking"; "certification"; "eager-ue-abcast"; "lazy-ue" ];
  Fmt.pr
    "@.Reading: the gauges localise the queueing perf10 only infers from@.\
     latency: locking's backlog shows up as lock waiters (a convoy on the@.\
     hot keys), certification's as aborts with zero waiters, and the@.\
     ordered-execution techniques as group-stack queue depth.@.";
  ignore (Workload.Bench_out.write out)

(* --- perf14: sequencer batching — batch window vs offered load --------- *)

(* The batching trade-off: a wider sequencer batch window amortises one
   ordering round (one Order + one all-to-all ack wave) over every
   request that arrives inside the window, cutting wire messages per
   transaction at saturating load, at the price of up to one window of
   added latency per request. batch_window=0 is the unbatched §5
   protocol. *)
let batching () =
  section
    "perf14 — Sequencer batching: wire messages per txn and mean latency \
     vs batch window under open-loop (Poisson) load (n=3, 4 clients, 100% \
     updates, passthrough)";
  let windows_ms = [ 0; 1; 5; 20 ] in
  let rates = [ 100.; 1000. ] in
  let out = bench_out ~config:[ ("passthrough", "true") ] "perf14" in
  let spec =
    {
      Workload.Spec.default with
      update_ratio = 1.0;
      txns_per_client = 60;
      n_keys = 200;
    }
  in
  (* msgs/txn at (technique, window, rate), for the closing verdict *)
  let recorded = Hashtbl.create 16 in
  Fmt.pr "%-18s %10s %8s %10s %10s %8s@." "technique" "window" "rate"
    "msgs/txn" "lat(ms)" "abort%";
  List.iter
    (fun name ->
      let entry = Option.get (Protocols.Registry.find name) in
      List.iter
        (fun w ->
          List.iter
            (fun rate ->
              let factory =
                Protocols.Registry.configure_exn entry
                  [
                    ("passthrough", "true");
                    ("batch_window", Printf.sprintf "%dms" w);
                  ]
              in
              let builder =
                Workload.Builder.make ~clients:4 ~spec
                  ~arrival:(`Poisson rate) ~deadline:(Simtime.of_sec 8.) ()
              in
              let result = Workload.Builder.run builder factory in
              let params =
                [
                  ("batch_window_ms", string_of_int w);
                  ("rate", Printf.sprintf "%.0f" rate);
                ]
              in
              Hashtbl.replace recorded (name, w, rate)
                result.Workload.Runner.messages_per_txn;
              Workload.Bench_out.add out ~metric:"messages_per_txn"
                ~technique:name ~unit_:"msgs" ~params
                result.Workload.Runner.messages_per_txn;
              Workload.Bench_out.add out ~metric:"latency_mean"
                ~technique:name ~unit_:"ms" ~params
                result.Workload.Runner.latency_ms.Sim.Summary.mean;
              Workload.Bench_out.add out ~metric:"abort_pct" ~technique:name
                ~unit_:"%" ~params (abort_pct result);
              Fmt.pr "%-18s %8dms %8.0f %10.1f %10.1f %8.0f@." name w rate
                result.Workload.Runner.messages_per_txn
                result.Workload.Runner.latency_ms.Sim.Summary.mean
                (abort_pct result))
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
    [ "active"; "certification" ];
  Fmt.pr
    "@.Reading: at saturating load many requests land inside one window,@.\
     so the ordering round (Order + all-to-all acks) is paid once per@.\
     batch instead of once per transaction; at low load the window mostly@.\
     holds a single request and only adds its width to the latency.@.";
  ignore (Workload.Bench_out.write out)

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
   times the whole [Builder.run] and records [postloop_share], the
   fraction of it spent outside the event loop (the per-phase summary
   over every traced rid dominates it), so a super-linear post-run pass
   shows up as a number rather than as a stall.

   PERF15_TXNS overrides the total transaction count (CI smoke runs use
   a small value; the floor gate in ci/check.sh re-runs bench-check
   against whatever this wrote). *)
let simulator_throughput () =
  let total =
    match Option.bind (Sys.getenv_opt "PERF15_TXNS") int_of_string_opt with
    | Some v when v > 0 -> v
    | _ -> 100_000
  in
  let n = 32 and clients = 8 in
  let technique_name = "lazy-primary" in
  section
    (Printf.sprintf
       "perf15 — Simulator self-throughput: events/s and txns/s of wall \
        time, tracing off vs on (n=%d, %s, 10%% updates, %d txns)"
       n technique_name total);
  let spec txns =
    {
      Workload.Spec.default with
      update_ratio = 0.1;
      txns_per_client = txns;
      n_keys = 1_000;
    }
  in
  let leg ~tracing ~txns =
    let profiler = Sim.Profiler.create () in
    let builder =
      Workload.Builder.make ~seed:11 ~replicas:n ~clients ~spec:(spec txns)
        ~profiler ~tracing ~analyze:false
        ~deadline:(Simtime.of_sec 3600.)
        ()
    in
    let t0 = Unix.gettimeofday () in
    let result = Workload.Builder.run builder (technique technique_name) in
    let run_wall = Unix.gettimeofday () -. t0 in
    (Sim.Profiler.report profiler, result, run_wall)
  in
  let out =
    Workload.Bench_out.create
      ~config:[ ("update_ratio", "0.1"); ("passthrough", "true") ]
      ~bench:"perf15" ~seed:11 ~n_replicas:n ()
  in
  Fmt.pr "%-10s %10s %10s %12s %12s %14s %10s@." "tracing" "txns" "events"
    "events/s" "txns/s" "heap peak (w)" "spans";
  let record label (report : Sim.Profiler.report)
      (result : Workload.Runner.result) txns =
    let wall = result.Workload.Runner.wall_s in
    let txps =
      if wall > 0. then float_of_int result.Workload.Runner.committed /. wall
      else 0.
    in
    let params = [ ("tracing", label); ("txns", string_of_int txns) ] in
    Workload.Bench_out.add out ~metric:"events_per_sec"
      ~technique:technique_name ~unit_:"events/s" ~params
      report.Sim.Profiler.p_events_per_sec;
    Workload.Bench_out.add out ~metric:"txns_per_sec"
      ~technique:technique_name ~unit_:"txn/s" ~params txps;
    Workload.Bench_out.add out ~metric:"peak_heap_words"
      ~technique:technique_name ~unit_:"words" ~params
      (float_of_int report.Sim.Profiler.p_heap_peak_words);
    Workload.Bench_out.add out ~metric:"events" ~technique:technique_name
      ~unit_:"events" ~params
      (float_of_int report.Sim.Profiler.p_events);
    Workload.Bench_out.add out ~metric:"spans_created"
      ~technique:technique_name ~unit_:"spans" ~params
      (float_of_int report.Sim.Profiler.p_spans_created);
    List.iter
      (fun (r : Sim.Profiler.row) ->
        Workload.Bench_out.add out ~metric:"bucket_wall_share"
          ~technique:technique_name ~unit_:"share"
          ~params:(params @ [ ("label", r.r_label) ])
          r.r_wall_share)
      report.Sim.Profiler.p_buckets;
    Fmt.pr "%-10s %10d %10d %12.0f %12.0f %14d %10d@." label
      (result.Workload.Runner.committed + result.Workload.Runner.aborted)
      report.Sim.Profiler.p_events report.Sim.Profiler.p_events_per_sec txps
      report.Sim.Profiler.p_heap_peak_words
      report.Sim.Profiler.p_spans_created;
    txps
  in
  let txns_off = max 1 (total / clients) in
  let txns_on = max 1 (total / clients / 20) in
  let report_off, result_off, _ = leg ~tracing:false ~txns:txns_off in
  let report_on, result_on, run_wall_on = leg ~tracing:true ~txns:txns_on in
  ignore (record "off" report_off result_off (txns_off * clients));
  ignore (record "on" report_on result_on (txns_on * clients));
  let postloop_share =
    if run_wall_on > 0. then
      Float.max 0. (run_wall_on -. result_on.Workload.Runner.wall_s) /. run_wall_on
    else 0.
  in
  (* Peak heap per transaction of the tracing-off leg: bounded-memory
     bookkeeping keeps it flat as the run grows. *)
  Workload.Bench_out.add out ~metric:"heap_words_per_txn"
    ~technique:technique_name ~unit_:"words/txn"
    ~params:[ ("tracing", "off"); ("txns", string_of_int (txns_off * clients)) ]
    (float_of_int report_off.Sim.Profiler.p_heap_peak_words
    /. float_of_int (txns_off * clients));
  (* Minor-heap words allocated inside the tracing-off leg's events, per
     event: the engine's and the delivery path's own allocation. *)
  Workload.Bench_out.add out ~metric:"alloc_words_per_event"
    ~technique:technique_name ~unit_:"words/event"
    ~params:[ ("tracing", "off"); ("txns", string_of_int (txns_off * clients)) ]
    (report_off.Sim.Profiler.p_alloc_words
    /. float_of_int (max 1 report_off.Sim.Profiler.p_events));
  Workload.Bench_out.add out ~metric:"postloop_share" ~technique:technique_name
    ~unit_:"share"
    ~params:[ ("tracing", "on"); ("txns", string_of_int (txns_on * clients)) ]
    postloop_share;
  let evps_off = report_off.Sim.Profiler.p_events_per_sec in
  let evps_on = report_on.Sim.Profiler.p_events_per_sec in
  let overhead_pct =
    if evps_on > 0. then 100. *. (evps_off /. evps_on -. 1.) else 0.
  in
  Workload.Bench_out.add out ~metric:"tracing_overhead_pct"
    ~technique:technique_name ~unit_:"%" ~params:[] overhead_pct;
  Fmt.pr
    "@.verdict: tracing off runs %.0f%% faster per event than tracing on@."
    overhead_pct;
  Fmt.pr
    "tracing on: %.1f%% of the whole run (%.3f s) is spent outside the event \
     loop@."
    (100. *. postloop_share) run_wall_on;
  Fmt.pr "top buckets (tracing off, by self time):@.";
  List.iteri
    (fun i r -> if i < 5 then Fmt.pr "  %a@." Sim.Profiler.pp_row r)
    (List.sort
       (fun (a : Sim.Profiler.row) b -> compare b.r_wall_ms a.r_wall_ms)
       report_off.Sim.Profiler.p_buckets);
  Fmt.pr
    "@.Reading: with the tracing gate off, span records are never@.\
     materialised (Network.set_tracing short-circuits message spans and@.\
     phase marks), so the off-leg's events/s is the engine's raw speed@.\
     and the on/off gap is the full, measured price of the observability@.\
     stack at this workload.@.";
  ignore (Workload.Bench_out.write out)

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
let sharding () =
  section
    "perf16 — Sharded replication groups: single-shard message cost vs \
     cluster size (group size 4), and throughput/p95 vs cross-shard ratio \
     (n=32, 8 shards, 2 ops/txn, passthrough)";
  let out =
    Workload.Bench_out.create
      ~config:[ ("passthrough", "true") ]
      ~bench:"perf16" ~seed:11 ~n_replicas:32 ()
  in
  let group_size = 4 in
  let ns = [ 16; 32; 64 ] in
  let part_a_techniques = [ "active"; "certification"; "eager-primary" ] in
  let probe_msgs entry ~n ~shards =
    let factory =
      Protocols.Registry.configure_exn entry
        [ ("passthrough", "true"); ("shards", string_of_int shards) ]
    in
    let p = Workload.Builder.probe ~seed:7 ~n factory in
    let _, _, s = Workload.Builder.probe_summary p in
    s.Sim.Msg_dag.messages
  in
  Fmt.pr "single-shard txn, causal messages (sharded: group size %d | \
          unsharded: full cluster)@."
    group_size;
  Fmt.pr "%-18s" "technique";
  List.iter (fun n -> Fmt.pr "%14s" (Printf.sprintf "n=%d" n)) ns;
  Fmt.pr "@.";
  let flat =
    List.for_all
      (fun name ->
        let entry = Option.get (Protocols.Registry.find name) in
        Fmt.pr "%-18s" name;
        let sharded =
          List.map
            (fun n ->
              let shards = n / group_size in
              let m_sharded = probe_msgs entry ~n ~shards in
              let m_full = probe_msgs entry ~n ~shards:1 in
              let params =
                [ ("n", string_of_int n); ("shards", string_of_int shards) ]
              in
              Workload.Bench_out.add out ~metric:"probe_messages"
                ~technique:name ~unit_:"msgs" ~params
                (float_of_int m_sharded);
              Workload.Bench_out.add out ~metric:"probe_messages"
                ~technique:name ~unit_:"msgs"
                ~params:[ ("n", string_of_int n); ("shards", "1") ]
                (float_of_int m_full);
              Fmt.pr "%8d |%4d" m_sharded m_full;
              m_sharded)
            ns
        in
        Fmt.pr "@.";
        match sharded with
        | first :: rest -> List.for_all (Int.equal first) rest
        | [] -> true)
      part_a_techniques
  in
  Fmt.pr
    "@.verdict: single-shard message cost %s of cluster size at fixed \
     group size@."
    (if flat then "is independent" else "DEPENDS — regression");
  (* Machine-checkable form of the verdict: ci/check.sh floor-gates
     probe_flat at 1. *)
  Workload.Bench_out.add out ~metric:"probe_flat" ~technique:"all"
    ~unit_:"bool" (if flat then 1. else 0.);
  (* Part B: cross-shard ratio sweep on a fixed sharded cluster. *)
  let txns =
    match Option.bind (Sys.getenv_opt "PERF16_TXNS") int_of_string_opt with
    | Some v when v > 0 -> v
    | _ -> 40
  in
  let n = 32 and shards = 8 and clients = 4 in
  let entry = Option.get (Protocols.Registry.find "active") in
  let factory =
    Protocols.Registry.configure_exn entry
      [ ("passthrough", "true"); ("shards", string_of_int shards) ]
  in
  Fmt.pr "@.%-10s %10s %12s %10s %10s %10s %12s@." "cross" "committed"
    "msgs/txn" "tput/s" "p95(ms)" "p99(ms)" "2PC commits";
  List.iter
    (fun cross ->
      let spec =
        Workload.Builder.spec ~updates:0.5 ~ops:2 ~txns ~keys:200 ~shards
          ~cross ()
      in
      let builder =
        Workload.Builder.make ~seed:11 ~replicas:n ~clients ~spec ()
      in
      let result = Workload.Builder.run builder factory in
      let cross_commits =
        Option.value ~default:0
          (Sim.Metrics.counter_value result.Workload.Runner.metrics
             "cross_shard_commit_total")
      in
      let params = [ ("cross", Printf.sprintf "%.2f" cross) ] in
      Workload.Bench_out.add out ~metric:"throughput" ~technique:"active"
        ~unit_:"txn/s" ~params result.Workload.Runner.throughput;
      Workload.Bench_out.add out ~metric:"latency_p95" ~technique:"active"
        ~unit_:"ms" ~params
        result.Workload.Runner.latency_ms.Sim.Summary.p95;
      Workload.Bench_out.add out ~metric:"latency_p99" ~technique:"active"
        ~unit_:"ms" ~params
        result.Workload.Runner.latency_ms.Sim.Summary.p99;
      Workload.Bench_out.add out ~metric:"messages_per_txn"
        ~technique:"active" ~unit_:"msgs" ~params
        result.Workload.Runner.messages_per_txn;
      Workload.Bench_out.add out ~metric:"cross_commits" ~technique:"active"
        ~unit_:"txns" ~params (float_of_int cross_commits);
      Fmt.pr "%-10.2f %10d %12.1f %10.1f %10.2f %10.2f %12d@." cross
        result.Workload.Runner.committed
        result.Workload.Runner.messages_per_txn
        result.Workload.Runner.throughput
        result.Workload.Runner.latency_ms.Sim.Summary.p95
        result.Workload.Runner.latency_ms.Sim.Summary.p99 cross_commits)
    [ 0.0; 0.1; 0.3; 1.0 ];
  Fmt.pr
    "@.Reading: Part A is the partial-replication bargain — a \
     transaction@.\
     confined to one group pays the §5 protocol at the group size, \
     however@.\
     large the cluster grows. Part B is its price: every cross-shard@.\
     transaction adds a 2PC round over the concerned groups' delegates \
     and@.\
     splits into one sub-transaction per group, so message cost and tail@.\
     latency climb with the crossing ratio while single-shard traffic is@.\
     untouched.@.";
  ignore (Workload.Bench_out.write out)

(* --- perf17: measured consistency across the taxonomy ---------------- *)

(* The audit layer's numbers as a benchmark: visibility latency (how
   long a committed write stays invisible at other replicas), the
   post-commit staleness window, and session-guarantee violation rates,
   for every technique under open-loop load — the measured form of the
   paper's eager/lazy inconsistency-window claim. A sharded lazy leg
   adds the cross-shard snapshot-skew count.

   PERF17_TXNS overrides the per-client transaction count (CI smoke). *)
let consistency_audit () =
  section
    "perf17 — Measured consistency: visibility latency, staleness windows \
     and session-guarantee violations (all techniques × Poisson load; \
     sharded lazy leg)";
  let txns =
    match Option.bind (Sys.getenv_opt "PERF17_TXNS") int_of_string_opt with
    | Some v when v > 0 -> v
    | _ -> 40
  in
  let out =
    Workload.Bench_out.create
      ~config:[ ("passthrough", "true") ]
      ~bench:"perf17" ~seed:11 ~n_replicas:3 ()
  in
  let all_drained = ref true in
  let lazy_positive = ref true in
  let audited ?(n = 3) ?(clients = 4) ?(shards = 1) ?(cross = 0.)
      ?(arrival = `Closed) (entry : Protocols.Registry.entry) =
    let factory =
      Protocols.Registry.configure_exn entry
        ([ ("passthrough", "true") ]
        @ if shards > 1 then [ ("shards", string_of_int shards) ] else [])
    in
    let spec =
      Workload.Builder.spec ~updates:0.5 ~ops:(if shards > 1 then 2 else 1)
        ~txns ~keys:100 ~shards ~cross ()
    in
    let builder =
      Workload.Builder.make ~seed:11 ~replicas:n ~clients ~spec ~arrival
        ~sample:(Simtime.of_ms 5) ~audit:true ()
    in
    let result = Workload.Builder.run builder factory in
    (result, Option.get result.Workload.Runner.audit)
  in
  let rates = [ 50.; 200. ] in
  Fmt.pr "%-18s %-6s" "technique" "prop";
  List.iter
    (fun r ->
      Fmt.pr "%26s"
        (Printf.sprintf "rate=%.0f/s: vis p95|win" r))
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
          let params =
            [ ("rate", Printf.sprintf "%.0f" rate); ("shards", "1") ]
          in
          let rate_of v =
            if a.Workload.Audit.reads_checked = 0 then 0.
            else float_of_int v /. float_of_int a.Workload.Audit.reads_checked
          in
          Workload.Bench_out.add out ~metric:"visibility_p95_ms"
            ~technique:entry.key ~unit_:"ms" ~params
            a.Workload.Audit.visibility_ms.Sim.Summary.p95;
          Workload.Bench_out.add out ~metric:"visibility_mean_ms"
            ~technique:entry.key ~unit_:"ms" ~params
            a.Workload.Audit.visibility_ms.Sim.Summary.mean;
          Workload.Bench_out.add out ~metric:"post_commit_window_ms"
            ~technique:entry.key ~unit_:"ms" ~params
            a.Workload.Audit.post_commit_max_ms;
          Workload.Bench_out.add out ~metric:"session_window_ms"
            ~technique:entry.key ~unit_:"ms" ~params
            a.Workload.Audit.session_window_max_ms;
          Workload.Bench_out.add out ~metric:"stale_read_rate"
            ~technique:entry.key ~unit_:"frac" ~params
            (rate_of a.Workload.Audit.stale_reads);
          Workload.Bench_out.add out ~metric:"ryw_violation_rate"
            ~technique:entry.key ~unit_:"frac" ~params
            (rate_of a.Workload.Audit.ryw_violations);
          Workload.Bench_out.add out ~metric:"mr_violation_rate"
            ~technique:entry.key ~unit_:"frac" ~params
            (rate_of a.Workload.Audit.mr_violations);
          if not a.Workload.Audit.drained then all_drained := false;
          if (not eager) && a.Workload.Audit.post_commit_max_ms <= 0. then
            lazy_positive := false;
          let s, r, m = !totals in
          totals :=
            ( s + a.Workload.Audit.stale_reads,
              r + a.Workload.Audit.ryw_violations,
              m + a.Workload.Audit.mr_violations );
          Fmt.pr "%16.2f |%7.2f"
            a.Workload.Audit.visibility_ms.Sim.Summary.p95
            a.Workload.Audit.post_commit_max_ms)
        rates;
      let s, r, m = !totals in
      Fmt.pr "%10d |%2d |%2d@." s r m)
    Protocols.Registry.all;
  (* Sharded lazy leg: the skew detector under cross-shard traffic. *)
  let entry = Option.get (Protocols.Registry.find "lazy-primary") in
  let result, a = audited ~n:6 ~shards:2 ~cross:0.3 entry in
  Workload.Bench_out.add out ~metric:"skew_pairs" ~technique:"lazy-primary"
    ~unit_:"pairs"
    ~params:[ ("shards", "2"); ("cross", "0.30") ]
    (float_of_int a.Workload.Audit.skew_pairs);
  Workload.Bench_out.add out ~metric:"cross_txns" ~technique:"lazy-primary"
    ~unit_:"txns"
    ~params:[ ("shards", "2"); ("cross", "0.30") ]
    (float_of_int a.Workload.Audit.cross_txns);
  if not a.Workload.Audit.drained then all_drained := false;
  if a.Workload.Audit.post_commit_max_ms <= 0. then lazy_positive := false;
  Fmt.pr
    "@.sharded lazy leg (lazy-primary, n=6, 2 shards, cross=0.30): %d \
     committed, %d cross-shard txns, %d skew pairs, postcmt %.2f ms@."
    result.Workload.Runner.committed a.Workload.Audit.cross_txns
    a.Workload.Audit.skew_pairs a.Workload.Audit.post_commit_max_ms;
  (* Machine-checkable verdicts, single aggregate rows so the CI floor
     (max-over-rows >= 1) only passes when EVERY run satisfied them. *)
  Workload.Bench_out.add out ~metric:"audit_drained" ~technique:"all"
    ~unit_:"bool"
    (if !all_drained then 1. else 0.);
  Workload.Bench_out.add out ~metric:"lazy_visibility_positive"
    ~technique:"all" ~unit_:"bool"
    (if !lazy_positive then 1. else 0.);
  Fmt.pr
    "@.verdict: every run drained (%s) and every lazy run measured a \
     positive post-commit window (%s)@."
    (if !all_drained then "yes" else "NO — regression")
    (if !lazy_positive then "yes" else "NO — regression");
  Fmt.pr
    "@.Reading: vis p95 is how long a committed write stays invisible at@.\
     the other replicas; win the worst reply-to-last-install gap. Eager@.\
     techniques keep both inside the commit round (sub-ms residue is the@.\
     decision round racing the reply), lazy ones show the propagation@.\
     interval, and only lazy rows post session violations. The sharded@.\
     leg counts readers that caught a cross-shard write half-applied.@.";
  ignore (Workload.Bench_out.write out)

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
let quadrant_sweep () =
  section
    "perf18 — Figure-6 quadrant sweep: eager/lazy × primary/update- \
     everywhere under arrival load and zipf key skew, one canonical run \
     record per cell";
  let txns =
    match Option.bind (Sys.getenv_opt "PERF18_TXNS") int_of_string_opt with
    | Some v when v > 0 -> v
    | _ -> 30
  in
  let out =
    Workload.Bench_out.create ~bench:"perf18" ~seed:11 ~n_replicas:3 ()
  in
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
        let entry = Option.get (Protocols.Registry.find c.technique) in
        let _, factory =
          match Protocols.Registry.configure entry [] with
          | Ok x -> x
          | Error msg -> failwith msg
        in
        let spec =
          Workload.Builder.spec ~keys:100 ~skew:c.zipf ~updates:c.updates
            ~ops:1 ~txns ~shards:1 ~cross:0. ()
        in
        let arrival = Workload.Sweep.arrival_of_cell c in
        let builder =
          Workload.Builder.make ~seed:c.seed ~replicas:3 ~clients:4 ~spec
            ~arrival ~sample:(Simtime.of_ms 5) ~audit:true ()
        in
        let result = Workload.Builder.run builder factory in
        let r =
          Workload.Run_record.normalize
            (Workload.Run_record.of_run ~technique:entry.key ~config:[]
               ~seed:c.seed ~n_replicas:3 ~n_clients:4 ~arrival ~spec result)
        in
        let params =
          [
            ( "rate",
              if c.load > 0. then Printf.sprintf "%.0f" c.load else "closed" );
            ("zipf", Printf.sprintf "%g" c.zipf);
          ]
        in
        Workload.Bench_out.add out ~metric:"latency_p95" ~technique:entry.key
          ~unit_:"ms" ~params r.Workload.Run_record.latency_p95_ms;
        Workload.Bench_out.add out ~metric:"throughput" ~technique:entry.key
          ~unit_:"txn/s" ~params r.Workload.Run_record.throughput;
        Workload.Bench_out.add out ~metric:"msgs_per_txn" ~technique:entry.key
          ~unit_:"msgs" ~params r.Workload.Run_record.msgs_per_txn;
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
        then Some r.latency_p95_ms
        else None)
      records
  in
  let lazy_faster = ref true in
  List.iter
    (fun (r : Workload.Run_record.t) ->
      let eager_mate =
        match r.technique with
        | "lazy-primary" -> p95_of "eager-primary" r
        | "lazy-ue" -> p95_of "eager-ue-abcast" r
        | _ -> None
      in
      match eager_mate with
      | Some eager_p95 when r.latency_p95_ms >= eager_p95 ->
          lazy_faster := false
      | _ -> ())
    records;
  let values metric =
    List.filter_map (fun r -> Workload.Run_record.metric r metric) records
  in
  let best_latency =
    List.fold_left Float.min Float.infinity (values "latency_p95")
  in
  let best_throughput = List.fold_left Float.max 0. (values "throughput") in
  let worst_msgs =
    List.fold_left Float.max 0. (values "msgs_per_txn")
  in
  Workload.Bench_out.add out ~metric:"cells" ~technique:"all" ~unit_:"cells"
    (float_of_int (List.length records));
  Workload.Bench_out.add out ~metric:"best_latency_p95" ~technique:"all"
    ~unit_:"ms" best_latency;
  Workload.Bench_out.add out ~metric:"best_throughput" ~technique:"all"
    ~unit_:"txn/s" best_throughput;
  Workload.Bench_out.add out ~metric:"worst_msgs_per_txn" ~technique:"all"
    ~unit_:"msgs" worst_msgs;
  Workload.Bench_out.add out ~metric:"lazy_faster_than_eager" ~technique:"all"
    ~unit_:"bool"
    (if !lazy_faster then 1. else 0.);
  Fmt.pr
    "@.verdict: lazy quadrants reply below their eager column-mates in \
     every cell (%s); %d cells, best p95 %.2f ms, best throughput %.0f \
     txn/s, worst msgs/txn %.1f@."
    (if !lazy_faster then "yes" else "NO — regression")
    (List.length records) best_latency best_throughput worst_msgs;
  Fmt.pr
    "@.Reading: rows are Gray's quadrants (× zipf when it matters),@.\
     columns the arrival loads. Lazy rows commit at local speed and pay@.\
     for it in the perf17 staleness windows; eager rows pay the@.\
     coordination round here instead. Skew moves contention, not the@.\
     propagation cost, so zipf rows only separate under abort-prone@.\
     techniques.@.";
  ignore (Workload.Bench_out.write out)

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
   the router resent it elsewhere.

   PERF19_TXNS overrides the per-client transaction count (CI smoke). *)
let routed_tier () =
  section
    "perf19 — Routed tier: sticky sessions vs read-your-writes over \
     lazy-primary, and the Figure-6 quadrants through a flash crowd with \
     mid-spike failover";
  let txns =
    match Option.bind (Sys.getenv_opt "PERF19_TXNS") int_of_string_opt with
    | Some v when v > 0 -> v
    | _ -> 30
  in
  let out = bench_out "perf19" in
  (* -- part A: sticky on/off over lazy-primary ------------------------- *)
  let lazy_factory =
    Protocols.Registry.configure_exn
      (Option.get (Protocols.Registry.find "lazy-primary"))
      [ ("propagation_delay", "20ms") ]
  in
  let routed_audit ~sticky =
    let spec = Workload.Builder.spec ~updates:0.5 ~txns ~keys:40 () in
    let builder =
      Workload.Builder.make ~seed:11 ~replicas:3 ~clients:4 ~spec ~audit:true
        ~router:
          { Workload.Router.default_config with Workload.Router.sticky }
        ()
    in
    let result = Workload.Builder.run builder lazy_factory in
    ( Option.get result.Workload.Runner.audit,
      Option.get result.Workload.Runner.router,
      result )
  in
  let a_loose, r_loose, res_loose = routed_audit ~sticky:false in
  let a_sticky, r_sticky, res_sticky = routed_audit ~sticky:true in
  let ryw_loose = a_loose.Workload.Audit.ryw_violations in
  let ryw_sticky = a_sticky.Workload.Audit.ryw_violations in
  let read_p95 (r : Workload.Runner.result) =
    r.Workload.Runner.read_latency_ms.Sim.Summary.p95
  in
  Fmt.pr "lazy-primary, propagation 20ms, %d txns/client, routed:@." txns;
  Fmt.pr "  round-robin reads: ryw_violations=%d read_p95=%.3fms (%a)@."
    ryw_loose (read_p95 res_loose) Workload.Router.pp_stats r_loose;
  Fmt.pr "  sticky sessions  : ryw_violations=%d read_p95=%.3fms (%a)@."
    ryw_sticky (read_p95 res_sticky) Workload.Router.pp_stats r_sticky;
  Workload.Bench_out.add out ~metric:"ryw_nonsticky" ~technique:"lazy-primary"
    ~unit_:"violations" (float_of_int ryw_loose);
  Workload.Bench_out.add out ~metric:"ryw_sticky" ~technique:"lazy-primary"
    ~unit_:"violations" (float_of_int ryw_sticky);
  Workload.Bench_out.add out ~metric:"read_p95_nonsticky"
    ~technique:"lazy-primary" ~unit_:"ms" (read_p95 res_loose);
  Workload.Bench_out.add out ~metric:"read_p95_sticky"
    ~technique:"lazy-primary" ~unit_:"ms" (read_p95 res_sticky);
  Workload.Bench_out.add out ~metric:"sticky_reads" ~technique:"lazy-primary"
    ~unit_:"reads"
    (float_of_int r_sticky.Workload.Router.sticky_reads);
  Workload.Bench_out.add out ~metric:"sticky_eliminates_ryw"
    ~technique:"lazy-primary" ~unit_:"bool"
    (if ryw_sticky = 0 && ryw_loose > 0 then 1. else 0.);
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
  let quadrants =
    [ "eager-primary"; "eager-ue-abcast"; "lazy-primary"; "lazy-ue" ]
  in
  let cells =
    List.map
      (fun name ->
        let spec =
          Workload.Builder.spec ~keys:100 ~skew:0.6 ~updates:0.5 ~txns ~flash
            ()
        in
        let builder =
          Workload.Builder.make ~seed:11 ~replicas:3 ~clients:4 ~spec
            ~router:Workload.Router.default_config
            ~failures:
              [
                Workload.Runner.crash_recover ~at:(Simtime.of_ms 35)
                  ~recover_at:(Simtime.of_ms 50) 0;
              ]
            ~partitions:
              [
                {
                  Workload.Runner.at = Simtime.of_ms 12;
                  group = [ 2 ];
                  heal_at = Simtime.of_ms 30;
                };
              ]
            ()
        in
        let result = Workload.Builder.run builder (technique name) in
        let st = Option.get result.Workload.Runner.router in
        (name, result, st))
      quadrants
  in
  Fmt.pr
    "@.flash crowd x%.0f at %a for %a (zipf %.1f, hot set shifted), \
     replica 2 partitioned 12-30ms, replica 0 crashed 35-50ms:@."
    flash.Workload.Spec.fc_intensity Simtime.pp flash.Workload.Spec.fc_at
    Simtime.pp flash.Workload.Spec.fc_duration flash.Workload.Spec.fc_skew;
  Fmt.pr "  %-16s %10s %9s %8s %9s %7s@." "quadrant" "tput" "p95" "retries"
    "failovers" "gave_up";
  List.iter
    (fun (name, (r : Workload.Runner.result), (st : Workload.Router.stats)) ->
      Fmt.pr "  %-16s %8.0f/s %7.2fms %8d %9d %7d@." name
        r.Workload.Runner.throughput
        r.Workload.Runner.latency_ms.Sim.Summary.p95
        st.Workload.Router.retries st.Workload.Router.failovers
        st.Workload.Router.gave_up;
      let params = [ ("phase", "flash") ] in
      Workload.Bench_out.add out ~metric:"flash_throughput" ~technique:name
        ~unit_:"txn/s" ~params r.Workload.Runner.throughput;
      Workload.Bench_out.add out ~metric:"flash_latency_p95" ~technique:name
        ~unit_:"ms" ~params r.Workload.Runner.latency_ms.Sim.Summary.p95;
      Workload.Bench_out.add out ~metric:"flash_failovers" ~technique:name
        ~unit_:"reads" ~params
        (float_of_int st.Workload.Router.failovers))
    cells;
  let total_failovers =
    List.fold_left
      (fun acc (_, _, (st : Workload.Router.stats)) ->
        acc + st.Workload.Router.failovers)
      0 cells
  in
  let total_gave_up =
    List.fold_left
      (fun acc (_, _, (st : Workload.Router.stats)) ->
        acc + st.Workload.Router.gave_up)
      0 cells
  in
  let survivor, survivor_tput =
    List.fold_left
      (fun (best, best_t) (name, (r : Workload.Runner.result), _) ->
        if r.Workload.Runner.throughput > best_t then
          (name, r.Workload.Runner.throughput)
        else (best, best_t))
      ("none", 0.) cells
  in
  Workload.Bench_out.add out ~metric:"flash_cells" ~technique:"all"
    ~unit_:"cells"
    (float_of_int (List.length cells));
  Workload.Bench_out.add out ~metric:"failover_success" ~technique:"all"
    ~unit_:"bool"
    (if total_failovers >= 1 && total_gave_up = 0 then 1. else 0.);
  Workload.Bench_out.add out ~metric:"flash_best_throughput" ~technique:"all"
    ~unit_:"txn/s" survivor_tput;
  Fmt.pr
    "@.verdict: sticky sessions eliminate read-your-writes over \
     lazy-primary (%d -> %d violations) at a read p95 cost of %.3f -> \
     %.3f ms; %s rides out the flash crowd best (%.0f txn/s) and %d \
     read%s survived mid-spike failover via router retry (%d abandoned)@."
    ryw_loose ryw_sticky (read_p95 res_loose) (read_p95 res_sticky) survivor
    survivor_tput total_failovers
    (if total_failovers = 1 then "" else "s")
    total_gave_up;
  Fmt.pr
    "@.Reading: round-robin reads over a lazy primary-copy scheme race@.\
     the refresh stream and lose (the session wrote at the primary but@.\
     read a stale secondary); pinning the session to its write replica@.\
     closes the window without touching the protocol — the paper's@.\
     middleware-tier argument, measured. The flash sweep stresses the@.\
     same router: the spike multiplies load and re-skews the hot set@.\
     while one replica is partitioned and another crashes, and reads@.\
     keep completing because the router retries them elsewhere.@.";
  ignore (Workload.Bench_out.write out)

let all =
  [
    ("perf1", latency_vs_replicas);
    ("perf2", mix_sweep);
    ("perf3", failover);
    ("perf4", eager_vs_lazy);
    ("perf5", message_counts);
    ("perf6", wan);
    ("perf7", phase_breakdown);
    ("perf8", crash_recovery_windows);
    ("perf9", loss_and_partition_rates);
    ("perf10", contention);
    ("perf11", partitions);
    ("perf12", tail_latency);
    ("perf13", resource_trajectory);
    ("perf14", batching);
    ("perf15", simulator_throughput);
    ("perf16", sharding);
    ("perf17", consistency_audit);
    ("perf18", quadrant_sweep);
    ("perf19", routed_tier);
  ]
