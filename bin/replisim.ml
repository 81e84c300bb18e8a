(* replisim — run any of the paper's replication techniques under a
   configurable workload on the simulated cluster.

     replisim list
     replisim config active
     replisim run -t eager-ue-abcast -n 5 --clients 4 --updates 0.8
     replisim run -t certification --set certification.abcast_impl=consensus
     replisim run -t active --set active.batch_window=5ms
     replisim trace -t active

   The shared argument vocabulary (technique/event converters, the one
   workload term, --set/--config resolution) lives in Cli; every
   subcommand runs through Workload.Runner.run, and run --record through
   the sweep's per-cell run. *)

open Cmdliner

(* ---- list ----------------------------------------------------------- *)

let list_cmd =
  let doc = "List the implemented replication techniques." in
  let run () =
    List.iter
      (fun (e : Protocols.Registry.entry) ->
        Fmt.pr "%-18s %a@." e.key Core.Technique.pp_info e.info)
      Protocols.Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

(* ---- config --------------------------------------------------------- *)

let config_cmd =
  let doc =
    "Show the configuration schema of one technique (or all): every \
     settable key with its type, default, effective value under the given \
     $(b,--set)/$(b,--config) directives, and what it does."
  in
  let technique =
    Arg.(
      value
      & pos 0 (some Cli.technique_conv) None
      & info [] ~docv:"TECHNIQUE"
          ~doc:"Technique whose schema to print (default: all).")
  in
  let run technique directives =
    let entries =
      match technique with
      | Some e -> [ e ]
      | None -> Protocols.Registry.all
    in
    List.iteri
      (fun i (e : Protocols.Registry.entry) ->
        if i > 0 then Fmt.pr "@.";
        let cfg, _ = Cli.resolve e directives in
        let effective = Protocols.Config.to_strings cfg in
        Fmt.pr "%s — %s (paper §%s)@." e.key e.info.Core.Technique.name
          e.info.Core.Technique.section;
        List.iter
          (fun (k : Protocols.Config.key) ->
            let default = Protocols.Config.value_to_string k.default in
            let eff =
              Option.value ~default (List.assoc_opt k.name effective)
            in
            let doc =
              if eff <> default then
                Printf.sprintf "%s [default: %s]" k.doc default
              else k.doc
            in
            Fmt.pr "  %-16s %-28s = %-10s %s@." k.name
              (Protocols.Config.ty_to_string k.ty)
              eff doc)
          e.schema)
      entries
  in
  Cmd.v (Cmd.info "config" ~doc)
    Term.(const run $ technique $ Cli.directives_term)

(* ---- run ------------------------------------------------------------ *)

let run_cmd =
  let doc = "Run a workload against a technique and report the metrics." in
  let csv =
    Cli.flag "csv"
      ~doc:"Emit the result as a CSV row (with header)."
  in
  let record_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "record" ] ~docv:"FILE"
          ~doc:
            "Also write the run's canonical run record — the normalized \
             JSON document $(b,replisim sweep) emits per cell and \
             $(b,replisim compare) diffs — to FILE ($(b,-) for stdout).")
  in
  let run (entry : Protocols.Registry.entry) directives (w : Cli.workload) csv
      record_to =
    let cfg, factory, spec = Cli.configure w entry directives in
    let { Cli.seed; n; _ } = w in
    (* With --record the run is the sweep's per-cell run, so the record is
       the one a sweep writes for the same cell. *)
    let result, record =
      match record_to with
      | None -> (fst (Cli.run w ~spec factory), None)
      | Some file ->
          let result, record =
            Workload.Sweep.run_recorded ?router:w.router ~faults:w.faults
              ~technique:entry.key ~config:(Cli.config_pairs entry cfg)
              ~factory ~seed ~n_replicas:n ~n_clients:w.m ~arrival:`Closed
              ~spec ()
          in
          (result, Some (file, record))
    in
    (* Emitted after the human report so that with "-" the record is the
       last stdout line — `run ... --record - | tail -1` is the idiom. *)
    let emit_record () =
      Option.iter
        (fun (file, record) ->
          Cli.write_lines file [ Workload.Run_record.to_json record ])
        record
    in
    if csv then begin
      let label =
        Printf.sprintf "%s;n=%d;upd=%.2f;seed=%d" entry.key n
          spec.update_ratio seed
      in
      Workload.Report.to_csv Fmt.stdout [ (label, result) ];
      emit_record ();
      exit 0
    end;
    Fmt.pr "workload  : %a@." Workload.Spec.pp spec;
    if spec.shards > 1 then
      Fmt.pr "sharding  : %d groups over %d replicas (group size <= %d), \
              cross-shard via 2PC@."
        spec.shards n
        (Protocols.Sharded.probe_group_size ~n ~shards:spec.shards);
    (match Cli.config_pairs entry cfg with
    | [] -> ()
    | pairs ->
        Fmt.pr "config    : %s@."
          (String.concat " "
             (List.map (fun (k, v) -> k ^ "=" ^ v) pairs)));
    Fmt.pr "result    : %a@." Workload.Runner.pp_result result;
    Fmt.pr "engine    : %s@." (Workload.Report.engine_summary result);
    Fmt.pr "latencies : all [%a]@." Sim.Summary.pp
      result.Workload.Runner.latency_ms;
    Fmt.pr "            upd [%a]@." Sim.Summary.pp
      result.Workload.Runner.update_latency_ms;
    Fmt.pr "            read[%a]@." Sim.Summary.pp
      result.Workload.Runner.read_latency_ms;
    Fmt.pr "failover  : max response gap %a@." Sim.Simtime.pp
      result.Workload.Runner.max_response_gap;
    (match result.Workload.Runner.router with
    | None -> ()
    | Some st ->
        Fmt.pr "router    : %s %a@."
          (if st.Workload.Router.sticky then "sticky" else "round-robin")
          Workload.Router.pp_stats st);
    Fmt.pr "drops     : %d (loss %d, crashed %d, partitioned %d)@."
      result.Workload.Runner.dropped result.Workload.Runner.dropped_loss
      result.Workload.Runner.dropped_crashed
      result.Workload.Runner.dropped_partitioned;
    List.iter
      (fun (phase, s) ->
        Fmt.pr "phase %-3s : [%a]@." (Core.Phase.code phase)
          Sim.Summary.pp s)
      result.Workload.Runner.phase_ms;
    emit_record ()
  in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const run $ Cli.technique_arg $ Cli.directives_term $ Cli.workload $ csv
      $ record_arg)

(* ---- trace ---------------------------------------------------------- *)

let trace_cmd =
  let doc =
    "Run a single transaction and print its phase trace (the paper's \
     timeline figures), optionally as JSONL or Chrome trace_event JSON."
  in
  let nondet =
    Cli.flag "nondet"
      ~doc:"Use a non-deterministic write (exercises semi-active's AC)."
  in
  let format =
    Cli.format
      [ ("pretty", `Pretty); ("jsonl", `Jsonl); ("chrome", `Chrome) ]
      ~doc:
        "Output format: $(b,pretty) (human-readable marks), $(b,jsonl) \
         (one JSON object per span) or $(b,chrome) (trace_event JSON for \
         Perfetto / chrome://tracing)."
  in
  let run (entry : Protocols.Registry.entry) directives nondet format =
    let cfg, factory = Cli.resolve entry directives in
    ignore (Cli.check_shards ~n:3 cfg);
    let ops =
      if nondet then [ Store.Operation.Write_random "x" ]
      else [ Store.Operation.Incr ("x", 1) ]
    in
    let p =
      Workload.Builder.probe ~seed:3 ~n:3 ~ops
        ~until:(Sim.Simtime.of_sec 10.) factory
    in
    let info = entry.info in
    let spans = p.Workload.Builder.p_inst.Core.Technique.spans in
    let rid = p.Workload.Builder.p_rid in
    match format with
    | `Jsonl ->
        print_endline
          (Workload.Report.header_json
             ~config:(Cli.config_pairs entry cfg)
             ~seed:3 ~technique:entry.key ~n_replicas:3 ());
        print_endline (Sim.Trace_export.to_jsonl (Core.Phase_span.collector spans))
    | `Chrome ->
        print_endline (Sim.Trace_export.to_chrome (Core.Phase_span.collector spans))
    | `Pretty ->
        Fmt.pr "technique : %s (paper §%s)@." info.Core.Technique.name
          info.Core.Technique.section;
        Fmt.pr "signature : %a   [paper row: %a]@." Core.Phase.pp_sequence
          (Core.Phase_span.signature spans ~rid)
          Core.Phase.pp_sequence info.Core.Technique.expected_phases;
        Core.Phase_span.pp_marks Fmt.stdout (Core.Phase_span.marks spans ~rid);
        Fmt.pr "spans     :@.";
        List.iter
          (fun (_, span) ->
            Fmt.pr "  %a (%.3f ms)@." Sim.Span.pp_span span
              (Option.value ~default:0. (Sim.Span.duration_ms span)))
          (Core.Phase_span.phase_spans spans ~rid)
  in
  Cmd.v (Cmd.info "trace" ~doc)
    Term.(
      const run $ Cli.technique_arg $ Cli.directives_term $ nondet $ format)

(* ---- explain -------------------------------------------------------- *)

let pp_endpoint ~n ppf e =
  if e >= n then Fmt.pf ppf "c%d" (e - n) else Fmt.pf ppf "r%d" e

let explain_pretty ~n key (x : Workload.Builder.explained) =
  let info = x.x_info and s = x.x_summary in
  let on_path =
    List.map (fun m -> m.Sim.Msg_dag.span.Sim.Span.id) s.critical_path
  in
  Fmt.pr "technique : %s (%s, paper §%s)@." info.name key info.section;
  Fmt.pr "replicas  : %d (+1 client), constant 1 ms links@." n;
  if x.x_shards > 1 then
    Fmt.pr
      "sharding  : %d groups — single-shard txn runs in one group of <= %d \
       replicas, so the expectation below is the §5 cost at n=%d@."
      x.x_shards x.x_group x.x_group;
  Fmt.pr "messages  : %d observed / %d expected   (+%d transport acks, %d self)@."
    s.messages
    (Workload.Builder.expected_messages x)
    s.transport_acks s.self_sends;
  Fmt.pr "steps     : %d observed / %d expected@." s.steps info.expected_steps;
  Fmt.pr "verdict   : %s@."
    (if (Workload.Builder.section5 x).ok then "OK — matches the §5 expectation"
     else "DEVIATION from the §5 expectation");
  Fmt.pr "@.timeline (* = critical path, RE -> END):@.";
  List.iter
    (fun (m : Sim.Msg_dag.msg) ->
      let sp = m.span in
      let mark = if List.mem sp.Sim.Span.id on_path then "*" else " " in
      let fate =
        match (m.delivered, m.drop) with
        | true, _ -> ""
        | _, Some cause -> "  [dropped: " ^ cause ^ "]"
        | _ -> "  [in flight]"
      in
      Fmt.pr " %s %8.3f ms  %a->%a  %s%s@." mark
        (Sim.Simtime.to_ms sp.Sim.Span.start)
        (pp_endpoint ~n) m.src
        (fun ppf -> function
          | Some d -> pp_endpoint ~n ppf d
          | None -> Fmt.pf ppf "?")
        m.dst m.label fate)
    x.x_msgs;
  Fmt.pr "@.critical path (%d steps):@.  %s@." s.steps
    (String.concat " -> "
       (List.map (fun (m : Sim.Msg_dag.msg) -> m.Sim.Msg_dag.label)
          s.critical_path))

let explain_json ~n ~seed key (x : Workload.Builder.explained) =
  let s = x.x_summary in
  let label (m : Sim.Msg_dag.msg) = Sim.Json.Str m.label in
  Sim.Json.(
    to_string
      (Obj
         [ ("technique", Str key); ("n", Int n); ("shards", Int x.x_shards); ("seed", Int seed);
           ( "observed",
             Obj
               [ ("messages", Int s.messages); ("steps", Int s.steps);
                 ("transport_acks", Int s.transport_acks); ("self_sends", Int s.self_sends);
                 ("sends", Int s.sends); ("dropped", Int s.dropped);
                 ("replied", Bool s.replied) ] );
           ( "expected",
             Obj
               [ ("messages", Int (Workload.Builder.expected_messages x));
                 ("steps", Int x.x_info.expected_steps) ] );
           ("critical_path", Arr (List.map label s.critical_path));
           ("match", Bool (Workload.Builder.section5 x).ok) ]))

let explain_csv_header =
  "technique,n,shards,seed,messages,expected_messages,steps,expected_steps,transport_acks,self_sends,sends,dropped,replied,match"

let explain_csv_row ~n ~seed key (x : Workload.Builder.explained) =
  let s = x.x_summary in
  Printf.sprintf "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%b,%b" key n x.x_shards
    seed s.messages
    (Workload.Builder.expected_messages x)
    s.steps x.x_info.expected_steps s.transport_acks s.self_sends s.sends
    s.dropped s.replied (Workload.Builder.section5 x).ok

let explain_cmd =
  let doc =
    "Measure one transaction's message cost and critical path from causally \
     linked message spans: per-technique message count and \
     communication-step depth (the paper's §5 comparison), with the causal \
     chain from the client's request to its reply highlighted. With \
     $(b,--check), validate every technique's observed message/step matrix \
     against its §5 expectation and exit non-zero on deviation."
  in
  let technique_opt =
    Cli.technique_opt ~doc:"Technique to explain (default: all)."
  in
  let seed = Cli.seed_arg ~default:7 () in
  let format =
    Cli.format
      [ ("pretty", `Pretty); ("json", `Json); ("csv", `Csv) ]
      ~doc:
        "Output format: $(b,pretty) (per-transaction timeline with the \
         critical path highlighted), $(b,json) (one object per \
         technique) or $(b,csv)."
  in
  let check =
    Cli.flag "check"
      ~doc:
        "Conformance mode: compare the observed message/step signature \
         of every selected technique against its §5 expectation; exit 1 \
         on any deviation (or causally unsound trace). Verdicts go to \
         stderr."
  in
  let run technique directives n seed format check =
    let selected =
      match technique with
      | Some entry -> [ entry ]
      | None -> Protocols.Registry.all
    in
    let results =
      List.map
        (fun (entry : Protocols.Registry.entry) ->
          let cfg, _ = Cli.resolve entry directives in
          ignore (Cli.check_shards ~n cfg);
          (entry.key, Workload.Builder.explain ~seed ~n entry cfg))
        selected
    in
    (match format with
    | `Csv ->
        print_endline explain_csv_header;
        List.iter
          (fun (key, x) -> print_endline (explain_csv_row ~n ~seed key x))
          results
    | `Json ->
        let technique_label, config =
          match technique with
          | Some entry ->
              let cfg, _ = Cli.resolve entry directives in
              (entry.key, Cli.config_pairs entry cfg)
          | None -> ("all", Cli.directive_pairs directives)
        in
        print_endline
          (Workload.Report.header_json ~config ~seed
             ~technique:technique_label ~n_replicas:n ());
        List.iter
          (fun (key, x) -> print_endline (explain_json ~n ~seed key x))
          results
    | `Pretty ->
        List.iteri
          (fun i (key, x) ->
            if i > 0 then Fmt.pr "@.";
            explain_pretty ~n key x)
          results);
    if check then
      Cli.report "explain --check"
        ~ok:
          (Printf.sprintf "%d technique(s) match the §5 expectations"
             (List.length results))
        (List.map (fun (key, x) -> (key, Workload.Builder.section5 x)) results)
  in
  Cmd.v (Cmd.info "explain" ~doc)
    Term.(
      const run $ technique_opt $ Cli.directives_term $ Cli.replicas_arg ()
      $ seed $ format $ check)

(* ---- campaign ------------------------------------------------------- *)

let campaign_cmd =
  let doc =
    "Run the fault-injection campaign: sweep techniques over failure \
     scenarios and check every run against the per-technique invariant \
     oracles (1-copy serializability, convergence after heal/recover, \
     Figure-16 signature conformance, liveness). Exits non-zero if any \
     oracle verdict misses its expectation."
  in
  let scenarios_arg =
    Arg.(
      value & opt string "all"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Scenario to run: one of %s, a comma-separated list, or \
                $(b,all)."
               Cli.scenario_names))
  in
  let seeds_arg =
    Arg.(
      value & opt (list int) [ 11 ]
      & info [ "seeds" ] ~docv:"S1,S2,..." ~doc:"Random seeds to sweep.")
  in
  let csv =
    Cli.flag "csv"
      ~doc:"Emit one CSV row per run instead of the table."
  in
  let jsonl =
    Arg.(
      value
      & opt (some string) None
      & info [ "jsonl" ] ~docv:"FILE"
          ~doc:
            "Also write one JSON object per run (counters + oracle \
             verdicts) to FILE. With $(b,-) they go to stdout and the \
             table (or the $(b,--csv) rows) to stderr, so stdout is JSONL \
             alone.")
  in
  let run scenario_sel technique_sel directives seeds n_replicas txns ops csv
      jsonl =
    let scenarios =
      match scenario_sel with
      | "all" -> Workload.Scenario.builtins
      | names -> List.map Cli.scenario (String.split_on_char ',' names)
    in
    List.iter (Cli.check_scenario ~n:n_replicas) scenarios;
    let techniques = Cli.techniques technique_sel in
    (* Each run brings its own seed and its scenario's faults. *)
    let w = Cli.scenario_workload ~ops ~n:n_replicas ~m:2 ~txns [] in
    let outcomes =
      Workload.Scenario.run_campaign ~seeds ~n_replicas
        ~techniques:
          (List.map
             (fun (entry : Protocols.Registry.entry) ->
               let _, factory, spec = Cli.configure w entry directives in
               (entry.key, entry.info, factory, spec))
             techniques)
        ~scenarios ()
    in
    let campaign_header =
      Workload.Report.header_json
        ~seed:(match seeds with s :: _ -> s | [] -> 11)
        ~technique:technique_sel ~n_replicas
        ~config:(Cli.directive_pairs directives)
        ~extra:
          [
            ("seeds", Sim.Json.Arr (List.map (fun s -> Sim.Json.Int s) seeds));
            ("scenarios", Sim.Json.Str scenario_sel);
          ]
        ()
    in
    Option.iter
      (fun file ->
        Cli.write_lines file
          (campaign_header :: List.map Workload.Scenario.jsonl_row outcomes))
      jsonl;
    let human = if jsonl = Some "-" then Fmt.stderr else Fmt.stdout in
    if csv then Workload.Scenario.to_csv human outcomes
    else
      List.iter
        (fun o -> Fmt.pf human "%a@." Workload.Scenario.pp_outcome o)
        outcomes;
    Cli.report "campaign"
      ~ok:
        (Printf.sprintf "%d runs, 0 failed oracle expectations"
           (List.length outcomes))
      (List.concat_map
         (fun (o : Workload.Scenario.outcome) ->
           Cli.about
             (Printf.sprintf "%s/%s/seed=%d" o.technique o.scenario o.seed)
             o.verdicts)
         outcomes)
  in
  Cmd.v (Cmd.info "campaign" ~doc)
    Term.(
      const run $ scenarios_arg $ Cli.techniques_arg $ Cli.directives_term
      $ seeds_arg $ Cli.replicas_arg () $ Cli.txns_arg ~default:25 ()
      $ Cli.ops_arg $ csv $ jsonl)

(* ---- metrics -------------------------------------------------------- *)

let metrics_cmd =
  let doc =
    "Run a workload against a technique and print its result, its \
     per-phase latency table and its metrics registry (labelled counters)."
  in
  let json =
    Cli.flag "json"
      ~doc:"Emit the metrics snapshot as a JSON array."
  in
  let run (entry : Protocols.Registry.entry) directives (w : Cli.workload)
      json =
    let cfg, factory, spec = Cli.configure w entry directives in
    let { Cli.seed; n; _ } = w in
    let result = fst (Cli.run w ~spec factory) in
    if json then begin
      print_endline
        (Workload.Report.header_json
           ~config:(Cli.config_pairs entry cfg)
           ~seed ~technique:entry.key ~n_replicas:n ());
      print_endline (Sim.Metrics.snapshot_to_json result.Workload.Runner.metrics)
    end
    else begin
      Fmt.pr "technique : %s@." entry.key;
      Fmt.pr "result    : %a@.@." Workload.Runner.pp_result result;
      Workload.Report.phases_to_csv Fmt.stdout [ (entry.key, result) ];
      Fmt.pr "@.";
      Sim.Metrics.pp_snapshot Fmt.stdout result.Workload.Runner.metrics
    end
  in
  Cmd.v (Cmd.info "metrics" ~doc)
    Term.(
      const run $ Cli.technique_arg $ Cli.directives_term $ Cli.workload
      $ json)

(* ---- timeline ------------------------------------------------------- *)

(* Column index of a virtual instant on a [cols]-wide axis ending at
   [t_end]. *)
let timeline_col ~cols ~t_end at =
  if t_end <= 0 then 0
  else min (cols - 1) (Sim.Simtime.to_us at * cols / t_end)

let sparkline ~cols ~t_end (s : Sim.Timeseries.series) =
  let ramp = " .:-=+*#@" in
  let buckets = Array.make cols 0. in
  List.iter
    (fun (p : Sim.Timeseries.point) ->
      let c = timeline_col ~cols ~t_end p.at in
      if p.value > buckets.(c) then buckets.(c) <- p.value)
    (Sim.Timeseries.points s);
  let mx = Array.fold_left Float.max 0. buckets in
  String.init cols (fun i ->
      if mx <= 0. then ' '
      else
        let idx = int_of_float (buckets.(i) /. mx *. 8.) in
        ramp.[max 0 (min 8 idx)])

(* One marker character per scheduled fault event: P/H for a partition
   and its heal, C/R for crash/recover, L for a loss window. *)
let fault_ruler ~cols ~t_end events =
  let line = Bytes.make cols ' ' in
  let mark at c =
    let i = timeline_col ~cols ~t_end at in
    Bytes.set line i c
  in
  List.iter
    (fun (event : Workload.Scenario.event) ->
      match event with
      | Workload.Scenario.Crash { at; _ } -> mark at 'C'
      | Workload.Scenario.Recover { at; _ } -> mark at 'R'
      | Workload.Scenario.Partition { at; heal_at; _ } ->
          mark at 'P';
          mark heal_at 'H'
      | Workload.Scenario.Loss { at; until; _ } ->
          mark at 'L';
          mark until 'l')
    events;
  Bytes.to_string line

let timeline_cmd =
  let doc =
    "Run a workload with the resource sampler on and render per-replica \
     gauge timelines (queue depths, lock waiters, 2PC in-doubt windows) \
     aligned with the injected fault events, plus any saturation-detector \
     findings. With $(b,--check), exit non-zero when a detector fires \
     outside a fault window, or when a partition scenario fails to show \
     the expected backlog build-up and post-heal drain."
  in
  let scenario_arg =
    Arg.(
      value & opt string "partition-heal"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            (Printf.sprintf
               "Fault scenario to inject: one of %s, or $(b,none) for a \
                healthy run."
               Cli.scenario_names))
  in
  let interval =
    Arg.(
      value & opt int 5
      & info [ "interval" ] ~docv:"MS" ~doc:"Sampling interval (virtual ms).")
  in
  let until =
    Arg.(
      value & opt int 2000
      & info [ "until" ] ~docv:"MS"
          ~doc:"Workload deadline (virtual ms; quiescence drain follows).")
  in
  let format =
    Cli.format
      [ ("pretty", `Pretty); ("json", `Json); ("csv", `Csv) ]
      ~doc:
        "Output format: $(b,pretty) (sparklines), $(b,json) (JSONL: \
         header, one object per series, one per finding) or $(b,csv) \
         (long-format points)."
  in
  let check =
    Cli.flag "check"
      ~doc:
        "Exit 1 when a saturation finding lies outside every fault \
         window, or a partition scenario shows no backlog \
         build-up/drain. Verdicts go to stderr."
  in
  let run (entry : Protocols.Registry.entry) directives scenario_sel n m txns
      seed interval_ms until_ms format check =
    let scenario =
      match scenario_sel with
      | "none" -> None
      | name -> Some (Cli.scenario ~also:", none" name)
    in
    Option.iter (Cli.check_scenario ~n) scenario;
    let events =
      match scenario with Some s -> s.Workload.Scenario.events | None -> []
    in
    let w = Cli.scenario_workload ~seed ~n ~m ~txns events in
    let cfg, factory, spec = Cli.configure w entry directives in
    let result, _ =
      Cli.run w ~spec factory
        ~deadline:(Sim.Simtime.of_ms until_ms)
        ~sample:(Sim.Simtime.of_ms interval_ms)
    in
    let series = result.Workload.Runner.series in
    let findings = Sim.Saturation.analyze series in
    let header =
      Workload.Report.header_json ~seed ~technique:entry.key ~n_replicas:n
        ~config:(Cli.config_pairs entry cfg)
        ~extra:
          [
            ("scenario", Sim.Json.Str scenario_sel);
            ("interval_us", Sim.Json.Int (interval_ms * 1000));
          ]
        ()
    in
    (match format with
    | `Json ->
        print_endline header;
        List.iter
          (fun s -> print_endline (Sim.Timeseries.series_to_json s))
          series;
        List.iter
          (fun f -> print_endline (Sim.Saturation.finding_to_json f))
          findings
    | `Csv ->
        print_endline "metric,replica,kind,unit,at_us,value";
        List.iter
          (fun (s : Sim.Timeseries.series) ->
            List.iter
              (fun (p : Sim.Timeseries.point) ->
                Printf.printf "%s,%d,%s,%s,%d,%s\n"
                  (Workload.Report.csv_escape s.name)
                  s.replica
                  (Sim.Timeseries.kind_to_string s.kind)
                  s.unit_
                  (Sim.Simtime.to_us p.at)
                  (Sim.Json.to_string (Num p.value)))
              (Sim.Timeseries.points s))
          series
    | `Pretty ->
        let cols = 64 in
        let t_end =
          List.fold_left
            (fun acc (s : Sim.Timeseries.series) ->
              match s.points_rev with
              | p :: _ -> max acc (Sim.Simtime.to_us p.Sim.Timeseries.at)
              | [] -> acc)
            1 series
        in
        Fmt.pr "technique : %s   scenario : %s   seed : %d@." entry.key
          scenario_sel seed;
        Fmt.pr "result    : %a@." Workload.Runner.pp_result result;
        Fmt.pr "axis      : 0 .. %.0f ms, sampled every %d ms@."
          (float_of_int t_end /. 1000.)
          interval_ms;
        if events <> [] then
          Fmt.pr "%-28s|%s| C=crash R=recover P=partition H=heal L=loss@."
            "faults" (fault_ruler ~cols ~t_end events);
        let shown = ref 0 in
        List.iter
          (fun (s : Sim.Timeseries.series) ->
            if Sim.Timeseries.max_value s > 0. then begin
              incr shown;
              let who =
                if s.replica < 0 then "all"
                else if s.replica >= n then Printf.sprintf "c%d" (s.replica - n)
                else Printf.sprintf "r%d" s.replica
              in
              Fmt.pr "%-24s %-3s|%s| max=%g@." s.name who
                (sparkline ~cols ~t_end s)
                (Sim.Timeseries.max_value s)
            end)
          series;
        Fmt.pr "(%d series sampled, %d non-zero shown)@." (List.length series)
          !shown;
        List.iter
          (fun f -> Fmt.pr "finding   : %a@." Sim.Saturation.pp_finding f)
          findings);
    if check then
      Cli.report "timeline --check"
        ~ok:
          (Printf.sprintf
             "OK (%d series, %d findings, all inside fault windows)"
             (List.length series) (List.length findings))
        (Cli.about entry.key
           (Workload.Scenario.timeline_verdicts events series findings))
  in
  Cmd.v (Cmd.info "timeline" ~doc)
    Term.(
      const run $ Cli.technique_arg $ Cli.directives_term $ scenario_arg
      $ Cli.replicas_arg () $ Cli.clients_arg ~default:2 ()
      $ Cli.txns_arg ~default:25 () $ Cli.seed_arg () $ interval $ until
      $ format $ check)

(* ---- profile -------------------------------------------------------- *)

let profile_csv_header =
  "label,events,wall_ms,wall_share,alloc_words,alloc_share"

let profile_cmd =
  let doc =
    "Profile the simulator itself: run a workload with the engine's \
     self-profiler attached and report where the simulator's wall time and \
     allocation go, per handler label (network delivery, client arrivals, \
     protocol timers, sampling), plus event-loop statistics and the \
     measured cost of the observability stack (spans, samples, trace \
     bytes)."
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N"
          ~doc:"Show the top N buckets by self time (text format only).")
  in
  let format =
    Cli.format
      [ ("text", `Text); ("json", `Json); ("csv", `Csv) ]
      ~doc:
        "Output format: $(b,text) (top-N table), $(b,json) (one profile \
         object) or $(b,csv) (one row per bucket)."
  in
  let no_tracing =
    Cli.flag "no-tracing"
      ~doc:
        "Switch span/trace recording off for the run — profiles the \
         bare engine; compare against a default run to price the \
         observability stack."
  in
  let sample =
    Arg.(
      value
      & opt (some int) None
      & info [ "sample" ] ~docv:"MS"
          ~doc:"Also run the resource sampler at this virtual-ms interval.")
  in
  let check =
    Cli.flag "check"
      ~doc:
        "Self-test: re-parse the profile JSON, verify per-bucket event \
         counts sum to the events executed and that wall/alloc shares \
         sum to ~1.0; exit 1 on failure. Verdicts go to stderr."
  in
  let run (entry : Protocols.Registry.entry) directives (w : Cli.workload) top
      format no_tracing sample check =
    let _, factory, spec = Cli.configure w entry directives in
    let { Cli.seed; n; _ } = w in
    let profiler = Sim.Profiler.create () in
    let result, inst =
      Cli.run w ~spec factory ~profiler ~tracing:(not no_tracing)
        ?sample:(Option.map Sim.Simtime.of_ms sample)
    in
    (* Price the trace export itself (only meaningful with tracing on):
       the serialized bytes count into the profile's meta counters and
       the export wall/alloc cost lands in its own bucket. *)
    if not no_tracing then begin
      let jsonl =
        Sim.Profiler.measure profiler ~label:"trace:export" (fun () ->
            Sim.Trace_export.to_jsonl
              (Core.Phase_span.collector inst.Core.Technique.spans))
      in
      Sim.Profiler.add_trace_bytes profiler (String.length jsonl)
    end;
    let report = Sim.Profiler.report profiler in
    (match format with
    | `Json ->
        print_endline
          (Sim.Profiler.report_to_json
             ~extra:
               [
                 ("technique", Sim.Json.Str entry.key);
                 ("seed", Sim.Json.Int seed);
                 ("n_replicas", Sim.Json.Int n);
                 ("tracing", Sim.Json.Bool (not no_tracing));
               ]
             report)
    | `Csv ->
        print_endline profile_csv_header;
        List.iter
          (fun (r : Sim.Profiler.row) ->
            Printf.printf "%s,%d,%.3f,%.4f,%.0f,%.4f\n"
              (Workload.Report.csv_escape r.r_label)
              r.r_events r.r_wall_ms r.r_wall_share r.r_alloc_w r.r_alloc_share)
          report.Sim.Profiler.p_buckets
    | `Text ->
        Fmt.pr "technique : %s   seed : %d   n : %d   tracing : %b@." entry.key
          seed n (not no_tracing);
        Fmt.pr "result    : %a@." Workload.Runner.pp_result result;
        Fmt.pr "engine    : %s@." (Workload.Report.engine_summary result);
        Fmt.pr
          "loop      : %d scheduled, %d cancelled-discarded, queue peak %d@."
          report.Sim.Profiler.p_scheduled report.Sim.Profiler.p_cancelled
          report.Sim.Profiler.p_queue_peak;
        Fmt.pr
          "memory    : %.0f words allocated in events, heap peak %d words@."
          report.Sim.Profiler.p_alloc_words
          report.Sim.Profiler.p_heap_peak_words;
        Fmt.pr "meta      : %d spans, %d samples, %d trace bytes@."
          report.Sim.Profiler.p_spans_created
          report.Sim.Profiler.p_samples_taken report.Sim.Profiler.p_trace_bytes;
        let by_wall =
          List.sort
            (fun (a : Sim.Profiler.row) (b : Sim.Profiler.row) ->
              compare b.r_wall_ms a.r_wall_ms)
            report.Sim.Profiler.p_buckets
        in
        Fmt.pr "@.top %d of %d buckets by self time:@." top
          (List.length by_wall);
        Fmt.pr "%-18s %12s %13s %6s %14s %6s@." "label" "events" "wall" "" ""
          "alloc";
        List.iteri
          (fun i r ->
            if i < top then Fmt.pr "%a@." Sim.Profiler.pp_row r)
          by_wall);
    if check then
      Cli.report "profile --check"
        ~ok:
          (Printf.sprintf "OK (%d buckets, %d events attributed)"
             (List.length report.Sim.Profiler.p_buckets)
             report.Sim.Profiler.p_events)
        (Cli.about entry.key (Workload.Builder.profile_verdicts report))
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const run $ Cli.technique_arg $ Cli.directives_term $ Cli.workload $ top
      $ format $ no_tracing $ sample $ check)

(* ---- audit ---------------------------------------------------------- *)

let audit_cmd =
  let doc =
    "Measure client-visible consistency per technique: visibility latency \
     (how long other replicas stay stale for each committed write), \
     real-time stale reads, session-guarantee violations (read-your-writes, \
     monotonic reads), residual version lag, and — on sharded \
     configurations — cross-shard snapshot skew."
  in
  let format_arg =
    Cli.format ~docv:"FMT"
      [ ("pretty", `Pretty); ("json", `Json); ("csv", `Csv) ]
      ~doc:"Output format: pretty, json or csv."
  in
  let check_arg =
    Cli.flag "check"
      ~doc:
        "Exit non-zero unless every technique drains its version lag, \
         eager techniques measure a zero session-order inconsistency \
         window (no read-your-writes or monotonic-reads violations), \
         and lazy techniques measure a strictly positive post-commit \
         staleness window. Verdicts go to stderr."
  in
  let run technique directives (w : Cli.workload) fmt check =
    let { Cli.seed; n; _ } = w in
    let entries =
      match technique with Some e -> [ e ] | None -> Protocols.Registry.all
    in
    let rows =
      List.map
        (fun (entry : Protocols.Registry.entry) ->
          let _, factory, spec = Cli.configure w entry directives in
          let result, _ =
            Cli.run w ~spec factory ~sample:(Sim.Simtime.of_ms 5) ~audit:true
          in
          let a = Option.get result.Workload.Runner.audit in
          (entry, spec.shards, a))
        entries
    in
    let propagation_of (entry : Protocols.Registry.entry) =
      match entry.info.Core.Technique.propagation with
      | Core.Technique.Eager -> "eager"
      | Core.Technique.Lazy -> "lazy"
    in
    (match fmt with
    | `Pretty ->
        Fmt.pr
          "%-18s %-6s %8s %7s %20s %11s %9s %6s %5s %5s %5s %4s %8s@."
          "technique" "prop" "commits" "writes" "visibility p50/p95(ms)"
          "postcmt(ms)" "sess(ms)" "stale" "ryw" "mr" "skew" "lag" "drained";
        List.iter
          (fun ((entry : Protocols.Registry.entry), _, (a : Workload.Audit.summary)) ->
            Fmt.pr
              "%-18s %-6s %8d %7d %10.2f/%9.2f %11.2f %9.3f %6d %5d %5d %5d \
               %4d %8b@."
              entry.key (propagation_of entry) a.commits a.writes
              a.visibility_ms.Sim.Summary.p50
              a.visibility_ms.Sim.Summary.p95 a.post_commit_max_ms
              a.session_window_max_ms a.stale_reads a.ryw_violations
              a.mr_violations a.skew_pairs (Workload.Audit.max_lag a) a.drained)
          rows;
        Fmt.pr
          "@.Reading: postcmt is the propagation window after the commit \
           reply (the@.lazy staleness window; ~0 for eager), sess the \
           largest staleness behind a@.session-guarantee violation (must \
           be 0 for eager), stale counts reads that@.missed an already- \
           acknowledged write anywhere (sub-ms races are 1SR-legal).@."
    | `Csv ->
        Fmt.pr
          "technique,propagation,n,shards,seed,commits,reads_checked,writes,\
           fully_replicated,vis_count,vis_mean_ms,vis_p50_ms,vis_p95_ms,\
           vis_p99_ms,vis_max_ms,post_commit_max_ms,session_window_max_ms,\
           stale_reads,staleness_max_ms,ryw_violations,mr_violations,\
           skew_pairs,cross_txns,max_lag,drained@.";
        List.iter
          (fun ((entry : Protocols.Registry.entry), shards, (a : Workload.Audit.summary)) ->
            Fmt.pr
              "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%.3f,%.3f,%.3f,%.3f,%.3f,%.3f,\
               %.3f,%d,%.3f,%d,%d,%d,%d,%d,%b@."
              entry.key (propagation_of entry) n shards seed a.commits
              a.reads_checked a.writes a.fully_replicated
              a.visibility_ms.Sim.Summary.count
              a.visibility_ms.Sim.Summary.mean
              a.visibility_ms.Sim.Summary.p50
              a.visibility_ms.Sim.Summary.p95
              a.visibility_ms.Sim.Summary.p99
              a.visibility_ms.Sim.Summary.max a.post_commit_max_ms
              a.session_window_max_ms a.stale_reads
              a.staleness_ms.Sim.Summary.max a.ryw_violations
              a.mr_violations a.skew_pairs a.cross_txns
              (Workload.Audit.max_lag a) a.drained)
          rows
    | `Json ->
        List.iter
          (fun ((entry : Protocols.Registry.entry), shards, (a : Workload.Audit.summary)) ->
            let v = a.visibility_ms in
            let lag (r, l) = Sim.Json.(Obj [ ("replica", Int r); ("lag", Int l) ]) in
            print_endline
              Sim.Json.(
                to_string
                  (Obj
                     [ ("type", Str "audit"); ("technique", Str entry.key);
                       ("propagation", Str (propagation_of entry)); ("n", Int n);
                       ("shards", Int shards); ("seed", Int seed); ("commits", Int a.commits);
                       ("reads_checked", Int a.reads_checked); ("writes", Int a.writes);
                       ("fully_replicated", Int a.fully_replicated);
                       ( "visibility_ms",
                         Obj
                           [ ("count", Int v.count); ("mean", Num v.mean); ("p50", Num v.p50);
                             ("p95", Num v.p95); ("p99", Num v.p99); ("max", Num v.max) ] );
                       ("post_commit_max_ms", Num a.post_commit_max_ms);
                       ("session_window_max_ms", Num a.session_window_max_ms);
                       ("stale_reads", Int a.stale_reads);
                       ("staleness_max_ms", Num a.staleness_ms.max);
                       ("ryw_violations", Int a.ryw_violations);
                       ("mr_violations", Int a.mr_violations); ("skew_pairs", Int a.skew_pairs);
                       ("cross_txns", Int a.cross_txns);
                       ("final_lag", Arr (List.map lag a.final_lag));
                       ("drained", Bool a.drained) ])))
          rows);
    if check then
      Cli.report "audit"
        ~ok:
          (Printf.sprintf "OK (%d technique%s)" (List.length rows)
             (if List.length rows = 1 then "" else "s"))
        (List.concat_map
           (fun ((entry : Protocols.Registry.entry), shards, a) ->
             Cli.about entry.key
               (Workload.Audit.verdicts
                  ~propagation:entry.info.Core.Technique.propagation ~shards a))
           rows)
  in
  Cmd.v (Cmd.info "audit" ~doc)
    Term.(
      const run
      $ Cli.technique_opt
          ~doc:"Technique to audit (default: all techniques)."
      $ Cli.directives_term $ Cli.workload $ format_arg $ check_arg)

(* ---- sweep ----------------------------------------------------------- *)

(* "closed" (or "0") = closed loop; otherwise an open-loop Poisson rate. *)
let load_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "closed" | "0" -> Ok 0.
    | s -> (
        match float_of_string_opt s with
        | Some r when r > 0. -> Ok r
        | _ ->
            Error (`Msg "expected a positive arrival rate (txn/s) or 'closed'"))
  in
  let print ppf l =
    if l <= 0. then Format.pp_print_string ppf "closed"
    else Format.fprintf ppf "%g" l
  in
  Arg.conv (parse, print)

(* TECH.KEY=V1,V2,... — a per-technique configuration axis. The sweep
   validates technique and key against the registry before it runs, as
   --set does (exit status 2). *)
let vary_conv =
  let parse s =
    match String.index_opt s '=' with
    | None -> Error (`Msg "expected TECH.KEY=V1,V2,...")
    | Some i -> (
        let lhs = String.sub s 0 i in
        let rhs = String.sub s (i + 1) (String.length s - i - 1) in
        match String.index_opt lhs '.' with
        | None -> Error (`Msg "expected TECH.KEY=V1,V2,...")
        | Some j -> (
            let technique = String.sub lhs 0 j in
            let key = String.sub lhs (j + 1) (String.length lhs - j - 1) in
            let values = String.split_on_char ',' rhs in
            if values = [] || List.exists (fun v -> v = "") values then
              Error (`Msg "expected at least one non-empty value")
            else Ok (technique, key, values)))
  in
  let print ppf (t, k, vs) =
    Format.fprintf ppf "%s.%s=%s" t k (String.concat "," vs)
  in
  Arg.conv (parse, print)

let sweep_cmd =
  let doc =
    "Run a declared grid — techniques × shards × load × update-ratio × \
     zipf skew × seeds, plus any $(b,--vary) technique-config axis — \
     through the shared workload path, write one canonical run record per \
     cell plus an aggregate manifest into $(b,--out), and render the \
     record set as an ASCII heatmap or Markdown matrix over any record \
     metric: the paper's Figure-6 technique × workload study, measured. \
     Feed the output directory to $(b,replisim compare) to gate \
     regressions against a committed baseline."
  in
  let shards_arg =
    Arg.(
      value & opt (list int) [ 1 ]
      & info [ "shards" ] ~docv:"K1,K2,..."
          ~doc:"Shard-count axis (1 = unsharded).")
  in
  let loads_arg =
    Arg.(
      value
      & opt (list load_conv) [ 0. ]
      & info [ "loads" ] ~docv:"L1,L2,..."
          ~doc:
            "Arrival-load axis: $(b,closed) for the closed loop, or an \
             open-loop Poisson rate in txn/s (e.g. $(b,closed,200,1000)).")
  in
  let updates_arg =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "updates" ] ~docv:"R1,R2,..."
          ~doc:
            "Update-ratio (write-fraction) axis (default 0.5; mutually \
             exclusive with $(b,--reads)).")
  in
  let reads_axis_arg =
    Arg.(
      value
      & opt (some (list float)) None
      & info [ "reads" ] ~docv:"R1,R2,..."
          ~doc:
            "Read-fraction axis — shorthand for $(b,--updates) with each \
             value mapped to 1 - RATIO; mutually exclusive with it.")
  in
  let zipfs_arg =
    Arg.(
      value & opt (list float) [ 0.6 ]
      & info [ "zipf" ] ~docv:"T1,T2,..."
          ~doc:"Zipf key-popularity skew axis (0 = uniform).")
  in
  let seeds_arg =
    Arg.(
      value & opt (list int) [ 11 ]
      & info [ "seeds" ] ~docv:"S1,S2,..." ~doc:"Random-seed axis.")
  in
  let vary_arg =
    Arg.(
      value & opt_all vary_conv []
      & info [ "vary" ] ~docv:"TECH.KEY=V1,V2"
          ~doc:
            "Sweep one technique parameter as an axis, e.g. $(b,--vary \
             active.batch_window=0ms,5ms) (repeatable). Applies only to \
             cells of the named technique; other techniques keep the \
             default.")
  in
  let out_arg =
    Arg.(
      value & opt string "_sweep"
      & info [ "out" ] ~docv:"DIR"
          ~doc:
            "Directory for the per-cell run records and the \
             $(b,manifest.json) aggregate (created if missing).")
  in
  let cell_arg =
    Arg.(
      value
      & opt_all string [ "latency_p95" ]
      & info [ "cell" ] ~docv:"METRIC"
          ~doc:
            (Printf.sprintf
               "Record metric to render as the matrix cell value \
                (repeatable). One of: %s."
               (String.concat ", " Workload.Run_record.metric_names)))
  in
  let format_arg =
    Cli.format ~docv:"FMT"
      [ ("ascii", `Ascii); ("md", `Md); ("none", `None) ]
      ~doc:
        "Matrix rendering: $(b,ascii) (heatmap-shaded table), $(b,md) \
         (Markdown matrix) or $(b,none) (records and manifest only)."
  in
  let run technique_sel directives (w : Cli.workload) shards loads updates
      reads zipfs seeds vary out cell_metrics format =
    let updates =
      match (updates, reads) with
      | Some _, Some _ ->
          Cli.fail "--updates and --reads are mutually exclusive"
      | Some us, None -> List.map (Cli.ratio "--updates") us
      | None, Some rs -> List.map (fun r -> 1. -. Cli.ratio "--reads" r) rs
      | None, None -> [ 0.5 ]
    in
    let techniques = Cli.techniques technique_sel in
    List.iter (Cli.record_metric "--cell") cell_metrics;
    List.iter
      (fun (technique, key, values) ->
        Cli.validate_directive ~flag:"--vary"
          { technique; key; value = String.concat "," values })
      vary;
    let axes =
      {
        Workload.Sweep.techniques =
          List.map (fun (e : Protocols.Registry.entry) -> e.key) techniques;
        shards;
        loads;
        updates;
        zipfs;
        seeds;
        vary;
      }
    in
    let cells = Workload.Sweep.cells axes in
    if cells = [] then Cli.fail "empty sweep grid";
    let total = List.length cells in
    (* Every cell's configuration resolves before the first cell runs, so
       a bad --vary value fails the sweep up front, not partway through. *)
    let resolved =
      List.map
        (fun (c : Workload.Sweep.cell) ->
          let entry =
            List.find
              (fun (e : Protocols.Registry.entry) -> e.key = c.technique)
              techniques
          in
          let pairs =
            Protocols.Config.pairs_for ~technique:entry.key directives
            @ (if c.shards <> 1 then [ ("shards", string_of_int c.shards) ]
               else [])
            @ c.vary
          in
          match Protocols.Registry.configure entry pairs with
          | Ok (cfg, factory) ->
              (* The cell's shard count is the one its workload is
                 generated for. *)
              let shards = Cli.check_shards ~n:w.n cfg in
              if shards <> c.shards then
                Cli.fail
                  "cell %s: the configuration binds %d shards, the --shards \
                   axis %d; sweep shard counts with --shards"
                  c.technique shards c.shards;
              (c, entry, cfg, factory)
          | Error msg -> Cli.fail "cell %s: %s" c.technique msg)
        cells
    in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755
    else if not (Sys.is_directory out) then
      Cli.fail "--out %s exists and is not a directory" out;
    let records =
      List.mapi
        (fun i (c, entry, cfg, factory) ->
          let record =
            Workload.Sweep.run_cell ~n_replicas:w.n ~n_clients:w.m ~spec:w.spec
              ~config:(Cli.config_pairs entry cfg) ~factory ?router:w.router c
          in
          let path = Workload.Run_record.save ~dir:out record in
          Fmt.epr "sweep: [%d/%d] %s@." (i + 1) total
            (Workload.Run_record.cell_id record);
          (Filename.basename path, record))
        resolved
    in
    let manifest =
      Workload.Sweep.manifest_json axes ~records ~metrics:cell_metrics
    in
    Out_channel.with_open_text (Filename.concat out "manifest.json") (fun oc ->
        Printf.fprintf oc "%s\n" manifest);
    (match format with
    | `None -> ()
    | (`Ascii | `Md) as fmt ->
        List.iteri
          (fun i metric ->
            if i > 0 then print_newline ();
            let m = Workload.Sweep.matrix ~metric (List.map snd records) in
            print_string
              (match fmt with
              | `Ascii -> Workload.Sweep.render_ascii m
              | `Md -> Workload.Sweep.render_markdown m))
          cell_metrics);
    Fmt.epr "sweep: %d records + manifest.json written to %s/@." total out
  in
  Cmd.v (Cmd.info "sweep" ~doc)
    Term.(
      const run $ Cli.techniques_arg $ Cli.directives_term
      $ Cli.cluster ~txns:25 () $ shards_arg $ loads_arg $ updates_arg
      $ reads_axis_arg $ zipfs_arg $ seeds_arg $ vary_arg $ out_arg $ cell_arg
      $ format_arg)

(* ---- compare --------------------------------------------------------- *)

(* Read and decode one file; a bad file is a usage error naming it. *)
let load decode path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Cli.fail "%s" msg
  | text -> (
      match decode text with
      | Ok x -> x
      | Error msg -> Cli.fail "%s: %s" path msg)

(* A record set: a single run-record file, or a directory of them (a
   sweep output or a committed baseline; manifest.json is skipped). *)
let load_record_set path =
  if not (Sys.file_exists path) then Cli.fail "%s: no such file or directory" path;
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort String.compare
    |> List.filter (fun f ->
           Filename.check_suffix f ".json" && f <> "manifest.json")
    |> List.map (fun f -> Filename.concat path f)
    |> List.map (load Workload.Run_record.of_string)
  else [ load Workload.Run_record.of_string path ]

(* METRIC:VALUE, shared by --threshold (relative fraction) and --perturb
   (multiplier). *)
let metric_value_conv ~what =
  let parse s =
    match String.rindex_opt s ':' with
    | None -> Error (`Msg (Printf.sprintf "expected METRIC:%s" what))
    | Some i -> (
        let metric = String.sub s 0 i in
        let v = String.sub s (i + 1) (String.length s - i - 1) in
        match float_of_string_opt v with
        | Some v when metric <> "" -> Ok (metric, v)
        | _ -> Error (`Msg (Printf.sprintf "expected METRIC:%s" what)))
  in
  let print ppf (m, v) = Format.fprintf ppf "%s:%g" m v in
  Arg.conv (parse, print)

(* A gate file: a baseline that is a file but not a run record. Its
   bounds are the baseline cells; each BENCH file is a candidate cell. *)
let is_gate_file path =
  Sys.file_exists path
  && not (Sys.is_directory path || Filename.check_suffix path ".json")

let compare_cmd =
  let doc =
    "Diff two run-record sets — run-vs-run, or a sweep directory against a \
     committed baseline directory — under per-metric relative thresholds. \
     Each (cell, metric) pair is classified improved, regressed or \
     unchanged; the command exits non-zero on any regression or missing \
     baseline cell or metric, which is how CI gates. Cells are matched by \
     their identity (technique, configuration, workload, seed). With a \
     gate file as BASELINE (not ending in .json, e.g. $(b,ci/gates.txt)), \
     each line $(i,BENCH METRIC) >= or <= $(i,VALUE) bounds the candidate \
     BENCH_*.json files, a metric's value being the max over its rows. A \
     baseline with no run record, a malformed gate or BENCH file, an \
     unknown metric name or a negative threshold is a usage error (exit \
     status 2)."
  in
  let base_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BASELINE"
          ~doc:"Baseline record file or directory, or a gate file.")
  in
  let cand_arg =
    Arg.(
      non_empty
      & pos_right 0 string []
      & info [] ~docv:"CANDIDATE"
          ~doc:"Candidate record files or directories, or BENCH files.")
  in
  let thresholds_arg =
    Arg.(
      value
      & opt_all (metric_value_conv ~what:"RATIO") []
      & info [ "threshold" ] ~docv:"METRIC:RATIO"
          ~doc:
            "Override or add one comparison rule: relative threshold as a \
             fraction, e.g. $(b,--threshold latency_p95:0.3) tolerates \
             30%. METRIC must be a record metric and RATIO \
             non-negative; the direction is the one the record declares \
             for METRIC. Defaults: latency_p50/p95 20%, latency_p99 25%, \
             throughput 20%, msgs_per_txn 10%. Not with a gate file.")
  in
  let perturb_arg =
    Arg.(
      value
      & opt_all (metric_value_conv ~what:"FACTOR") []
      & info [ "perturb" ] ~docv:"METRIC:FACTOR"
          ~doc:
            "Self-test knob: multiply METRIC in every candidate cell by \
             FACTOR before comparing (e.g. $(b,--perturb \
             latency_p95:1.5) injects a 50% latency regression). CI uses \
             this to prove the gate actually trips.")
  in
  let run base_path cand_paths thresholds perturb =
    let gates = is_gate_file base_path in
    List.iter
      (fun (metric, threshold) ->
        if gates then Cli.fail "--threshold: a gate file's bounds are absolute";
        Cli.record_metric "--threshold" metric;
        if threshold < 0. then
          Cli.fail "--threshold %s:%g: the threshold must be non-negative"
            metric threshold)
      thresholds;
    let cells =
      List.map (fun r -> Workload.Run_record.(cell_id r, metrics r))
    in
    let rules, base, cand =
      if gates then
        let rules, base = load Workload.Compare.parse_gates base_path in
        let bench text =
          Result.bind (Sim.Json.parse text)
            Workload.Compare.bench_cell
        in
        (rules, base, List.map (load bench) cand_paths)
      else
        ( List.fold_left
            (fun rules (metric, threshold) ->
              Workload.Compare.rule ~threshold metric
              :: List.filter
                   (fun (r : Workload.Compare.rule) -> r.metric <> metric)
                   rules)
            Workload.Compare.default_rules thresholds,
          cells (load_record_set base_path),
          cells (List.concat_map load_record_set cand_paths) )
    in
    if base = [] then Cli.fail "%s: no run record or bound" base_path;
    let known =
      if not gates then Workload.Run_record.metric_names
      else List.map (fun (r : Workload.Compare.rule) -> r.metric) rules
    in
    List.iter
      (fun (metric, _) ->
        if not (List.mem metric known) then
          Cli.fail "unknown --perturb metric %S (known: %s)" metric
            (String.concat ", " known))
      perturb;
    let cand =
      List.map
        (fun (cell, metrics) ->
          ( cell,
            List.map
              (fun (name, v) ->
                match List.assoc_opt name perturb with
                | Some factor -> (name, v *. factor)
                | None -> (name, v))
              metrics ))
        cand
    in
    let report = Workload.Compare.compare_sets ~rules ~base ~cand () in
    Fmt.pr "%a" (Workload.Compare.pp_report ~all:gates) report;
    if not (Workload.Compare.ok report) then exit 1
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const run $ base_arg $ cand_arg $ thresholds_arg $ perturb_arg)

let () =
  let doc =
    "Replication techniques from 'Understanding Replication in Databases \
     and Distributed Systems' (Wiesmann et al., ICDCS 2000), reproduced on \
     a discrete-event simulator."
  in
  let info = Cmd.info "replisim" ~version:Workload.Report.version ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            config_cmd;
            run_cmd;
            trace_cmd;
            explain_cmd;
            metrics_cmd;
            campaign_cmd;
            timeline_cmd;
            profile_cmd;
            audit_cmd;
            sweep_cmd;
            compare_cmd;
          ]))
