(* Shared Cmdliner vocabulary for replisim's subcommands: the technique
   and fault-event converters, the one workload term, and the
   --set/--config technique-configuration pipeline. [workload] declares
   every workload flag once (seed, cluster, spec, --crash/--recover,
   routing); run, metrics, profile and audit take all of it and sweep
   its [cluster] part. [configure] meets a workload with a technique's
   configuration: the spec is generated for the shard count the
   configuration binds, and --cross is checked there. Timeline and
   campaign build their workload with [scenario_workload] and go through
   the same [configure]. So a flag means the same thing (and has the
   same default) everywhere it appears, while --help stays
   per-subcommand. *)

open Cmdliner

let fail fmt = Fmt.kstr (fun msg -> Fmt.epr "replisim: %s@." msg; exit 2) fmt

(* The one report of a check: each failed verdict with the subject it
   judged (a technique, a campaign run), then one summary line — [ok] when
   nothing failed. All of it goes to stderr, so a check never pollutes
   machine-readable stdout; any failure exits with status 1. *)
let report cmd ~ok checks =
  let failed =
    List.filter (fun (_, (v : Workload.Verdict.t)) -> not v.ok) checks
  in
  List.iter
    (fun (subject, (v : Workload.Verdict.t)) ->
      Fmt.epr "%s: %s: %s: %s@." cmd subject v.oracle v.detail)
    failed;
  if failed = [] then Fmt.epr "%s: %s@." cmd ok
  else begin
    Fmt.epr "%s: %d of %d verdicts failed@." cmd (List.length failed)
      (List.length checks);
    exit 1
  end

(* Write [lines] to [file], or to stdout for [-]. *)
let write_lines file lines =
  let write oc =
    List.iter (fun l -> output_string oc l; output_char oc '\n') lines
  in
  if file = "-" then write stdout else Out_channel.with_open_text file write

(* [verdicts] as checks of one subject. *)
let about subject verdicts = List.map (fun v -> (subject, v)) verdicts

(* A boolean flag [name]. *)
let flag name ~doc = Arg.(value & flag & info [ name ] ~doc)

(* --format, one of [choices]; the first is the default. *)
let format ?(docv = "FORMAT") choices ~doc =
  Arg.(
    value
    & opt (enum choices) (snd (List.hd choices))
    & info [ "format" ] ~docv ~doc)

(* ---- technique selection -------------------------------------------- *)

let technique_conv =
  let parse s =
    Protocols.Registry.find_res s |> Result.map_error (fun m -> `Msg m)
  in
  let print ppf (e : Protocols.Registry.entry) =
    Format.pp_print_string ppf e.key
  in
  Arg.conv (parse, print)

let technique_arg =
  Arg.(
    required
    & opt (some technique_conv) None
    & info [ "t"; "technique" ] ~docv:"TECHNIQUE"
        ~doc:
          (Printf.sprintf "Replication technique to run. One of: %s."
             (String.concat ", " Protocols.Registry.keys)))

(* [all] or a comma-separated list of registry keys; an unknown key is a
   usage error listing the valid ones. *)
let techniques = function
  | "all" -> Protocols.Registry.all
  | keys ->
      List.map
        (fun key ->
          match Protocols.Registry.find_res key with
          | Ok entry -> entry
          | Error msg -> fail "%s" msg)
        (String.split_on_char ',' keys)

(* --techniques, the sweep of [techniques]. *)
let techniques_arg =
  Arg.(
    value & opt string "all"
    & info [ "techniques" ] ~docv:"KEYS"
        ~doc:
          (Printf.sprintf
             "Techniques to sweep: comma-separated registry keys (%s) or \
              $(b,all)."
             (String.concat ", " Protocols.Registry.keys)))

let technique_opt ~doc =
  Arg.(
    value
    & opt (some technique_conv) None
    & info [ "t"; "technique" ] ~docv:"TECHNIQUE"
        ~doc:
          (Printf.sprintf "%s One of: %s." doc
             (String.concat ", " Protocols.Registry.keys)))

(* ---- fault events ---------------------------------------------------- *)

(* REPLICA@TIME events, TIME a virtual-time literal as [--set] reads it
   (0@500us, 0@100ms, 0@100 in ms, 0@1.5s), plus comma-separated lists
   (0@1s,2@3s) — used by --crash and --recover. *)
let event_conv =
  let parse_one s =
    match String.split_on_char '@' s with
    | [ replica; at ] -> (
        match (int_of_string_opt replica, Protocols.Config.parse_time at) with
        | Some r, _ when r < 0 ->
            Error
              (`Msg
                (Printf.sprintf "replica id must be non-negative, got %d" r))
        | Some r, Some at -> Ok (r, at)
        | _ -> Error (`Msg "expected REPLICA@TIME, e.g. 0@100ms or 0@1s"))
    | _ -> Error (`Msg "expected REPLICA@TIME, e.g. 0@100ms or 0@1s")
  in
  let parse s =
    let rec go acc = function
      | [] -> Ok (List.rev acc)
      | item :: rest -> (
          match parse_one item with
          | Ok ev -> go (ev :: acc) rest
          | Error _ as e -> e)
    in
    go [] (String.split_on_char ',' s)
  in
  let print ppf events =
    Format.pp_print_list
      ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
      (fun ppf (replica, at) ->
        Format.fprintf ppf "%d@%a" replica Sim.Simtime.pp at)
      ppf events
  in
  Arg.conv (parse, print)

let scenario_names =
  String.concat ", "
    (List.map (fun s -> s.Workload.Scenario.name) Workload.Scenario.builtins)

(* The builtin scenario [name]; an unknown name is a usage error listing
   the builtins and [also], the names the caller accepts itself. *)
let scenario ?(also = "") name =
  match Workload.Scenario.find name with
  | Some s -> s
  | None -> fail "unknown scenario %S (known: %s%s)" name scenario_names also

(* A scenario's faults must fit the cluster: the builtins assume three
   replicas, and on a smaller one an event can name a client. *)
let check_scenario ~n (s : Workload.Scenario.t) =
  match Workload.Runner.check_faults ~n_replicas:n s.events with
  | Ok () -> ()
  | Error (f, reason) ->
      fail "scenario %s: %a: %s" s.name Workload.Runner.pp_fault f reason

(* ---- the workload term ----------------------------------------------- *)

let seed_arg ?(default = 11) () =
  Arg.(
    value & opt int default
    & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

let replicas_arg ?(default = 3) () =
  Arg.(
    value & opt int default
    & info [ "n"; "replicas" ] ~docv:"N" ~doc:"Replica count.")

let clients_arg ?(default = 4) () =
  Arg.(
    value & opt int default
    & info [ "clients" ] ~docv:"M" ~doc:"Client count.")

let txns_arg ?(default = 50) () =
  Arg.(
    value & opt int default
    & info [ "txns" ] ~docv:"T" ~doc:"Transactions per client.")

(* [r], the value of the ratio flag [flag]; outside [0,1] it is a usage
   error. *)
let ratio flag r =
  if r < 0. || r > 1. then fail "%s must be in [0,1], got %g" flag r;
  r

(* [name], a run-record metric given to [flag]; an unknown name is a
   usage error listing the known ones. *)
let record_metric flag name =
  if not (List.mem name Workload.Run_record.metric_names) then
    fail "unknown %s metric %S (known: %s)" flag name
      (String.concat ", " Workload.Run_record.metric_names)

(* [k], the value of the count flag [flag]; below 1 it is a usage
   error. *)
let at_least_one flag k =
  if k < 1 then fail "%s must be at least 1, got %d" flag k;
  k

let ops_arg =
  Term.(
    const (at_least_one "--ops")
    $ Arg.(
        value & opt int 1
        & info [ "ops" ] ~docv:"K" ~doc:"Operations per transaction."))

(* A workload as the flags describe it, before it meets a technique: the
   seed and the cluster ([n] replicas, [m] clients), the spec at one
   shard ({!configure} sets the technique's count), the checked fault
   list and the routing tier. The scenario subcommands (timeline,
   campaign) build theirs with [scenario_workload]. *)
type workload = {
  seed : int;
  n : int;
  m : int;
  spec : Workload.Spec.t;
  faults : Workload.Runner.fault list;
  router : Workload.Router.config option;
}

(* The workload of a scenario run (timeline, campaign): the scenario's
   spec with the subcommand's counts, and the scenario's faults. *)
let scenario_workload ?(seed = 11) ?(ops = 1) ~n ~m ~txns faults =
  {
    seed;
    n;
    m;
    spec =
      {
        Workload.Scenario.default_spec with
        txns_per_client = txns;
        ops_per_txn = ops;
      };
    faults;
    router = None;
  }

(* The flags of a workload that a sweep takes too: its seed, update ratio
   and skew are sweep axes, so here they keep {!Workload.Builder.spec}'s
   defaults. [txns] is the subcommand's default transaction count. *)
let cluster ?(txns = Workload.Spec.default.txns_per_client) () =
  let make n m txns ops keys cross router sticky shape flash =
    {
      seed = 11;
      n;
      m;
      spec =
        Workload.Builder.spec ~keys ~ops ~txns ~cross ~shape
          ?flash:(if flash then Some Workload.Spec.default_flash_crowd else None)
          ();
      faults = [];
      (* --sticky implies --router; plain --router keeps round-robin
         reads. *)
      router =
        (if router || sticky then
           Some { Workload.Router.default_config with sticky }
         else None);
    }
  in
  let keys =
    Arg.(value & opt int 100 & info [ "keys" ] ~docv:"K" ~doc:"Database size.")
  in
  let cross =
    Arg.(
      value & opt float 0.
      & info [ "cross" ] ~docv:"RATIO"
          ~doc:
            "Fraction of multi-op transactions forced to span two shards \
             (needs a sharded technique, e.g. $(b,--set active.shards=4), \
             and $(b,--ops) >= 2; the rest stay within one shard).")
  in
  let router =
    flag "router"
      ~doc:
        "Route every request through the client-side routing tier: \
         read/write splitting, cached primary discovery, bounded \
         retry-with-backoff across failover (see also $(b,--sticky))."
  in
  let sticky =
    flag "sticky"
      ~doc:
        "Pin each session's reads to the replica that answered its writes \
         (implies $(b,--router)); restores read-your-writes over lazy \
         techniques at a latency cost."
  in
  let shape =
    Arg.(
      value
      & opt
          (enum
             [ ("mixed", Workload.Spec.Mixed); ("tpcb", Workload.Spec.Tpcb) ])
          Workload.Spec.Mixed
      & info [ "shape" ] ~docv:"SHAPE"
          ~doc:
            "Session workload shape: $(b,mixed) (single-key transactions, \
             the default) or $(b,tpcb) (TPC-B-like two-key transfers and \
             balance-probe reads).")
  in
  let flash =
    flag "flash-crowd"
      ~doc:
        "Declare a flash-crowd phase: mid-run the load spikes and the \
         zipfian hot set re-skews and rotates for the duration of the window \
         (the built-in spike profile; see Workload.Spec)."
  in
  Term.(
    const make $ replicas_arg () $ clients_arg () $ txns_arg ~default:txns ()
    $ ops_arg
    $ (const (at_least_one "--keys") $ keys)
    $ (const (ratio "--cross") $ cross)
    $ router $ sticky $ shape $ flash)

(* The one workload term: {!cluster} plus the seed, the update ratio, the
   skew and the --crash/--recover faults, checked against the cluster. *)
let workload =
  let make w seed updates reads skew crashes recoveries =
    (* Naming both --updates and --reads is an error rather than a silent
       precedence rule. *)
    let update_ratio =
      match (updates, reads) with
      | Some _, Some _ -> fail "--updates and --reads are mutually exclusive"
      | Some u, None -> ratio "--updates" u
      | None, Some r -> 1. -. ratio "--reads" r
      | None, None -> w.spec.update_ratio
    in
    let faults =
      match
        Workload.Builder.crash_schedule ~n:w.n ~crashes:(List.concat crashes)
          ~recoveries:(List.concat recoveries)
      with
      | Ok faults -> faults
      | Error msg -> fail "%s" msg
    in
    { w with seed; faults; spec = { w.spec with update_ratio; key_skew = skew } }
  in
  let updates =
    Arg.(
      value
      & opt (some float) None
      & info [ "updates" ] ~docv:"RATIO"
          ~doc:
            "Fraction of update transactions (default 0.5; mutually \
             exclusive with $(b,--reads)).")
  in
  let reads =
    Arg.(
      value
      & opt (some float) None
      & info [ "reads" ] ~docv:"RATIO"
          ~doc:
            "Fraction of read transactions — shorthand for $(b,--updates) \
             (1 - RATIO); mutually exclusive with it.")
  in
  let skew =
    Arg.(
      value & opt float 0.6
      & info [ "skew"; "zipf" ] ~docv:"THETA"
          ~doc:
            "Zipf-skewed key popularity: theta of the zipfian key sampler \
             (0 = uniform; higher concentrates traffic on hot keys; \
             deterministic per seed). $(b,--zipf) and $(b,--skew) are \
             aliases.")
  in
  let events name ~doc =
    Arg.(value & opt_all event_conv [] & info [ name ] ~docv:"R@TIME" ~doc)
  in
  Term.(
    const make $ cluster () $ seed_arg () $ updates $ reads $ skew
    $ events "crash"
        ~doc:
          "Crash replica R at TIME (repeatable; comma lists accepted), e.g. \
           --crash 0@100ms or --crash 0@1s,2@3s."
    $ events "recover"
        ~doc:
          "Recover replica R at TIME (same syntax as $(b,--crash): \
           repeatable, comma lists accepted, e.g. --recover 0@1s,2@3s). Each \
           entry must pair with an earlier --crash of the same replica.")

(* ---- technique configuration (--set / --config) ---------------------- *)

let directive_conv =
  let parse s =
    Protocols.Config.parse_directive s |> Result.map_error (fun m -> `Msg m)
  in
  let print ppf d =
    Format.pp_print_string ppf (Protocols.Config.directive_to_string d)
  in
  Arg.conv (parse, print)

let set_args =
  Arg.(
    value
    & opt_all directive_conv []
    & info [ "set" ] ~docv:"TECH.KEY=VALUE"
        ~doc:
          "Override one technique parameter, e.g. $(b,--set \
           certification.abcast_impl=consensus) or $(b,--set \
           active.batch_window=5ms). Repeatable; see $(b,replisim config) \
           for the per-technique keys.")

let config_file_arg =
  Arg.(
    value
    & opt (some file) None
    & info [ "config" ] ~docv:"FILE"
        ~doc:
          "Read TECH.KEY=VALUE directives from FILE (one per line, '#' \
           comments); $(b,--set) flags override the file.")

(* A directive naming an unknown technique or an unknown key would
   otherwise be silently ignored by techniques it doesn't apply to, so
   every directive is validated against the registry up front; a bad one
   is a usage error (exit status 2). *)
let validate_directive (d : Protocols.Config.directive) =
  match Protocols.Registry.find_res d.technique with
  | Error msg -> fail "--set %s: %s" (Protocols.Config.directive_to_string d) msg
  | Ok entry ->
      if Option.is_none (Protocols.Config.find_key entry.schema d.key) then
        fail "--set %s: unknown config key %S for %s (valid keys: %s)"
          (Protocols.Config.directive_to_string d)
          d.key entry.key
          (String.concat ", " (Protocols.Config.keys entry.schema))

(* File directives first, --set flags after, so the flags win when both
   bind the same key. *)
let directives_term =
  let combine file sets =
    let from_file =
      match Option.map Protocols.Config.parse_file file with
      | None -> []
      | Some (Ok directives) -> directives
      | Some (Error msg) -> fail "%s" msg
    in
    let directives = from_file @ sets in
    List.iter validate_directive directives;
    directives
  in
  Term.(const combine $ config_file_arg $ set_args)

(* The resolved configuration of [entry] under [directives] plus its
   constructor. Techniques and keys were validated at parse time; a
   value that does not parse or lies outside its key's range fails here,
   naming the key (exit status 2). *)
let resolve (entry : Protocols.Registry.entry) directives =
  let pairs = Protocols.Config.pairs_for ~technique:entry.key directives in
  match Protocols.Registry.configure entry pairs with
  | Ok (cfg, factory) -> (cfg, factory)
  | Error msg -> fail "%s" msg

(* Fail with a flag-level message before the factory would raise: each
   replication group needs at least one replica. *)
let check_shards ~n cfg =
  let shards = Protocols.Registry.shards cfg in
  if shards > n then
    fail "%d shards need at least %d replicas (got -n %d); raise -n or lower \
          shards"
      shards shards n;
  shards

(* [w] under [entry] configured by [directives]: the configuration, its
   constructor and the run's spec, generated for the shard count the
   configuration binds. --cross forces cross-shard transactions, so it
   needs shards to cross and transactions of more than one operation. *)
let configure w (entry : Protocols.Registry.entry) directives =
  let cfg, factory = resolve entry directives in
  let shards = check_shards ~n:w.n cfg in
  let cross = w.spec.cross_shard in
  if cross > 0. && shards <= 1 then
    fail "--cross needs a sharded technique; add --set %s.shards=K (K >= 2)"
      entry.key;
  if cross > 0. && w.spec.ops_per_txn < 2 then
    fail "--cross needs multi-op transactions; add --ops 2 (or more)";
  (cfg, factory, { w.spec with shards })

(* [w] run through [factory] with [spec] (from {!configure}); the
   instance comes back too. *)
let run ?deadline ?sample ?profiler ?tracing ?audit w ~spec factory =
  Workload.Runner.run_with_instance ~seed:w.seed ~n_replicas:w.n
    ~n_clients:w.m ~spec ~faults:w.faults ?router:w.router ?deadline ?sample
    ?profiler ?tracing ?audit factory

(* Header [config] pairs of the directives themselves, for a header that
   covers several techniques. *)
let directive_pairs directives =
  List.map
    (fun (d : Protocols.Config.directive) ->
      (d.technique ^ "." ^ d.key, d.value))
    directives

(* Header [config] pairs: only the non-default bindings, so an export of
   a default run stays byte-identical to pre-configuration versions. *)
let config_pairs (entry : Protocols.Registry.entry) (cfg : Protocols.Config.t) =
  let defaults = Protocols.Registry.default_config entry in
  List.filter
    (fun (k, v) -> List.assoc_opt k (Protocols.Config.to_strings defaults) <> Some v)
    (Protocols.Config.to_strings cfg)
