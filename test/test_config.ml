(* The declarative configuration layer: every technique's schema
   round-trips through its string form, unknown techniques/keys fail
   with messages listing the valid alternatives, every technique still
   honours its Figure-16 phase signature when built under a non-default
   configuration, and sequencer batching stays deterministic (two runs
   with the same seed produce byte-identical traces). *)

let tc name f = Alcotest.test_case name `Quick f

let phase = Alcotest.testable Core.Phase.pp Core.Phase.equal

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

(* ---- per-key round-trip: default and a non-default sample ----------- *)

(* A value of [k]'s type that differs from its default. *)
let non_default (k : Protocols.Config.key) =
  match (k.ty, k.default) with
  | Protocols.Config.TBool, Protocols.Config.Bool b ->
      Some (Protocols.Config.Bool (not b))
  | Protocols.Config.TInt, Protocols.Config.Int i ->
      Some (Protocols.Config.Int (i + 1))
  | Protocols.Config.TFloat, Protocols.Config.Float f ->
      Some (Protocols.Config.Float (f +. 0.25))
  | Protocols.Config.TTime, Protocols.Config.Time t ->
      Some (Protocols.Config.Time (Sim.Simtime.add t (Sim.Simtime.of_us 1500)))
  | Protocols.Config.TEnum choices, Protocols.Config.Enum d ->
      List.find_opt (fun c -> c <> d) choices
      |> Option.map (fun c -> Protocols.Config.Enum c)
  | Protocols.Config.TOpt_int, Protocols.Config.Opt_int None ->
      Some (Protocols.Config.Opt_int (Some 7))
  | Protocols.Config.TOpt_int, Protocols.Config.Opt_int (Some _) ->
      Some (Protocols.Config.Opt_int None)
  | _ -> Alcotest.failf "schema key %s: default does not match its type" k.name

let roundtrip_value (e : Protocols.Registry.entry)
    (k : Protocols.Config.key) (v : Protocols.Config.value) =
  let s = Protocols.Config.value_to_string v in
  match Protocols.Config.parse_value k.ty s with
  | Error msg ->
      Alcotest.failf "%s.%s: %S does not parse back: %s" e.key k.name s msg
  | Ok v' ->
      Alcotest.(check string)
        (Printf.sprintf "%s.%s round-trips through %S" e.key k.name s)
        s
        (Protocols.Config.value_to_string v');
      if v <> v' then
        Alcotest.failf "%s.%s: %S re-parses to a different value" e.key k.name s

let test_roundtrip_all_keys () =
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      Alcotest.(check bool)
        (e.key ^ " declares at least one key")
        true (e.schema <> []);
      List.iter
        (fun (k : Protocols.Config.key) ->
          roundtrip_value e k k.default;
          match non_default k with
          | Some v -> roundtrip_value e k v
          | None -> ())
        e.schema)
    Protocols.Registry.all

(* apply (to_strings cfg) reproduces cfg — the parse -> apply -> print
   cycle the CLI and the export headers rely on. *)
let test_apply_print_cycle () =
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      (* flip every key to its non-default sample where one exists *)
      let pairs =
        List.filter_map
          (fun (k : Protocols.Config.key) ->
            non_default k
            |> Option.map (fun v ->
                   (k.name, Protocols.Config.value_to_string v)))
          e.schema
      in
      match Protocols.Registry.configure e pairs with
      | Error msg -> Alcotest.failf "%s: configure failed: %s" e.key msg
      | Ok (cfg, _) -> (
          match
            Protocols.Config.apply e.schema (Protocols.Config.to_strings cfg)
          with
          | Error msg -> Alcotest.failf "%s: re-apply failed: %s" e.key msg
          | Ok cfg' ->
              Alcotest.(check (list (pair string string)))
                (e.key ^ " survives print -> parse -> print")
                (Protocols.Config.to_strings cfg)
                (Protocols.Config.to_strings cfg')))
    Protocols.Registry.all

(* ---- every declared key is read ------------------------------------- *)

(* The schema is the only description of a technique's settings, so a
   key no code reads would be a setting that silently does nothing.
   Unbind each key in turn and build: the technique (or, for [shards],
   the registry) must reach for it and fail naming it. *)
let test_every_key_read () =
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      List.iter
        (fun (k : Protocols.Config.key) ->
          let cfg =
            List.remove_assoc k.name (Protocols.Registry.default_config e)
          in
          let net =
            Sim.Network.create (Sim.Engine.create ~seed:1 ()) ~n:4
              Sim.Network.default_config
          in
          match e.build cfg net ~replicas:[ 0; 1; 2 ] ~clients:[ 3 ] with
          | _ ->
              Alcotest.failf "%s.%s: built without reading the key" e.key
                k.name
          | exception Invalid_argument msg ->
              Alcotest.(check bool)
                (Printf.sprintf "%s.%s: the failure names the key" e.key k.name)
                true
                (contains ~needle:(Printf.sprintf "%S" k.name) msg))
        e.schema)
    Protocols.Registry.all

(* ---- error paths list the valid alternatives ------------------------ *)

let test_unknown_technique () =
  match Protocols.Registry.find_res "nosuch" with
  | Ok _ -> Alcotest.fail "nosuch resolved"
  | Error msg ->
      List.iter
        (fun key ->
          Alcotest.(check bool)
            (Printf.sprintf "error mentions %s" key)
            true (contains ~needle:key msg))
        Protocols.Registry.keys

let test_unknown_key () =
  let entry = Option.get (Protocols.Registry.find "active") in
  match Protocols.Registry.configure entry [ ("bogus", "1") ] with
  | Ok _ -> Alcotest.fail "bogus key accepted"
  | Error msg ->
      Alcotest.(check bool) "error names the key" true
        (contains ~needle:"bogus" msg);
      List.iter
        (fun (k : Protocols.Config.key) ->
          Alcotest.(check bool)
            (Printf.sprintf "error lists %s" k.name)
            true (contains ~needle:k.name msg))
        entry.schema

(* Values outside their key's range are refused where they are parsed,
   with a message naming the key and the range; each of these used to be
   accepted (a zero retry timeout hung the run). Every schema default is
   itself in range. *)
let test_out_of_range () =
  List.iter
    (fun (technique, key, value, range) ->
      let entry = Option.get (Protocols.Registry.find technique) in
      match Protocols.Registry.configure entry [ (key, value) ] with
      | Ok _ -> Alcotest.failf "%s.%s=%s accepted" technique key value
      | Error msg ->
          List.iter
            (fun needle ->
              Alcotest.(check bool)
                (Printf.sprintf "%s.%s=%s: error mentions %s" technique key
                   value needle)
                true (contains ~needle msg))
            [ key; range ])
    [
      (* a retired key is refused as unknown, whatever its value *)
      ("passive", "client_retry", "0ms", "unknown config key");
      ("active", "batch_window", "-5ms", ">= 0");
      ("lazy-primary", "propagation_delay", "-5ms", ">= 0");
      ("certification", "certify_time", "-1ms", ">= 0");
      ("active", "shards", "0", ">= 1");
      ("active", "shards", "-2", ">= 1");
      ("eager-primary", "abort_probability", "1.5", "[0, 1]");
      ("eager-primary", "abort_probability", "-1", "[0, 1]");
      ("eager-ue-locking", "lock_quorum", "0", ">= 1");
      ("eager-ue-locking", "lock_quorum", "-1", ">= 1");
    ];
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      let defaults =
        Protocols.Config.to_strings (Protocols.Registry.default_config e)
      in
      match Protocols.Registry.configure e defaults with
      | Ok _ -> ()
      | Error msg ->
          Alcotest.failf "%s: a default is out of range: %s" e.key msg)
    Protocols.Registry.all

let test_directive_syntax () =
  (match Protocols.Config.parse_directive "active.batch_window=5ms" with
  | Ok d ->
      Alcotest.(check string) "technique" "active" d.technique;
      Alcotest.(check string) "key" "batch_window" d.key;
      Alcotest.(check string) "value" "5ms" d.value
  | Error msg -> Alcotest.failf "directive did not parse: %s" msg);
  (match Protocols.Config.parse_directive "no-equals-here" with
  | Ok _ -> Alcotest.fail "malformed directive accepted"
  | Error _ -> ());
  match Protocols.Config.parse_directive "noprefix=1" with
  | Ok _ -> Alcotest.fail "directive without technique accepted"
  | Error _ -> ()

let test_config_file () =
  let path = Filename.temp_file "replisim" ".conf" in
  let oc = open_out path in
  output_string oc
    "# comment\n\
     active.batch_window = 5ms\n\
     \n\
     certification.abcast_impl=consensus\n";
  close_out oc;
  let directives =
    match Protocols.Config.parse_file path with
    | Ok ds -> ds
    | Error msg -> Alcotest.failf "parse_file: %s" msg
  in
  Sys.remove path;
  Alcotest.(check int) "two directives" 2 (List.length directives);
  Alcotest.(check (list (pair string string)))
    "pairs for active"
    [ ("batch_window", "5ms") ]
    (Protocols.Config.pairs_for ~technique:"active" directives);
  Alcotest.(check (list (pair string string)))
    "pairs for certification"
    [ ("abcast_impl", "consensus") ]
    (Protocols.Config.pairs_for ~technique:"certification" directives)

(* ---- non-default sweep: Figure-16 signatures survive reconfig ------- *)

(* Build every technique under a deliberately non-default configuration
   (consensus abcast and a batching window where the schema offers them)
   on a passthrough network, and re-check the probe transaction replies
   with the declared phase signature. *)
let non_default_pairs (e : Protocols.Registry.entry) =
  List.filter_map
    (fun (k : Protocols.Config.key) ->
      match k.name with
      | "abcast_impl" -> Some ("abcast_impl", "consensus")
      | "batch_window" -> Some ("batch_window", "2ms")
      | _ -> None)
    e.schema

let test_signature_under_non_default () =
  List.iter
    (fun (e : Protocols.Registry.entry) ->
      let factory =
        match Protocols.Registry.configure e (non_default_pairs e) with
        | Ok (_, factory) -> factory
        | Error msg -> Alcotest.failf "%s: configure failed: %s" e.key msg
      in
      (* semi-active's AC phase only appears for a non-deterministic
         write; everyone else runs the deterministic increment *)
      let ops =
        if e.key = "semi-active" then [ Store.Operation.Write_random "x" ]
        else [ Store.Operation.Incr ("x", 1) ]
      in
      let p =
        Workload.Builder.probe ~ops
          ~net:{ Sim.Network.default_config with passthrough = true }
          factory
      in
      let _, sound, summary = Workload.Builder.probe_summary p in
      Alcotest.(check bool) (e.key ^ " replied") true summary.Sim.Msg_dag.replied;
      Alcotest.(check bool) (e.key ^ " causally sound") true sound;
      let spans = p.Workload.Builder.p_inst.Core.Technique.spans in
      Alcotest.(check (list phase))
        (e.key ^ " phase signature under non-default config")
        e.info.Core.Technique.expected_phases
        (Core.Phase_span.signature spans ~rid:p.Workload.Builder.p_rid))
    Protocols.Registry.all

(* ---- batching determinism ------------------------------------------- *)

let batched_factory window =
  let entry = Option.get (Protocols.Registry.find "active") in
  Protocols.Registry.configure_exn entry
    [ ("batch_window", Printf.sprintf "%dms" window) ]

(* The run's JSONL trace, raw: rids are numbered per run, so two runs in
   one process compare byte for byte. *)
let trace_of factory =
  let spec = Workload.Builder.spec ~txns:10 () in
  let result, inst =
    Workload.Runner.run_with_instance ~seed:23 ~n_clients:3 ~spec factory
  in
  Alcotest.(check int) "no unanswered" 0 result.Workload.Runner.unanswered;
  Sim.Trace_export.to_jsonl
    (Core.Phase_span.collector inst.Core.Technique.spans)

(* Same seed, same window: the batched run must reproduce byte for
   byte — the flush timer goes through the deterministic engine clock,
   not wall time. *)
let test_batching_deterministic () =
  let a = trace_of (batched_factory 5) in
  let b = trace_of (batched_factory 5) in
  Alcotest.(check string) "batched traces byte-identical" a b

(* batch_window=0 is the unbatched protocol: its trace equals the
   default configuration's, byte for byte. *)
let test_zero_window_is_default () =
  let entry = Option.get (Protocols.Registry.find "active") in
  let default_trace =
    trace_of (Protocols.Registry.default_factory entry)
  in
  let zero_trace = trace_of (batched_factory 0) in
  Alcotest.(check string) "batch_window=0 equals default" default_trace
    zero_trace

let () =
  Alcotest.run "config"
    [
      ( "schema",
        [
          tc "every key round-trips" test_roundtrip_all_keys;
          tc "print -> parse -> print" test_apply_print_cycle;
          tc "every schema key is read at build" test_every_key_read;
        ] );
      ( "errors",
        [
          tc "unknown technique lists alternatives" test_unknown_technique;
          tc "unknown key lists schema" test_unknown_key;
          tc "out-of-range value names key and range" test_out_of_range;
          tc "directive syntax" test_directive_syntax;
          tc "config file" test_config_file;
        ] );
      ( "sweep",
        [
          tc "signatures under non-default config"
            test_signature_under_non_default;
        ] );
      ( "batching",
        [
          tc "deterministic traces" test_batching_deterministic;
          tc "zero window = default" test_zero_window_is_default;
        ] );
    ]
