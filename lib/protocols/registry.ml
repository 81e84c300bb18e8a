(** All implemented techniques, for the benches, the CLI and the tests
    that sweep the whole taxonomy. Order follows Figure 16. *)

type factory =
  Sim.Network.t -> replicas:int list -> clients:int list -> Core.Technique.instance

type entry = {
  key : string;
  info : Core.Technique.info;
  schema : Config.schema;
  build : ?shared:Common.shared -> Config.t -> factory;
}

(* Every technique is shardable: its schema gains the shared [shards]
   key, and a shard count above 1 interposes the {!Sharded} wrapper —
   one instance of the technique per replication group, cross-group
   commits via 2PC. With [shards = 1] (the default) the raw factory is
   returned untouched, so an unsharded run is byte-identical to one
   that never had the key: the invariant holds by construction, not by
   testing alone. *)
let shardable e =
  {
    e with
    schema = e.schema @ [ Config.shards_key ];
    build =
      (fun ?shared cfg ->
        let shards =
          match List.assoc_opt "shards" cfg with
          | Some (Config.Int k) -> k
          | _ -> 1
        in
        if shards <= 1 then e.build ?shared cfg
        else
          let passthrough =
            match List.assoc_opt "passthrough" cfg with
            | Some (Config.Bool b) -> b
            | _ -> false
          in
          Sharded.create ~shards ~info:e.info ~passthrough ?shared
            ~factory:(fun shared -> e.build ~shared cfg));
  }

(* Every [build] resolves the technique's typed configuration into its
   concrete [config] record and closes over it — the single construction
   path shared by the CLI, the benches and the tests. *)
let raw : entry list =
  [
    {
      key = "active";
      info = Active.info;
      schema = Active.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Active.create net ~replicas ~clients ~config:(Active.config_of cfg)
            ?shared ());
    };
    {
      key = "passive";
      info = Passive.info;
      schema = Passive.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Passive.create net ~replicas ~clients ~config:(Passive.config_of cfg)
            ?shared ());
    };
    {
      key = "semi-active";
      info = Semi_active.info;
      schema = Semi_active.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Semi_active.create net ~replicas ~clients
            ~config:(Semi_active.config_of cfg) ?shared ());
    };
    {
      key = "semi-passive";
      info = Semi_passive.info;
      schema = Semi_passive.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Semi_passive.create net ~replicas ~clients
            ~config:(Semi_passive.config_of cfg) ?shared ());
    };
    {
      key = "eager-primary";
      info = Eager_primary.info;
      schema = Eager_primary.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Eager_primary.create net ~replicas ~clients
            ~config:(Eager_primary.config_of cfg) ?shared ());
    };
    {
      key = "eager-ue-locking";
      info = Eager_ue_locking.info;
      schema = Eager_ue_locking.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Eager_ue_locking.create net ~replicas ~clients
            ~config:(Eager_ue_locking.config_of cfg) ?shared ());
    };
    {
      key = "eager-ue-abcast";
      info = Eager_ue_abcast.info;
      schema = Eager_ue_abcast.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Eager_ue_abcast.create net ~replicas ~clients
            ~config:(Eager_ue_abcast.config_of cfg) ?shared ());
    };
    {
      key = "lazy-primary";
      info = Lazy_primary.info;
      schema = Lazy_primary.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Lazy_primary.create net ~replicas ~clients
            ~config:(Lazy_primary.config_of cfg) ?shared ());
    };
    {
      key = "lazy-ue";
      info = Lazy_ue.info;
      schema = Lazy_ue.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Lazy_ue.create net ~replicas ~clients ~config:(Lazy_ue.config_of cfg)
            ?shared ());
    };
    {
      key = "certification";
      info = Certification_based.info;
      schema = Certification_based.schema;
      build =
        (fun ?shared cfg net ~replicas ~clients ->
          Certification_based.create net ~replicas ~clients
            ~config:(Certification_based.config_of cfg) ?shared ());
    };
  ]

let all = List.map shardable raw

let keys = List.map (fun e -> e.key) all
let infos = List.map (fun e -> e.info) all

(* Keyed index over [all] — [find] is called per configured cell in
   sweeps and campaigns, so it should not rescan the list each time. *)
let by_key =
  lazy
    (let h = Hashtbl.create 16 in
     List.iter (fun e -> Hashtbl.replace h e.key e) all;
     h)

let find key = Hashtbl.find_opt (Lazy.force by_key) key

(* Unknown techniques must name the alternatives, exactly like unknown
   config keys do. *)
let find_res key =
  match find key with
  | Some e -> Ok e
  | None ->
      Error
        (Printf.sprintf "unknown technique %S (valid techniques: %s)" key
           (String.concat ", " keys))

let default_config e = Config.defaults e.schema
let default_factory e = e.build (default_config e)

let configure e pairs =
  match Config.apply e.schema pairs with
  | Ok cfg -> Ok (cfg, e.build cfg)
  | Error msg -> Error (Printf.sprintf "technique %s: %s" e.key msg)

let configure_exn e pairs =
  match configure e pairs with
  | Ok (_, factory) -> factory
  | Error msg -> invalid_arg msg
