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

(* Shard count of a resolved configuration (1 = unsharded); the CLI's
   flag-level check reads it here too. *)
let shards cfg = Config.get_int cfg "shards"

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
        let shards = shards cfg in
        if shards = 1 then e.build ?shared cfg
        else
          Sharded.create ~shards ~info:e.info ?shared
            ~factory:(fun shared -> e.build ~shared cfg));
  }

(* Each technique's [create] reads its settings from the resolved
   configuration, so an entry is data: the single construction path
   shared by the CLI, the benches, the examples and the tests. *)
let raw : entry list =
  [
    {
      key = "active";
      info = Active.info;
      schema = Active.schema;
      build = Active.create;
    };
    {
      key = "passive";
      info = Passive.info;
      schema = Passive.schema;
      build = Passive.create;
    };
    {
      key = "semi-active";
      info = Semi_active.info;
      schema = Semi_active.schema;
      build = Semi_active.create;
    };
    {
      key = "semi-passive";
      info = Semi_passive.info;
      schema = Semi_passive.schema;
      build = Semi_passive.create;
    };
    {
      key = "eager-primary";
      info = Eager_primary.info;
      schema = Eager_primary.schema;
      build = Eager_primary.create;
    };
    {
      key = "eager-ue-locking";
      info = Eager_ue_locking.info;
      schema = Eager_ue_locking.schema;
      build = Eager_ue_locking.create;
    };
    {
      key = "eager-ue-abcast";
      info = Eager_ue_abcast.info;
      schema = Eager_ue_abcast.schema;
      build = Eager_ue_abcast.create;
    };
    {
      key = "lazy-primary";
      info = Lazy_primary.info;
      schema = Lazy_primary.schema;
      build = Lazy_primary.create;
    };
    {
      key = "lazy-ue";
      info = Lazy_ue.info;
      schema = Lazy_ue.schema;
      build = Lazy_ue.create;
    };
    {
      key = "certification";
      info = Certification_based.info;
      schema = Certification_based.schema;
      build = Certification_based.create;
    };
  ]

let all = List.map shardable raw

let keys = List.map (fun e -> e.key) all
let infos = List.map (fun e -> e.info) all

(* Keyed index over [all] — [find] is called per configured cell in
   sweeps and campaigns, so it should not rescan the list each time.
   Built when the module initialises and never written after, it can be
   read from several domains at once. *)
module By_key = Map.Make (String)

let by_key = List.fold_left (fun m e -> By_key.add e.key e m) By_key.empty all
let find key = By_key.find_opt key by_key

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
