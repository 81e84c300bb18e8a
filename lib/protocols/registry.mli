(** All implemented techniques, for the benches, the CLI, the examples
    and the tests that sweep the whole taxonomy. Order follows Figure
    16. The registry is the only way to build a technique: each entry's
    [build] is the technique module's [create], which reads its settings
    from a configuration resolved against the entry's [schema]. *)

type factory =
  Sim.Network.t ->
  replicas:int list ->
  clients:int list ->
  Core.Technique.instance

(** One technique: CLI key, classification metadata, configuration
    schema, and a constructor taking a resolved configuration. With
    [shared], the built instance reports into those observability
    objects instead of fresh ones ({!Sharded} hands one to every
    group). *)
type entry = {
  key : string;
  info : Core.Technique.info;
  schema : Config.schema;
  build : ?shared:Common.shared -> Config.t -> factory;
}

val all : entry list
val keys : string list
val infos : Core.Technique.info list

val find : string -> entry option

(** Like {!find}, but an unknown key's error message lists the valid
    technique keys. *)
val find_res : string -> (entry, string) result

(** The entry's schema defaults, resolved. *)
val default_config : entry -> Config.t

(** Constructor under the schema defaults. *)
val default_factory : entry -> factory

(** The shard count bound in a resolved configuration (1 = unsharded).
    Raises [Invalid_argument] if the configuration lacks the key. *)
val shards : Config.t -> int

(** [configure e pairs] resolves raw [key=value] pairs against the
    entry's schema (unknown keys fail, listing the valid ones) and
    returns the resolved configuration together with the constructor. *)
val configure :
  entry -> (string * string) list -> (Config.t * factory, string) result

(** [configure] for static sweeps whose settings are known valid;
    raises [Invalid_argument] otherwise. *)
val configure_exn : entry -> (string * string) list -> factory
