(** Workload parameters for the performance study the paper announces in
    §6 ("taking into account different workloads and failures
    assumptions"). *)

(** Transaction shape of a client session: [Mixed] is the original
    all-read-or-all-update single-key mix; [Tpcb] issues TPC-B-like
    two-key transfer transactions (debit one account, credit another)
    and two-key balance reads. *)
type shape = Mixed | Tpcb

(** A mid-run load spike with a re-skewed hot set: between [fc_at] and
    [fc_at + fc_duration] clients submit [fc_intensity] times faster and
    draw keys from a zipfian with theta [fc_skew] whose indices are
    rotated by [fc_shift] — the flash crowd hammers a different hot set
    than the steady phase warmed up. *)
type flash_crowd = {
  fc_at : Sim.Simtime.t;
  fc_duration : Sim.Simtime.t;
  fc_intensity : float;
  fc_skew : float;
  fc_shift : int;
}

type t = {
  n_keys : int;  (** size of the logical database *)
  key_skew : float;  (** zipfian skew; 0.0 = uniform access *)
  update_ratio : float;  (** fraction of transactions that write *)
  ops_per_txn : int;  (** operations per transaction (§5 model when > 1) *)
  txns_per_client : int;
  think_time : Sim.Simtime.t;  (** client pause between transactions *)
  shards : int;
      (** generate shard-aware transactions for this many shards
          (1 = shard-oblivious: the pre-sharding key choice, unchanged) *)
  cross_shard : float;
      (** fraction of multi-op transactions forced to touch >= 2 shards
          (the rest are confined to one shard); only read when
          [shards > 1] *)
  shape : shape;  (** session transaction shape *)
  flash_crowd : flash_crowd option;  (** optional mid-run spike phase *)
}

val default : t

(** The stock spike used when a flash crowd is requested without
    explicit parameters: 4x load with theta 1.2 on a hot set rotated by
    50 keys, from 50 ms for 100 ms. *)
val default_flash_crowd : flash_crowd

val shape_to_string : shape -> string

(** Is virtual time [at] inside the flash-crowd window? Always [false]
    without one. *)
val in_flash : t -> at:Sim.Simtime.t -> bool

val flash_crowd_to_string : flash_crowd -> string
val pp : Format.formatter -> t -> unit
