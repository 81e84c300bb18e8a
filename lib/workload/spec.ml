(** Workload parameters for the performance study the paper announces in
    §6 ("taking into account different workloads and failures
    assumptions"). *)

type shape = Mixed | Tpcb

type flash_crowd = {
  fc_at : Sim.Simtime.t;  (** when the crowd arrives *)
  fc_duration : Sim.Simtime.t;
  fc_intensity : float;
      (** load multiplier during the spike: open-loop arrival rates are
          multiplied by it, closed-loop think times divided by it *)
  fc_skew : float;  (** zipfian theta while the crowd lasts *)
  fc_shift : int;
      (** hot-set rotation: key indices drawn during the spike are
          offset by this amount mod n_keys, so the crowd hammers a
          {e different} hot set than the steady phase warmed up *)
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
  shape : shape;
      (** session profile: [Mixed] is the all-read-or-all-update
          single-key mix; [Tpcb] issues TPC-B-like two-key transfers
          (debit one account, credit another) and two-key balance reads *)
  flash_crowd : flash_crowd option;
      (** when set, a mid-run phase that spikes load and re-skews the
          hot set (see {!flash_crowd}) *)
}

let default =
  {
    n_keys = 100;
    key_skew = 0.6;
    update_ratio = 0.5;
    ops_per_txn = 1;
    txns_per_client = 50;
    think_time = Sim.Simtime.of_ms 1;
    shards = 1;
    cross_shard = 0.;
    shape = Mixed;
    flash_crowd = None;
  }

let default_flash_crowd =
  {
    fc_at = Sim.Simtime.of_ms 50;
    fc_duration = Sim.Simtime.of_ms 100;
    fc_intensity = 4.;
    fc_skew = 1.2;
    fc_shift = 50;
  }

let shape_to_string = function Mixed -> "mixed" | Tpcb -> "tpcb"

let in_flash t ~at =
  match t.flash_crowd with
  | None -> false
  | Some fc ->
      Sim.Simtime.(at >= fc.fc_at)
      && Sim.Simtime.(at < Sim.Simtime.add fc.fc_at fc.fc_duration)

let flash_crowd_to_string fc =
  Printf.sprintf "at=%s,dur=%s,x=%g,zipf=%g,shift=%d"
    (Sim.Simtime.to_string fc.fc_at)
    (Sim.Simtime.to_string fc.fc_duration)
    fc.fc_intensity fc.fc_skew fc.fc_shift

let pp ppf t =
  Format.fprintf ppf
    "keys=%d skew=%.2f updates=%.0f%% ops/txn=%d txns/client=%d" t.n_keys
    t.key_skew (100. *. t.update_ratio) t.ops_per_txn t.txns_per_client;
  if t.shape <> Mixed then
    Format.fprintf ppf " shape=%s" (shape_to_string t.shape);
  if t.shards > 1 then
    Format.fprintf ppf " shards=%d cross=%.0f%%" t.shards
      (100. *. t.cross_shard);
  match t.flash_crowd with
  | Some fc -> Format.fprintf ppf " flash[%s]" (flash_crowd_to_string fc)
  | None -> ()
