(** Transaction generator: zipfian key choice, configurable update mix.
    Updates are read-modify-writes ([Incr]) so that every update creates a
    real conflict on its item — the worst case the paper's techniques are
    designed around. *)

type t = {
  spec : Spec.t;
  rng : Sim.Rng.t;
  sampler : Sim.Rng.Zipf.sampler;
  flash_sampler : Sim.Rng.Zipf.sampler option;
      (* present iff the spec declares a flash crowd: the spike draws
         from its own (typically hotter) zipfian, with indices rotated
         by fc_shift so the crowd's hot set differs from the steady
         phase's *)
  shard_map : Store.Shard_map.t option;
      (* present iff spec.shards > 1: the generator confines or spreads
         a transaction's keys across shards; the placement function is
         the same one the router uses, so "single-shard" here means
         single-shard to the router too *)
}

let create ?(seed = 42) spec =
  {
    spec;
    rng = Sim.Rng.create ~seed;
    sampler = Sim.Rng.Zipf.make ~n:spec.Spec.n_keys ~theta:spec.Spec.key_skew;
    flash_sampler =
      Option.map
        (fun (fc : Spec.flash_crowd) ->
          Sim.Rng.Zipf.make ~n:spec.Spec.n_keys ~theta:fc.Spec.fc_skew)
        spec.Spec.flash_crowd;
    shard_map =
      (if spec.Spec.shards > 1 then
         Some (Store.Shard_map.create ~shards:spec.Spec.shards ())
       else None);
  }

(* Key index for the current phase: the steady sampler normally, the
   rotated flash sampler while [at] falls inside the spike window. *)
let key_index t ~at =
  match (t.flash_sampler, t.spec.Spec.flash_crowd, at) with
  | Some s, Some fc, Some now when Spec.in_flash t.spec ~at:now ->
      (Sim.Rng.Zipf.draw t.rng s + fc.Spec.fc_shift) mod t.spec.Spec.n_keys
  | _ -> Sim.Rng.Zipf.draw t.rng t.sampler

let key ?at t = Printf.sprintf "k%04d" (key_index t ~at)

let op_on ~update k =
  if update then Store.Operation.Incr (k, 1) else Store.Operation.Read k

(* Rejection-sample a key that [accept]s; a skewed draw can take a while
   to leave a hot shard, so after a bounded number of tries fall back to
   [fallback] (keeping the run deterministic and terminating — the
   transaction then simply isn't spread as intended). *)
let sample_key ?at t ~accept ~fallback =
  let rec go tries =
    if tries >= 64 then fallback
    else
      let k = key ?at t in
      if accept k then k else go (tries + 1)
  in
  go 0

(* TPC-B-like transfer: debit one account, credit a distinct second one —
   a two-key conflict footprint instead of Mixed's single hot key. Read
   transactions probe both balances. Shard awareness reuses the same
   anchoring rule as Mixed: the first account picks the home shard and
   [cross_shard] decides whether the second is pushed off it. *)
let tpcb_ops ?at t ~update =
  let a = key ?at t in
  let distinct k = k <> a in
  (* Bounded-effort fallback when rejection sampling gives up: one more
     draw, nudged to the next index if it collides with [a]. *)
  let fallback () =
    let i = key_index t ~at in
    let k = Printf.sprintf "k%04d" i in
    if distinct k then k
    else Printf.sprintf "k%04d" ((i + 1) mod t.spec.Spec.n_keys)
  in
  let b =
    match t.shard_map with
    | None -> sample_key ?at t ~accept:distinct ~fallback:(fallback ())
    | Some map ->
        let home = Store.Shard_map.shard_of_key map a in
        let cross = Sim.Rng.float t.rng 1.0 < t.spec.Spec.cross_shard in
        let accept k =
          distinct k
          &&
          if cross then Store.Shard_map.shard_of_key map k <> home
          else Store.Shard_map.shard_of_key map k = home
        in
        sample_key ?at t ~accept ~fallback:(fallback ())
  in
  if update then [ Store.Operation.Incr (a, 1); Store.Operation.Incr (b, -1) ]
  else [ Store.Operation.Read a; Store.Operation.Read b ]

(** One transaction for [client]. A transaction is all-update or all-read
    (the usual OLTP mix model). *)
let request ?at t net ~client =
  let update = Sim.Rng.float t.rng 1.0 < t.spec.Spec.update_ratio in
  let ops =
    match t.spec.Spec.shape with
    | Spec.Tpcb -> tpcb_ops ?at t ~update
    | Spec.Mixed -> (
        let n = t.spec.Spec.ops_per_txn in
        match t.shard_map with
        | None -> List.init n (fun _ -> op_on ~update (key ?at t))
        | Some map ->
            (* Shard-aware choice: the first key anchors the transaction's
               home shard; the rest either stay home (single-shard) or the
               second op is pushed to a different shard (cross-shard). *)
            let k0 = key ?at t in
            let home = Store.Shard_map.shard_of_key map k0 in
            let cross =
              n > 1 && Sim.Rng.float t.rng 1.0 < t.spec.Spec.cross_shard
            in
            let rest =
              List.init (n - 1) (fun i ->
                  if cross && i = 0 then
                    sample_key ?at t
                      ~accept:(fun k ->
                        Store.Shard_map.shard_of_key map k <> home)
                      ~fallback:k0
                  else
                    sample_key ?at t
                      ~accept:(fun k ->
                        Store.Shard_map.shard_of_key map k = home)
                      ~fallback:k0)
            in
            List.map (op_on ~update) (k0 :: rest))
  in
  (update, Store.Operation.request net ~client ops)
