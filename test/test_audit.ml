(* The consistency audit layer: Kv watcher semantics, the eager
   zero-inconsistency-window property (randomized), the lazy visibility
   regression, the crafted cross-shard snapshot-skew case, and the
   lag_undrained saturation detector. *)

open Sim

let tc name f = Alcotest.test_case name `Quick f

(* ---- Kv watchers ---------------------------------------------------- *)

let test_kv_watcher_fires () =
  let kv = Store.Kv.create () in
  let seen = ref [] in
  Store.Kv.on_update kv (fun k ~value ~version ->
      seen := (k, value, version) :: !seen);
  let v1 = Store.Kv.write kv "x" 10 in
  Alcotest.(check int) "write returns version 1" 1 v1;
  Store.Kv.install kv "x" ~value:20 ~version:2;
  (* An older install is ignored — and must not notify. *)
  Store.Kv.install kv "x" ~value:99 ~version:1;
  Store.Kv.force kv "x" ~value:5 ~version:1;
  Alcotest.(check (list (triple string int int)))
    "write, replacing install and force notify; stale install does not"
    [ ("x", 10, 1); ("x", 20, 2); ("x", 5, 1) ]
    (List.rev !seen)

let test_kv_copy_drops_watchers () =
  let kv = Store.Kv.create () in
  let fired = ref 0 in
  Store.Kv.on_update kv (fun _ ~value:_ ~version:_ -> incr fired);
  ignore (Store.Kv.write kv "x" 1);
  let scratch = Store.Kv.copy kv in
  ignore (Store.Kv.write scratch "x" 2);
  Alcotest.(check int) "copy is scratch state: no watcher carried over" 1
    !fired;
  Alcotest.(check int) "copy still duplicated the data" 2
    (Store.Kv.version scratch "x")

(* ---- eager techniques: zero inconsistency window (randomized) ------- *)

(* The default links declared loss-free: channels send without acks. *)
let loss_free = { Sim.Network.default_config with passthrough = true }

(* The paper's claim, as a measured property: an eager technique under a
   lossless network and no faults can never violate a session guarantee
   — its agreement phase runs before the reply. Randomizes seed, client
   count and per-client transaction count under closed arrivals. *)
let prop_eager_zero_window name =
  let factory =
    Protocols.Registry.default_factory
      (Option.get (Protocols.Registry.find name))
  in
  QCheck.Test.make
    ~name:(Printf.sprintf "%s: no session violations, ever" name)
    ~count:6
    QCheck.(pair (int_range 0 10_000) (pair (int_range 2 5) (int_range 5 25)))
    (fun (seed, (clients, txns)) ->
      let spec = Workload.Builder.spec ~updates:0.5 ~txns ~keys:40 () in
      let result =
        Workload.Runner.run ~seed ~net:loss_free ~n_replicas:3
          ~n_clients:clients ~spec ~audit:true factory
      in
      let a = Option.get result.Workload.Runner.audit in
      a.Workload.Audit.ryw_violations = 0
      && a.Workload.Audit.mr_violations = 0
      && a.Workload.Audit.session_window_max_ms = 0.
      && a.Workload.Audit.drained)

(* ---- lazy-primary: the staleness window must be measurable ---------- *)

let test_lazy_visibility_positive () =
  let factory =
    Protocols.Registry.default_factory
      (Option.get (Protocols.Registry.find "lazy-primary"))
  in
  let spec = Workload.Builder.spec ~updates:0.5 ~txns:30 ~keys:50 () in
  let result =
    Workload.Runner.run ~seed:11 ~net:loss_free ~n_replicas:3 ~n_clients:4
      ~spec ~audit:true factory
  in
  let a = Option.get result.Workload.Runner.audit in
  Alcotest.(check bool)
    "post-commit window strictly positive (propagation after the reply)"
    true
    (a.Workload.Audit.post_commit_max_ms > 0.);
  Alcotest.(check bool)
    "visibility latency samples recorded" true
    (a.Workload.Audit.visibility_ms.Sim.Summary.count > 0
    && a.Workload.Audit.visibility_ms.Sim.Summary.p50 > 0.);
  Alcotest.(check bool) "still drains by quiescence" true
    a.Workload.Audit.drained

(* ---- crafted cross-shard snapshot skew ------------------------------ *)

(* Drives the audit directly (no protocol): a cross-shard writer W
   installs (ka, v1) and (kb, v1) on different shards; a cross-shard
   reader R observes W on ka's shard but misses it on kb's. That torn
   snapshot must count exactly one (R, W) skew pair — and none at all
   when the run is unsharded. *)
let two_keys_on_different_shards map =
  let rec hunt i =
    if i > 999 then Alcotest.fail "no shard-distinct key pair found"
    else
      let k = Printf.sprintf "k%04d" i in
      if
        Store.Shard_map.shard_of_key map k
        <> Store.Shard_map.shard_of_key map "k0000"
      then ("k0000", k)
      else hunt (i + 1)
  in
  hunt 1

let drive_skew ~shards =
  let engine = Engine.create ~seed:3 () in
  let history = Store.History.create () in
  let stores = [| Store.Kv.create (); Store.Kv.create () |] in
  let audit =
    Workload.Audit.create ~engine ~history ~groups:[ [ 0 ]; [ 1 ] ]
      ~store_of:(fun r -> stores.(r))
      ~shards ()
  in
  let map = Store.Shard_map.create ~shards:2 () in
  let ka, kb = two_keys_on_different_shards map in
  let add ~tid ~replica ~at reads writes =
    Store.History.add history
      { Store.History.tid; reads; writes; replica; committed_at = at }
  in
  let t1 = Simtime.of_ms 1 and t2 = Simtime.of_ms 2 in
  (* Writer W = parent 100, one sub-transaction per shard. *)
  add ~tid:101 ~replica:0 ~at:t1 [] [ (ka, 1) ];
  add ~tid:102 ~replica:1 ~at:t1 [] [ (kb, 1) ];
  Store.History.link_parent history ~parent:100 ~sub:101;
  Store.History.link_parent history ~parent:100 ~sub:102;
  Workload.Audit.note_reply audit ~client:0 ~rid:100 ~committed:true
    ~submitted_at:Simtime.zero ~at:t1;
  (* Reader R = parent 200: sees (ka, 1) but still (kb, 0). *)
  add ~tid:201 ~replica:0 ~at:t2 [ (ka, 1) ] [];
  add ~tid:202 ~replica:1 ~at:t2 [ (kb, 0) ] [];
  Store.History.link_parent history ~parent:200 ~sub:201;
  Store.History.link_parent history ~parent:200 ~sub:202;
  Workload.Audit.note_reply audit ~client:1 ~rid:200 ~committed:true
    ~submitted_at:t1 ~at:t2;
  Workload.Audit.finalize audit

let test_skew_detected () =
  let a = drive_skew ~shards:2 in
  Alcotest.(check int) "two cross-shard transactions examined" 2
    a.Workload.Audit.cross_txns;
  Alcotest.(check int) "exactly one torn (reader, writer) pair" 1
    a.Workload.Audit.skew_pairs;
  Alcotest.(check int) "the missed write is also a stale read" 1
    a.Workload.Audit.stale_reads

let test_skew_needs_shards () =
  let a = drive_skew ~shards:1 in
  Alcotest.(check int) "detector disarmed at shards=1" 0
    a.Workload.Audit.skew_pairs

(* ---- lag_undrained saturation detector ------------------------------ *)

let lag_series ~final =
  {
    Timeseries.name = "version_lag";
    replica = 2;
    kind = Timeseries.Queue;
    unit_ = "versions";
    points_rev =
      List.rev
        [
          { Timeseries.at = Simtime.zero; value = 0. };
          { Timeseries.at = Simtime.of_ms 5; value = 3. };
          { Timeseries.at = Simtime.of_ms 10; value = final };
        ];
    n_points = 3;
    thunks = [];
  }

let test_lag_undrained_fires () =
  let findings = Saturation.analyze [ lag_series ~final:2. ] in
  Alcotest.(check bool) "residual lag at end of run is a finding" true
    (List.exists
       (fun f -> f.Saturation.detector = "lag_undrained" && f.replica = 2)
       findings)

let test_lag_drained_silent () =
  let findings = Saturation.analyze [ lag_series ~final:0. ] in
  Alcotest.(check bool) "a drained replica raises nothing" true
    (not
       (List.exists
          (fun f -> f.Saturation.detector = "lag_undrained")
          findings))

(* ---- the audit verdict ---------------------------------------------- *)

(* A run that passes under either propagation. *)
let clean =
  {
    Workload.Audit.writes = 4;
    fully_replicated = 4;
    visibility_ms = Summary.of_constant 2.;
    visibility_by_replica = [];
    post_commit_max_ms = 1.5;
    stale_reads = 1;
    staleness_ms = Summary.of_constant 0.2;
    ryw_violations = 0;
    mr_violations = 0;
    session_window_max_ms = 0.;
    reads_checked = 6;
    commits = 10;
    skew_pairs = 0;
    cross_txns = 0;
    final_lag = [ (0, 0); (1, 0); (2, 0) ];
    drained = true;
  }

(* The details of the failed verdicts. *)
let verdict ?(propagation = Core.Technique.Lazy) ?(shards = 1) s =
  List.map
    (fun (v : Workload.Verdict.t) -> v.detail)
    (Workload.Verdict.failed (Workload.Audit.verdicts ~propagation ~shards s))

(* The oracles perf17's verdict rows read: the names of the failed
   verdicts. *)
let failed_oracles ?(propagation = Core.Technique.Lazy) ?(shards = 1) s =
  List.map
    (fun (v : Workload.Verdict.t) -> v.oracle)
    (Workload.Verdict.failed (Workload.Audit.verdicts ~propagation ~shards s))

let test_violation_kinds () =
  let eager = Core.Technique.Eager in
  Alcotest.(check (list string)) "a clean lazy run passes" [] (verdict clean);
  Alcotest.(check (list string))
    "a stale read is reported, never judged" []
    (verdict ~propagation:eager clean);
  Alcotest.(check (list string)) "undrained lag"
    [ "version lag never drained (max residual 3)" ]
    (verdict
       { clean with final_lag = [ (0, 0); (1, 3); (2, 1) ]; drained = false });
  Alcotest.(check (list string)) "an eager session violation"
    [
      "eager technique with a non-zero inconsistency window: 1 \
       read-your-writes + 2 monotonic-reads violations (window 4.500 ms)";
    ]
    (verdict ~propagation:eager
       { clean with ryw_violations = 1; mr_violations = 2;
         session_window_max_ms = 4.5 });
  Alcotest.(check (list string)) "the same counts under lazy are legal" []
    (verdict { clean with ryw_violations = 1; mr_violations = 2 });
  Alcotest.(check (list string)) "a lazy run with no post-commit window"
    [
      "lazy technique measured no post-commit staleness window \
       (propagation should run after the reply)";
    ]
    (verdict { clean with post_commit_max_ms = 0. });
  Alcotest.(check (list string)) "an eager run needs no window" []
    (verdict ~propagation:eager { clean with post_commit_max_ms = 0. });
  Alcotest.(check (list string)) "snapshot skew without shards"
    [ "2 snapshot-skew pairs at shards=1 (must be impossible)" ]
    (verdict { clean with skew_pairs = 2 });
  Alcotest.(check (list string)) "snapshot skew across shards is measured" []
    (verdict ~shards:2 { clean with skew_pairs = 2 });
  let oracles = Alcotest.(list string) in
  Alcotest.check oracles "undrained" [ "drained" ]
    (failed_oracles { clean with final_lag = [ (1, 3) ]; drained = false });
  Alcotest.check oracles "eager window" [ "eager_window" ]
    (failed_oracles ~propagation:eager { clean with ryw_violations = 1 });
  Alcotest.check oracles "no lazy window" [ "lazy_window" ]
    (failed_oracles { clean with post_commit_max_ms = 0. });
  Alcotest.check oracles "unsharded skew" [ "unsharded_skew" ]
    (failed_oracles { clean with skew_pairs = 2 });
  Alcotest.(check (list string))
    "every verdict of a clean lazy run, in order"
    [ "drained"; "lazy_window"; "unsharded_skew" ]
    (List.map
       (fun (v : Workload.Verdict.t) -> v.oracle)
       (Workload.Audit.verdicts ~propagation:Core.Technique.Lazy ~shards:1
          clean))

let () =
  Alcotest.run "audit"
    [
      ( "watchers",
        [
          tc "kv watcher fires on actual changes" test_kv_watcher_fires;
          tc "kv copy drops watchers" test_kv_copy_drops_watchers;
        ] );
      ( "eager window",
        List.map
          (fun name ->
            QCheck_alcotest.to_alcotest (prop_eager_zero_window name))
          [ "active"; "eager-primary" ] );
      ( "lazy window",
        [ tc "lazy-primary visibility positive" test_lazy_visibility_positive ]
      );
      ( "skew",
        [
          tc "torn cross-shard snapshot counted" test_skew_detected;
          tc "unsharded runs never skew" test_skew_needs_shards;
        ] );
      ( "lag detector",
        [
          tc "undrained lag fires" test_lag_undrained_fires;
          tc "drained lag silent" test_lag_drained_silent;
        ] );
      ( "verdict",
        [ tc "each violation kind and its message" test_violation_kinds ] );
    ]
