(* Tests for the database substrate: versioned store, execution, WAL,
   strict-2PL lock table and the serializability checker. *)

open Store

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Kv                                                                 *)
(* ------------------------------------------------------------------ *)

let test_kv_read_write () =
  let kv = Kv.create () in
  Alcotest.(check (pair int int)) "missing reads as 0@v0" (0, 0) (Kv.read kv "x");
  let v1 = Kv.write kv "x" 10 in
  Alcotest.(check int) "first version" 1 v1;
  Alcotest.(check (pair int int)) "read back" (10, 1) (Kv.read kv "x");
  let v2 = Kv.write kv "x" 20 in
  Alcotest.(check int) "second version" 2 v2;
  Alcotest.(check int) "version accessor" 2 (Kv.version kv "x")

let test_kv_install () =
  let kv = Kv.create () in
  Kv.install kv "x" ~value:5 ~version:3;
  Alcotest.(check (pair int int)) "installed" (5, 3) (Kv.read kv "x");
  (* An older version must not regress the copy. *)
  Kv.install kv "x" ~value:99 ~version:2;
  Alcotest.(check (pair int int)) "stale install ignored" (5, 3) (Kv.read kv "x");
  Kv.install kv "x" ~value:7 ~version:4;
  Alcotest.(check (pair int int)) "newer install applies" (7, 4) (Kv.read kv "x")

let test_kv_snapshot_equal () =
  let a = Kv.create () and b = Kv.create () in
  ignore (Kv.write a "x" 1);
  ignore (Kv.write a "y" 2);
  ignore (Kv.write b "y" 2);
  ignore (Kv.write b "x" 1);
  Alcotest.(check bool) "equal stores" true (Kv.equal a b);
  ignore (Kv.write b "x" 9);
  Alcotest.(check bool) "diverged stores" false (Kv.equal a b);
  let c = Kv.copy a in
  Alcotest.(check bool) "copy equal" true (Kv.equal a c);
  ignore (Kv.write c "z" 1);
  Alcotest.(check bool) "copy independent" false (Kv.equal a c)

(* ------------------------------------------------------------------ *)
(* Operation                                                          *)
(* ------------------------------------------------------------------ *)

let test_operation_sets () =
  let r =
    Operation.request ~client:1
      [ Operation.Read "a"; Operation.Incr ("b", 2); Operation.Write ("c", 3) ]
  in
  Alcotest.(check (list string)) "read set" [ "a"; "b" ] (Operation.read_set r);
  Alcotest.(check (list string)) "write set" [ "b"; "c" ] (Operation.write_set r);
  Alcotest.(check bool) "is update" true (Operation.request_is_update r);
  let ro = Operation.request ~client:1 [ Operation.Read "a" ] in
  Alcotest.(check bool) "read only" false (Operation.request_is_update ro)

let test_operation_rids_unique () =
  let a = Operation.request ~client:0 [ Operation.Read "x" ] in
  let b = Operation.request ~client:0 [ Operation.Read "x" ] in
  Alcotest.(check bool) "fresh rids" true (a.Operation.rid <> b.Operation.rid)

(* ------------------------------------------------------------------ *)
(* Apply                                                              *)
(* ------------------------------------------------------------------ *)

let test_apply_execute () =
  let kv = Kv.create () in
  ignore (Kv.write kv "x" 10);
  let result =
    Apply.execute kv
      [ Operation.Read "x"; Operation.Incr ("x", 5); Operation.Write ("y", 1) ]
  in
  Alcotest.(check (list (triple string int int)))
    "reads with versions"
    [ ("x", 10, 1); ("x", 10, 1) ]
    result.Apply.reads;
  Alcotest.(check (list (triple string int int)))
    "writes with versions"
    [ ("x", 15, 2); ("y", 1, 1) ]
    result.Apply.writes;
  Alcotest.(check (pair int int)) "store updated" (15, 2) (Kv.read kv "x")

let test_apply_choose () =
  let kv = Kv.create () in
  let result =
    Apply.execute ~choose:(fun _ -> 42) kv [ Operation.Write_random "x" ]
  in
  Alcotest.(check (list (triple string int int)))
    "chosen value" [ ("x", 42, 1) ] result.Apply.writes

let test_apply_writes_to_other_replica () =
  let primary = Kv.create () and backup = Kv.create () in
  let result =
    Apply.execute primary [ Operation.Write ("x", 1); Operation.Write ("y", 2) ]
  in
  Apply.apply_writes backup result.Apply.writes;
  Alcotest.(check bool) "replicas converge" true (Kv.equal primary backup)

(* ------------------------------------------------------------------ *)
(* Wal                                                                *)
(* ------------------------------------------------------------------ *)

let test_wal_replay () =
  let kv = Kv.create () in
  let log = Wal.create () in
  let run ops tid =
    let result = Apply.execute kv ops in
    Wal.append log { Wal.tid; writes = result.Apply.writes }
  in
  run [ Operation.Write ("x", 1) ] 1;
  run [ Operation.Incr ("x", 10) ] 2;
  run [ Operation.Write ("y", 5) ] 3;
  Alcotest.(check int) "length" 3 (Wal.length log);
  let fresh = Kv.create () in
  Wal.replay log fresh;
  Alcotest.(check bool) "replay reproduces state" true (Kv.equal kv fresh)

(* ------------------------------------------------------------------ *)
(* Lock table                                                         *)
(* ------------------------------------------------------------------ *)

let test_lock_s_s_compatible () =
  let lt = Lock_table.create () in
  let g1 = ref false and g2 = ref false in
  let r1 = Lock_table.acquire lt ~txn:1 ~key:"x" Lock_table.S ~granted:(fun () -> g1 := true) in
  let r2 = Lock_table.acquire lt ~txn:2 ~key:"x" Lock_table.S ~granted:(fun () -> g2 := true) in
  Alcotest.(check bool) "both granted" true (r1 = `Granted && r2 = `Granted);
  Alcotest.(check bool) "callbacks ran" true (!g1 && !g2)

let test_lock_x_conflicts () =
  let lt = Lock_table.create () in
  let order = ref [] in
  let acquire txn mode =
    Lock_table.acquire lt ~txn ~key:"x" mode ~granted:(fun () ->
        order := txn :: !order)
  in
  Alcotest.(check bool) "t1 X granted" true (acquire 1 Lock_table.X = `Granted);
  Alcotest.(check bool) "t2 waits" true (acquire 2 Lock_table.X = `Waiting);
  Alcotest.(check bool) "t3 waits" true (acquire 3 Lock_table.S = `Waiting);
  Alcotest.(check int) "two waiting" 2 (Lock_table.waiting_count lt);
  Lock_table.release_all lt ~txn:1;
  Alcotest.(check (list int)) "fifo grant order" [ 1; 2 ] (List.rev !order);
  Lock_table.release_all lt ~txn:2;
  Alcotest.(check (list int)) "then t3" [ 1; 2; 3 ] (List.rev !order)

let test_lock_reentrant () =
  let lt = Lock_table.create () in
  let r1 = Lock_table.acquire lt ~txn:1 ~key:"x" Lock_table.X ~granted:ignore in
  let r2 = Lock_table.acquire lt ~txn:1 ~key:"x" Lock_table.S ~granted:ignore in
  let r3 = Lock_table.acquire lt ~txn:1 ~key:"x" Lock_table.X ~granted:ignore in
  Alcotest.(check bool) "all reentrant grants" true
    (r1 = `Granted && r2 = `Granted && r3 = `Granted)

let test_lock_upgrade () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~txn:1 ~key:"x" Lock_table.S ~granted:ignore);
  let r = Lock_table.acquire lt ~txn:1 ~key:"x" Lock_table.X ~granted:ignore in
  Alcotest.(check bool) "sole holder upgrades" true (r = `Granted);
  Alcotest.(check (list (pair int bool))) "holds X" [ (1, true) ]
    (List.map
       (fun (t, m) -> (t, m = Lock_table.X))
       (Lock_table.holders lt "x"))

let test_lock_deadlock_detected () =
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~txn:1 ~key:"a" Lock_table.X ~granted:ignore);
  ignore (Lock_table.acquire lt ~txn:2 ~key:"b" Lock_table.X ~granted:ignore);
  let r1 = Lock_table.acquire lt ~txn:1 ~key:"b" Lock_table.X ~granted:ignore in
  Alcotest.(check bool) "t1 waits for b" true (r1 = `Waiting);
  let r2 = Lock_table.acquire lt ~txn:2 ~key:"a" Lock_table.X ~granted:ignore in
  Alcotest.(check bool) "t2 -> a would deadlock" true (r2 = `Deadlock);
  (* After aborting t2, t1 gets the lock. *)
  let got = ref false in
  ignore got;
  Lock_table.release_all lt ~txn:2;
  Alcotest.(check (list (pair int bool))) "t1 now holds b" [ (1, true) ]
    (List.map (fun (t, m) -> (t, m = Lock_table.X)) (Lock_table.holders lt "b"))

let test_lock_upgrade_deadlock () =
  (* Two S holders both trying to upgrade: the second must be refused. *)
  let lt = Lock_table.create () in
  ignore (Lock_table.acquire lt ~txn:1 ~key:"x" Lock_table.S ~granted:ignore);
  ignore (Lock_table.acquire lt ~txn:2 ~key:"x" Lock_table.S ~granted:ignore);
  let r1 = Lock_table.acquire lt ~txn:1 ~key:"x" Lock_table.X ~granted:ignore in
  Alcotest.(check bool) "first upgrade waits" true (r1 = `Waiting);
  let r2 = Lock_table.acquire lt ~txn:2 ~key:"x" Lock_table.X ~granted:ignore in
  Alcotest.(check bool) "second upgrade deadlocks" true (r2 = `Deadlock)

let test_lock_release_unblocks_sharers () =
  let lt = Lock_table.create () in
  let grants = ref 0 in
  ignore (Lock_table.acquire lt ~txn:1 ~key:"x" Lock_table.X ~granted:ignore);
  for txn = 2 to 4 do
    ignore
      (Lock_table.acquire lt ~txn ~key:"x" Lock_table.S ~granted:(fun () ->
           incr grants))
  done;
  Lock_table.release_all lt ~txn:1;
  Alcotest.(check int) "all sharers granted together" 3 !grants

(* Invariant: at any time, a key with an X holder has exactly one holder. *)
let prop_lock_exclusion =
  QCheck.Test.make ~name:"no conflicting lock grants" ~count:300
    QCheck.(list (triple (int_range 1 5) (int_range 0 2) bool))
    (fun script ->
      let lt = Lock_table.create () in
      let keys = [| "a"; "b"; "c" |] in
      let ok = ref true in
      let step (txn, key_idx, exclusive) =
        let key = keys.(key_idx) in
        let mode = if exclusive then Lock_table.X else Lock_table.S in
        (match Lock_table.acquire lt ~txn ~key mode ~granted:ignore with
        | `Granted | `Waiting | `Deadlock -> ());
        (* Randomly release some transaction to let the queue move. *)
        if txn mod 2 = 0 then Lock_table.release_all lt ~txn:(txn - 1);
        Array.iter
          (fun k ->
            let hs = Lock_table.holders lt k in
            let xs = List.filter (fun (_, m) -> m = Lock_table.X) hs in
            if xs <> [] && List.length hs > 1 then ok := false)
          keys
      in
      List.iter step script;
      !ok)

(* ------------------------------------------------------------------ *)
(* Serializability                                                    *)
(* ------------------------------------------------------------------ *)

let record tid ~reads ~writes =
  {
    History.tid;
    reads;
    writes;
    replica = 0;
    committed_at = Sim.Simtime.zero;
  }

let test_serializable_serial_history () =
  let h = History.create () in
  History.add h (record 1 ~reads:[] ~writes:[ ("x", 1) ]);
  History.add h (record 2 ~reads:[ ("x", 1) ] ~writes:[ ("x", 2) ]);
  History.add h (record 3 ~reads:[ ("x", 2) ] ~writes:[ ("y", 1) ]);
  match Serializability.check h with
  | Serializability.Serializable order ->
      Alcotest.(check (list int)) "witness order" [ 1; 2; 3 ] order
  | v ->
      Alcotest.failf "expected serializable, got %a" Serializability.pp_verdict v

let test_lost_update_cycle () =
  (* Classic lost update: both read x@0, then both write x. *)
  let h = History.create () in
  History.add h (record 1 ~reads:[ ("x", 0) ] ~writes:[ ("x", 1) ]);
  History.add h (record 2 ~reads:[ ("x", 0) ] ~writes:[ ("x", 2) ]);
  Alcotest.(check bool) "cycle detected" false (Serializability.is_serializable h)

let test_write_skew_cycle () =
  let h = History.create () in
  History.add h (record 1 ~reads:[ ("x", 0) ] ~writes:[ ("y", 1) ]);
  History.add h (record 2 ~reads:[ ("y", 0) ] ~writes:[ ("x", 1) ]);
  Alcotest.(check bool) "write skew detected" false
    (Serializability.is_serializable h)

let test_stale_read_is_serializable () =
  (* Reading an old value is fine if the reader serializes earlier. *)
  let h = History.create () in
  History.add h (record 1 ~reads:[] ~writes:[ ("x", 1) ]);
  History.add h (record 2 ~reads:[ ("x", 0) ] ~writes:[ ("z", 1) ]);
  match Serializability.check h with
  | Serializability.Serializable order ->
      let pos t = Option.get (List.find_index (Int.equal t) order) in
      Alcotest.(check bool) "reader before writer" true (pos 2 < pos 1)
  | v ->
      Alcotest.failf "expected serializable, got %a" Serializability.pp_verdict v

let test_divergence_detected () =
  let h = History.create () in
  History.add h (record 1 ~reads:[] ~writes:[ ("x", 1) ]);
  History.add h (record 2 ~reads:[] ~writes:[ ("x", 1) ]);
  match Serializability.check h with
  | Serializability.Ambiguous_versions (k, v) ->
      Alcotest.(check (pair string int)) "item and version" ("x", 1) (k, v)
  | v ->
      Alcotest.failf "expected divergence, got %a" Serializability.pp_verdict v

let test_read_own_write_no_self_cycle () =
  let h = History.create () in
  History.add h (record 1 ~reads:[ ("x", 1) ] ~writes:[ ("x", 1) ]);
  Alcotest.(check bool) "self edges ignored" true
    (Serializability.is_serializable h)

(* Serial executions against a single store are always serializable. *)
let prop_serial_executions_serializable =
  QCheck.Test.make ~name:"serial histories are serializable" ~count:100
    QCheck.(list (pair (int_range 0 2) (int_range 0 30)))
    (fun script ->
      let kv = Kv.create () in
      let h = History.create () in
      let keys = [| "x"; "y"; "z" |] in
      List.iteri
        (fun i (key_idx, v) ->
          let ops =
            [ Operation.Read keys.(key_idx); Operation.Write (keys.((key_idx + 1) mod 3), v) ]
          in
          let result = Apply.execute kv ops in
          History.add_result h ~tid:(i + 1) ~replica:0 ~at:Sim.Simtime.zero result)
        script;
      Serializability.is_serializable h)


(* ---- The checker against a reference copy ----------------------------- *)

(* The checker as it was before it indexed versions: per read, filter and
   sort every written version of the key. Quadratic on hot keys, but the
   reference for which edges it builds, in which order, and so for the
   witness order and cycle it reports. *)
module Reference_checker = struct
  exception Ambiguous of Operation.key * int

  let build_edges records =
    let writer = Hashtbl.create 64 in
    List.iter
      (fun (r : History.record) ->
        List.iter
          (fun (k, v) ->
            match Hashtbl.find_opt writer (k, v) with
            | Some tid when tid <> r.tid -> raise (Ambiguous (k, v))
            | _ -> Hashtbl.replace writer (k, v) r.tid)
          r.writes)
      records;
    let versions_of = Hashtbl.create 64 in
    Hashtbl.iter
      (fun (k, v) _ ->
        let cur = Option.value ~default:[] (Hashtbl.find_opt versions_of k) in
        Hashtbl.replace versions_of k (v :: cur))
      writer;
    let edges = ref [] in
    let add_edge a b = if a <> b then edges := (a, b) :: !edges in
    Hashtbl.iter
      (fun k versions ->
        let sorted = List.sort Int.compare versions in
        let rec pair = function
          | v1 :: (v2 :: _ as rest) ->
              add_edge (Hashtbl.find writer (k, v1)) (Hashtbl.find writer (k, v2));
              pair rest
          | _ -> ()
        in
        pair sorted)
      versions_of;
    List.iter
      (fun (r : History.record) ->
        List.iter
          (fun (k, v) ->
            (match Hashtbl.find_opt writer (k, v) with
            | Some w -> add_edge w r.tid
            | None -> ());
            let next_writer =
              match Hashtbl.find_opt versions_of k with
              | None -> None
              | Some versions -> (
                  List.filter (fun v' -> v' > v) versions
                  |> List.sort Int.compare
                  |> function
                  | [] -> None
                  | v' :: _ -> Some (Hashtbl.find writer (k, v')))
            in
            match next_writer with
            | Some w when w <> r.tid -> add_edge r.tid w
            | _ -> ())
          r.reads)
      records;
    !edges

  let check history =
    let records = History.records history in
    match build_edges records with
    | exception Ambiguous (k, v) -> Serializability.Ambiguous_versions (k, v)
    | edges -> (
        let tids =
          List.map (fun (r : History.record) -> r.tid) records
          |> List.sort_uniq Int.compare
        in
        let adj = Hashtbl.create 64 in
        List.iter
          (fun (a, b) ->
            let cur = Option.value ~default:[] (Hashtbl.find_opt adj a) in
            if not (List.mem b cur) then Hashtbl.replace adj a (b :: cur))
          edges;
        let state = Hashtbl.create 64 in
        let order = ref [] in
        let exception Cycle of int list in
        let rec visit path tid =
          match Hashtbl.find_opt state tid with
          | Some 1 -> ()
          | Some _ ->
              let rec cut = function
                | [] -> [ tid ]
                | x :: rest -> if x = tid then [ x ] else x :: cut rest
              in
              raise (Cycle (List.rev (cut path)))
          | None ->
              Hashtbl.replace state tid 0;
              let succs = Option.value ~default:[] (Hashtbl.find_opt adj tid) in
              List.iter (fun s -> visit (s :: path) s) succs;
              Hashtbl.replace state tid 1;
              order := tid :: !order
        in
        try
          List.iter (fun tid -> visit [ tid ] tid) tids;
          Serializability.Serializable !order
        with Cycle c -> Serializability.Cyclic c)
end

(* A random history over hot keys, from a seed: transactions run in a
   shuffled tid order against a current version per key; most reads see
   the current version, some a stale one (which can close a cycle), and
   now and then two transactions install the same version (divergence).
   Key 0 takes about half of all accesses. *)
let random_hot_history seed =
  let rng = Random.State.make [| seed |] in
  let n = 1 + Random.State.int rng 60 and nkeys = 1 + Random.State.int rng 6 in
  let key () =
    if Random.State.bool rng then "k0"
    else Printf.sprintf "k%d" (Random.State.int rng nkeys)
  in
  let tids = Array.init n (fun i -> i + 1) in
  for i = n - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let x = tids.(i) in
    tids.(i) <- tids.(j);
    tids.(j) <- x
  done;
  let current = Hashtbl.create 8 in
  let version k = Option.value ~default:0 (Hashtbl.find_opt current k) in
  let h = History.create () in
  Array.iter
    (fun tid ->
      let reads =
        List.init (Random.State.int rng 4) (fun _ ->
            let k = key () in
            let v = version k in
            if Random.State.int rng 4 = 0 then (k, max 0 (v - 1 - Random.State.int rng 3))
            else (k, v))
      in
      let writes =
        List.sort_uniq compare (List.init (Random.State.int rng 3) (fun _ -> key ()))
        |> List.map (fun k ->
               let v = version k + if Random.State.int rng 50 = 0 then 0 else 1 in
               Hashtbl.replace current k (max v (version k));
               (k, max v 1))
      in
      History.add h (record tid ~reads ~writes))
    tids;
  h

let prop_checker_matches_reference =
  QCheck.Test.make ~name:"checker = reference on hot-key histories" ~count:500
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let h = random_hot_history seed in
      let got = Serializability.check h and want = Reference_checker.check h in
      if got <> want then
        QCheck.Test.fail_reportf "seed %d: got %a, reference %a" seed
          Serializability.pp_verdict got Serializability.pp_verdict want;
      true)

(* Every verdict kind shows up in the generated histories, so the
   property above compares orders, cycles and divergences alike. *)
let test_hot_histories_cover_verdicts () =
  let kinds = Hashtbl.create 3 in
  for seed = 0 to 299 do
    Hashtbl.replace kinds
      (match Serializability.check (random_hot_history seed) with
      | Serializability.Serializable _ -> "serializable"
      | Cyclic _ -> "cyclic"
      | Ambiguous_versions _ -> "ambiguous")
      ()
  done;
  Alcotest.(check int) "all three verdicts" 3 (Hashtbl.length kinds)

(* Allocation of [check] on one hot key written [n] times and read [n]
   times, each read at a spread-out version. *)
let hot_key_check_words n =
  let h = History.create () in
  for i = 1 to n do
    History.add h (record i ~reads:[] ~writes:[ ("x", i) ])
  done;
  for i = 1 to n do
    History.add h (record (n + i) ~reads:[ ("x", i * 7919 mod n) ] ~writes:[])
  done;
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Serializability.check h));
  Gc.minor_words () -. before

let test_checker_scales_on_hot_key () =
  let small = hot_key_check_words 1000 and large = hot_key_check_words 2000 in
  if large > 2.5 *. small then
    Alcotest.failf
      "checker allocation grew %.2fx (%.0f -> %.0f words) when versions and \
       reads doubled"
      (large /. small) small large

(* ---- Cross-validation of the checker against first principles -------- *)

(* Replay a serial order of the history's transactions and check that every
   read sees the version installed by the latest preceding writer (0 if
   none) and that writers of each key appear in version order. *)
let order_is_valid records order =
  let by_tid = Hashtbl.create 16 in
  List.iter (fun (r : History.record) -> Hashtbl.replace by_tid r.tid r) records;
  let current = Hashtbl.create 16 in
  let ok = ref true in
  List.iter
    (fun tid ->
      let r = Hashtbl.find by_tid tid in
      List.iter
        (fun (k, v) ->
          if Option.value ~default:0 (Hashtbl.find_opt current k) <> v then
            ok := false)
        r.History.reads;
      List.iter
        (fun (k, v) ->
          if v <= Option.value ~default:0 (Hashtbl.find_opt current k) then
            ok := false
          else Hashtbl.replace current k v)
        r.History.writes)
    order;
  !ok

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y <> x) l)))
        l

(* Random interleaved executions over a shared store: transactions overlap,
   so some histories are serializable and some are not. *)
let random_history seed =
  let rng = Sim.Rng.create ~seed in
  let kv = Kv.create () in
  let n_txns = 2 + Sim.Rng.int rng 3 in
  let keys = [| "x"; "y" |] in
  let txns =
    Array.init n_txns (fun i ->
        (i + 1, ref [], ref []))
  in
  (* Each step: a random transaction performs one random operation. Reads
     of a key the transaction itself already wrote are internal (they see
     the transaction's own value) and are not part of the record model. *)
  for _ = 1 to 3 * n_txns do
    let tid, reads, writes = txns.(Sim.Rng.int rng n_txns) in
    ignore tid;
    let k = keys.(Sim.Rng.int rng 2) in
    if Sim.Rng.bool rng then begin
      if not (List.mem_assoc k !writes) then begin
        let _, version = Kv.read kv k in
        reads := (k, version) :: !reads
      end
    end
    else if not (List.mem_assoc k !writes) then begin
      (* One write per key per transaction: later writes would erase the
         version other transactions may already have read, which cannot
         happen in an isolated history. *)
      let version = Kv.write kv k (Sim.Rng.int rng 100) in
      writes := (k, version) :: !writes
    end
  done;
  let h = History.create () in
  Array.iter
    (fun (tid, reads, writes) ->
      (* Keep the first read per key (what the transaction observed from
         the outside world) and the last write (what it left installed). *)
      let dedup_first l =
        List.fold_left
          (fun acc (k, v) -> if List.mem_assoc k acc then acc else (k, v) :: acc)
          [] (List.rev l)
      in
      let dedup_last l = dedup_first (List.rev l) in
      History.add h
        {
          History.tid;
          reads = dedup_first !reads;
          writes = dedup_last !writes;
          replica = 0;
          committed_at = Sim.Simtime.zero;
        })
    txns;
  h

let prop_checker_witness_is_valid =
  QCheck.Test.make ~name:"serializability witness replays correctly" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let h = random_history seed in
      match Serializability.check h with
      | Serializability.Serializable order ->
          order_is_valid (History.records h) order
      | Serializability.Cyclic _ | Serializability.Ambiguous_versions _ -> true)

let prop_checker_complete =
  QCheck.Test.make
    ~name:"histories with no valid serial order are rejected" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let h = random_history seed in
      let records = History.records h in
      let tids = List.map (fun (r : History.record) -> r.History.tid) records in
      let any_valid =
        List.exists (order_is_valid records) (permutations tids)
      in
      match Serializability.check h with
      | Serializability.Serializable _ -> any_valid
      | Serializability.Cyclic _ | Serializability.Ambiguous_versions _ ->
          (* Conflict serializability is conservative: rejecting a history
             that some order satisfies is allowed, the reverse is not. *)
          true)

let () =
  Alcotest.run "store"
    [
      ( "kv",
        [
          tc "read write" test_kv_read_write;
          tc "install" test_kv_install;
          tc "snapshot equal" test_kv_snapshot_equal;
        ] );
      ( "operation",
        [
          tc "read/write sets" test_operation_sets;
          tc "unique rids" test_operation_rids_unique;
        ] );
      ( "apply",
        [
          tc "execute" test_apply_execute;
          tc "choose" test_apply_choose;
          tc "apply writes" test_apply_writes_to_other_replica;
        ] );
      ("wal", [ tc "replay" test_wal_replay ]);
      ( "locks",
        [
          tc "s-s compatible" test_lock_s_s_compatible;
          tc "x conflicts + fifo" test_lock_x_conflicts;
          tc "reentrant" test_lock_reentrant;
          tc "upgrade" test_lock_upgrade;
          tc "deadlock" test_lock_deadlock_detected;
          tc "upgrade deadlock" test_lock_upgrade_deadlock;
          tc "release unblocks sharers" test_lock_release_unblocks_sharers;
          QCheck_alcotest.to_alcotest prop_lock_exclusion;
        ] );
      ( "serializability",
        [
          tc "serial history" test_serializable_serial_history;
          tc "lost update" test_lost_update_cycle;
          tc "write skew" test_write_skew_cycle;
          tc "stale read ok" test_stale_read_is_serializable;
          tc "divergence" test_divergence_detected;
          tc "read own write" test_read_own_write_no_self_cycle;
          QCheck_alcotest.to_alcotest prop_serial_executions_serializable;
          QCheck_alcotest.to_alcotest prop_checker_witness_is_valid;
          QCheck_alcotest.to_alcotest prop_checker_complete;
          QCheck_alcotest.to_alcotest prop_checker_matches_reference;
          tc "hot histories cover every verdict" test_hot_histories_cover_verdicts;
          tc "hot key scales" test_checker_scales_on_hot_key;
        ] );
    ]
