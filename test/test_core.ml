(* Tests for the core framework: phases, the phase recorder, 2PC, certification,
   reconciliation, convergence, and the consistency checkers. *)

open Sim

let tc name f = Alcotest.test_case name `Quick f

let phase = Alcotest.testable Core.Phase.pp Core.Phase.equal

(* ------------------------------------------------------------------ *)
(* Phase / Phase_span mark view                                        *)
(* ------------------------------------------------------------------ *)

let test_phase_codes () =
  Alcotest.(check (list string)) "codes"
    [ "RE"; "SC"; "EX"; "AC"; "END" ]
    (List.map Core.Phase.code Core.Phase.all);
  List.iter
    (fun p ->
      Alcotest.(check (option phase)) "roundtrip" (Some p)
        (Core.Phase.of_code (Core.Phase.code p)))
    Core.Phase.all

let mark_t =
  Alcotest.testable
    (fun ppf m -> Core.Phase_span.pp_marks ppf [ m ])
    ( = )

(* Record [marks] for [rid] into a fresh recorder and check the flat view
   reproduces them exactly, in order. *)
let record_marks ~rid marks =
  let sp = Core.Phase_span.create () in
  List.iter
    (fun (m : Core.Phase_span.mark) ->
      Core.Phase_span.mark sp ~rid ?replica:m.replica ~note:m.note m.phase m.time)
    marks;
  Alcotest.(check (list mark_t)) "marks round-trip" marks
    (Core.Phase_span.marks sp ~rid);
  sp

let m ?replica ?(note = "") phase ms =
  { Core.Phase_span.phase; replica; time = Simtime.of_ms ms; note }

let test_phase_trace_sequence () =
  let sp =
    record_marks ~rid:1
      [
        m Request 0;
        m ~replica:0 Execution 1;
        m ~replica:1 Execution 2;
        m ~replica:0 Agreement_coordination 3;
        m Response 4;
      ]
  in
  Alcotest.(check (list phase)) "sequence collapses duplicates"
    [ Request; Execution; Agreement_coordination; Response ]
    (Core.Phase_span.sequence sp ~rid:1);
  Alcotest.(check (list int)) "rids" [ 1 ] (Core.Phase_span.rids sp)

let test_phase_trace_loop_and_signature () =
  (* The §5 per-operation loop: EX AC EX AC ... *)
  let sp =
    record_marks ~rid:2
      [
        m Request 0;
        m ~replica:0 Execution 1;
        m ~replica:0 Agreement_coordination 2;
        m ~replica:0 Execution 3;
        m ~replica:0 Agreement_coordination 4;
        m Response 5;
      ]
  in
  Alcotest.(check (list phase)) "sequence keeps the loop"
    [
      Request; Execution; Agreement_coordination; Execution;
      Agreement_coordination; Response;
    ]
    (Core.Phase_span.sequence sp ~rid:2);
  Alcotest.(check (list phase)) "signature collapses the loop"
    [ Request; Execution; Agreement_coordination; Response ]
    (Core.Phase_span.signature sp ~rid:2)

(* The opening mark's note is stored as an event at the span's start on
   its track; the flat view must fold it back, and only it. *)
let test_marks_noted_opening () =
  let sp =
    record_marks ~rid:3
      [
        m ~note:"atomic broadcast" Request 0;
        m ~replica:0 ~note:"execute" Execution 1;
        m ~replica:0 Execution 2;
        m Response 3;
      ]
  in
  let events rid =
    List.map
      (fun (_, s) -> List.length (Sim.Span.events s))
      (Core.Phase_span.phase_spans sp ~rid)
  in
  Alcotest.(check (list int)) "opening notes are span events" [ 1; 2; 0 ]
    (events 3)

let test_marks_same_instant_other_replica () =
  (* Semi-active's EX on every replica at one instant: the second mark's
     event shares the span's start but not its track. Unnoted repeats on
     the span's own track at its start stay marks of their own. *)
  ignore
    (record_marks ~rid:4
       [
         m Request 0;
         m Request 0;
         m ~replica:2 Execution 3;
         m ~replica:0 ~note:"execution in delivery order" Execution 3;
         m ~replica:2 Execution 3;
         m ~replica:0 ~note:"leader resolves" Agreement_coordination 3;
         m Response 6;
       ])

let test_marks_resubmission () =
  (* A resubmission re-enters RE: as a fresh span after another phase,
     and as an event while RE is still open. *)
  let sp =
    record_marks ~rid:5
      [
        m Request 0;
        m ~note:"resubmission after timeout" Request 4;
        m ~replica:1 Server_coordination 5;
        m ~note:"resubmission after timeout" Request 9;
        m ~replica:2 Server_coordination 10;
        m Response 12;
      ]
  in
  Alcotest.(check (list phase)) "sequence shows the retry"
    [ Request; Server_coordination; Request; Server_coordination; Response ]
    (Core.Phase_span.sequence sp ~rid:5);
  Alcotest.(check (list phase)) "signature"
    [ Request; Server_coordination; Response ]
    (Core.Phase_span.signature sp ~rid:5)

(* ------------------------------------------------------------------ *)
(* Two-phase commit                                                   *)
(* ------------------------------------------------------------------ *)

let tpc_setup ?(n = 3) ?(votes = fun ~me:_ ~txn:_ -> true) ?participant_timeout
    () =
  let e = Engine.create ~seed:5 () in
  let net = Network.create e ~n Network.default_config in
  let decisions = Hashtbl.create 8 in
  let group =
    Core.Two_phase_commit.create_group net ~nodes:(List.init n Fun.id)
      ?participant_timeout ~vote:votes
      ~learn:(fun ~me ~txn d -> Hashtbl.replace decisions (me, txn) d)
      ()
  in
  (e, net, group, decisions)

let test_2pc_all_yes_commits () =
  let e, _net, group, decisions = tpc_setup () in
  let outcome = ref None in
  Core.Two_phase_commit.start group ~coordinator:0 ~participants:[ 0; 1; 2 ]
    ~txn:1 ~on_complete:(fun d -> outcome := Some d);
  ignore (Engine.run ~until:(Simtime.of_sec 2.) e);
  Alcotest.(check bool) "committed" true
    (!outcome = Some Core.Two_phase_commit.Commit);
  List.iter
    (fun me ->
      Alcotest.(check bool)
        (Printf.sprintf "participant %d learned commit" me)
        true
        (Hashtbl.find_opt decisions (me, 1) = Some Core.Two_phase_commit.Commit))
    [ 0; 1; 2 ];
  Alcotest.(check (pair int int)) "counters" (1, 0)
    (Core.Two_phase_commit.commits group, Core.Two_phase_commit.aborts group)

let test_2pc_one_no_aborts () =
  let votes ~me ~txn:_ = me <> 2 in
  let e, _net, group, decisions = tpc_setup ~votes () in
  let outcome = ref None in
  Core.Two_phase_commit.start group ~coordinator:0 ~participants:[ 0; 1; 2 ]
    ~txn:1 ~on_complete:(fun d -> outcome := Some d);
  ignore (Engine.run ~until:(Simtime.of_sec 2.) e);
  Alcotest.(check bool) "aborted" true
    (!outcome = Some Core.Two_phase_commit.Abort);
  Alcotest.(check bool) "all learn abort" true
    (List.for_all
       (fun me ->
         Hashtbl.find_opt decisions (me, 1) = Some Core.Two_phase_commit.Abort)
       [ 0; 1; 2 ])

let test_2pc_participant_crash_timeout_aborts () =
  let e, net, group, _decisions =
    tpc_setup ~participant_timeout:(Simtime.of_ms 200) ()
  in
  Network.crash net 2;
  let outcome = ref None in
  Core.Two_phase_commit.start group ~coordinator:0 ~participants:[ 0; 1; 2 ]
    ~txn:1 ~on_complete:(fun d -> outcome := Some d);
  ignore (Engine.run ~until:(Simtime.of_sec 5.) e);
  Alcotest.(check bool) "presumed abort" true
    (!outcome = Some Core.Two_phase_commit.Abort)

let test_2pc_blocks_without_timeout () =
  (* The paper (§2.1): databases accept blocking protocols. Without a
     timeout, a crashed participant blocks the round forever. *)
  let e, net, group, _decisions = tpc_setup () in
  Network.crash net 2;
  let outcome = ref None in
  Core.Two_phase_commit.start group ~coordinator:0 ~participants:[ 0; 1; 2 ]
    ~txn:1 ~on_complete:(fun d -> outcome := Some d);
  ignore (Engine.run ~until:(Simtime.of_sec 5.) ~max_events:200_000 e);
  Alcotest.(check bool) "no decision" true (!outcome = None)

let test_2pc_coordinator_crash_blocks_participants () =
  let e, net, group, decisions = tpc_setup () in
  let outcome = ref None in
  Core.Two_phase_commit.start group ~coordinator:0 ~participants:[ 0; 1; 2 ]
    ~txn:1 ~on_complete:(fun d -> outcome := Some d);
  (* Crash the coordinator before any vote can reach it. *)
  Network.crash net 0;
  ignore (Engine.run ~until:(Simtime.of_sec 5.) ~max_events:200_000 e);
  Alcotest.(check bool) "blocked: nobody decided" true
    (!outcome = None
    && Hashtbl.find_opt decisions (1, 1) = None
    && Hashtbl.find_opt decisions (2, 1) = None)


(* ------------------------------------------------------------------ *)
(* Three-phase commit (non-blocking)                                  *)
(* ------------------------------------------------------------------ *)

let tpc3_setup ?(n = 3) ?(votes = fun ~me:_ ~txn:_ -> true) () =
  let e = Engine.create ~seed:5 () in
  let net = Network.create e ~n Network.default_config in
  let decisions = Hashtbl.create 8 in
  let group =
    Core.Three_phase_commit.create_group net ~nodes:(List.init n Fun.id)
      ~vote:votes
      ~learn:(fun ~me ~txn d -> Hashtbl.replace decisions (me, txn) d)
      ()
  in
  (e, net, group, decisions)

let test_3pc_all_yes_commits () =
  let e, _net, group, decisions = tpc3_setup () in
  let outcome = ref None in
  Core.Three_phase_commit.start group ~coordinator:0 ~participants:[ 0; 1; 2 ]
    ~txn:1 ~on_complete:(fun d -> outcome := Some d);
  ignore (Engine.run ~until:(Simtime.of_sec 2.) e);
  Alcotest.(check bool) "committed" true
    (!outcome = Some Core.Three_phase_commit.Commit);
  List.iter
    (fun me ->
      Alcotest.(check bool)
        (Printf.sprintf "participant %d learned commit" me)
        true
        (Hashtbl.find_opt decisions (me, 1)
        = Some Core.Three_phase_commit.Commit))
    [ 0; 1; 2 ]

let test_3pc_one_no_aborts () =
  let votes ~me ~txn:_ = me <> 2 in
  let e, _net, group, decisions = tpc3_setup ~votes () in
  let outcome = ref None in
  Core.Three_phase_commit.start group ~coordinator:0 ~participants:[ 0; 1; 2 ]
    ~txn:1 ~on_complete:(fun d -> outcome := Some d);
  ignore (Engine.run ~until:(Simtime.of_sec 2.) e);
  Alcotest.(check bool) "aborted" true
    (!outcome = Some Core.Three_phase_commit.Abort);
  Alcotest.(check bool) "all learn abort" true
    (List.for_all
       (fun me ->
         Hashtbl.find_opt decisions (me, 1) = Some Core.Three_phase_commit.Abort)
       [ 0; 1; 2 ])

let test_3pc_nonblocking_uncertain_aborts () =
  (* The coordinator crashes before any pre-commit: all survivors are
     uncertain, so — unlike 2PC, which blocks forever here — they elect a
     recovery coordinator and ABORT on their own. *)
  let e, net, group, decisions = tpc3_setup () in
  Core.Three_phase_commit.start group ~coordinator:0 ~participants:[ 0; 1; 2 ]
    ~txn:1 ~on_complete:(fun _ -> ());
  Network.crash net 0;
  ignore (Engine.run ~until:(Simtime.of_sec 10.) e);
  List.iter
    (fun me ->
      Alcotest.(check bool)
        (Printf.sprintf "survivor %d terminated with abort" me)
        true
        (Hashtbl.find_opt decisions (me, 1) = Some Core.Three_phase_commit.Abort))
    [ 1; 2 ]

let test_3pc_nonblocking_precommit_commits () =
  (* The coordinator crashes after pre-commits went out: survivors see a
     pre-committed state and terminate with COMMIT. *)
  let e, net, group, decisions = tpc3_setup () in
  Core.Three_phase_commit.start group ~coordinator:0 ~participants:[ 0; 1; 2 ]
    ~txn:1 ~on_complete:(fun _ -> ());
  (* Let votes and pre-commits flow, then kill the coordinator before it
     can send DoCommit. *)
  ignore
    (Engine.schedule e ~after:(Simtime.of_ms 3) (fun () -> Network.crash net 0));
  ignore (Engine.run ~until:(Simtime.of_sec 10.) e);
  match
    (Hashtbl.find_opt decisions (1, 1), Hashtbl.find_opt decisions (2, 1))
  with
  | Some d1, Some d2 ->
      Alcotest.(check bool) "both terminated" true true;
      Alcotest.(check bool) "agreement" true (d1 = d2)
  | _ -> Alcotest.fail "a survivor blocked — 3PC must not block"

(* ------------------------------------------------------------------ *)
(* Certification                                                      *)
(* ------------------------------------------------------------------ *)

let test_certification_commit_and_abort () =
  let kv = Store.Kv.create () in
  ignore (Store.Kv.write kv "x" 1);
  let cert = Core.Certification.create kv in
  (* T1 read x@1, writes y. Nothing changed x since: commits. *)
  (match
     Core.Certification.offer cert ~reads:[ ("x", 1) ]
       ~writes:[ ("y", 10, 0) ]
   with
  | Some installed ->
      Alcotest.(check (list (triple string int int)))
        "fresh version assigned" [ ("y", 10, 1) ] installed
  | None -> Alcotest.fail "expected commit");
  (* T2 also read x@1 and writes x: still current, commits, x -> v2. *)
  Alcotest.(check bool) "second commits" true
    (Core.Certification.offer cert ~reads:[ ("x", 1) ] ~writes:[ ("x", 5, 0) ]
    <> None);
  (* T3 read x@1, but x is now @2: aborts. *)
  Alcotest.(check bool) "stale read aborts" true
    (Core.Certification.offer cert ~reads:[ ("x", 1) ] ~writes:[ ("z", 1, 0) ]
    = None);
  Alcotest.(check (pair int int)) "counters" (2, 1)
    (Core.Certification.committed cert, Core.Certification.aborted cert)

(* ------------------------------------------------------------------ *)
(* Reconciliation                                                     *)
(* ------------------------------------------------------------------ *)

let test_reconciliation_converges_replicas () =
  (* Two replicas commit conflicting writes locally, then both apply the
     after-commit order: they must converge to identical stores. *)
  let kv_a = Store.Kv.create () and kv_b = Store.Kv.create () in
  let rc_a = Core.Reconciliation.create kv_a in
  let rc_b = Core.Reconciliation.create kv_b in
  (* Local commits diverge. *)
  ignore (Store.Kv.write kv_a "x" 10);
  Core.Reconciliation.local_commit rc_a ~tid:1 ~writes:[ ("x", 10, 1) ];
  ignore (Store.Kv.write kv_b "x" 20);
  Core.Reconciliation.local_commit rc_b ~tid:2 ~writes:[ ("x", 20, 1) ];
  Alcotest.(check bool) "diverged before reconciliation" false
    (Store.Kv.equal kv_a kv_b);
  (* Same after-commit order at both. *)
  List.iter
    (fun rc ->
      ignore (Core.Reconciliation.deliver rc ~tid:1 ~writes:[ ("x", 10, 1) ]);
      ignore (Core.Reconciliation.deliver rc ~tid:2 ~writes:[ ("x", 20, 1) ]))
    [ rc_a; rc_b ];
  Alcotest.(check bool) "converged" true (Store.Kv.equal kv_a kv_b);
  Alcotest.(check (pair int int)) "last writer wins" (20, 2)
    (Store.Kv.read kv_a "x");
  (* The conflict surfaces at B: T1 (foreign there) arrived while B's own
     T2 was still outstanding. A sees T2 only after its own T1 was already
     globally ordered, which is a plain overwrite, not a conflict. *)
  Alcotest.(check int) "conflict detected at B" 1
    (Core.Reconciliation.conflicts rc_b);
  Alcotest.(check int) "no conflict at A" 0 (Core.Reconciliation.conflicts rc_a)

let test_reconciliation_no_conflict_when_disjoint () =
  let kv = Store.Kv.create () in
  let rc = Core.Reconciliation.create kv in
  ignore (Store.Kv.write kv "x" 1);
  Core.Reconciliation.local_commit rc ~tid:1 ~writes:[ ("x", 1, 1) ];
  ignore (Core.Reconciliation.deliver rc ~tid:2 ~writes:[ ("y", 5, 1) ]);
  ignore (Core.Reconciliation.deliver rc ~tid:1 ~writes:[ ("x", 1, 1) ]);
  Alcotest.(check int) "no conflicts" 0 (Core.Reconciliation.conflicts rc);
  Alcotest.(check int) "outstanding drained" 0
    (Core.Reconciliation.outstanding_count rc)

(* ------------------------------------------------------------------ *)
(* Convergence                                                        *)
(* ------------------------------------------------------------------ *)

let test_convergence () =
  let a = Store.Kv.create () and b = Store.Kv.create () in
  ignore (Store.Kv.write a "x" 1);
  ignore (Store.Kv.write b "x" 1);
  Alcotest.(check bool) "converged" true (Core.Convergence.converged [ a; b ]);
  ignore (Store.Kv.write b "y" 2);
  Alcotest.(check bool) "not converged" false
    (Core.Convergence.converged [ a; b ]);
  Alcotest.(check int) "one stale item" 1 (Core.Convergence.stale_items a b);
  let diffs = Core.Convergence.diff a b in
  Alcotest.(check int) "one diff" 1 (List.length diffs)

(* ------------------------------------------------------------------ *)
(* Linearizability                                                    *)
(* ------------------------------------------------------------------ *)

let op key kind i r =
  {
    Core.Linearizability.key;
    kind;
    invoked = Simtime.of_ms i;
    responded = Simtime.of_ms r;
  }

let test_linearizable_history () =
  let h =
    [
      op "x" (Core.Linearizability.Write 1) 0 10;
      op "x" (Core.Linearizability.Read 1) 20 30;
      op "x" (Core.Linearizability.Write 2) 25 40;
      op "x" (Core.Linearizability.Read 2) 50 60;
    ]
  in
  Alcotest.(check bool) "linearizable" true (Core.Linearizability.check h)

let test_non_linearizable_stale_read () =
  (* The write of 2 completed before the read started, yet the read
     returns the old value: not linearizable. *)
  let h =
    [
      op "x" (Core.Linearizability.Write 1) 0 10;
      op "x" (Core.Linearizability.Write 2) 20 30;
      op "x" (Core.Linearizability.Read 1) 40 50;
    ]
  in
  Alcotest.(check bool) "stale read rejected" false
    (Core.Linearizability.check h)

let test_linearizable_concurrent_overlap () =
  (* Overlapping read may return either value. *)
  let h v =
    [
      op "x" (Core.Linearizability.Write 1) 0 10;
      op "x" (Core.Linearizability.Write 2) 20 40;
      op "x" (Core.Linearizability.Read v) 25 35;
    ]
  in
  Alcotest.(check bool) "old value ok while overlapping" true
    (Core.Linearizability.check (h 1));
  Alcotest.(check bool) "new value ok while overlapping" true
    (Core.Linearizability.check (h 2))

let test_linearizability_per_key () =
  let h =
    [
      op "x" (Core.Linearizability.Write 1) 0 10;
      op "y" (Core.Linearizability.Read 0) 20 30;
      op "x" (Core.Linearizability.Read 1) 20 30;
    ]
  in
  Alcotest.(check bool) "keys independent" true (Core.Linearizability.check h)


(* Cross-validation: Wing–Gong vs brute-force permutation search. *)
let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (fun y -> y != x) l)))
        l

let brute_force_linearizable (ops : Core.Linearizability.op list) =
  let respects_real_time order =
    let rec check = function
      | a :: rest ->
          List.for_all
            (fun b ->
              (* b may not have responded before a was invoked *)
              not Simtime.(b.Core.Linearizability.responded < a.Core.Linearizability.invoked))
            rest
          && check rest
      | [] -> true
    in
    check order
  in
  let register_ok order =
    let v = ref 0 in
    List.for_all
      (fun (op : Core.Linearizability.op) ->
        match op.kind with
        | Core.Linearizability.Write w ->
            v := w;
            true
        | Core.Linearizability.Read r -> r = !v)
      order
  in
  List.exists
    (fun order -> respects_real_time order && register_ok order)
    (permutations ops)

let prop_linearizability_matches_brute_force =
  QCheck.Test.make
    ~name:"Wing-Gong agrees with brute force on random histories" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Sim.Rng.create ~seed in
      let n = 3 + Sim.Rng.int rng 3 in
      let ops =
        List.init n (fun _ ->
            let invoked = Sim.Rng.int rng 50 in
            let responded = invoked + 1 + Sim.Rng.int rng 20 in
            {
              Core.Linearizability.key = "r";
              kind =
                (if Sim.Rng.bool rng then
                   Core.Linearizability.Write (1 + Sim.Rng.int rng 2)
                 else Core.Linearizability.Read (Sim.Rng.int rng 3));
              invoked = Simtime.of_ms invoked;
              responded = Simtime.of_ms responded;
            })
      in
      Core.Linearizability.check_key ops = brute_force_linearizable ops)

(* ------------------------------------------------------------------ *)
(* Sequential consistency                                             *)
(* ------------------------------------------------------------------ *)

let test_seq_consistent_but_not_linearizable () =
  (* Process 2 reads the old value after process 1's write completed in
     real time: sequentially consistent (real time is ignored). *)
  let histories =
    [
      [ Core.Seq_consistency.Write ("x", 1) ];
      [ Core.Seq_consistency.Read ("x", 0); Core.Seq_consistency.Read ("x", 1) ];
    ]
  in
  Alcotest.(check bool) "SC holds" true (Core.Seq_consistency.check histories)

let test_not_seq_consistent () =
  (* No interleaving lets both processes read each other's values in this
     pattern (classic SC violation). *)
  let histories =
    [
      [ Core.Seq_consistency.Write ("x", 1); Core.Seq_consistency.Read ("y", 0) ];
      [ Core.Seq_consistency.Write ("y", 1); Core.Seq_consistency.Read ("x", 0) ];
    ]
  in
  (* Note: this pattern IS actually SC-forbidden only with both reads
     returning 0 after both writes... verify our checker agrees with the
     exhaustive interleaving semantics. *)
  let expected =
    (* Brute force over interleavings of the 4 ops. *)
    let ops =
      [ `W ("x", 1, 0); `R ("y", 0, 0); `W ("y", 1, 1); `R ("x", 0, 1) ]
    in
    let rec interleavings acc rem =
      if rem = [] then [ List.rev acc ]
      else
        List.concat_map
          (fun op ->
            (* respect per-process order *)
            let proc = match op with `W (_, _, p) | `R (_, _, p) -> p in
            let earlier_same_proc =
              List.exists
                (fun op' ->
                  op' != op
                  && (match op' with `W (_, _, p) | `R (_, _, p) -> p) = proc
                  && List.exists (fun x -> x == op') rem
                  &&
                  (* op' comes before op in program order *)
                  let idx o = Option.get (List.find_index (fun x -> x == o) ops) in
                  idx op' < idx op)
                rem
            in
            if earlier_same_proc then []
            else interleavings (op :: acc) (List.filter (fun x -> x != op) rem))
          rem
    in
    List.exists
      (fun order ->
        let store = Hashtbl.create 4 in
        List.for_all
          (function
            | `W (k, v, _) ->
                Hashtbl.replace store k v;
                true
            | `R (k, v, _) ->
                Option.value ~default:0 (Hashtbl.find_opt store k) = v)
          order)
      (interleavings [] ops)
  in
  Alcotest.(check bool) "checker agrees with brute force" expected
    (Core.Seq_consistency.check histories)

(* ------------------------------------------------------------------ *)
(* Classify                                                           *)
(* ------------------------------------------------------------------ *)

let test_classify_matrices () =
  let infos = Protocols.Registry.infos in
  let ds_cells = Core.Classify.fig5_cells infos in
  let cell k = List.assoc k ds_cells in
  Alcotest.(check (list string)) "transparent+deterministic"
    [ "Active replication" ]
    (cell (true, true));
  Alcotest.(check bool) "semi-active transparent, no determinism" true
    (List.mem "Semi-active replication" (cell (true, false)));
  Alcotest.(check bool) "passive not transparent" true
    (List.mem "Passive replication" (cell (false, false)));
  let db_cells = Core.Classify.fig6_cells infos in
  let db k = List.assoc k db_cells in
  Alcotest.(check bool) "eager primary" true
    (List.mem "Eager primary copy" (db (Core.Technique.Eager, Core.Technique.Primary)));
  Alcotest.(check int) "eager update-everywhere cell has three entries" 3
    (List.length (db (Core.Technique.Eager, Core.Technique.Update_everywhere)));
  Alcotest.(check bool) "lazy ue" true
    (List.mem "Lazy update everywhere"
       (db (Core.Technique.Lazy, Core.Technique.Update_everywhere)))

let test_classify_sync_before_response () =
  List.iter
    (fun (i : Core.Technique.info) ->
      (* Paper, Figure 15 discussion: strong consistency iff an SC and/or
         AC step happens before END. *)
      Alcotest.(check bool)
        (i.name ^ " sync-before-response iff strong")
        i.strong_consistency
        (Core.Classify.has_sync_before_response i.expected_phases))
    Protocols.Registry.infos

let test_classify_fig15 () =
  let strong =
    List.filter
      (fun (i : Core.Technique.info) -> i.strong_consistency)
      Protocols.Registry.infos
  in
  let combos =
    Core.Classify.fig15_combinations
      (List.map (fun (i : Core.Technique.info) -> i.expected_phases) strong)
  in
  (* The paper's Figure 15: exactly three strong-consistency shapes. *)
  Alcotest.(check int) "three combinations" 3 (List.length combos)

let () =
  Alcotest.run "core"
    [
      ( "phase",
        [
          tc "codes" test_phase_codes;
          tc "trace sequence" test_phase_trace_sequence;
          tc "loops and signatures" test_phase_trace_loop_and_signature;
          tc "noted opening mark" test_marks_noted_opening;
          tc "same instant, other replica" test_marks_same_instant_other_replica;
          tc "resubmission" test_marks_resubmission;
        ] );
      ( "2pc",
        [
          tc "all yes commits" test_2pc_all_yes_commits;
          tc "one no aborts" test_2pc_one_no_aborts;
          tc "participant crash + timeout" test_2pc_participant_crash_timeout_aborts;
          tc "blocks without timeout" test_2pc_blocks_without_timeout;
          tc "coordinator crash blocks" test_2pc_coordinator_crash_blocks_participants;
        ] );
      ( "3pc",
        [
          tc "all yes commits" test_3pc_all_yes_commits;
          tc "one no aborts" test_3pc_one_no_aborts;
          tc "non-blocking: uncertain -> abort" test_3pc_nonblocking_uncertain_aborts;
          tc "non-blocking: precommitted -> commit" test_3pc_nonblocking_precommit_commits;
        ] );
      ("certification", [ tc "commit and abort" test_certification_commit_and_abort ]);
      ( "reconciliation",
        [
          tc "converges replicas" test_reconciliation_converges_replicas;
          tc "disjoint no conflict" test_reconciliation_no_conflict_when_disjoint;
        ] );
      ("convergence", [ tc "basics" test_convergence ]);
      ( "linearizability",
        [
          tc "linearizable" test_linearizable_history;
          tc "stale read" test_non_linearizable_stale_read;
          tc "concurrent overlap" test_linearizable_concurrent_overlap;
          tc "per key" test_linearizability_per_key;
          QCheck_alcotest.to_alcotest prop_linearizability_matches_brute_force;
        ] );
      ( "seq-consistency",
        [
          tc "sc but not linearizable" test_seq_consistent_but_not_linearizable;
          tc "brute force agreement" test_not_seq_consistent;
        ] );
      ( "classify",
        [
          tc "matrices" test_classify_matrices;
          tc "sync before response" test_classify_sync_before_response;
          tc "figure 15" test_classify_fig15;
        ] );
    ]
