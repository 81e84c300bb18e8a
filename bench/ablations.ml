(* Ablations of the substrate design choices:

   abl1  ordering engine: sequencer-based vs consensus-based ABCAST
   abl2  read-one/write-all vs lock-at-all-replicas (quorum discussion, §5.4.1)
   abl3  failure-detector timeout vs failover stall (synchrony assumption, §2.1)
   abl4  consensus latency under message loss (stubborn channels at work)
   abl5  optimistic atomic broadcast: spontaneous vs total order
   abl6  optimistic certification hidden inside the ordering protocol
   abl7  lock quorums in eager-UE locking (§5.4.1)

   Each is an [Exp] declaration and writes BENCH_ablN.json with the
   numbers its table prints. *)

open Sim

(* --- abl1 -------------------------------------------------------------- *)

let abcast_engines =
  Exp.v "abl1"
    "ABCAST engine: sequencer (2 message delays) vs consensus-based (CT \
     rounds)"
    ~reading:
      "the sequencer is cheaper in the common case; both recover\n\
       from the crash of the ordering node in about the detection time."
  @@ fun x ->
  let spec = Workload.Builder.spec ~updates:1.0 ~txns:30 () in
  Fmt.pr "%-22s %14s %18s@." "engine" "lat mean (ms)" "crash gap (ms)";
  List.iter
    (fun (name, impl) ->
      let factory = Exp.factory "active" ~set:[ ("abcast_impl", impl) ] in
      let smooth = Workload.Runner.run ~net:Exp.net ~n_clients:2 ~spec factory in
      let crashed =
        Workload.Runner.run ~net:Exp.net ~n_clients:2 ~spec
          ~faults:[ Workload.Runner.Crash { at = Simtime.of_ms 100; replica = 0 } ]
          factory
      in
      let note =
        Exp.note x ~technique:"active" ~unit_:"ms"
          ~params:[ ("abcast_impl", impl) ]
      in
      let mean = note ~metric:"latency_mean" smooth.latency_ms.mean in
      let gap =
        note ~metric:"max_response_gap" (Simtime.to_ms crashed.max_response_gap)
      in
      Fmt.pr "%-22s %14.2f %18.1f@." name mean gap)
    [ ("sequencer", "sequencer"); ("consensus-based", "consensus") ]

(* --- abl2 -------------------------------------------------------------- *)

let rowa =
  Exp.v "abl2"
    "Eager-UE locking: read-one/write-all vs locks at every replica"
    ~reading:
      "ROWA pays off exactly on read-heavy mixes — the quorum\n\
       choice is orthogonal to the phase structure (paper §5.4.1)."
  @@ fun x ->
  Fmt.pr "%-22s %12s %14s %12s@." "configuration" "upd ratio" "lat mean (ms)"
    "msgs/txn";
  List.iter
    (fun read_one_write_all ->
      let rowa = ("read_one_write_all", string_of_bool read_one_write_all) in
      let factory = Exp.factory "eager-ue-locking" ~set:[ rowa ] in
      List.iter
        (fun update_ratio ->
          let spec =
            Workload.Builder.spec ~updates:update_ratio ~txns:25 ~keys:200 ()
          in
          let result =
            Workload.Runner.run ~net:Exp.net ~n_clients:2 ~spec factory
          in
          let ratio = ("update_ratio", Printf.sprintf "%.1f" update_ratio) in
          let note =
            Exp.note x ~technique:"eager-ue-locking" ~params:[ rowa; ratio ]
          in
          let mean =
            note ~metric:"latency_mean" ~unit_:"ms" result.latency_ms.mean
          in
          let msgs =
            note ~metric:"messages_per_txn" ~unit_:"msgs"
              result.messages_per_txn
          in
          Fmt.pr "%-22s %12.0f%% %14.2f %12.1f@."
            (if read_one_write_all then "read-one/write-all" else "lock-everywhere")
            (100. *. update_ratio) mean msgs)
        [ 0.1; 0.5; 0.9 ])
    [ false; true ]

(* --- abl3 -------------------------------------------------------------- *)

let fd_timeout =
  Exp.v "abl3"
    "Failure-detector timeout vs ordering stall after a sequencer crash"
    ~reading:
      "the stall tracks the detection timeout — the aggressive\n\
       timeouts that semi-passive replication is designed to make safe (§3.5)."
  @@ fun x ->
  Fmt.pr "%-18s %20s@." "fd timeout (ms)" "delivery stall (ms)";
  List.iter
    (fun timeout_ms ->
      let engine = Engine.create ~seed:17 () in
      let net = Network.create engine ~n:3 Exp.net in
      let members = [ 0; 1; 2 ] in
      let fd =
        Group.Fd.create_group net ~members
          ~timeout:(Simtime.of_ms timeout_ms)
          ~heartbeat_every:(Simtime.of_ms (max 5 (timeout_ms / 5)))
          ()
      in
      let group = Group.Abcast.create_group net ~members ~fd () in
      (* Member 1 broadcasts steadily; the sequencer (member 0) crashes. *)
      let rec steady () =
        ignore
          (Engine.schedule engine ~after:(Simtime.of_ms 2) (fun () ->
               Group.Abcast.broadcast (Group.Abcast.handle group ~me:1)
                 (Msg.Ping 0);
               steady ()))
      in
      steady ();
      ignore
        (Engine.schedule engine ~after:(Simtime.of_ms 100) (fun () ->
             Network.crash net 0));
      (* Track the largest inter-delivery gap seen at member 1. *)
      let max_gap = ref Simtime.zero in
      let prev = ref Simtime.zero in
      Group.Abcast.on_deliver
        (Group.Abcast.handle group ~me:1)
        (fun ~origin:_ _ ->
          let now = Engine.now engine in
          let gap = Simtime.sub now !prev in
          if Simtime.(gap > !max_gap) then max_gap := gap;
          prev := now);
      ignore (Engine.run ~until:(Simtime.of_sec 3.) engine);
      Fmt.pr "%-18d %20.1f@." timeout_ms
        (Exp.note x ~metric:"delivery_stall" ~technique:"abcast" ~unit_:"ms"
           ~params:[ ("fd_timeout_ms", string_of_int timeout_ms) ]
           (Simtime.to_ms !max_gap)))
    [ 50; 100; 200; 400 ]

(* --- abl4 -------------------------------------------------------------- *)

module Cint = Group.Consensus.Make (struct
  type t = int
end)

let consensus_under_loss =
  Exp.v "abl4" "Consensus decision latency vs message loss"
    ~reading:
      "stubborn channels mask loss at the cost of latency;\n\
       agreement is never violated (see the qcheck suites)."
  @@ fun x ->
  Fmt.pr "%-14s %18s@." "drop prob" "decide time (ms)";
  List.iter
    (fun drop ->
      let engine = Engine.create ~seed:23 () in
      let config = { Network.default_config with Network.drop_probability = drop } in
      let net = Network.create engine ~n:3 config in
      let members = [ 0; 1; 2 ] in
      let fd = Group.Fd.create_group net ~members () in
      let group =
        Cint.create_group net ~members ~fd ~rto:(Simtime.of_ms 5) ()
      in
      let decided_at = ref None in
      List.iter
        (fun m ->
          let h = Cint.handle group ~me:m in
          Cint.on_decide h (fun ~instance:_ _ ->
              if !decided_at = None then decided_at := Some (Engine.now engine));
          Cint.propose h ~instance:0 m)
        members;
      ignore (Engine.run ~until:(Simtime.of_sec 30.) engine);
      match !decided_at with
      | Some t ->
          Fmt.pr "%-14.1f %18.1f@." drop
            (Exp.note x ~metric:"decide_time" ~technique:"consensus"
               ~unit_:"ms" ~params:[ ("drop_p", Printf.sprintf "%.1f" drop) ]
               (Simtime.to_ms t))
      | None -> Fmt.pr "%-14.1f %18s@." drop "no decision")
    [ 0.0; 0.1; 0.2; 0.4 ]


(* --- abl5 -------------------------------------------------------------- *)

let optimistic_delivery =
  Exp.v "abl5"
    "Optimistic atomic broadcast (KPAS99a): spontaneous vs total order"
    ~reading:
      "with low jitter the spontaneous order nearly always equals\n\
       the total order, so work started at optimistic delivery is almost\n\
       never wasted — the window is the time the paper's follow-up work\n\
       hides transaction execution in."
  @@ fun x ->
  Fmt.pr "%-22s %14s %18s@." "latency jitter" "order match"
    "overlap window (ms)";
  List.iter
    (fun (label, lo_us, hi_us) ->
      let engine = Engine.create ~seed:31 () in
      let config =
        {
          Exp.net with
          Network.latency =
            Network.Uniform (Simtime.of_us lo_us, Simtime.of_us hi_us);
        }
      in
      let net = Network.create engine ~n:3 config in
      let members = [ 0; 1; 2 ] in
      let group = Group.Abcast.create_group net ~members () in
      (* Timestamps of optimistic and final delivery at member 2 — a
         follower, whose spontaneous order can genuinely diverge from the
         sequencer's total order. *)
      let opt_time = Hashtbl.create 64 in
      let h0 = Group.Abcast.handle group ~me:2 in
      Group.Abcast.on_opt_deliver h0 (fun ~origin msg ->
          match msg with
          | Msg.Ping k -> Hashtbl.replace opt_time (origin, k) (Engine.now engine)
          | _ -> ());
      let windows = ref [] in
      Group.Abcast.on_deliver h0 (fun ~origin msg ->
          match msg with
          | Msg.Ping k -> (
              match Hashtbl.find_opt opt_time (origin, k) with
              | Some t ->
                  windows :=
                    Simtime.to_ms (Simtime.sub (Engine.now engine) t) :: !windows
              | None -> ())
          | _ -> ());
      (* Three senders broadcast interleaved. *)
      List.iter
        (fun m ->
          let h = Group.Abcast.handle group ~me:m in
          for k = 0 to 49 do
            ignore
              (Engine.schedule engine
                 ~after:(Simtime.of_us ((k * 120) + (m * 37)))
                 (fun () -> Group.Abcast.broadcast h (Msg.Ping k)))
          done)
        members;
      ignore (Engine.run ~until:(Simtime.of_sec 30.) engine);
      let opt = Array.of_list (Group.Abcast.opt_delivered h0) in
      let final = Array.of_list (Group.Abcast.delivered h0) in
      (* Pairwise order agreement (Kendall-tau style): the fraction of
         message pairs ordered identically in both sequences — pairs
         ordered the same are exactly the optimistic work that survives
         the definitive order. *)
      let position arr =
        let tbl = Hashtbl.create 256 in
        Array.iteri (fun i id -> Hashtbl.replace tbl id i) arr;
        tbl
      in
      let opt_pos = position opt in
      let agree = ref 0 and total = ref 0 in
      let n = Array.length final in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          match
            (Hashtbl.find_opt opt_pos final.(i), Hashtbl.find_opt opt_pos final.(j))
          with
          | Some pi, Some pj ->
              incr total;
              if pi < pj then incr agree
          | _ -> ()
        done
      done;
      let note = Exp.note x ~technique:"abcast" ~params:[ ("jitter", label) ] in
      let match_rate =
        note ~metric:"order_match" ~unit_:"%"
          (if !total = 0 then 0.
           else 100. *. float_of_int !agree /. float_of_int !total)
      in
      let mean_window =
        note ~metric:"overlap_window" ~unit_:"ms"
          (match !windows with
          | [] -> 0.
          | ws -> List.fold_left ( +. ) 0. ws /. float_of_int (List.length ws))
      in
      Fmt.pr "%-22s %13.0f%% %18.2f@." label match_rate mean_window)
    [
      ("none (constant)", 1_000, 1_000);
      ("moderate (0.5-1.5ms)", 500, 1_500);
      ("high (0.1-3ms)", 100, 3_000);
      ("extreme (0.1-10ms)", 100, 10_000);
    ]


(* --- abl6 -------------------------------------------------------------- *)

let optimistic_certification =
  Exp.v "abl6"
    "Optimistic certification: hiding the certification cost inside the \
     ordering protocol (KPAS99a)"
    ~reading:
      "while the certification cost fits in the ordering overlap\n\
       window its latency vanishes (the KPAS99a result); beyond it, invalidated\n\
       pre-checks waste the serial certifier and optimism backfires — optimism\n\
       pays exactly when the spontaneous order is usually definitive (abl5)."
  @@ fun x ->
  Fmt.pr "%-18s %22s %22s %10s@." "certify cost (ms)" "classic lat (ms)"
    "optimistic lat (ms)" "saved";
  let spec = Workload.Builder.spec ~updates:1.0 ~txns:30 ~keys:500 () in
  List.iter
    (fun certify_ms ->
      let cost = ("certify_ms", Printf.sprintf "%.1f" certify_ms) in
      let note = Exp.note x ~technique:"certification" in
      let measure optimistic =
        let optimistic = ("optimistic", string_of_bool optimistic) in
        let factory =
          Exp.factory "certification"
            ~set:
              [
                ( "certify_time",
                  Printf.sprintf "%dus" (int_of_float (certify_ms *. 1000.)) );
                optimistic;
              ]
        in
        let result =
          Workload.Runner.run ~net:Exp.net ~n_clients:2 ~spec factory
        in
        note ~metric:"latency_mean" ~unit_:"ms" ~params:[ cost; optimistic ]
          result.latency_ms.mean
      in
      let classic = measure false in
      let opt = measure true in
      let saved =
        note ~metric:"saved" ~unit_:"%" ~params:[ cost ]
          (100. *. (classic -. opt) /. classic)
      in
      Fmt.pr "%-18.1f %22.2f %22.2f %9.0f%%@." certify_ms classic opt saved)
    [ 0.5; 1.0; 2.0; 4.0 ]


(* --- abl7 -------------------------------------------------------------- *)

let lock_quorums =
  Exp.v "abl7"
    "Lock quorums in eager-UE locking (paper §5.4.1): quorum size vs \
     latency and messages"
    ~reading:
      "smaller (still intersecting) quorums trim the lock round;\n\
       the phase structure — and the serialisable outcome — are unchanged."
  @@ fun x ->
  Fmt.pr "%-18s %14s %12s %10s@." "lock sites" "lat mean (ms)" "msgs/txn"
    "aborted";
  let spec = Workload.Builder.spec ~updates:1.0 ~txns:25 ~keys:100 () in
  List.iter
    (fun (label, lock_quorum, n) ->
      let factory =
        Exp.factory "eager-ue-locking"
          ~set:[ ("lock_quorum", lock_quorum) ]
      in
      let r =
        Workload.Runner.run ~net:Exp.net ~n_replicas:n ~n_clients:3 ~spec
          factory
      in
      let params = [ ("lock_quorum", lock_quorum); ("n", string_of_int n) ] in
      let note = Exp.note x ~technique:"eager-ue-locking" ~params in
      let mean = note ~metric:"latency_mean" ~unit_:"ms" r.latency_ms.mean in
      let msgs =
        note ~metric:"messages_per_txn" ~unit_:"msgs" r.messages_per_txn
      in
      let aborted =
        Exp.count x ~metric:"aborted" ~technique:"eager-ue-locking"
          ~unit_:"txns" ~params r.aborted
      in
      Fmt.pr "%-18s %14.2f %12.1f %10d@." label mean msgs aborted)
    [
      ("all of 5", "none", 5);
      ("4 of 5", "4", 5);
      ("3 of 5 (majority)", "3", 5);
      ("all of 3", "none", 3);
      ("2 of 3 (majority)", "2", 3);
    ]

let all =
  [
    abcast_engines;
    rowa;
    fd_timeout;
    consensus_under_loss;
    optimistic_delivery;
    optimistic_certification;
    lock_quorums;
  ]
