open Sim

type event = Runner.fault =
  | Crash of { at : Simtime.t; replica : int }
  | Recover of { at : Simtime.t; replica : int }
  | Partition of { at : Simtime.t; group : int list; heal_at : Simtime.t }
  | Loss of { at : Simtime.t; probability : float; until : Simtime.t }

type t = { name : string; description : string; events : event list }

let apply t net = Runner.schedule_faults net t.events

let has_crash t =
  List.exists (function Crash _ -> true | _ -> false) t.events

let has_partition t =
  List.exists (function Partition _ -> true | _ -> false) t.events

(* A replica leaves and comes back: either a crash-recover pair or a
   partition that heals. The convergence oracle only becomes interesting
   (recovered copy must catch up) when this holds. *)
let has_rejoin t =
  List.exists (function Recover _ -> true | _ -> false) t.events
  || has_partition t

let bursts ~from ~probability ~burst ~gap ~count =
  List.init count (fun i ->
      let at = Simtime.add from (Simtime.mul (Simtime.add burst gap) i) in
      Loss { at; probability; until = Simtime.add at burst })

(* Built-in library. Times assume the campaign cluster: 3 replicas
   (0–2), traffic starting at t=0 and running for a few hundred ms.
   Replica 0 is the interesting victim (primary / sequencer / first
   delegate in every technique); replica 2 serves no client in the
   3-replica, 2-client shape, so isolating it exercises catch-up rather
   than availability. *)
let builtins =
  [
    {
      name = "crash";
      description = "replica 0 (primary/sequencer) crashes at 100 ms, stays down";
      events = [ Crash { at = Simtime.of_ms 100; replica = 0 } ];
    };
    {
      name = "crash-recover";
      description = "replica 0 crashes at 100 ms, recovers at 600 ms";
      events =
        [
          Crash { at = Simtime.of_ms 100; replica = 0 };
          Recover { at = Simtime.of_ms 600; replica = 0 };
        ];
    };
    {
      name = "backup-crash-recover";
      description = "replica 2 (no client attached) crashes at 100 ms, recovers at 600 ms";
      events =
        [
          Crash { at = Simtime.of_ms 100; replica = 2 };
          Recover { at = Simtime.of_ms 600; replica = 2 };
        ];
    };
    {
      name = "partition-heal";
      description = "replica 2 isolated from 50 ms to 600 ms, then healed";
      events =
        [
          Partition
            {
              at = Simtime.of_ms 50;
              group = [ 2 ];
              heal_at = Simtime.of_ms 600;
            };
        ];
    };
    {
      name = "loss";
      description = "sustained 5 % message loss for the whole run";
      events =
        [
          Loss
            {
              at = Simtime.zero;
              probability = 0.05;
              until = Simtime.infinity;
            };
        ];
    };
    {
      name = "burst-loss";
      description = "three 100 ms bursts of 30 % loss, 100 ms apart";
      events =
        bursts ~from:(Simtime.of_ms 50) ~probability:0.3
          ~burst:(Simtime.of_ms 100) ~gap:(Simtime.of_ms 100) ~count:3;
    };
    {
      name = "chaos";
      description =
        "composed: replica 1 crash-recovers (100–500 ms), replica 2 \
         partitioned (600–900 ms), 2 % background loss";
      events =
        [
          Crash { at = Simtime.of_ms 100; replica = 1 };
          Recover { at = Simtime.of_ms 500; replica = 1 };
          Partition
            {
              at = Simtime.of_ms 600;
              group = [ 2 ];
              heal_at = Simtime.of_ms 900;
            };
          Loss
            {
              at = Simtime.zero;
              probability = 0.02;
              until = Simtime.infinity;
            };
        ];
    };
  ]

let find name = List.find_opt (fun s -> String.equal s.name name) builtins

(* ------------------------------------------------------------------ *)
(* Expectations                                                       *)
(* ------------------------------------------------------------------ *)

type expectation = {
  transparent : bool;
  may_block : bool;
  strong : bool;
  recovers : bool;
  signatures : Core.Phase.t list list;
}

(* Techniques whose agreement round is an atomic-commitment protocol
   (2PC): prepared participants can block while the coordinator is
   down — the paper's §2.1 "databases accept blocking protocols". *)
let uses_2pc key =
  List.mem key [ "eager-primary"; "eager-ue-locking" ]

(* Techniques with a catch-up path for a replica that was away: passive
   rejoins through a view change with state transfer; the ABCAST-based
   techniques replay missed deliveries (sequencer anti-entropy / a
   consensus instance joined late); semi-passive replays decided consensus
   instances; eager-primary and eager-UE locking run a state transfer
   on rejoin; lazy-UE re-broadcasts its redo log. Lazy primary copy is
   the exception: a recovered primary resumes ownership from its stale
   copy, and updates that only reached the backups stay stranded there
   — the classic lazy lost-update window (paper §4.5). *)
let catches_up key = not (String.equal key "lazy-primary")

let remove_phase p = List.filter (fun q -> not (Core.Phase.equal p q))

let expectation ~key (info : Core.Technique.info) scenario =
  let base = info.expected_phases in
  let signatures =
    (* Semi-active's AC happens per non-deterministic choice; campaign
       requests are deterministic, so the AC-less row is equally
       conformant. Lazy techniques promise only that the response is not
       gated on AC — when the optimistic reply is lost and the client's
       resubmission is answered from the cache, propagation has already
       begun and AC legitimately precedes the observed END, so the
       swapped row is acceptable too. Under a crash the truncated row is
       acceptable: a transaction committed just before its delegate
       crashes may never get to propagate. *)
    let alts =
      (if String.equal key "semi-active" then
         [ remove_phase Core.Phase.Agreement_coordination base ]
       else [])
      @ (if info.propagation = Core.Technique.Lazy then
           let body =
             base
             |> remove_phase Core.Phase.Agreement_coordination
             |> remove_phase Core.Phase.Response
           in
           [ body @ [ Core.Phase.Agreement_coordination; Core.Phase.Response ] ]
         else [])
      @
      if info.propagation = Core.Technique.Lazy && has_crash scenario then
        [ remove_phase Core.Phase.Agreement_coordination base ]
      else []
    in
    base :: alts
  in
  {
    transparent = info.failure_transparent;
    may_block = uses_2pc key && (has_crash scenario || has_partition scenario);
    strong = info.strong_consistency;
    recovers = (catches_up key || not (has_rejoin scenario));
    signatures;
  }

(* ------------------------------------------------------------------ *)
(* Oracles                                                            *)
(* ------------------------------------------------------------------ *)

let signature_equal a b =
  List.length a = List.length b && List.for_all2 Core.Phase.equal a b

let oracles ~key (info : Core.Technique.info) scenario
    (result : Runner.result) (inst : Core.Technique.instance) =
  let e = expectation ~key info scenario in
  let serializable =
    Verdict.v "serializable"
      ((not e.strong) || result.Runner.serializable)
      (Printf.sprintf "1SR=%b (required=%b)" result.Runner.serializable
         e.strong)
  in
  let convergence =
    Verdict.v "convergence"
      (result.Runner.converged || not e.recovers)
      (Printf.sprintf "converged=%b (required=%b)" result.Runner.converged
         e.recovers)
  in
  let signatures =
    (* Every committed transaction that was answered must show an
       acceptable Figure-16 row in its span record. *)
    let spans = inst.Core.Technique.spans in
    let committed =
      List.map
        (fun (r : Store.History.record) -> r.Store.History.tid)
        (Store.History.records inst.Core.Technique.history)
    in
    let checked = ref 0 and bad = ref [] in
    List.iter
      (fun rid ->
        if Core.Phase_span.responded spans ~rid then begin
          incr checked;
          let observed = Core.Phase_span.signature spans ~rid in
          if not (List.exists (signature_equal observed) e.signatures) then
            bad := (rid, observed) :: !bad
        end)
      committed;
    Verdict.v "signatures" (!bad = [])
      (match !bad with
      | [] -> Printf.sprintf "%d committed rows conform" !checked
      | (rid, observed) :: _ ->
          Format.asprintf "%d/%d nonconforming, e.g. rid %d: %a"
            (List.length !bad) !checked rid Core.Phase.pp_sequence observed)
  in
  let liveness =
    Verdict.v "liveness"
      (result.Runner.unanswered = 0 || e.may_block)
      (Printf.sprintf "unanswered=%d (blocking %s)" result.Runner.unanswered
         (if e.may_block then "tolerated" else "forbidden"))
  in
  let transparency =
    Verdict.v "transparency"
      ((not e.transparent) || result.Runner.resubmissions = 0)
      (Printf.sprintf "resubmissions=%d (transparent=%b)"
         result.Runner.resubmissions e.transparent)
  in
  let drained =
    Verdict.v "drained" result.Runner.drained
      (if result.Runner.drained then "the event queue emptied"
       else "timers still queued at the hard stop")
  in
  [ serializable; convergence; signatures; liveness; transparency; drained ]

(* ------------------------------------------------------------------ *)
(* Resource-timeline check                                            *)
(* ------------------------------------------------------------------ *)

(* Intervals during which a detector finding is expected: a fault's
   active span plus [grace] for the protocol to drain afterwards. An
   unrecovered crash stays in effect forever. *)
let fault_windows ~grace events =
  List.filter_map
    (function
      | Crash { at; replica } ->
          let recover_at =
            List.find_map
              (function
                | Recover { at = r_at; replica = r }
                  when r = replica && Simtime.(r_at > at) ->
                    Some r_at
                | _ -> None)
              events
          in
          Some
            ( at,
              match recover_at with
              | Some r -> Simtime.add r grace
              | None -> Simtime.infinity )
      | Partition { at; heal_at; _ } -> Some (at, Simtime.add heal_at grace)
      | Loss { at; until; _ } -> Some (at, Simtime.add until grace)
      | Recover _ -> None)
    events

(* Group-stack backlogs that should visibly build while a partition cuts
   a member off and drain once it heals. *)
let backlog_names =
  [ "rchan_unacked"; "abcast_pending"; "abcast_undelivered"; "vscast_buffered" ]

(* The highest sample of [s] inside the window [(p_at, p_heal)], 0 when
   none falls inside. *)
let peak_in (p_at, p_heal) (s : Timeseries.series) =
  List.fold_left
    (fun acc (p : Timeseries.point) ->
      if Simtime.(p.at >= p_at && p.at <= p_heal) then Float.max acc p.value
      else acc)
    0. (Timeseries.points s)

(* The last sample of [s] at or before [at], 0 when none. *)
let level_at at (s : Timeseries.series) =
  List.fold_left
    (fun acc (p : Timeseries.point) ->
      if Simtime.(p.at <= at) then p.value else acc)
    0. (Timeseries.points s)

(* Some group-stack queue peaks inside the first partition at >= 2
   above the level it held when the partition began (entries an earlier
   crash left, say), and ends the (quiesced) run <= 1 above it. A
   partition that dropped no message ([partitioned] = 0) has nothing to
   queue, and is not judged. *)
let partition_backlog ~partitioned events series =
  let verdict = Verdict.v "partition_backlog" in
  let backlogs =
    List.filter
      (fun (s : Timeseries.series) ->
        s.kind = Timeseries.Queue && List.mem s.name backlog_names)
      series
  in
  let built_and_drained ((p_at, _) as window) (s : Timeseries.series) =
    let base = level_at p_at s in
    peak_in window s >= base +. 2.
    && match s.points_rev with [] -> true | p :: _ -> p.value <= base +. 1.
  in
  match
    List.find_map
      (function Partition { at; heal_at; _ } -> Some (at, heal_at) | _ -> None)
      events
  with
  | None -> verdict true "no partition scheduled"
  | Some _ when partitioned = 0 ->
      verdict true "the partition dropped no message"
  | Some _ when backlogs = [] ->
      verdict false "no group-stack queue series sampled"
  | Some window -> (
      match List.find_opt (built_and_drained window) backlogs with
      | Some s ->
          verdict true (s.name ^ " built up in the partition, drained later")
      | None ->
          verdict false
            "no group-stack queue built up (>= 2 above its level when the \
             partition began) during the partition and drained (<= 1 above \
             it) after heal")

let timeline_verdicts ~partitioned events series findings =
  let windows = fault_windows ~grace:(Simtime.of_ms 300) events in
  List.map
    (fun (f : Saturation.finding) ->
      let inside =
        List.exists
          (fun (w_start, w_end) ->
            Simtime.(f.at <= w_end && w_start <= f.until))
          windows
      in
      Verdict.v "fault_window" inside
        (Format.asprintf "finding %s any fault window: %a"
           (if inside then "inside" else "outside")
           Saturation.pp_finding f))
    findings
  @ [ partition_backlog ~partitioned events series ]

(* ------------------------------------------------------------------ *)
(* Campaign driver                                                    *)
(* ------------------------------------------------------------------ *)

type outcome = {
  technique : string;
  scenario : string;
  seed : int;
  result : Runner.result;
  verdicts : Verdict.t list;
  ok : bool;
}

let default_spec =
  {
    Spec.default with
    update_ratio = 1.0;
    txns_per_client = 25;
    think_time = Simtime.of_ms 2;
  }

let run_one ?(seed = 11) ?(n_replicas = 3) ?(spec = default_spec)
    ?(deadline = Simtime.of_sec 120.) ~key ~info ~factory scenario =
  let result, inst =
    Runner.run_with_instance ~seed ~n_replicas ~n_clients:2 ~deadline ~spec
      ~faults:scenario.events factory
  in
  let verdicts = oracles ~key info scenario result inst in
  {
    technique = key;
    scenario = scenario.name;
    seed;
    result;
    verdicts;
    ok = Verdict.failed verdicts = [];
  }

let run_campaign ?(seeds = [ 11 ]) ?n_replicas ?deadline ~techniques
    ~scenarios () =
  List.concat_map
    (fun scenario ->
      List.concat_map
        (fun (key, info, factory, spec) ->
          List.map
            (fun seed ->
              run_one ~seed ?n_replicas ~spec ?deadline ~key ~info ~factory
                scenario)
            seeds)
        techniques)
    scenarios

(* ------------------------------------------------------------------ *)
(* Reporting                                                          *)
(* ------------------------------------------------------------------ *)

let csv_header =
  "technique,scenario,seed,committed,aborted,unanswered,resubmissions,\
   messages_dropped,dropped_loss,dropped_crashed,dropped_partitioned,\
   max_response_gap_ms,converged,serializable,\
   serializable_ok,convergence_ok,signatures_ok,liveness_ok,\
   transparency_ok,ok"

let verdict_of outcome oracle =
  List.find (fun (v : Verdict.t) -> String.equal v.oracle oracle)
    outcome.verdicts

let csv_row o =
  let r = o.result in
  Printf.sprintf "%s,%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.2f,%b,%b,%b,%b,%b,%b,%b,%b"
    (Report.csv_escape o.technique)
    (Report.csv_escape o.scenario)
    o.seed r.Runner.committed r.Runner.aborted r.Runner.unanswered
    r.Runner.resubmissions r.Runner.dropped r.Runner.dropped_loss
    r.Runner.dropped_crashed r.Runner.dropped_partitioned
    (Simtime.to_ms r.Runner.max_response_gap)
    r.Runner.converged r.Runner.serializable
    (verdict_of o "serializable").ok (verdict_of o "convergence").ok
    (verdict_of o "signatures").ok (verdict_of o "liveness").ok
    (verdict_of o "transparency").ok o.ok

let to_csv ppf outcomes =
  Format.fprintf ppf "%s@." csv_header;
  List.iter (fun o -> Format.fprintf ppf "%s@." (csv_row o)) outcomes

let jsonl_row o =
  let r = o.result in
  let verdict (v : Verdict.t) =
    Json.(Obj [ ("oracle", Str v.oracle); ("ok", Bool v.ok); ("detail", Str v.detail) ])
  in
  (* The gap at the 0.01 ms it was always written with, rounded as
     [%.2f] rounds the float itself (not its product with 100). *)
  let gap = float_of_string (Printf.sprintf "%.2f" (Simtime.to_ms r.Runner.max_response_gap)) in
  Json.(
    to_string
      (Obj
         [ ("technique", Str o.technique); ("scenario", Str o.scenario); ("seed", Int o.seed);
           ("committed", Int r.Runner.committed); ("aborted", Int r.Runner.aborted);
           ("unanswered", Int r.Runner.unanswered); ("resubmissions", Int r.Runner.resubmissions);
           ("messages_dropped", Int r.Runner.dropped); ("dropped_loss", Int r.Runner.dropped_loss);
           ("dropped_crashed", Int r.Runner.dropped_crashed);
           ("dropped_partitioned", Int r.Runner.dropped_partitioned);
           ("max_response_gap_ms", Num gap); ("converged", Bool r.Runner.converged);
           ("serializable", Bool r.Runner.serializable); ("ok", Bool o.ok);
           ("verdicts", Arr (List.map verdict o.verdicts)) ]))

let pp_outcome ppf o =
  let r = o.result in
  Format.fprintf ppf
    "%-18s %-20s seed=%-4d %s  commit=%d abort=%d blocked=%d resubmit=%d \
     dropped=%d(loss=%d,crash=%d,part=%d) gap=%.1fms"
    o.technique o.scenario o.seed
    (if o.ok then "PASS" else "FAIL")
    r.Runner.committed r.Runner.aborted r.Runner.unanswered
    r.Runner.resubmissions r.Runner.dropped r.Runner.dropped_loss
    r.Runner.dropped_crashed r.Runner.dropped_partitioned
    (Simtime.to_ms r.Runner.max_response_gap);
  List.iter
    (fun (v : Verdict.t) ->
      if not v.ok then Format.fprintf ppf "@.    !! %s: %s" v.oracle v.detail)
    o.verdicts
