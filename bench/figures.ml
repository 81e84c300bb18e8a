(* Regenerates every figure of the paper from executed protocol traces.
   Figures 1-4 and 7-14 are phase timelines of single requests; figures 5,
   6, 15 and 16 are the classification views, derived from the technique
   metadata plus the observed signatures. *)

open Sim

(* Run one request through a freshly built instance; return the instance
   and the request id. *)
let run_single ?(n = 3) ?(ops = [ Store.Operation.Incr ("x", 1) ])
    ?(run_ms = 10_000) ~factory () =
  let engine = Engine.create ~seed:3 () in
  let net = Network.create engine ~n:(n + 1) Network.default_config in
  let replicas = List.init n Fun.id in
  let clients = [ n ] in
  let inst : Core.Technique.instance = factory net ~replicas ~clients in
  let request = Store.Operation.request net ~client:n ops in
  let reply = ref None in
  inst.Core.Technique.submit ~client:n request (fun r -> reply := Some r);
  ignore (Engine.run ~until:(Simtime.of_ms run_ms) engine);
  (inst, request.Store.Operation.rid, !reply)

(* Lane diagram in the style of the paper's figures: one lane per actor,
   phase codes placed on a scaled time axis. *)
let render_lanes marks =
  match marks with
  | [] -> ()
  | _ ->
      let t_max =
        List.fold_left
          (fun acc (m : Core.Phase_span.mark) -> max acc (Simtime.to_us m.time))
          1 marks
      in
      let width = 60 in
      let col t = t * (width - 4) / t_max in
      let actors =
        List.sort_uniq compare
          (List.map (fun (m : Core.Phase_span.mark) -> m.replica) marks)
      in
      (* Actor order: client first, then replicas ascending. *)
      let actors =
        List.sort
          (fun a b ->
            match (a, b) with
            | None, None -> 0
            | None, _ -> -1
            | _, None -> 1
            | Some x, Some y -> Int.compare x y)
          actors
      in
      Fmt.pr "  %-10s 0%s%s@." "" (String.make (width - 8) ' ')
        (Simtime.to_string (Simtime.of_us t_max));
      List.iter
        (fun actor ->
          let lane = Bytes.make width '.' in
          List.iter
            (fun (m : Core.Phase_span.mark) ->
              if m.replica = actor then begin
                let code = Core.Phase.code m.phase in
                let c = min (col (Simtime.to_us m.time)) (width - String.length code) in
                Bytes.blit_string code 0 lane c (String.length code)
              end)
            marks;
          let name =
            match actor with
            | None -> "client"
            | Some r -> Printf.sprintf "replica %d" r
          in
          Fmt.pr "  %-10s %s@." name (Bytes.to_string lane))
        actors;
      Fmt.pr "@."

let show_timeline ~(info : Core.Technique.info) inst rid =
  let spans = inst.Core.Technique.spans in
  let marks = Core.Phase_span.marks spans ~rid in
  let signature = Core.Phase_span.signature spans ~rid in
  let sequence = Core.Phase_span.sequence spans ~rid in
  Fmt.pr "technique : %s (paper §%s)@." info.name info.section;
  Fmt.pr "sequence  : %a@." Core.Phase.pp_sequence sequence;
  Fmt.pr "signature : %a   [paper row: %a]  %s@." Core.Phase.pp_sequence
    signature Core.Phase.pp_sequence info.expected_phases
    (if signature = info.expected_phases then "OK" else "** MISMATCH **");
  Fmt.pr "@.";
  render_lanes marks;
  Fmt.pr "  %-10s %-4s %-10s %s@." "time" "ph" "actor" "note";
  List.iter
    (fun (m : Core.Phase_span.mark) ->
      let actor =
        match m.replica with
        | None -> "client"
        | Some r -> Printf.sprintf "replica %d" r
      in
      Fmt.pr "  %-10s %-4s %-10s %s@."
        (Simtime.to_string m.time)
        (Core.Phase.code m.phase) actor m.note)
    marks;
  Fmt.pr "@."

(* ------------------------------------------------------------------ *)

let fig1 () =
  Exp.banner "Figure 1 — Functional model with the five phases";
  List.iter
    (fun p ->
      Fmt.pr "  %-4s %s@." (Core.Phase.code p) (Core.Phase.long_name p))
    Core.Phase.all;
  Fmt.pr
    "@.An abstract replication protocol is a sequence RE SC EX AC END;@.\
     techniques differ by skipping, merging, reordering or looping phases@.\
     (compare the signatures printed by the other figures).@."

let timeline_figure ~title ~info ~factory ?ops ?n () =
  Exp.banner title;
  let inst, rid, reply = run_single ~factory ?ops ?n () in
  (match reply with
  | Some r ->
      Fmt.pr "client reply: committed=%b value=%s@." r.Core.Technique.committed
        (match r.Core.Technique.value with
        | Some v -> string_of_int v
        | None -> "-")
  | None -> Fmt.pr "client reply: NONE@.");
  show_timeline ~info inst rid

let fig2 () =
  timeline_figure ~title:"Figure 2 — Active replication"
    ~info:Protocols.Active.info ~factory:(Exp.factory "active") ()

let fig3 () =
  timeline_figure ~title:"Figure 3 — Passive replication"
    ~info:Protocols.Passive.info ~factory:(Exp.factory "passive") ()

let fig4 () =
  timeline_figure ~title:"Figure 4 — Semi-active replication"
    ~info:Protocols.Semi_active.info ~factory:(Exp.factory "semi-active")
    ~ops:[ Store.Operation.Write_random "x" ] ()

let render_matrix ~rows ~cols ~cell =
  let width = 34 in
  Fmt.pr "%-20s" "";
  List.iter (fun (_, label) -> Fmt.pr "| %-*s" width label) cols;
  Fmt.pr "@.";
  List.iter
    (fun (rk, rlabel) ->
      Fmt.pr "%-20s" rlabel;
      List.iter
        (fun (ck, _) ->
          let names = cell rk ck in
          Fmt.pr "| %-*s" width (String.concat ", " names))
        cols;
      Fmt.pr "@.")
    rows

let fig5 () =
  Exp.banner "Figure 5 — Replication in distributed systems";
  let cells = Core.Classify.fig5_cells Protocols.Registry.infos in
  render_matrix
    ~rows:[ (true, "transparent"); (false, "not transparent") ]
    ~cols:[ (true, "determinism needed"); (false, "determinism not needed") ]
    ~cell:(fun transparent det ->
      match List.assoc_opt (transparent, det) cells with
      | Some names -> names
      | None -> [])

let fig6 () =
  Exp.banner "Figure 6 — Replication in database systems (Gray et al.)";
  let cells = Core.Classify.fig6_cells Protocols.Registry.infos in
  render_matrix
    ~rows:
      [ (Core.Technique.Eager, "eager"); (Core.Technique.Lazy, "lazy") ]
    ~cols:
      [
        (Core.Technique.Primary, "primary copy");
        (Core.Technique.Update_everywhere, "update everywhere");
      ]
    ~cell:(fun prop own ->
      match List.assoc_opt (prop, own) cells with
      | Some names -> names
      | None -> [])

let fig7 () =
  timeline_figure ~title:"Figure 7 — Eager primary copy"
    ~info:Protocols.Eager_primary.info
    ~factory:(Exp.factory "eager-primary") ()

let fig8 () =
  timeline_figure
    ~title:"Figure 8 — Eager update everywhere with distributed locking"
    ~info:Protocols.Eager_ue_locking.info
    ~factory:(Exp.factory "eager-ue-locking") ()

let fig9 () =
  timeline_figure
    ~title:"Figure 9 — Eager update everywhere based on atomic broadcast"
    ~info:Protocols.Eager_ue_abcast.info
    ~factory:(Exp.factory "eager-ue-abcast") ()

let fig10 () =
  timeline_figure ~title:"Figure 10 — Lazy primary copy"
    ~info:Protocols.Lazy_primary.info
    ~factory:(Exp.factory "lazy-primary") ()

let fig11 () =
  Exp.banner "Figure 11 — Lazy update everywhere (with reconciliation)";
  (* Two clients update the same item at different delegates inside the
     propagation window, forcing the reconciliation the figure shows. *)
  let engine = Engine.create ~seed:3 () in
  let net = Network.create engine ~n:5 Network.default_config in
  let replicas = [ 0; 1; 2 ] and clients = [ 3; 4 ] in
  let inst =
    Exp.factory "lazy-ue" ~set:[ ("propagation_delay", "20ms") ] net
      ~replicas ~clients
  in
  let submit client v =
    let req =
      Store.Operation.request net ~client [ Store.Operation.Write ("x", v) ]
    in
    inst.Core.Technique.submit ~client req (fun _ -> ());
    req.Store.Operation.rid
  in
  let rid_a = submit 3 100 in
  let rid_b = submit 4 200 in
  ignore (Engine.run ~until:(Simtime.of_sec 10.) engine);
  Fmt.pr "conflicting updates from two delegates; conflicts detected: %d@."
    (Protocols.Lazy_ue.conflicts inst);
  Fmt.pr "replicas converged after reconciliation: %b@.@."
    (Core.Convergence.converged
       (List.map inst.Core.Technique.replica_store replicas));
  List.iter
    (fun rid -> show_timeline ~info:Protocols.Lazy_ue.info inst rid)
    [ rid_a; rid_b ]

let fig12 () =
  timeline_figure
    ~title:"Figure 12 — Eager primary copy, multi-operation transaction"
    ~info:Protocols.Eager_primary.info
    ~factory:(Exp.factory "eager-primary" ~set:[ ("interactive", "true") ])
    ~ops:
      [ Store.Operation.Incr ("a", 1); Store.Operation.Incr ("b", 1) ]
    ()

let fig13 () =
  timeline_figure
    ~title:
      "Figure 13 — Eager update everywhere (locking), multi-operation \
       transaction"
    ~info:Protocols.Eager_ue_locking.info
    ~factory:(Exp.factory "eager-ue-locking")
    ~ops:
      [ Store.Operation.Incr ("a", 1); Store.Operation.Incr ("b", 1) ]
    ()

let fig14 () =
  timeline_figure ~title:"Figure 14 — Certification-based replication"
    ~info:Protocols.Certification_based.info
    ~factory:(Exp.factory "certification") ()

(* Observed signatures for all techniques, each run once with a request
   that exercises its distinctive path. *)
let observed_signatures () =
  List.map
    (fun (e : Protocols.Registry.entry) ->
      let key = e.key in
      let info = e.info in
      let factory = Exp.factory key in
      let ops =
        if key = "semi-active" then [ Store.Operation.Write_random "x" ]
        else [ Store.Operation.Incr ("x", 1) ]
      in
      let inst, rid, _ = run_single ~factory ~ops () in
      (* Signatures read off the span recorder, not the raw mark log. *)
      (info, Core.Phase_span.signature inst.Core.Technique.spans ~rid))
    Protocols.Registry.all

let fig15 () =
  Exp.banner "Figure 15 — Possible combinations of phases (strong consistency)";
  let observed = observed_signatures () in
  let strong =
    List.filter_map
      (fun ((info : Core.Technique.info), signature) ->
        if info.strong_consistency then Some signature else None)
      observed
  in
  let combos = Core.Classify.fig15_combinations strong in
  List.iter
    (fun seq ->
      Fmt.pr "  %a   (SC/AC before END: %b)@." Core.Phase.pp_sequence seq
        (Core.Classify.has_sync_before_response seq))
    combos;
  Fmt.pr
    "@.Every strong-consistency technique synchronises (SC and/or AC) before@.\
     answering the client — the paper's claim below Figure 15.@."

let fig16 () =
  Exp.banner "Figure 16 — Synthetic view of approaches";
  let observed = observed_signatures () in
  let rows = Core.Classify.synthetic_rows observed in
  Core.Classify.pp_synthetic Fmt.stdout rows;
  let mismatches = List.filter (fun r -> not r.Core.Classify.matches) rows in
  Fmt.pr "@.%d/%d observed signatures match the paper's table.@."
    (List.length rows - List.length mismatches)
    (List.length rows)

let all =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
  ]
