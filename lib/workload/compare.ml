(* Cross-run comparison/regression engine: diff two run-record sets
   (run-vs-run, or sweep-vs-committed-baseline) under per-metric
   relative thresholds, classify every (cell, metric) pair as improved,
   regressed or unchanged, and surface missing cells — the CI gate that
   makes perf and msgs/txn regressions fail the build the way
   correctness violations already do.

   Records are matched by Run_record.cell_id (everything the
   experimenter chose, nothing the run produced), and compared through
   their flat metric view, so the engine needs no knowledge of the
   record schema beyond names, values and each name's direction, which
   the record's field table declares. *)

type direction = Run_record.direction = Lower_better | Higher_better
type rule = { metric : string; dir : direction; threshold : float }

let rule ?dir ?(threshold = 0.2) metric =
  let dir =
    match (dir, Run_record.direction metric) with
    | Some d, _ | None, Some d -> d
    | None, None -> invalid_arg ("Compare.rule: unknown metric " ^ metric)
  in
  { metric; dir; threshold }

(* The default gate: tail latency, throughput and message cost, at
   relative thresholds wide enough to pass an unchanged deterministic
   re-run trivially (deltas are then exactly zero) but tight enough to
   catch a real shift. msgs_per_txn gets the tightest band — message
   cost is the paper's headline §5 number and is fully deterministic. *)
let default_rules =
  [
    rule "latency_p50" ~threshold:0.2;
    rule "latency_p95" ~threshold:0.2;
    rule "latency_p99" ~threshold:0.25;
    rule "throughput" ~threshold:0.2;
    rule "msgs_per_txn" ~threshold:0.1;
  ]

type verdict = Improved | Regressed | Unchanged

type finding = {
  cell : string;
  metric : string;
  base : float;
  cand : float;
  delta_pct : float;  (* (cand - base) / base * 100; +inf when base = 0 *)
  verdict : verdict;
}

let classify (r : rule) ~base ~cand =
  let delta_pct =
    if base <> 0. then (cand -. base) /. Float.abs base *. 100.
    else if cand = 0. then 0.
    else Float.infinity
  in
  let better, worse =
    match r.dir with
    | Lower_better -> (cand < base, cand > base)
    | Higher_better -> (cand > base, cand < base)
  in
  let beyond =
    if base <> 0. then
      Float.abs (cand -. base) > r.threshold *. Float.abs base
    else cand <> 0.
  in
  let verdict =
    if beyond && worse then Regressed
    else if beyond && better then Improved
    else Unchanged
  in
  { cell = ""; metric = r.metric; base; cand; delta_pct; verdict }

type report = {
  findings : finding list;  (* (cell, metric) in base order *)
  missing : string list;  (* cells in base with no candidate record *)
  extra : string list;  (* candidate cells absent from base *)
  cells : int;  (* cells compared *)
}

(* Diff [cand] against [base]; both are (cell_id, metrics) assoc lists,
   e.g. from [Run_record.cell_id r, Run_record.metrics r]. Only metrics
   present on both sides are judged (a baseline without an audit
   section simply doesn't gate audit metrics). *)
let compare_sets ?(rules = default_rules) ~base ~cand () =
  let findings =
    List.concat_map
      (fun (cell, base_metrics) ->
        match List.assoc_opt cell cand with
        | None -> []
        | Some cand_metrics ->
            List.filter_map
              (fun (r : rule) ->
                match
                  ( List.assoc_opt r.metric base_metrics,
                    List.assoc_opt r.metric cand_metrics )
                with
                | Some b, Some c ->
                    Some { (classify r ~base:b ~cand:c) with cell }
                | _ -> None)
              rules)
      base
  in
  let missing =
    List.filter_map
      (fun (cell, _) ->
        if List.mem_assoc cell cand then None else Some cell)
      base
  in
  let extra =
    List.filter_map
      (fun (cell, _) ->
        if List.mem_assoc cell base then None else Some cell)
      cand
  in
  {
    findings;
    missing;
    extra;
    cells = List.length base - List.length missing;
  }

let count v report =
  List.length (List.filter (fun f -> f.verdict = v) report.findings)

(* A report passes unless a compared metric regressed or a baseline
   cell disappeared — new candidate cells are fine (the sweep grew). *)
let ok report = count Regressed report = 0 && report.missing = []

let verdict_to_string = function
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Unchanged -> "unchanged"

let pp_finding ppf f =
  Format.fprintf ppf "%-9s %-18s %12.4g -> %-12.4g (%+.1f%%)  %s"
    (verdict_to_string f.verdict)
    f.metric f.base f.cand f.delta_pct f.cell

let pp_report ppf report =
  List.iter
    (fun f ->
      if f.verdict <> Unchanged then Format.fprintf ppf "%a@." pp_finding f)
    report.findings;
  List.iter
    (fun cell -> Format.fprintf ppf "MISSING   %s@." cell)
    report.missing;
  List.iter (fun cell -> Format.fprintf ppf "new cell  %s@." cell) report.extra;
  Format.fprintf ppf
    "compare: %d cells, %d comparisons — %d improved, %d regressed, %d \
     unchanged%s@."
    report.cells
    (List.length report.findings)
    (count Improved report) (count Regressed report) (count Unchanged report)
    (match report.missing with
    | [] -> ""
    | ms -> Printf.sprintf ", %d missing" (List.length ms))
