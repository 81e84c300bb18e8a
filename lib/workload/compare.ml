(* Cross-run comparison/regression engine, the one evaluator CI gates
   with: diff two sets of cells under per-metric relative thresholds,
   classify every (cell, metric) pair as improved, regressed, unchanged
   or missing, and surface missing cells. The cells are run records,
   matched by Run_record.cell_id (everything the experimenter chose,
   nothing the run produced) and compared through their flat metric view
   with each metric's declared direction, or BENCH files judged against
   the absolute bounds of a gate file (the end of this file). *)

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

type verdict = Improved | Regressed | Unchanged | Missing

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
   e.g. from [Run_record.cell_id r, Run_record.metrics r]. A rule judges
   the metrics its baseline cell carries (a baseline without an audit
   section simply doesn't gate audit metrics); a candidate lacking one
   of them is a Missing finding, never a silent pass. *)
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
                | Some b, None ->
                    let f = classify r ~base:b ~cand:Float.nan in
                    Some { f with cell; verdict = Missing }
                | None, _ -> None)
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
   cell or metric disappeared — new candidate cells are fine (the sweep
   grew). *)
let ok report =
  count Regressed report + count Missing report = 0 && report.missing = []

let verdict_to_string = function
  | Improved -> "improved"
  | Regressed -> "REGRESSED"
  | Unchanged -> "unchanged"
  | Missing -> "MISSING"

let pp_finding ppf f =
  Format.fprintf ppf "%-9s %-18s %12g -> %s  %s"
    (verdict_to_string f.verdict)
    f.metric f.base
    (if f.verdict = Missing then "absent"
     else Printf.sprintf "%-12g (%+.1f%%)" f.cand f.delta_pct)
    f.cell

let pp_report ?(all = false) ppf report =
  List.iter
    (fun f ->
      if all || f.verdict <> Unchanged then
        Format.fprintf ppf "%a@." pp_finding f)
    report.findings;
  List.iter
    (fun cell -> Format.fprintf ppf "MISSING   %s@." cell)
    report.missing;
  List.iter (fun cell -> Format.fprintf ppf "new cell  %s@." cell) report.extra;
  let missing = List.length report.missing + count Missing report in
  Format.fprintf ppf
    "compare: %d cells, %d comparisons — %d improved, %d regressed, %d \
     unchanged%s@."
    report.cells
    (List.length report.findings)
    (count Improved report) (count Regressed report) (count Unchanged report)
    (if missing = 0 then "" else Printf.sprintf ", %d missing" missing)

(* ---- absolute bounds ------------------------------------------------- *)

(* A floor is a zero-threshold Higher_better rule against a baseline cell
   holding the bound, a ceiling its Lower_better mirror, so compare_sets
   judges a bound as it judges a record. *)

exception Bad_gate of string

(* Replace [k]'s binding in place, or append it. *)
let rec upsert k v = function
  | [] -> [ (k, v) ]
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | kv :: rest -> kv :: upsert k v rest

let parse_gates text =
  let bound (n, rules, cells) line =
    let fail why = raise (Bad_gate (Printf.sprintf "line %d: %s" n why)) in
    match String.trim (List.hd (String.split_on_char '#' line)) with
    | "" -> (n + 1, rules, cells)
    | line ->
        let bench, metric, op, v =
          try Scanf.sscanf line "%s %s %s %f%!" (fun b m o v -> (b, m, o, v))
          with Scanf.Scan_failure _ | Failure _ | End_of_file ->
            fail "expected BENCH METRIC >= VALUE or BENCH METRIC <= VALUE"
        in
        let dir =
          match op with
          | ">=" -> Higher_better
          | "<=" -> Lower_better
          | _ -> fail ("unknown operator " ^ op)
        in
        let metrics = Option.value ~default:[] (List.assoc_opt bench cells) in
        if List.mem_assoc metric metrics then fail (metric ^ " bounded twice");
        if not (Float.is_finite v) then fail "the bound is not finite";
        let rules =
          match List.find_opt (fun (r : rule) -> r.metric = metric) rules with
          | None -> rules @ [ { metric; dir; threshold = 0. } ]
          | Some r when r.dir = dir -> rules
          | Some _ -> fail (metric ^ " is bounded from both sides")
        in
        (n + 1, rules, upsert bench ((metric, v) :: metrics) cells)
  in
  match List.fold_left bound (1, [], []) (String.split_on_char '\n' text) with
  | _, rules, cells -> Ok (rules, cells)
  | exception Bad_gate msg -> Error msg

(* A bench may report a metric once per configuration (tracing off and
   on, say): the cell keeps the max, so a floor gates the best row and a
   ceiling the worst. *)
let bench_cell (doc : Sim.Json.t) =
  let field = Sim.Json.member in
  let row acc r =
    match (acc, field "metric" r, field "value" r) with
    | Ok ms, Some (Str m), Some (Num v) ->
        let w = Option.value ~default:v (List.assoc_opt m ms) in
        Ok (upsert m (Float.max v w) ms)
    | Error e, _, _ -> Error e
    | _ -> Error "a result row lacks a string \"metric\" or a number \"value\""
  in
  match (field "bench" doc, field "results" doc) with
  | Some (Str _), Some (Arr []) -> Error "\"results\" is empty"
  | Some (Str bench), Some (Arr rows) ->
      Result.map (fun ms -> (bench, ms)) (List.fold_left row (Ok []) rows)
  | _ -> Error "not a bench document: no \"bench\" name or \"results\" array"
