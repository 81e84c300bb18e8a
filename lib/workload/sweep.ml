(* Sweep orchestration: a declared grid of techniques × shards × load ×
   update-ratio × zipf skew × seeds (× any per-technique config axis),
   expanded into cells in a fixed deterministic order. The caller (the
   CLI's `replisim sweep`, or bench perf18) runs each cell through
   run_cell and gets back one Run_record per cell; this module owns the
   grid algebra, the per-cell run, the aggregate manifest and the
   ASCII-heatmap / Markdown-matrix rendering over any record metric —
   the measured form of the paper's Figure-6 technique × workload
   matrix. *)

type axes = {
  techniques : string list;
  shards : int list;
  loads : float list;  (* transactions/s; 0 = closed loop *)
  updates : float list;
  zipfs : float list;
  seeds : int list;
  vary : (string * string * string list) list;
      (* (technique, key, values): a config axis that applies only to
         cells of the named technique; other techniques get one cell
         with the axis unset *)
}

let default_axes =
  {
    techniques = [];
    shards = [ 1 ];
    loads = [ 0. ];
    updates = [ 0.5 ];
    zipfs = [ 0.6 ];
    seeds = [ 11 ];
    vary = [];
  }

type cell = {
  technique : string;
  shards : int;
  load : float;
  updates : float;
  zipf : float;
  seed : int;
  vary : (string * string) list;  (* key=value pairs for this technique *)
}

(* Per-technique cartesian product of the vary axes that name it. *)
let vary_combos (axes : axes) technique =
  let mine =
    List.filter_map
      (fun (t, key, values) -> if t = technique then Some (key, values) else None)
      axes.vary
  in
  List.fold_left
    (fun combos (key, values) ->
      List.concat_map
        (fun combo -> List.map (fun v -> combo @ [ (key, v) ]) values)
        combos)
    [ [] ] mine

(* Deterministic expansion order: techniques outermost, seeds innermost
   — so all cells of one technique group together in the manifest. *)
let cells (axes : axes) =
  List.concat_map
    (fun technique ->
      List.concat_map
        (fun vary ->
          List.concat_map
            (fun shards ->
              List.concat_map
                (fun load ->
                  List.concat_map
                    (fun updates ->
                      List.concat_map
                        (fun zipf ->
                          List.map
                            (fun seed ->
                              {
                                technique;
                                shards;
                                load;
                                updates;
                                zipf;
                                seed;
                                vary;
                              })
                            axes.seeds)
                        axes.zipfs)
                    axes.updates)
                axes.loads)
            axes.shards)
        (vary_combos axes technique))
    axes.techniques

(* ---- running a cell -------------------------------------------------- *)

(* The one per-cell run, whichever command asks for the record: sampled
   every 5 ms, audited, and censused by the single-transaction probe when
   it replies soundly. *)
let run_recorded ?router ?faults ~technique ~config ~factory ~seed
    ~n_replicas ~n_clients ~arrival ~spec () =
  let result =
    Runner.run ~seed ~n_replicas ~n_clients ~spec ~arrival ?faults
      ~sample:(Sim.Simtime.of_ms 5) ~audit:true ?router factory
  in
  let census =
    let p = Builder.probe ~n:n_replicas factory in
    let _, sound, s = Builder.probe_summary p in
    if sound && s.Sim.Msg_dag.replied then
      Some (s.Sim.Msg_dag.messages, s.Sim.Msg_dag.steps)
    else None
  in
  ( result,
    Run_record.normalize
      (Run_record.of_run ~technique ~config ~seed ~n_replicas ~n_clients
         ~arrival ~spec ?census result) )

let run_cell ?router ~n_replicas ~n_clients ~spec ~config ~factory c =
  let spec =
    {
      spec with
      Spec.key_skew = c.zipf;
      update_ratio = c.updates;
      shards = c.shards;
    }
  in
  let arrival = if c.load > 0. then `Poisson c.load else `Closed in
  snd
    (run_recorded ?router ~technique:c.technique ~config ~factory ~seed:c.seed
       ~n_replicas ~n_clients ~arrival ~spec ())

(* ---- manifest -------------------------------------------------------- *)

(* The aggregate manifest: the declared axes, every record file in cell
   order, and min/max-with-winner aggregates for the rendered metrics —
   one self-describing document per sweep directory. *)
let manifest_json (axes : axes) ~records ~metrics =
  let open Sim.Json in
  let strs xs = Arr (List.map (fun s -> Str s) xs) in
  let nums xs = Arr (List.map (fun x -> Num x) xs) in
  let ints xs = Arr (List.map (fun i -> Int i) xs) in
  let vary (t, k, vs) = Obj [ ("technique", Str t); ("key", Str k); ("values", strs vs) ] in
  let axes_json =
    Obj
      [ ("techniques", strs axes.techniques); ("shards", ints axes.shards);
        ("loads", nums axes.loads); ("updates", nums axes.updates); ("zipfs", nums axes.zipfs);
        ("seeds", ints axes.seeds); ("vary", Arr (List.map vary axes.vary)) ]
  in
  let aggregate metric =
    let valued =
      List.filter_map
        (fun (_, r) ->
          Option.map (fun v -> (r, v)) (Run_record.metric r metric))
        records
    in
    match valued with
    | [] -> (metric, Null)
    | (r0, v0) :: rest ->
        let min_r, min_v, max_r, max_v =
          List.fold_left
            (fun (min_r, min_v, max_r, max_v) (r, v) ->
              let min_r, min_v =
                if v < min_v then (r, v) else (min_r, min_v)
              in
              let max_r, max_v =
                if v > max_v then (r, v) else (max_r, max_v)
              in
              (min_r, min_v, max_r, max_v))
            (r0, v0, r0, v0) rest
        in
        let winner r v = Obj [ ("cell", Str (Run_record.cell_id r)); ("value", Num v) ] in
        (metric, Obj [ ("min", winner min_r min_v); ("max", winner max_r max_v) ])
  in
  to_string
    (Obj
       [ ("type", Str "sweep_manifest"); ("version", Str Report.version);
         ("record_version", Int Run_record.schema_version); ("axes", axes_json);
         ("cells", Int (List.length records)); ("records", strs (List.map fst records));
         ("aggregates", Obj (List.map aggregate metrics)) ])

(* ---- matrix rendering ------------------------------------------------- *)

(* Rows are the non-load dimensions that actually vary across the record
   set (technique always shows; shards/updates/zipf/seed/config only
   when more than one distinct value appears); columns are the arrival
   loads. First-seen order on both axes keeps the table deterministic. *)

let load_label (r : Run_record.t) =
  match String.index_opt r.workload.arrival ':' with
  | Some i ->
      String.sub r.workload.arrival (i + 1)
        (String.length r.workload.arrival - i - 1)
      ^ "/s"
  | None -> r.workload.arrival

let distinct f records =
  List.fold_left
    (fun acc r -> if List.mem (f r) acc then acc else acc @ [ f r ])
    [] records

let row_label ~varies (r : Run_record.t) =
  let w = r.Run_record.workload in
  let parts =
    [ r.Run_record.technique ]
    @ (if List.mem `Shards varies then [ Printf.sprintf "s=%d" w.shards ]
       else [])
    @ (if List.mem `Updates varies then [ Printf.sprintf "u=%g" w.updates ]
       else [])
    @ (if List.mem `Zipf varies then [ Printf.sprintf "z=%g" w.zipf ] else [])
    @ (if List.mem `Seed varies then
         [ Printf.sprintf "seed=%d" r.Run_record.seed ]
       else [])
    @
    if List.mem `Config varies then
      List.map (fun (k, v) -> k ^ "=" ^ v) r.Run_record.config
    else []
  in
  String.concat " " parts

type matrix = {
  metric : string;
  rows : string list;
  cols : string list;
  values : float option array array;  (* values.(row).(col) *)
}

let matrix ~metric records =
  let varies =
    List.filter_map
      (fun (tag, f) -> if List.length (distinct f records) > 1 then Some tag else None)
      [
        (`Shards, fun (r : Run_record.t) -> string_of_int r.workload.shards);
        (`Updates, fun r -> string_of_float r.Run_record.workload.updates);
        (`Zipf, fun r -> string_of_float r.Run_record.workload.zipf);
        (`Seed, fun r -> string_of_int r.Run_record.seed);
        ( `Config,
          fun r ->
            String.concat ","
              (List.map (fun (k, v) -> k ^ "=" ^ v) r.Run_record.config) );
      ]
  in
  let rows = distinct (row_label ~varies) records in
  let cols = distinct load_label records in
  let values =
    Array.make_matrix (List.length rows) (List.length cols) None
  in
  List.iter
    (fun r ->
      let row = row_label ~varies r in
      let col = load_label r in
      match
        ( List.find_index (String.equal row) rows,
          List.find_index (String.equal col) cols )
      with
      | Some i, Some j -> values.(i).(j) <- Run_record.metric r metric
      | _ -> ())
    records;
  { metric; rows; cols; values }

let matrix_bounds m =
  Array.fold_left
    (fun acc row ->
      Array.fold_left
        (fun acc v ->
          match (acc, v) with
          | None, Some v -> Some (v, v)
          | Some (lo, hi), Some v -> Some (Float.min lo v, Float.max hi v)
          | acc, None -> acc)
        acc row)
    None m.values

(* Nine-step shade ramp, normalized over the whole table, so the eye
   finds the hot quadrant before reading any number. *)
let shade ~lo ~hi v =
  let ramp = " .:-=+*#@" in
  if hi <= lo then ramp.[0]
  else
    let idx = int_of_float ((v -. lo) /. (hi -. lo) *. 8.) in
    ramp.[max 0 (min 8 idx)]

let render_ascii m =
  let buf = Buffer.create 1024 in
  let row_w =
    List.fold_left (fun acc r -> max acc (String.length r)) 10 m.rows
  in
  let bounds = matrix_bounds m in
  Buffer.add_string buf
    (Printf.sprintf "%s by load (heatmap: low ' ' .. '@' high)\n" m.metric);
  Buffer.add_string buf (Printf.sprintf "%-*s" row_w "");
  List.iter (fun c -> Buffer.add_string buf (Printf.sprintf " %12s" c)) m.cols;
  Buffer.add_char buf '\n';
  List.iteri
    (fun i row ->
      Buffer.add_string buf (Printf.sprintf "%-*s" row_w row);
      List.iteri
        (fun j _ ->
          match m.values.(i).(j) with
          | None -> Buffer.add_string buf (Printf.sprintf " %12s" "-")
          | Some v ->
              let c =
                match bounds with
                | Some (lo, hi) -> shade ~lo ~hi v
                | None -> ' '
              in
              Buffer.add_string buf (Printf.sprintf " %10.2f %c" v c))
        m.cols;
      Buffer.add_char buf '\n')
    m.rows;
  Buffer.contents buf

let render_markdown m =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "| %s |" m.metric);
  List.iter (fun c -> Buffer.add_string buf (Printf.sprintf " %s |" c)) m.cols;
  Buffer.add_char buf '\n';
  Buffer.add_string buf "|---|";
  List.iter (fun _ -> Buffer.add_string buf "---:|") m.cols;
  Buffer.add_char buf '\n';
  List.iteri
    (fun i row ->
      Buffer.add_string buf (Printf.sprintf "| %s |" row);
      List.iteri
        (fun j _ ->
          match m.values.(i).(j) with
          | None -> Buffer.add_string buf " - |"
          | Some v -> Buffer.add_string buf (Printf.sprintf " %.2f |" v))
        m.cols;
      Buffer.add_char buf '\n')
    m.rows;
  Buffer.contents buf
