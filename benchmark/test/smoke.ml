(* Smoke test for replibench, run at a tiny transaction scale:
   - every metric and workload named in BENCHMARK.json is emitted, with
     its unit, and nothing unlisted is;
   - metric names use only [A-Za-z0-9_.-];
   - the run document feeds [compare], which judges it unchanged against
     itself;
   - same-seed passes give the same fingerprint, another seed changes it.

   Usage: smoke REPLIBENCH_EXE BENCHMARK_JSON *)

module J = Workload.Bench_out

let exe = Sys.argv.(1)
let spec_path = Sys.argv.(2)
let scale = "0.005"
let errors = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr errors;
        prerr_endline ("FAIL: " ^ msg)
      end)
    fmt

let run args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic = Unix.WEXITED 0, out)

let run_ok args =
  let ok, out = run args in
  check ok "replibench %s exited non-zero" (String.concat " " args);
  out

let parse what s =
  match J.parse s with Ok j -> j | Error e -> failwith (what ^ ": " ^ e)

let field name = function
  | J.Obj fs -> ( match List.assoc_opt name fs with Some v -> v | None -> J.Null)
  | _ -> J.Null

let str = function J.Str s -> s | _ -> ""
let arr = function J.Arr l -> l | _ -> []
let obj = function J.Obj l -> l | _ -> []
let last_line s = List.hd (List.rev (String.split_on_char '\n' (String.trim s)))

let spec = parse spec_path (In_channel.with_open_bin spec_path In_channel.input_all)
let workloads = List.map (fun w -> str (field "name" w)) (arr (field "workloads" spec))
let listed key =
  List.map (fun m -> (str (field "name" m), str (field "unit" m))) (arr (field key spec))

let valid_name n =
  n <> ""
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       n

let same_names what expected got =
  let sort = List.sort compare in
  check (sort expected = sort got) "%s: emitted names/units differ from BENCHMARK.json" what

let fingerprint w seed =
  let out = run_ok [ "pass"; "--workload"; w; "--seed"; seed; "--scale"; scale ] in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:"fingerprint " l then Some l else None)
    (String.split_on_char '\n' out)

let () =
  check (workloads <> []) "BENCHMARK.json lists no workloads";
  List.iter
    (fun (n, _) -> check (valid_name n) "bad metric name %S" n)
    (listed "end_to_end" @ listed "per_layer");
  (* run + compare *)
  let doc = "smoke-run.json" in
  ignore (run_ok [ "run"; "--reps"; "1"; "--scale"; scale; "--out"; doc ]);
  let d = parse doc (In_channel.with_open_bin doc In_channel.input_all) in
  check
    (List.map (fun w -> str (field "name" w)) (arr (field "workloads" d)) = workloads)
    "run document workloads differ from BENCHMARK.json";
  let ok, out = run [ "compare"; doc; doc; "--spec"; spec_path ] in
  check ok "compare of a document against itself failed:\n%s" out;
  Sys.remove doc;
  List.iter
    (fun w ->
      List.iter
        (fun (trace, key) ->
          let out =
            run_ok
              [ "--workload"; w; "--seed"; "11"; "--seconds"; "0"; "--trace"; trace;
                "--scale"; scale ]
          in
          let result = parse (w ^ " result") (last_line out) in
          check (field "correct" result = J.Bool true) "%s --trace %s: not correct" w trace;
          let emitted =
            List.map (fun (n, m) -> (n, str (field "unit" m))) (obj (field "metrics" result))
          in
          same_names (Printf.sprintf "%s --trace %s" w trace) (listed key) emitted)
        [ ("0", "end_to_end"); ("1", "per_layer") ];
      let a = fingerprint w "11" and b = fingerprint w "11" and c = fingerprint w "12" in
      check (a <> None && a = b) "%s: same seed, different fingerprints" w;
      check (a <> c) "%s: seeds 11 and 12 give the same fingerprint" w)
    workloads;
  if !errors > 0 then exit 1
