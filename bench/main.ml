(* Benchmark harness entry point.

   With no arguments, runs everything: every figure of the paper
   (fig1..fig16), the §6 performance study (perf1..perf19), the
   ablations (abl1..abl7) and the Bechamel micro-benchmarks (micro).
   Individual experiments can be selected by id:

     dune exec bench/main.exe -- fig16 perf2

   The experiment ids match the index in DESIGN.md and EXPERIMENTS.md. *)

let registry =
  Figures.all
  @ List.map
      (fun (e : Exp.t) -> (e.id, fun () -> Exp.run e))
      (Perf.all @ Ablations.all)
  @ [ ("micro", Micro.run) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected =
    match args with
    | [] -> registry
    | ids ->
        List.map
          (fun id ->
            match List.assoc_opt id registry with
            | Some f -> (id, f)
            | None ->
                Fmt.epr "unknown experiment %S; known: %s@." id
                  (String.concat " " (List.map fst registry));
                exit 1)
          ids
  in
  List.iter
    (fun (_, f) ->
      f ();
      Fmt.pr "@.")
    selected
