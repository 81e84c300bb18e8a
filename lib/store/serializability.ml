type verdict =
  | Serializable of int list
  | Cyclic of int list
  | Ambiguous_versions of Operation.key * int

exception Ambiguous of Operation.key * int

let build_edges records =
  (* (key, version) -> writer tid *)
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
  (* per-key sorted list of written versions *)
  let versions_of = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (k, v) _ ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt versions_of k) in
      Hashtbl.replace versions_of k (v :: cur))
    writer;
  let edges = ref [] in
  let add_edge a b = if a <> b then edges := (a, b) :: !edges in
  (* per-key written versions, sorted once *)
  let sorted_of = Hashtbl.create 64 in
  (* ww: consecutive version order per key *)
  Hashtbl.iter
    (fun k versions ->
      let sorted = Array.of_list versions in
      Array.sort Int.compare sorted;
      Hashtbl.replace sorted_of k sorted;
      for i = 0 to Array.length sorted - 2 do
        add_edge
          (Hashtbl.find writer (k, sorted.(i)))
          (Hashtbl.find writer (k, sorted.(i + 1)))
      done)
    versions_of;
  (* Index of the first element of [sorted] above [v] (its length if none). *)
  let first_above sorted v =
    let lo = ref 0 and hi = ref (Array.length sorted) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if sorted.(mid) > v then hi := mid else lo := mid + 1
    done;
    !lo
  in
  (* wr and rw *)
  List.iter
    (fun (r : History.record) ->
      List.iter
        (fun (k, v) ->
          (* wr: the writer of the version we read precedes us *)
          (match Hashtbl.find_opt writer (k, v) with
          | Some w -> add_edge w r.tid
          | None -> () (* initial version 0 *));
          (* rw: we precede the writer of the next version *)
          let next_writer =
            match Hashtbl.find_opt sorted_of k with
            | None -> None
            | Some sorted ->
                let i = first_above sorted v in
                if i = Array.length sorted then None
                else Some (Hashtbl.find writer (k, sorted.(i)))
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
  | exception Ambiguous (k, v) -> Ambiguous_versions (k, v)
  | edges ->
      let tids =
        List.map (fun (r : History.record) -> r.tid) records
        |> List.sort_uniq Int.compare
      in
      (* Successor lists, newest first and without duplicates; [linked]
         holds the edges already in [adj], so a hot writer with many
         readers does not rescan its list for every edge. *)
      let adj = Hashtbl.create 64 in
      let linked = Hashtbl.create 64 in
      List.iter
        (fun ((a, b) as e) ->
          if not (Hashtbl.mem linked e) then begin
            Hashtbl.replace linked e ();
            let cur = Option.value ~default:[] (Hashtbl.find_opt adj a) in
            Hashtbl.replace adj a (b :: cur)
          end)
        edges;
      (* DFS cycle detection with an explicit path for the witness. *)
      let state = Hashtbl.create 64 in
      (* 0 = in progress, 1 = done *)
      let order = ref [] in
      let exception Cycle of int list in
      let rec visit path tid =
        match Hashtbl.find_opt state tid with
        | Some 1 -> ()
        | Some _ ->
            (* Found a back edge: extract the cycle from the path. *)
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
      (try
         List.iter (fun tid -> visit [ tid ] tid) tids;
         Serializable !order
       with Cycle c -> Cyclic c)

let pp_verdict ppf = function
  | Serializable order ->
      Format.fprintf ppf "serializable (order: %s)"
        (String.concat " " (List.map (fun t -> "T" ^ string_of_int t) order))
  | Cyclic cycle ->
      Format.fprintf ppf "NOT serializable (cycle: %s)"
        (String.concat " -> " (List.map (fun t -> "T" ^ string_of_int t) cycle))
  | Ambiguous_versions (k, v) ->
      Format.fprintf ppf "replica divergence: two writers installed %s@v%d" k v

let is_serializable history =
  match check history with Serializable _ -> true | _ -> false
