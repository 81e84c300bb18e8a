type txn = {
  root : Sim.Span.id;
  mutable current : (Phase.t * Sim.Span.id) option;
  mutable closed : bool;  (** the Response span has been recorded *)
}

type t = {
  spans : Sim.Span.t;
  txns : (int, txn) Hashtbl.t;
  samples : (Phase.t * float list ref) list;
      (** closed-span durations per phase, in canonical phase order *)
}

let create () =
  {
    spans = Sim.Span.create ();
    txns = Hashtbl.create 64;
    samples = List.map (fun p -> (p, ref [])) Phase.all;
  }

let collector t = t.spans

let close_phase t txn phase sid time =
  Sim.Span.finish t.spans sid time;
  (* Post-response spans (the lazy-propagation tail) stretch the
     transaction root so the trace stays well nested. *)
  if txn.closed then Sim.Span.finish t.spans txn.root time;
  let start = Sim.Span.start_of t.spans sid and stop = Sim.Span.stop_of t.spans sid in
  let dur_ms = Sim.Simtime.(to_ms (sub (of_us stop) (of_us start))) in
  let samples = List.assoc phase t.samples in
  samples := dur_ms :: !samples

let mark t ~rid ?replica ?(note = "") phase time =
  let txn =
    match Hashtbl.find_opt t.txns rid with
    | Some txn -> txn
    | None ->
        let root =
          Sim.Span.start_span t.spans ~trace:rid ~name:"txn" time
        in
        let txn = { root; current = None; closed = false } in
        Hashtbl.replace t.txns rid txn;
        txn
  in
  match txn.current with
  | Some (p, sid) when Phase.equal p phase ->
      (* Same phase marked again (e.g. EX on each replica, or a request
         resubmission): fold into the open span as a point event. *)
      Sim.Span.add_event t.spans sid ~at:time ?track:replica note
  | current -> (
      (match current with
      | Some (p, sid) -> close_phase t txn p sid time
      | None -> ());
      let sid =
        Sim.Span.start_span t.spans ~trace:rid ~parent:txn.root ?track:replica
          ~name:(Phase.code phase) time
      in
      if note <> "" then Sim.Span.add_event t.spans sid ~at:time ?track:replica note;
      match phase with
      | Phase.Response ->
          (* END is an instant: the client observed the outcome. *)
          txn.current <- None;
          txn.closed <- true;
          close_phase t txn phase sid time;
          Sim.Span.finish t.spans txn.root time
      | _ -> txn.current <- Some (phase, sid))

(* A span still open at flush time closes at the last mark it absorbed,
   not at the flush instant — otherwise a lazy-propagation tail that
   nothing else closes would appear to last until quiescence. *)
let natural_stop t sid =
  match Sim.Span.find t.spans sid with
  | None -> None
  | Some s ->
      Some
        (List.fold_left
           (fun acc (e : Sim.Span.event) -> Sim.Simtime.max acc e.Sim.Span.at)
           s.Sim.Span.start
           (Sim.Span.events s))

let finalize t ~at =
  Hashtbl.iter
    (fun _rid txn ->
      (match txn.current with
      | Some (p, sid) ->
          let stop = Option.value ~default:at (natural_stop t sid) in
          close_phase t txn p sid stop;
          txn.current <- None;
          Sim.Span.finish t.spans txn.root stop
      | None -> ());
      if not txn.closed then begin
        Sim.Span.finish t.spans txn.root at;
        txn.closed <- true
      end)
    t.txns

let rids t = Sim.Span.traces t.spans

let responded t ~rid =
  match Hashtbl.find_opt t.txns rid with Some txn -> txn.closed | None -> false

(* Only phase spans are built: a traced transaction's message spans
   outnumber them, and are skipped by name. *)
let phase_spans t ~rid =
  Sim.Span.trace_ids t.spans ~trace:rid
  |> List.filter_map (fun id ->
         match Phase.of_code (Sim.Span.name_of t.spans id) with
         | Some p -> Option.map (fun s -> (p, s)) (Sim.Span.find t.spans id)
         | None -> None)

let signature t ~rid =
  phase_spans t ~rid
  |> List.fold_left
       (fun acc (p, _) -> if List.exists (Phase.equal p) acc then acc else p :: acc)
       []
  |> List.rev

let durations t ~rid =
  phase_spans t ~rid
  |> List.filter_map (fun (p, s) ->
         Option.map (fun d -> (p, d)) (Sim.Span.duration_ms s))

let samples t =
  List.filter_map (fun (p, ds) -> if !ds = [] then None else Some (p, !ds)) t.samples

type mark = {
  phase : Phase.t;
  replica : int option;
  time : Sim.Simtime.t;
  note : string;
}

(* Each phase span is one opening mark plus one mark per absorbed event.
   [mark] records an opening note as an event at the span's own start
   and track, so such an event is the opening mark's note rather than a
   mark of its own; an empty-noted event there came from a later mark. *)
let marks t ~rid =
  List.concat_map
    (fun (phase, (s : Sim.Span.span)) ->
      let of_event ({ at; track; note } : Sim.Span.event) =
        { phase; replica = track; time = at; note }
      in
      let opening note =
        { phase; replica = s.Sim.Span.track; time = s.Sim.Span.start; note }
      in
      match Sim.Span.events s with
      | e :: rest
        when e.Sim.Span.note <> ""
             && Sim.Simtime.equal e.Sim.Span.at s.Sim.Span.start
             && e.Sim.Span.track = s.Sim.Span.track ->
          opening e.Sim.Span.note :: List.map of_event rest
      | events -> opening "" :: List.map of_event events)
    (phase_spans t ~rid)

let sequence t ~rid =
  let rec collapse = function
    | a :: (b :: _ as rest) when Phase.equal a b -> collapse rest
    | a :: rest -> a :: collapse rest
    | [] -> []
  in
  collapse (List.map fst (phase_spans t ~rid))

let pp_marks ppf ms =
  List.iter
    (fun m ->
      let replica =
        match m.replica with None -> "client" | Some r -> "replica " ^ string_of_int r
      in
      Format.fprintf ppf "%8s  %-3s  %-10s %s@."
        (Sim.Simtime.to_string m.time)
        (Phase.code m.phase) replica m.note)
    ms

let root t ~rid =
  match Hashtbl.find_opt t.txns rid with
  | Some txn -> Some txn.root
  | None -> None

(* Nesting is a property of the phase-span tree only: message spans
   recorded into the same collector (see {!Sim.Network.set_msg_spans})
   deliberately overlap — a reaction to a message starts at its parent's
   stop — so they are excluded here. *)
let well_nested t ~rid =
  match Hashtbl.find_opt t.txns rid with
  | None -> false
  | Some txn ->
      let sp = t.spans in
      let root_stop = Sim.Span.stop_of sp txn.root in
      root_stop <> Sim.Span.none
      && List.for_all
           (fun id ->
             Phase.of_code (Sim.Span.name_of sp id) = None
             || Sim.Span.parent_of sp id = txn.root
                && Sim.Span.start_of sp id >= Sim.Span.start_of sp txn.root
                && Sim.Span.stop_of sp id <> Sim.Span.none
                && Sim.Span.stop_of sp id <= root_stop)
           (Sim.Span.trace_ids sp ~trace:rid)
