type id = int

type event = { at : Simtime.t; track : int option; note : string }

type span = {
  id : id;
  trace : int;
  name : string;
  parent : id option;
  track : int option;
  start : Simtime.t;
  mutable stop : Simtime.t option;
  mutable rev_events : event list;
}

(* Span ids are dense (0, 1, 2, ... in start order), so the store is a
   growable array indexed by id; slots at or beyond [next_id] hold
   [filler]. A per-trace index (trace -> its spans, newest first) plus the
   first-seen trace order make every query cost what it returns. *)
type t = {
  mutable by_id : span array;
  mutable next_id : id;
  by_trace : (int, span list ref) Hashtbl.t;
  mutable rev_traces : int list;
}

let filler =
  {
    id = -1;
    trace = -1;
    name = "";
    parent = None;
    track = None;
    start = Simtime.zero;
    stop = None;
    rev_events = [];
  }

let create () =
  {
    by_id = Array.make 256 filler;
    next_id = 0;
    by_trace = Hashtbl.create 64;
    rev_traces = [];
  }

let start_span t ~trace ?parent ?track ~name start =
  let id = t.next_id in
  let span = { id; trace; name; parent; track; start; stop = None; rev_events = [] } in
  if id = Array.length t.by_id then begin
    let grown = Array.make (2 * id) filler in
    Array.blit t.by_id 0 grown 0 id;
    t.by_id <- grown
  end;
  t.by_id.(id) <- span;
  t.next_id <- id + 1;
  (match Hashtbl.find_opt t.by_trace trace with
  | Some rev -> rev := span :: !rev
  | None ->
      Hashtbl.replace t.by_trace trace (ref [ span ]);
      t.rev_traces <- trace :: t.rev_traces);
  id

let find t id = if id >= 0 && id < t.next_id then Some t.by_id.(id) else None

let add_event t id ~at ?track note =
  match find t id with
  | None -> ()
  | Some span -> span.rev_events <- { at; track; note } :: span.rev_events

let finish t id stop =
  match find t id with
  | None -> ()
  | Some span -> (
      match span.stop with
      | None -> span.stop <- Some stop
      | Some prev -> if Simtime.(stop > prev) then span.stop <- Some stop)

let count t = t.next_id

let spans t =
  let acc = ref [] in
  for i = t.next_id - 1 downto 0 do
    acc := t.by_id.(i) :: !acc
  done;
  !acc

let events span = List.rev span.rev_events

let trace_spans t ~trace =
  match Hashtbl.find_opt t.by_trace trace with
  | Some rev -> List.rev !rev
  | None -> []

let open_spans t = List.filter (fun s -> s.stop = None) (spans t)

let finish_all t stop =
  for i = 0 to t.next_id - 1 do
    let s = t.by_id.(i) in
    if s.stop = None then s.stop <- Some stop
  done

let traces t = List.rev t.rev_traces

let duration_ms span =
  match span.stop with
  | None -> None
  | Some stop -> Some (Simtime.to_ms (Simtime.sub stop span.start))

(* A trace is well nested when every span's parent exists in the same
   trace and every closed child interval lies within its parent's
   interval (open spans trivially violate nesting: callers are expected
   to [finish_all] first). *)
let well_nested t ~trace =
  let ss = trace_spans t ~trace in
  List.for_all
    (fun s ->
      match s.parent with
      | None -> s.stop <> None
      | Some pid -> (
          match find t pid with
          | None -> false
          | Some p -> (
              p.trace = trace
              && Simtime.(s.start >= p.start)
              &&
              match (s.stop, p.stop) with
              | Some cs, Some ps -> Simtime.(cs <= ps)
              | _ -> false)))
    ss

let pp_span ppf s =
  let track = match s.track with None -> "client" | Some r -> "r" ^ string_of_int r in
  let stop =
    match s.stop with None -> "open" | Some st -> Simtime.to_string st
  in
  Format.fprintf ppf "[%d] trace=%d %-4s %-6s %s..%s" s.id s.trace s.name track
    (Simtime.to_string s.start) stop
