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

let none = -1

(* A struct of arrays. Span ids are dense (0, 1, 2, ... in start order)
   and index the per-span columns; ids at or beyond [count] are unused.
   Each span names its trace by slot (the trace's index in first-seen
   order) and links back to the previous span of that trace, so a trace's
   spans are a walk from its last one. Events live in their own columns,
   linked forward from each span's first to its last event.

   A column is a sequence of fixed-size chunks: growing appends a chunk
   and never copies, so each stored word is written once into fresh
   memory, and the slack is under one chunk. Columns start with no
   chunks, so a collector that records nothing allocates none. A chunk
   holds 2048 entries: the first span of a run allocates one per
   column, about 30k words, which a short traced run would otherwise
   pay for in mostly empty slots. *)
type ints = int array array
type strings = string array array

let chunk_bits = 11
let chunk_mask = (1 lsl chunk_bits) - 1
let get (c : ints) i = c.(i lsr chunk_bits).(i land chunk_mask)
let set (c : ints) i v = c.(i lsr chunk_bits).(i land chunk_mask) <- v
let get_s (c : strings) i = c.(i lsr chunk_bits).(i land chunk_mask)
let set_s (c : strings) i v = c.(i lsr chunk_bits).(i land chunk_mask) <- v
let capacity c = Array.length c lsl chunk_bits
let add_chunk c fill = Array.append c [| Array.make (1 lsl chunk_bits) fill |]

type t = {
  mutable count : int;
  mutable slot : ints;
  mutable parent : ints;
  mutable track : ints;
  mutable start : ints;
  mutable stop : ints;
  mutable name : strings;
  mutable first_ev : ints;
  mutable last_ev : ints;
  mutable prev_in_trace : ints;
  mutable events : int;
  mutable ev_at : ints;
  mutable ev_track : ints;
  mutable ev_next : ints;
  mutable ev_note : strings;
  slots : (int, int) Hashtbl.t;  (** trace -> slot *)
  mutable traces : int;
  mutable trace_id : ints;  (** slot -> trace *)
  mutable trace_last : ints;  (** slot -> newest span *)
}

let create () =
  {
    count = 0;
    slot = [||];
    parent = [||];
    track = [||];
    start = [||];
    stop = [||];
    name = [||];
    first_ev = [||];
    last_ev = [||];
    prev_in_trace = [||];
    events = 0;
    ev_at = [||];
    ev_track = [||];
    ev_next = [||];
    ev_note = [||];
    slots = Hashtbl.create 16;
    traces = 0;
    trace_id = [||];
    trace_last = [||];
  }

let grow_spans t =
  t.slot <- add_chunk t.slot 0;
  t.parent <- add_chunk t.parent 0;
  t.track <- add_chunk t.track 0;
  t.start <- add_chunk t.start 0;
  t.stop <- add_chunk t.stop 0;
  t.name <- add_chunk t.name "";
  t.first_ev <- add_chunk t.first_ev 0;
  t.last_ev <- add_chunk t.last_ev 0;
  t.prev_in_trace <- add_chunk t.prev_in_trace 0

let grow_events t =
  t.ev_at <- add_chunk t.ev_at 0;
  t.ev_track <- add_chunk t.ev_track 0;
  t.ev_next <- add_chunk t.ev_next 0;
  t.ev_note <- add_chunk t.ev_note ""

let slot_for_trace t trace =
  match Hashtbl.find t.slots trace with
  | slot -> slot
  | exception Not_found ->
      let slot = t.traces in
      if slot = capacity t.trace_id then begin
        t.trace_id <- add_chunk t.trace_id 0;
        t.trace_last <- add_chunk t.trace_last 0
      end;
      set t.trace_id slot trace;
      set t.trace_last slot none;
      t.traces <- slot + 1;
      Hashtbl.replace t.slots trace slot;
      slot

let start_span t ~trace ?parent ?track ~name start =
  let id = t.count in
  if id = capacity t.slot then grow_spans t;
  let slot = slot_for_trace t trace in
  set t.slot id slot;
  set t.parent id (match parent with Some p -> p | None -> none);
  set t.track id (match track with Some r -> r | None -> none);
  set t.start id (Simtime.to_us start);
  set t.stop id none;
  set_s t.name id name;
  set t.first_ev id none;
  set t.last_ev id none;
  set t.prev_in_trace id (get t.trace_last slot);
  set t.trace_last slot id;
  t.count <- id + 1;
  id

let known t id = id >= 0 && id < t.count

let add_event t id ~at ?track note =
  if known t id then begin
    let e = t.events in
    if e = capacity t.ev_at then grow_events t;
    set t.ev_at e (Simtime.to_us at);
    set t.ev_track e (match track with Some r -> r | None -> none);
    set t.ev_next e none;
    set_s t.ev_note e note;
    let last = get t.last_ev id in
    if last = none then set t.first_ev id e else set t.ev_next last e;
    set t.last_ev id e;
    t.events <- e + 1
  end

let finish t id stop =
  if known t id then begin
    let stop = Simtime.to_us stop and prev = get t.stop id in
    if prev = none || stop > prev then set t.stop id stop
  end

let count t = t.count
let opt v = if v = none then None else Some v
let time v = Simtime.of_us v
let name_of t id = get_s t.name id
let trace_of t id = get t.trace_id (get t.slot id)
let slot_of t id = get t.slot id
let trace_of_slot t slot = get t.trace_id slot
let trace_count t = t.traces
let parent_of t id = get t.parent id
let track_of t id = get t.track id
let start_of t id = get t.start id
let stop_of t id = get t.stop id
let first_event t id = get t.first_ev id
let next_event t e = get t.ev_next e
let event_at t e = get t.ev_at e
let event_track t e = get t.ev_track e
let event_note t e = get_s t.ev_note e

(* The record of span [id], built: its events newest first, as
   [rev_events] keeps them. *)
let build t id =
  let rec rev_events acc e =
    if e = none then acc
    else
      let ev = { at = time (event_at t e); track = opt (event_track t e); note = event_note t e } in
      rev_events (ev :: acc) (next_event t e)
  in
  {
    id;
    trace = trace_of t id;
    name = name_of t id;
    parent = opt (parent_of t id);
    track = opt (track_of t id);
    start = time (start_of t id);
    stop = Option.map time (opt (stop_of t id));
    rev_events = rev_events [] (first_event t id);
  }

let find t id = if known t id then Some (build t id) else None
let spans t = List.init t.count (build t)
let events (span : span) = List.rev span.rev_events

(* A trace's ids are a walk back from its newest span, so consing along
   the walk yields start order. *)
let trace_ids t ~trace =
  let rec walk acc id = if id = none then acc else walk (id :: acc) (get t.prev_in_trace id) in
  match Hashtbl.find_opt t.slots trace with
  | Some slot -> walk [] (get t.trace_last slot)
  | None -> []

let trace_spans t ~trace = List.map (build t) (trace_ids t ~trace)

let open_spans t =
  let acc = ref [] in
  for id = t.count - 1 downto 0 do
    if stop_of t id = none then acc := build t id :: !acc
  done;
  !acc

let finish_all t stop =
  let stop = Simtime.to_us stop in
  for id = 0 to t.count - 1 do
    if stop_of t id = none then set t.stop id stop
  done

let traces t = List.init t.traces (get t.trace_id)

let duration_ms (span : span) =
  match span.stop with
  | None -> None
  | Some stop -> Some (Simtime.to_ms (Simtime.sub stop span.start))

(* A trace is well nested when every span's parent exists in the same
   trace and every closed child interval lies within its parent's
   interval (open spans trivially violate nesting: callers are expected
   to [finish_all] first). *)
let well_nested t ~trace =
  List.for_all
    (fun id ->
      let p = parent_of t id and stop = stop_of t id in
      if p = none then stop <> none
      else
        known t p
        && trace_of t p = trace
        && start_of t id >= start_of t p
        && stop <> none
        && stop_of t p <> none
        && stop <= stop_of t p)
    (trace_ids t ~trace)

let pp_span ppf (s : span) =
  let track = match s.track with None -> "client" | Some r -> "r" ^ string_of_int r in
  let stop =
    match s.stop with None -> "open" | Some st -> Simtime.to_string st
  in
  Format.fprintf ppf "[%d] trace=%d %-4s %-6s %s..%s" s.id s.trace s.name track
    (Simtime.to_string s.start) stop
