let json_escape = Metrics.json_escape

(* Both exporters run twice over the span store: a sizing pass that only
   advances [pos], then a writing pass into bytes of exactly that size,
   which become the result without a copy. One code path serves both
   passes, so the size cannot drift from what is written. *)
type out = { buf : Bytes.t; writing : bool; mutable pos : int }

let char o c =
  if o.writing then Bytes.unsafe_set o.buf o.pos c;
  o.pos <- o.pos + 1

let str o s =
  let n = String.length s in
  if o.writing then Bytes.unsafe_blit_string s 0 o.buf o.pos n;
  o.pos <- o.pos + n

(* The decimal digits of [-m] for [m <= 0]: negative arithmetic covers
   [min_int] too. *)
let digits_of_neg o m =
  let len = ref 1 and x = ref (m / 10) in
  while !x <> 0 do
    incr len;
    x := !x / 10
  done;
  if o.writing then begin
    let x = ref m in
    for i = o.pos + !len - 1 downto o.pos do
      Bytes.unsafe_set o.buf i (Char.unsafe_chr (48 - (!x mod 10)));
      x := !x / 10
    done
  end;
  o.pos <- o.pos + !len

(* [string_of_int n], written in place. *)
let int o n =
  if n < 0 then begin
    char o '-';
    digits_of_neg o n
  end
  else digits_of_neg o (-n)

let hex = "0123456789abcdef"

let rec clean s i =
  i = String.length s
  ||
  match String.unsafe_get s i with
  | '"' | '\\' -> false
  | c -> Char.code c >= 0x20 && clean s (i + 1)

(* [json_escape] of [s] from offset [off], written in place; a string
   with nothing to escape is one blit. *)
let escaped o s off =
  let n = String.length s in
  if clean s off then begin
    if o.writing then Bytes.unsafe_blit_string s off o.buf o.pos (n - off);
    o.pos <- o.pos + (n - off)
  end
  else
    for i = off to n - 1 do
      match String.unsafe_get s i with
      | '"' -> str o "\\\""
      | '\\' -> str o "\\\\"
      | '\n' -> str o "\\n"
      | '\r' -> str o "\\r"
      | '\t' -> str o "\\t"
      | c when Char.code c < 0x20 ->
          str o "\\u00";
          char o hex.[Char.code c lsr 4];
          char o hex.[Char.code c land 15]
      | c -> char o c
    done

(* Run [emit] once to size the output and once to write it. *)
let render emit =
  let sizing = { buf = Bytes.empty; writing = false; pos = 0 } in
  emit sizing;
  let o = { buf = Bytes.create sizing.pos; writing = true; pos = 0 } in
  emit o;
  assert (o.pos = Bytes.length o.buf);
  Bytes.unsafe_to_string o.buf

(* Track numbering shared by both exporters: the client lane is 0,
   replica [r] is lane [r + 1] ([Span.none] is -1). *)
let tid_of_track r = r + 1

let rec mem_int (x : int) = function [] -> false | y :: l -> x = y || mem_int x l

let track_name = function
  | 0 -> "client"
  | tid -> "replica " ^ string_of_int (tid - 1)

let span_jsonl o t id =
  str o "{\"type\":\"span\",\"id\":";
  int o id;
  str o ",\"trace\":";
  int o (Span.trace_of t id);
  str o ",\"name\":\"";
  escaped o (Span.name_of t id) 0;
  str o "\"";
  let parent = Span.parent_of t id in
  if parent <> Span.none then begin
    str o ",\"parent\":";
    int o parent
  end;
  let track = Span.track_of t id in
  if track = Span.none then str o ",\"track\":\"client\""
  else begin
    str o ",\"track\":";
    int o track
  end;
  str o ",\"start_us\":";
  int o (Span.start_of t id);
  let stop = Span.stop_of t id in
  if stop <> Span.none then begin
    str o ",\"stop_us\":";
    int o stop
  end;
  let first = Span.first_event t id in
  if first <> Span.none then begin
    str o ",\"events\":[";
    let e = ref first in
    while !e <> Span.none do
      if !e <> first then char o ',';
      str o "{\"at_us\":";
      int o (Span.event_at t !e);
      let track = Span.event_track t !e in
      if track <> Span.none then begin
        str o ",\"track\":";
        int o track
      end;
      str o ",\"note\":\"";
      escaped o (Span.event_note t !e) 0;
      str o "\"}";
      e := Span.next_event t !e
    done;
    str o "]"
  end;
  char o '}'

(* One JSON object per line, one line per span, in start order. *)
let to_jsonl t =
  render (fun o ->
      for id = 0 to Span.count t - 1 do
        if id > 0 then char o '\n';
        span_jsonl o t id
      done)

(* Chrome trace_event format (chrome://tracing, Perfetto). Every trace
   (transaction) becomes a pid; the client lane and each replica lane
   become tids within it. Spans are "X" complete events with ts/dur in
   microseconds; zero-duration spans are emitted with dur=1 so they stay
   visible in the viewer. *)
let chrome o t =
  let n = Span.count t in
  str o "{\"traceEvents\":[";
  let first = ref true in
  let next_event () = if !first then first := false else char o ',' in
  (* Metadata: name each process after its transaction and each thread
     after its lane, so the viewer shows meaningful labels. [seen] maps
     a trace to the lanes already named in it. *)
  let seen : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  for id = 0 to n - 1 do
    let pid = Span.trace_of t id and tid = tid_of_track (Span.track_of t id) in
    let tids =
      match Hashtbl.find seen pid with
      | tids -> tids
      | exception Not_found ->
          let tids = ref [] in
          Hashtbl.replace seen pid tids;
          next_event ();
          str o "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
          int o pid;
          str o ",\"tid\":0,\"args\":{\"name\":\"txn ";
          int o pid;
          str o "\"}}";
          tids
    in
    if not (mem_int tid !tids) then begin
      tids := tid :: !tids;
      next_event ();
      str o "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
      int o pid;
      str o ",\"tid\":";
      int o tid;
      str o ",\"args\":{\"name\":\"";
      str o (track_name tid);
      str o "\"}}"
    end
  done;
  for id = 0 to n - 1 do
    let ts = Span.start_of t id and stop = Span.stop_of t id in
    let stop = if stop = Span.none then ts else stop in
    let trace = Span.trace_of t id in
    next_event ();
    str o "{\"name\":\"";
    escaped o (Span.name_of t id) 0;
    str o "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":";
    int o ts;
    str o ",\"dur\":";
    int o (Stdlib.max 1 (stop - ts));
    str o ",\"pid\":";
    int o trace;
    str o ",\"tid\":";
    int o (tid_of_track (Span.track_of t id));
    str o ",\"args\":{\"trace\":";
    int o trace;
    let has_notes = ref false in
    let e = ref (Span.first_event t id) in
    while !e <> Span.none do
      let note = Span.event_note t !e in
      if note <> "" then begin
        str o (if !has_notes then ",\"" else ",\"notes\":[\"");
        has_notes := true;
        escaped o note 0;
        char o '"'
      end;
      e := Span.next_event t !e
    done;
    if !has_notes then char o ']';
    str o "}}"
  done;
  (* Delivered messages additionally become flow events ("s" at the
     sender, "f" at the destination), so the viewer draws the causal
     arrows between lanes. The flow id is the message span id and the
     label is the span name after its {!Msg_dag.prefix}. *)
  let flow ~ph id name ts pid tid =
    next_event ();
    str o "{\"name\":\"";
    escaped o name (String.length Msg_dag.prefix);
    str o "\",\"cat\":\"msg\",";
    str o ph;
    str o ",\"id\":";
    int o id;
    str o ",\"ts\":";
    int o ts;
    str o ",\"pid\":";
    int o pid;
    str o ",\"tid\":";
    int o tid;
    char o '}'
  in
  for id = 0 to n - 1 do
    if Msg_dag.is_msg_span t id then begin
      let dst = Msg_dag.delivered_to t id and stop = Span.stop_of t id in
      if dst <> Span.none && stop <> Span.none then begin
        let name = Span.name_of t id and pid = Span.trace_of t id in
        flow ~ph:{|"ph":"s"|} id name (Span.start_of t id) pid
          (tid_of_track (Span.track_of t id));
        flow ~ph:{|"ph":"f","bp":"e"|} id name stop pid (tid_of_track dst)
      end
    end
  done;
  str o "],\"displayTimeUnit\":\"ms\"}"

let to_chrome t = render (fun o -> chrome o t)
