let json_escape = Metrics.json_escape

(* Both exporters append straight into one [Buffer]. *)
let add_int buf n = Buffer.add_string buf (string_of_int n)

(* Track numbering shared by both exporters: the client lane is 0,
   replica [r] is lane [r + 1]. *)
let tid_of_track = function None -> 0 | Some r -> r + 1

let track_name = function
  | 0 -> "client"
  | tid -> "replica " ^ string_of_int (tid - 1)

let add_span_jsonl buf (s : Span.span) =
  let str = Buffer.add_string buf and int = add_int buf in
  str "{\"type\":\"span\",\"id\":";
  int s.Span.id;
  str ",\"trace\":";
  int s.Span.trace;
  str ",\"name\":\"";
  str (json_escape s.Span.name);
  str "\"";
  (match s.Span.parent with
  | None -> ()
  | Some p ->
      str ",\"parent\":";
      int p);
  (match s.Span.track with
  | None -> str ",\"track\":\"client\""
  | Some r ->
      str ",\"track\":";
      int r);
  str ",\"start_us\":";
  int (Simtime.to_us s.Span.start);
  (match s.Span.stop with
  | None -> ()
  | Some st ->
      str ",\"stop_us\":";
      int (Simtime.to_us st));
  (match Span.events s with
  | [] -> ()
  | events ->
      str ",\"events\":[";
      List.iteri
        (fun i (e : Span.event) ->
          if i > 0 then str ",";
          str "{\"at_us\":";
          int (Simtime.to_us e.Span.at);
          (match e.Span.track with
          | None -> ()
          | Some r ->
              str ",\"track\":";
              int r);
          str ",\"note\":\"";
          str (json_escape e.Span.note);
          str "\"}")
        events;
      str "]");
  str "}"

(* One JSON object per line, one line per span, in start order. *)
let to_jsonl t =
  let buf = Buffer.create 4096 in
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_char buf '\n';
      add_span_jsonl buf s)
    (Span.spans t);
  Buffer.contents buf

(* Chrome trace_event format (chrome://tracing, Perfetto). Every trace
   (transaction) becomes a pid; the client lane and each replica lane
   become tids within it. Spans are "X" complete events with ts/dur in
   microseconds; zero-duration spans are emitted with dur=1 so they stay
   visible in the viewer. *)
let to_chrome t =
  let spans = Span.spans t in
  let buf = Buffer.create 4096 in
  let str = Buffer.add_string buf and int = add_int buf in
  str "{\"traceEvents\":[";
  let first = ref true in
  let next_event () = if !first then first := false else str "," in
  (* Metadata: name each process after its transaction and each thread
     after its lane, so the viewer shows meaningful labels. *)
  let seen_tids = Hashtbl.create 16 in
  List.iter
    (fun (s : Span.span) ->
      let pid = s.Span.trace in
      let tid = tid_of_track s.Span.track in
      if not (Hashtbl.mem seen_tids (pid, -1)) then begin
        Hashtbl.replace seen_tids (pid, -1) ();
        next_event ();
        str "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
        int pid;
        str ",\"tid\":0,\"args\":{\"name\":\"txn ";
        int pid;
        str "\"}}"
      end;
      if not (Hashtbl.mem seen_tids (pid, tid)) then begin
        Hashtbl.replace seen_tids (pid, tid) ();
        next_event ();
        str "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
        int pid;
        str ",\"tid\":";
        int tid;
        str ",\"args\":{\"name\":\"";
        str (track_name tid);
        str "\"}}"
      end)
    spans;
  List.iter
    (fun (s : Span.span) ->
      let ts = Simtime.to_us s.Span.start in
      let stop = match s.Span.stop with Some st -> Simtime.to_us st | None -> ts in
      next_event ();
      str "{\"name\":\"";
      str (json_escape s.Span.name);
      str "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":";
      int ts;
      str ",\"dur\":";
      int (Stdlib.max 1 (stop - ts));
      str ",\"pid\":";
      int s.Span.trace;
      str ",\"tid\":";
      int (tid_of_track s.Span.track);
      str ",\"args\":{\"trace\":";
      int s.Span.trace;
      let has_notes = ref false in
      List.iter
        (fun (e : Span.event) ->
          if e.Span.note <> "" then begin
            str (if !has_notes then ",\"" else ",\"notes\":[\"");
            has_notes := true;
            str (json_escape e.Span.note);
            str "\""
          end)
        (Span.events s);
      if !has_notes then str "]";
      str "}}")
    spans;
  (* Delivered messages additionally become flow events ("s" at the
     sender, "f" at the destination), so the viewer draws the causal
     arrows between lanes. The flow id is the message span id. *)
  let flow ~label ~ph id ts pid tid =
    next_event ();
    str "{\"name\":\"";
    str (json_escape label);
    str "\",\"cat\":\"msg\",";
    str ph;
    str ",\"id\":";
    int id;
    str ",\"ts\":";
    int ts;
    str ",\"pid\":";
    int pid;
    str ",\"tid\":";
    int tid;
    str "}"
  in
  List.iter
    (fun (s : Span.span) ->
      if Msg_dag.is_msg_span s then begin
        let m = Msg_dag.of_span s in
        match (m.Msg_dag.dst, s.Span.stop) with
        | Some dst, Some stop when m.Msg_dag.delivered ->
            let label = m.Msg_dag.label in
            flow ~label ~ph:{|"ph":"s"|} s.Span.id
              (Simtime.to_us s.Span.start)
              s.Span.trace
              (tid_of_track s.Span.track);
            flow ~label ~ph:{|"ph":"f","bp":"e"|} s.Span.id (Simtime.to_us stop)
              s.Span.trace
              (tid_of_track (Some dst))
        | _ -> ()
      end)
    spans;
  str "],\"displayTimeUnit\":\"ms\"}";
  Buffer.contents buf
