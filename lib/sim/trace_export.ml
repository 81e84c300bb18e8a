(* Kept for the repository benchmark (benchmark/replibench.ml), which
   names it; the escaping rule is {!Json}'s. *)
let json_escape = Json.escape

(* Both exporters run twice over the span store: a sizing pass that only
   advances [pos], then a writing pass into bytes of exactly that size,
   which become the result without a copy. One code path serves both
   passes, so the size cannot drift from what is written. An export may
   write several sections in one walk, each through its own cursor: the
   sizing pass measures each, and the writing pass starts each cursor
   where the sections before it end. *)
type out = { buf : Bytes.t; writing : bool; mutable pos : int }

let[@inline] char o c =
  if o.writing then Bytes.unsafe_set o.buf o.pos c;
  o.pos <- o.pos + 1

let[@inline] str o s =
  let n = String.length s in
  if o.writing then Bytes.unsafe_blit_string s 0 o.buf o.pos n;
  o.pos <- o.pos + n

(* The decimal digits of [-m] for [m <= 0]: negative arithmetic covers
   [min_int] too. Only negative numbers take this path. *)
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

(* The number of decimal digits of [n >= 0], by comparison, not
   division. [digits_from n p d] takes [n >= 10^(d-1)] and [p = 10^d];
   a 19-digit [n] stops at [d = 19], before [p] would overflow. *)
let rec digits_from n p d = if n < p || d = 19 then d else digits_from n (p * 10) (d + 1)

let[@inline] digits n =
  if n < 10 then 1
  else if n < 100 then 2
  else if n < 1_000 then 3
  else if n < 10_000 then 4
  else if n < 100_000 then 5
  else if n < 1_000_000 then 6
  else digits_from n 10_000_000 7

(* [string_of_int n], written in place. *)
let[@inline] int o n =
  if n < 0 then begin
    char o '-';
    digits_of_neg o n
  end
  else begin
    let len = digits n in
    if o.writing then begin
      let x = ref n in
      for i = o.pos + len - 1 downto o.pos do
        Bytes.unsafe_set o.buf i (Char.unsafe_chr (48 + (!x mod 10)));
        x := !x / 10
      done
    end;
    o.pos <- o.pos + len
  end

(* Run [emit] once to size its [sections] and once to write them. *)
let render ~sections emit =
  let sizing = Array.init sections (fun _ -> { buf = Bytes.empty; writing = false; pos = 0 }) in
  emit sizing;
  let starts = Array.make (sections + 1) 0 in
  Array.iteri (fun i (o : out) -> starts.(i + 1) <- starts.(i) + o.pos) sizing;
  let buf = Bytes.create starts.(sections) in
  let outs = Array.init sections (fun i -> { buf; writing = true; pos = starts.(i) }) in
  emit outs;
  Array.iteri (fun i (o : out) -> assert (o.pos = starts.(i + 1))) outs;
  Bytes.unsafe_to_string buf

(* The text one span name or note contributes, built once per export
   and shared by both passes. Names and notes are mostly a few strings
   shared by many spans (message-span names are interned per network,
   phase names and notes are literals), so a lookup first scans the
   strings it last resolved for the very same string, and only on a
   miss hashes the content; equal strings that are not the same string
   share one entry there. On lazy16-traced the scan won ten of ten
   alternating end-to-end pairs against a string-keyed table alone. *)
type 'a frags = {
  make : string -> 'a;
  by_content : (string, 'a) Hashtbl.t;
  recent : string array;  (** the last strings resolved, by identity *)
  recent_frag : 'a array;
  mutable filled : int;
  mutable next : int;  (** the [recent] slot the next miss overwrites *)
}

let recent_size = 16

let frags make =
  {
    make;
    by_content = Hashtbl.create 16;
    recent = Array.make recent_size "";
    recent_frag = Array.make recent_size (make "");
    filled = 0;
    next = 0;
  }

let rec scan f s i =
  if i = f.filled then i else if f.recent.(i) == s then i else scan f s (i + 1)

let frag f s =
  let i = scan f s 0 in
  if i < f.filled then f.recent_frag.(i)
  else begin
    let v =
      match Hashtbl.find f.by_content s with
      | v -> v
      | exception Not_found ->
          let v = f.make s in
          Hashtbl.replace f.by_content s v;
          v
    in
    let slot = f.next in
    f.recent.(slot) <- s;
    f.recent_frag.(slot) <- v;
    f.next <- (slot + 1) mod recent_size;
    if f.filled < recent_size then f.filled <- f.filled + 1;
    v
  end

(* Track numbering shared by both exporters: the client lane is 0,
   replica [r] is lane [r + 1] ([Span.none] is -1). *)
let tid_of_track r = r + 1

let span_jsonl o t ~names ~notes id =
  str o "{\"type\":\"span\",\"id\":";
  int o id;
  str o ",\"trace\":";
  int o (Span.trace_of t id);
  str o (frag names (Span.name_of t id));
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
      str o (frag notes (Span.event_note t !e));
      e := Span.next_event t !e
    done;
    str o "]"
  end;
  char o '}'

(* One JSON object per line, one line per span, in start order. *)
let to_jsonl t =
  let names = frags (fun s -> ",\"name\":\"" ^ Json.escape s ^ "\"")
  and notes = frags (fun s -> ",\"note\":\"" ^ Json.escape s ^ "\"}") in
  render ~sections:1 (fun outs ->
      let o = outs.(0) in
      for id = 0 to Span.count t - 1 do
        if id > 0 then char o '\n';
        span_jsonl o t ~names ~notes id
      done)

(* A span name's Chrome text: the complete event's head, and for a
   message span the heads of its two flow events (empty otherwise),
   each with the comma that precedes it. *)
type chrome_name = { x : string; s : string; f : string }

let chrome_name name =
  let x = ",{\"name\":\"" ^ Json.escape name ^ "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":" in
  let p = String.length Msg_dag.prefix in
  if String.length name <= p || not (String.starts_with ~prefix:Msg_dag.prefix name)
  then { x; s = ""; f = "" }
  else
    let flow ph =
      ",{\"name\":\"" ^ Json.escape (String.sub name p (String.length name - p))
      ^ "\",\"cat\":\"msg\"," ^ ph ^ ",\"id\":"
    in
    { x; s = flow {|"ph":"s"|}; f = flow {|"ph":"f","bp":"e"|} }

(* Chrome trace_event format (chrome://tracing, Perfetto). Every trace
   (transaction) becomes a pid; the client lane and each replica lane
   become tids within it. The events come in three sections, each in
   span order: metadata naming each process after its transaction and
   each thread after its lane; one "X" complete event per span, with
   ts/dur in microseconds (zero-duration spans get dur=1 so they stay
   visible); and, for each delivered message, a pair of flow events ("s"
   at the sender, "f" at the destination) from which the viewer draws
   the causal arrows between lanes, with the message span's id as flow
   id and its name after {!Msg_dag.prefix} as label. One walk over the
   spans writes all three, each section through its own cursor. *)
let head = "{\"traceEvents\":["

(* The first metadata event is the first event: every other one follows
   a comma. *)
let meta_comma o = if o.pos > String.length head then char o ','

(* Traces get their slots in first-seen order, so a span opens a new
   process exactly when its slot is the next unseen one. The lanes
   already named in a trace are a bit mask by slot, with a list for
   lanes beyond the mask's width. Both tables come in chunks of 256
   slots, small enough to be allocated young and die there. *)
type lanes = { mutable fresh : int; masks : int array array; wide : int list array array }

let by_slot traces v = Array.init ((traces + 255) lsr 8) (fun _ -> Array.make 256 v)

let metadata o lanes ~slot ~pid ~tid =
  if slot = lanes.fresh then begin
    lanes.fresh <- slot + 1;
    meta_comma o;
    str o "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    int o pid;
    str o ",\"tid\":0,\"args\":{\"name\":\"txn ";
    int o pid;
    str o "\"}}"
  end;
  let named =
    if tid < Sys.int_size then begin
      let masks = lanes.masks.(slot lsr 8) in
      let bit = 1 lsl tid and mask = masks.(slot land 255) in
      masks.(slot land 255) <- mask lor bit;
      mask land bit <> 0
    end
    else begin
      let wides = lanes.wide.(slot lsr 8) in
      let wide = wides.(slot land 255) in
      List.mem tid wide || (wides.(slot land 255) <- tid :: wide; false)
    end
  in
  if not named then begin
    meta_comma o;
    str o "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
    int o pid;
    str o ",\"tid\":";
    int o tid;
    if tid = 0 then str o ",\"args\":{\"name\":\"client\"}}"
    else begin
      str o ",\"args\":{\"name\":\"replica ";
      int o (tid - 1);
      str o "\"}}"
    end
  end

(* A note's Chrome text, quoted, and what it says about a message. *)
type chrome_note = { quoted : string; kind : Msg_dag.note }

let chrome_note note = { quoted = "\"" ^ Json.escape note ^ "\""; kind = Msg_dag.note_kind note }

(* Writes span [id]'s complete event and returns, read from the same
   walk over its events by {!Msg_dag}'s rule, where it was delivered
   ({!Span.none} if it was not). *)
let complete o t ~notes name ~pid ~tid id =
  let ts = Span.start_of t id and stop = Span.stop_of t id in
  let stop = if stop = Span.none then ts else stop in
  str o name.x;
  int o ts;
  str o ",\"dur\":";
  int o (Stdlib.max 1 (stop - ts));
  str o ",\"pid\":";
  int o pid;
  str o ",\"tid\":";
  int o tid;
  str o ",\"args\":{\"trace\":";
  int o pid;
  let has_notes = ref false and dst = ref Span.none and delivered = ref false in
  let e = ref (Span.first_event t id) in
  while !e <> Span.none do
    let note = Span.event_note t !e in
    if String.length note > 0 then begin
      let note = frag notes note in
      str o (if !has_notes then "," else ",\"notes\":[");
      has_notes := true;
      str o note.quoted;
      match note.kind with
      | Msg_dag.Deliver ->
          dst := Span.event_track t !e;
          delivered := true
      | Drop -> dst := Span.event_track t !e
      | Other -> ()
    end;
    e := Span.next_event t !e
  done;
  if !has_notes then char o ']';
  str o "}}";
  if !delivered then !dst else Span.none

let flow o head id ts pid tid =
  str o head;
  int o id;
  str o ",\"ts\":";
  int o ts;
  str o ",\"pid\":";
  int o pid;
  str o ",\"tid\":";
  int o tid;
  char o '}'

let flows o t name ~pid ~tid ~dst id =
  if String.length name.s > 0 then begin
    let stop = Span.stop_of t id in
    if dst <> Span.none && stop <> Span.none then begin
      flow o name.s id (Span.start_of t id) pid tid;
      flow o name.f id stop pid (tid_of_track dst)
    end
  end

let to_chrome t =
  let names = frags chrome_name
  and notes = frags chrome_note in
  let traces = Span.trace_count t in
  render ~sections:3 (fun outs ->
      let meta = outs.(0) and spans = outs.(1) and msgs = outs.(2) in
      let lanes = { fresh = 0; masks = by_slot traces 0; wide = by_slot traces [] } in
      str meta head;
      for id = 0 to Span.count t - 1 do
        let slot = Span.slot_of t id and tid = tid_of_track (Span.track_of t id) in
        let pid = Span.trace_of_slot t slot and name = frag names (Span.name_of t id) in
        metadata meta lanes ~slot ~pid ~tid;
        let dst = complete spans t ~notes name ~pid ~tid id in
        flows msgs t name ~pid ~tid ~dst id
      done;
      str msgs "],\"displayTimeUnit\":\"ms\"}")
