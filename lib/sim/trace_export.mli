(** Machine-readable exporters for {!Span} collections.

    Two formats: newline-delimited JSON (one object per span, stable and
    grep-friendly) and Chrome [trace_event] JSON that loads directly in
    Perfetto / chrome://tracing. Neither needs an external JSON library.

    Both read {!Span}'s columns directly, building no span record, and
    allocate their result once: a first pass over the store sizes the
    output exactly, a second writes it into that one string.

    Cost: per-kind work is done once per kind. Each distinct span name's
    and event note's JSON text (escaped, with the keys around it, and for
    a message span the heads of its flow events) is built once per
    export and shared by both passes; a span finds it by scanning the
    last few strings resolved, by identity, and hashes its name only on
    a miss. Numbers are sized by comparison and written in place. The
    Chrome export walks the spans once per pass, writing its metadata,
    complete-event and flow sections through three cursors; a span's
    lane metadata is found through its trace slot ({!Span.slot_of}) in a
    per-slot bit mask, with no hashing. Beyond the result, an export
    allocates the fragments and two words per trace. On [lazy16-traced]
    (11 866 spans, 3 849 928 bytes) [to_chrome] takes about 7 ms warm,
    against 16 ms when each span's text is escaped and its lane looked
    up in a hash table anew (2-core x86-64 VM). *)

(** One JSON object per line per span, in start order. Fields: [type],
    [id], [trace], [name], optional [parent], [track] (["client"] or a
    replica index), [start_us], optional [stop_us], optional [events]. *)
val to_jsonl : Span.t -> string

(** Chrome trace_event JSON: [{"traceEvents": [...], "displayTimeUnit":
    "ms"}]. Transactions map to pids, lanes (client / replica r) to tids,
    spans to ["ph":"X"] complete events with [ts]/[dur] in microseconds.
    Delivered message spans additionally emit flow events (["ph":"s"] at
    the sender, ["ph":"f"] at the destination) so Perfetto draws the
    causal arrows between lanes. *)
val to_chrome : Span.t -> string

(** {!Json.escape}, kept under this name for the repository benchmark. *)
val json_escape : string -> string
