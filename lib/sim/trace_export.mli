(** Machine-readable exporters for {!Span} collections.

    Two formats: newline-delimited JSON (one object per span, stable and
    grep-friendly) and Chrome [trace_event] JSON that loads directly in
    Perfetto / chrome://tracing. Neither needs an external JSON library.

    Both read {!Span}'s columns directly, building no span record, and
    allocate their result once: a first pass over the store sizes the
    output exactly, a second writes it into that one string. *)

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

(** Minimal JSON string escaping shared with {!Metrics}. *)
val json_escape : string -> string
