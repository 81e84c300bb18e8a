(* Engine self-profiling: wall-time and allocation attribution for the
   simulator's own hot path.

   The engine wraps every scheduled action it dispatches with a
   caller-supplied label ("net:deliver", "client:arrival",
   "rchan:retransmit", ...) and, when a profiler is attached, stamps a
   wall-clock / GC snapshot around the action and accumulates the deltas
   into per-label buckets. Everything wall-clock-derived is inherently
   non-deterministic; the deterministic event counters live in
   {!Engine} (events executed, timers scheduled/cancelled, queue peak)
   and are copied into the report so one record describes the run.

   Wall time comes from [Unix.gettimeofday] (microsecond resolution —
   individual sub-microsecond actions quantise to 0 or 1 us, but sums
   over many events remain statistically faithful). Allocation is
   minor + major - promoted words: the minor words from [Gc.minor_words],
   which counts them as they are allocated, the other two from
   [Gc.counters]. (On OCaml 5 the minor words of [Gc.counters] only
   advance when a minor collection runs, which would charge each event
   the minor heap of whichever event triggers one.) *)

type bucket = {
  label : string;
  mutable b_events : int;
  mutable b_wall_s : float;
  mutable b_alloc_w : float;
}

type t = {
  buckets : (string, bucket) Hashtbl.t;
  mutable order : string list; (* first-seen order, reversed *)
  mutable attributed : int;
  mutable self_wall_s : float; (* sum over buckets *)
  mutable alloc_w : float; (* sum over buckets *)
  mutable heap_peak_w : int; (* max major-heap words seen at event edges *)
  (* Engine counters, copied in by the driver at the end of the run so
     [report] is self-contained. All deterministic. *)
  mutable events : int;
  mutable scheduled : int;
  mutable cancelled : int;
  mutable queue_peak : int;
  mutable run_wall_s : float; (* wall time inside the run loop *)
  (* Observability-stack meta counters: the cost of watching. *)
  mutable spans_created : int;
  mutable samples_taken : int;
  mutable trace_bytes : int;
}

let create () =
  {
    buckets = Hashtbl.create 32;
    order = [];
    attributed = 0;
    self_wall_s = 0.;
    alloc_w = 0.;
    heap_peak_w = 0;
    events = 0;
    scheduled = 0;
    cancelled = 0;
    queue_peak = 0;
    run_wall_s = 0.;
    spans_created = 0;
    samples_taken = 0;
    trace_bytes = 0;
  }

(* A measurement mark: wall clock and net allocated words at the start
   of the measured region. *)
type mark = { m_wall : float; m_alloc : float }

let allocated_words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let mark () = { m_wall = Unix.gettimeofday (); m_alloc = allocated_words () }

let bucket t label =
  match Hashtbl.find_opt t.buckets label with
  | Some b -> b
  | None ->
      let b = { label; b_events = 0; b_wall_s = 0.; b_alloc_w = 0. } in
      Hashtbl.replace t.buckets label b;
      t.order <- label :: t.order;
      b

let attribute t ~label m =
  let wall = Unix.gettimeofday () -. m.m_wall in
  let wall = if wall > 0. then wall else 0. in
  let alloc = allocated_words () -. m.m_alloc in
  let alloc = if alloc > 0. then alloc else 0. in
  let b = bucket t label in
  b.b_events <- b.b_events + 1;
  b.b_wall_s <- b.b_wall_s +. wall;
  b.b_alloc_w <- b.b_alloc_w +. alloc;
  t.attributed <- t.attributed + 1;
  t.self_wall_s <- t.self_wall_s +. wall;
  t.alloc_w <- t.alloc_w +. alloc;
  let heap = (Gc.quick_stat ()).Gc.heap_words in
  if heap > t.heap_peak_w then t.heap_peak_w <- heap

let measure t ~label f =
  let m = mark () in
  Fun.protect ~finally:(fun () -> attribute t ~label m) f

let set_engine_stats t ~events ~scheduled ~cancelled ~queue_peak =
  t.events <- events;
  t.scheduled <- scheduled;
  t.cancelled <- cancelled;
  t.queue_peak <- queue_peak

let add_run_wall t s = t.run_wall_s <- t.run_wall_s +. (if s > 0. then s else 0.)

let set_meta t ?spans_created ?samples_taken () =
  Option.iter (fun v -> t.spans_created <- v) spans_created;
  Option.iter (fun v -> t.samples_taken <- v) samples_taken

let add_trace_bytes t n = t.trace_bytes <- t.trace_bytes + n

(* ---- report ---------------------------------------------------------- *)

type row = {
  r_label : string;
  r_events : int;
  r_wall_ms : float;
  r_wall_share : float; (* of the summed bucket self time; 0 when none *)
  r_alloc_w : float;
  r_alloc_share : float;
}

type report = {
  p_events : int;
  p_scheduled : int;
  p_cancelled : int;
  p_queue_peak : int;
  p_wall_s : float; (* run-loop wall time *)
  p_events_per_sec : float; (* 0 when the loop took no measurable time *)
  p_self_wall_s : float;
  p_alloc_words : float;
  p_heap_peak_words : int;
  p_spans_created : int;
  p_samples_taken : int;
  p_trace_bytes : int;
  p_buckets : row list; (* first-seen (deterministic) order *)
}

let report t =
  let rows =
    List.rev t.order
    |> List.filter_map (fun label -> Hashtbl.find_opt t.buckets label)
    |> List.map (fun b ->
           {
             r_label = b.label;
             r_events = b.b_events;
             r_wall_ms = b.b_wall_s *. 1_000.;
             r_wall_share =
               (if t.self_wall_s > 0. then b.b_wall_s /. t.self_wall_s else 0.);
             r_alloc_w = b.b_alloc_w;
             r_alloc_share =
               (if t.alloc_w > 0. then b.b_alloc_w /. t.alloc_w else 0.);
           })
  in
  {
    p_events = t.events;
    p_scheduled = t.scheduled;
    p_cancelled = t.cancelled;
    p_queue_peak = t.queue_peak;
    p_wall_s = t.run_wall_s;
    p_events_per_sec =
      (if t.run_wall_s > 0. then float_of_int t.events /. t.run_wall_s else 0.);
    p_self_wall_s = t.self_wall_s;
    p_alloc_words = t.alloc_w;
    p_heap_peak_words = t.heap_peak_w;
    p_spans_created = t.spans_created;
    p_samples_taken = t.samples_taken;
    p_trace_bytes = t.trace_bytes;
    p_buckets = rows;
  }

(* ---- rendering ------------------------------------------------------- *)

let row_to_json r =
  Json.(
    Obj
      [ ("label", Str r.r_label); ("events", Int r.r_events); ("wall_ms", Num r.r_wall_ms);
        ("wall_share", Num r.r_wall_share); ("alloc_words", Num r.r_alloc_w);
        ("alloc_share", Num r.r_alloc_share) ])

let report_to_json ?(extra = []) r =
  Json.(
    to_string
      (Obj
         ((("type", Str "profile") :: extra)
         @ [ ("events", Int r.p_events); ("scheduled", Int r.p_scheduled);
             ("cancelled", Int r.p_cancelled); ("queue_peak", Int r.p_queue_peak);
             ("wall_ms", Num (r.p_wall_s *. 1_000.)); ("events_per_sec", Num r.p_events_per_sec);
             ("self_wall_ms", Num (r.p_self_wall_s *. 1_000.));
             ("alloc_words", Num r.p_alloc_words); ("heap_peak_words", Int r.p_heap_peak_words);
             ("spans_created", Int r.p_spans_created); ("samples_taken", Int r.p_samples_taken);
             ("trace_bytes", Int r.p_trace_bytes);
             ("buckets", Arr (List.map row_to_json r.p_buckets)) ])))

(* Wall-clock-derived (and environment-dependent) fields vary run to
   run even at a fixed seed. The deterministic counters (events,
   scheduled, cancelled, queue_peak, spans_created, samples_taken,
   per-bucket events) are left untouched — two same-seed runs must agree
   on those exactly. *)
let normalize r =
  let row b =
    { b with r_wall_ms = 0.; r_wall_share = 0.; r_alloc_w = 0.; r_alloc_share = 0. }
  in
  {
    r with
    p_wall_s = 0.;
    p_events_per_sec = 0.;
    p_self_wall_s = 0.;
    p_alloc_words = 0.;
    p_heap_peak_words = 0;
    p_trace_bytes = 0;
    p_buckets = List.map row r.p_buckets;
  }

let pp_row ppf r =
  Format.fprintf ppf "%-18s %9d ev %10.3f ms %5.1f%% %12.0f w %5.1f%%"
    r.r_label r.r_events r.r_wall_ms
    (100. *. r.r_wall_share)
    r.r_alloc_w
    (100. *. r.r_alloc_share)

let pp_report ppf r =
  Format.fprintf ppf
    "events=%d scheduled=%d cancelled=%d queue_peak=%d wall=%.3fs alloc=%.0fw \
     heap_peak=%dw spans=%d samples=%d trace_bytes=%d"
    r.p_events r.p_scheduled r.p_cancelled r.p_queue_peak r.p_wall_s
    r.p_alloc_words r.p_heap_peak_words r.p_spans_created r.p_samples_taken
    r.p_trace_bytes
