type ctx = { trace : int; span : int }

type timer = {
  time : Simtime.t;
  seq : int;
  (* For ordinary timers: the pending action, [None] once cancelled or run.
     For periodic proxies (seq = -1): the cancellation routine. *)
  mutable action : (unit -> unit) option;
  (* Causal context captured when the timer was scheduled; reinstalled
     around the action so trace attribution survives asynchrony. *)
  t_ctx : ctx option;
  (* Profiling label supplied by the scheduler ("net:deliver",
     "client:arrival", ...); self time and allocation of the action are
     attributed to this bucket when a profiler is attached. *)
  t_label : string;
  (* The owning engine's live-timer counter (shared by every timer of the
     engine): [cancel] has no engine handle, so the counter rides in the
     timer. Periodic proxies (seq = -1) never sit in the heap and are
     excluded from the count. *)
  t_live : int ref;
}

type t = {
  mutable clock : Simtime.t;
  mutable next_seq : int;
  queue : timer Heap.t;
  root_rng : Rng.t;
  mutable cur_ctx : ctx option;
  mutable profiler : Profiler.t option;
  (* Deterministic event-loop statistics (kept even without a profiler —
     the bookkeeping is a handful of int ops per event). *)
  mutable executed : int;
  mutable scheduled : int;
  mutable cancelled_seen : int; (* cancelled timers discarded at the head *)
  mutable queue_peak : int;
  (* Scheduled-and-not-yet-run-or-cancelled timers. Kept live on every
     schedule/cancel/dispatch so [pending] is O(1) instead of a heap
     scan; [pending_scan] is the O(n) reference it must always match. *)
  live : int ref;
}

let compare_timer a b =
  match Simtime.compare a.time b.time with
  | 0 -> Int.compare a.seq b.seq
  | c -> c

let create ?(seed = 0xC0FFEE) () =
  {
    clock = Simtime.zero;
    next_seq = 0;
    queue = Heap.create ~cmp:compare_timer;
    root_rng = Rng.create ~seed;
    cur_ctx = None;
    profiler = None;
    executed = 0;
    scheduled = 0;
    cancelled_seen = 0;
    queue_peak = 0;
    live = ref 0;
  }

let now t = t.clock
let rng t = t.root_rng
let ctx t = t.cur_ctx
let set_ctx t c = t.cur_ctx <- c
let set_profiler t p = t.profiler <- p
let profiler t = t.profiler
let events_executed t = t.executed
let timers_scheduled t = t.scheduled
let timers_cancelled t = t.cancelled_seen
let queue_peak t = t.queue_peak

let schedule_at t ?(label = "timer") ~at f =
  let at = Simtime.max at t.clock in
  let timer =
    {
      time = at;
      seq = t.next_seq;
      action = Some f;
      t_ctx = t.cur_ctx;
      t_label = label;
      t_live = t.live;
    }
  in
  t.next_seq <- t.next_seq + 1;
  t.scheduled <- t.scheduled + 1;
  incr t.live;
  Heap.push t.queue timer;
  let depth = Heap.length t.queue in
  if depth > t.queue_peak then t.queue_peak <- depth;
  timer

let schedule t ?label ~after f =
  schedule_at t ?label ~at:(Simtime.add t.clock after) f

(* Null a heap timer's action, maintaining the live count. A no-op on a
   timer already run or cancelled, so double-cancel never double-counts. *)
let deactivate tm =
  if tm.action <> None then begin
    tm.action <- None;
    decr tm.t_live
  end

let periodic t ?label ~every f =
  let armed = ref None in
  let cancelled = ref false in
  let rec tick () =
    if not !cancelled then begin
      f ();
      if not !cancelled then armed := Some (schedule t ?label ~after:every tick)
    end
  in
  armed := Some (schedule t ?label ~after:every tick);
  let cancel_now () =
    cancelled := true;
    match !armed with Some tm -> deactivate tm | None -> ()
  in
  {
    time = t.clock;
    seq = -1;
    action = Some cancel_now;
    t_ctx = None;
    t_label = "timer";
    t_live = t.live;
  }

let cancel timer =
  if timer.seq = -1 then begin
    (match timer.action with Some cancel_now -> cancel_now () | None -> ());
    timer.action <- None
  end
  else deactivate timer

let pending t = !(t.live)

(* The O(n) scan [pending] used to be; kept as the reference the counter
   is tested against. *)
let pending_scan t =
  let n = ref 0 in
  Heap.iter t.queue (fun tm -> if tm.action <> None then incr n);
  !n

(* Run one action with the timer's context installed, attributing its
   self time and allocation to the timer's label when profiling. The
   context save/restore is inlined (no [Fun.protect] closure) — this is
   the single hottest edge in the simulator. *)
let dispatch t tm f =
  let saved = t.cur_ctx in
  t.cur_ctx <- tm.t_ctx;
  (match t.profiler with
  | None -> (
      try f ()
      with e ->
        t.cur_ctx <- saved;
        raise e)
  | Some p -> (
      let m = Profiler.mark () in
      match f () with
      | () -> Profiler.attribute p ~label:tm.t_label m
      | exception e ->
          t.cur_ctx <- saved;
          Profiler.attribute p ~label:tm.t_label m;
          raise e));
  t.cur_ctx <- saved;
  t.executed <- t.executed + 1

let step t =
  let rec next () =
    match Heap.pop t.queue with
    | None -> false
    | Some tm -> (
        match tm.action with
        | None ->
            t.cancelled_seen <- t.cancelled_seen + 1;
            next ()
        | Some f ->
            tm.action <- None;
            decr t.live;
            t.clock <- tm.time;
            dispatch t tm f;
            true)
  in
  next ()

(* Discard cancelled timers sitting at the head of the queue so that
   [peek] reflects the next event that will actually run. *)
let rec peek_live t =
  match Heap.peek t.queue with
  | None -> None
  | Some tm ->
      if tm.action = None then begin
        ignore (Heap.pop t.queue);
        t.cancelled_seen <- t.cancelled_seen + 1;
        peek_live t
      end
      else Some tm

let run ?(until = Simtime.infinity) ?(max_events = max_int) t =
  let wall0 =
    match t.profiler with None -> 0. | Some _ -> Unix.gettimeofday ()
  in
  let executed = ref 0 in
  let continue = ref true in
  while !continue && !executed < max_events do
    match peek_live t with
    | None -> continue := false
    | Some tm ->
        if Simtime.(tm.time > until) then continue := false
        else if step t then incr executed
        else continue := false
  done;
  (match t.profiler with
  | None -> ()
  | Some p -> Profiler.add_run_wall p (Unix.gettimeofday () -. wall0));
  !executed
