type ctx = { trace : int; span : int }

type timer = {
  (* The pending action, [spent] once cancelled or run. *)
  mutable action : unit -> unit;
  (* Causal context captured when the timer was scheduled; reinstalled
     around the action so trace attribution survives asynchrony. *)
  t_ctx : ctx option;
  (* Profiling label supplied by the scheduler ("net:deliver",
     "client:arrival", ...); self time and allocation of the action are
     attributed to this bucket when a profiler is attached. *)
  t_label : string;
  (* The owning engine's live-timer counter (shared by every timer of the
     engine): [cancel] has no engine handle, so the counter rides in the
     timer. *)
  t_live : int ref;
}

(* The action of a timer that has run or been cancelled. Compared by
   physical equality only: closures admit no structural comparison. *)
let spent () = ()

(* Fills the timer slots past the end of the queue so that popped timers
   (and their closures) are not kept reachable. *)
let vacant =
  {
    action = spent;
    t_ctx = None;
    t_label = "";
    t_live = ref 0;
  }

(* The timer queue: a binary min-heap on (time, seq) kept in three
   parallel arrays, so sifting compares unboxed ints and never touches a
   timer record. [seq] is the scheduling order, unique per engine, which
   breaks ties between timers due at the same instant. *)
type queue = {
  mutable times : int array;
  mutable seqs : int array;
  mutable timers : timer array;
  mutable size : int;
}

type t = {
  mutable clock : Simtime.t;
  mutable next_seq : int;
  q : queue;
  root_rng : Rng.t;
  mutable cur_ctx : ctx option;
  mutable profiler : Profiler.t option;
  (* Deterministic event-loop statistics (kept even without a profiler —
     the bookkeeping is a handful of int ops per event). *)
  mutable executed : int;
  mutable scheduled : int;
  mutable cancelled_seen : int; (* cancelled timers discarded or compacted *)
  mutable queue_peak : int;
  (* Scheduled-and-not-yet-run-or-cancelled timers. Kept live on every
     schedule/cancel/dispatch so [pending] is O(1) instead of a queue
     scan; [pending_scan] is the O(n) reference it must always match. *)
  live : int ref;
}

let create ?(seed = 0xC0FFEE) () =
  {
    clock = Simtime.zero;
    next_seq = 0;
    q = { times = [||]; seqs = [||]; timers = [||]; size = 0 };
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

(* --- the queue --------------------------------------------------------- *)

let grow q =
  let cap = Array.length q.times in
  let ncap = if cap = 0 then 64 else cap * 2 in
  let extend a fill =
    let b = Array.make ncap fill in
    Array.blit a 0 b 0 q.size;
    b
  in
  q.times <- extend q.times 0;
  q.seqs <- extend q.seqs 0;
  q.timers <- extend q.timers vacant

(* Move the entry at [j] into slot [i]. *)
let[@inline] move q ~from:j i =
  Array.unsafe_set q.times i (Array.unsafe_get q.times j);
  Array.unsafe_set q.seqs i (Array.unsafe_get q.seqs j);
  Array.unsafe_set q.timers i (Array.unsafe_get q.timers j)

let[@inline] place q i time seq tm =
  Array.unsafe_set q.times i time;
  Array.unsafe_set q.seqs i seq;
  Array.unsafe_set q.timers i tm

(* Is the entry at [i] due strictly before (time, seq)? *)
let[@inline] before q i time seq =
  let ti = Array.unsafe_get q.times i in
  ti < time || (ti = time && Array.unsafe_get q.seqs i < seq)

(* Settle (time, seq, tm) into the hole at [i], moving parents down. *)
let rec sift_up q i time seq tm =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before q p time seq then place q i time seq tm
    else begin
      move q ~from:p i;
      sift_up q p time seq tm
    end
  end
  else place q i time seq tm

(* Settle (time, seq, tm) into the hole at [i], moving smaller children
   up. *)
let rec sift_down q i time seq tm =
  let l = (2 * i) + 1 in
  if l >= q.size then place q i time seq tm
  else
    let r = l + 1 in
    let c =
      if
        r < q.size
        && before q r (Array.unsafe_get q.times l) (Array.unsafe_get q.seqs l)
      then r
      else l
    in
    if before q c time seq then begin
      move q ~from:c i;
      sift_down q c time seq tm
    end
    else place q i time seq tm

let push q time seq tm =
  if q.size = Array.length q.times then grow q;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i time seq tm

(* Remove slot 0. *)
let pop_head q =
  let last = q.size - 1 in
  q.size <- last;
  let time = Array.unsafe_get q.times last
  and seq = Array.unsafe_get q.seqs last
  and tm = Array.unsafe_get q.timers last in
  Array.unsafe_set q.timers last vacant;
  if last > 0 then sift_down q 0 time seq tm

(* Compaction: once cancelled timers make up most of a large queue, drop
   them all and rebuild the heap bottom-up. Keys are unique, so the order
   in which the live timers pop is unchanged. Every compaction leaves at
   most half as many entries as it found, so its cost is paid for by the
   cancellations that made the garbage. *)
let compact_min = 4096

let compact t =
  let q = t.q in
  let n = q.size in
  let kept = ref 0 in
  for j = 0 to n - 1 do
    let tm = Array.unsafe_get q.timers j in
    if tm.action != spent then begin
      move q ~from:j !kept;
      incr kept
    end
  done;
  Array.fill q.timers !kept (n - !kept) vacant;
  q.size <- !kept;
  t.cancelled_seen <- t.cancelled_seen + (n - !kept);
  for i = (q.size / 2) - 1 downto 0 do
    sift_down q i (Array.unsafe_get q.times i) (Array.unsafe_get q.seqs i)
      (Array.unsafe_get q.timers i)
  done

(* --- scheduling -------------------------------------------------------- *)

let claim_seq t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

(* Queue [f] at the key (at, seq); [at] is already clamped. *)
let enqueue t label (at : Simtime.t) seq f =
  let timer =
    {
      action = f;
      t_ctx = t.cur_ctx;
      t_label = label;
      t_live = t.live;
    }
  in
  t.scheduled <- t.scheduled + 1;
  incr t.live;
  if t.q.size >= compact_min && 2 * !(t.live) < t.q.size then compact t;
  push t.q (at :> int) seq timer;
  let depth = t.q.size in
  if depth > t.queue_peak then t.queue_peak <- depth;
  timer

let schedule_at t ?(label = "timer") ~at f =
  let at = Simtime.max at t.clock in
  enqueue t label at (claim_seq t) f

let schedule_claimed t ?(label = "timer") ~at ~seq f =
  if Simtime.compare at t.clock < 0 || seq >= t.next_seq then
    invalid_arg "Engine.schedule_claimed: key already passed or not claimed";
  enqueue t label at seq f

let schedule t ?label ~after f =
  schedule_at t ?label ~at:(Simtime.add t.clock after) f

(* Retire a queued timer's action, maintaining the live count. A no-op on
   a timer already run or cancelled, so double-cancel never double-counts. *)
let cancel tm =
  if tm.action != spent then begin
    tm.action <- spent;
    decr tm.t_live
  end

let pending t = !(t.live)

(* The O(n) scan [pending] used to be; kept as the reference the counter
   is tested against. *)
let pending_scan t =
  let n = ref 0 in
  for i = 0 to t.q.size - 1 do
    if t.q.timers.(i).action != spent then incr n
  done;
  !n

(* --- the loop ---------------------------------------------------------- *)

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

(* Discard cancelled timers sitting at the head of the queue; [true] iff
   a live timer is left at slot 0. *)
let rec live_head t =
  let q = t.q in
  q.size > 0
  &&
  if (Array.unsafe_get q.timers 0).action == spent then begin
    pop_head q;
    t.cancelled_seen <- t.cancelled_seen + 1;
    live_head t
  end
  else true

(* Pop and run the live timer at slot 0. *)
let run_head t =
  let q = t.q in
  let tm = Array.unsafe_get q.timers 0 in
  let time = Array.unsafe_get q.times 0 in
  pop_head q;
  let f = tm.action in
  tm.action <- spent;
  decr t.live;
  t.clock <- Simtime.of_us time;
  dispatch t tm f

let step t =
  live_head t
  && begin
       run_head t;
       true
     end

let run ?(until = Simtime.infinity) ?(max_events = max_int) t =
  let wall0 =
    match t.profiler with None -> 0. | Some _ -> Unix.gettimeofday ()
  in
  let until = (until :> int) in
  let executed = ref 0 in
  while
    !executed < max_events && live_head t && Array.unsafe_get t.q.times 0 <= until
  do
    run_head t;
    incr executed
  done;
  (match t.profiler with
  | None -> ()
  | Some p -> Profiler.add_run_wall p (Unix.gettimeofday () -. wall0));
  !executed
