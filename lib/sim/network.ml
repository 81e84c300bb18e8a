type latency =
  | Constant of Simtime.t
  | Uniform of Simtime.t * Simtime.t
  | Exponential of { floor : Simtime.t; mean : Simtime.t }

type config = {
  latency : latency;
  drop_probability : float;
  passthrough : bool;
}

let default_config =
  {
    latency = Uniform (Simtime.of_us 500, Simtime.of_us 1_500);
    drop_probability = 0.0;
    passthrough = false;
  }

type drop_cause = Loss | Crashed | Partitioned

let drop_cause_name = function
  | Loss -> "loss"
  | Crashed -> "crashed"
  | Partitioned -> "partitioned"

(* A dropped message span's event note, built once per cause. *)
let drop_note =
  let note cause = "drop:" ^ drop_cause_name cause in
  let loss = note Loss and crashed = note Crashed and partitioned = note Partitioned in
  function Loss -> loss | Crashed -> crashed | Partitioned -> partitioned

type handler = src:int -> Msg.t -> bool

type t = {
  engine : Engine.t;
  n : int;
  rng : Rng.t;
  mutable latency : latency;
  mutable drop_probability : float;
  passthrough : bool;
  mutable msg_spans : Span.t option;
      (** collector for per-message spans; [None] = don't record *)
  span_names : Msg.names;
      (** each message kind's span name, built once, so every span of
          one kind of message shares one name string *)
  mutable tracing : bool;
      (** master switch for span/trace recording; spans never influence
          the event schedule, so flipping this is behaviour-preserving *)
  mutable timeseries : Timeseries.t option;
      (** sampler resource gauges register into; [None] = don't sample *)
  in_flight : int array;  (** scheduled-not-yet-delivered, per destination *)
  handlers : handler list array;  (** most recent first *)
  hearers : (int -> unit) list array;  (** per destination, see [on_hear] *)
  link_latency : (int, latency) Hashtbl.t;
      (** per-link overrides, keyed by [link t a b] *)
  alive : bool array;
  group_of : int array;  (** partition group; all 0 when healed *)
  mutable sent : int;
  mutable delivered : int;
  mutable drop_loss : int;
  mutable drop_crashed : int;
  mutable drop_partitioned : int;
  mutable crash_watchers : (int -> unit) list;  (** most recent first *)
  mutable recover_watchers : (int -> unit) list;
  mutable last_id : int;  (** instance ids handed out so far *)
  mutable last_rid : int;  (** request ids handed out so far *)
}

let create engine ~n (config : config) =
  {
    engine;
    n;
    rng = Rng.split (Engine.rng engine);
    latency = config.latency;
    drop_probability = config.drop_probability;
    passthrough = config.passthrough;
    msg_spans = None;
    span_names = Msg.names ~prefix:Msg_dag.prefix;
    tracing = true;
    timeseries = None;
    in_flight = Array.make n 0;
    handlers = Array.make n [];
    hearers = Array.make n [];
    link_latency = Hashtbl.create 8;
    alive = Array.make n true;
    group_of = Array.make n 0;
    sent = 0;
    delivered = 0;
    drop_loss = 0;
    drop_crashed = 0;
    drop_partitioned = 0;
    crash_watchers = [];
    recover_watchers = [];
    last_id = 0;
    last_rid = 0;
  }

let engine t = t.engine
let size t = t.n
let rng t = t.rng
let passthrough t = t.passthrough

let fresh_id t =
  t.last_id <- t.last_id + 1;
  t.last_id

let fresh_rid t =
  t.last_rid <- t.last_rid + 1;
  t.last_rid

let set_msg_spans t spans = t.msg_spans <- Some spans
let span_names_built t = Msg.built t.span_names
let set_tracing t on = t.tracing <- on
let tracing t = t.tracing
let timeseries t = t.timeseries

(* Installing a sampler also registers the network's own gauges: the
   per-endpoint in-flight message count and the running drop total.
   Subsystems built afterwards find the sampler via [timeseries] and
   register their queues themselves. *)
let set_timeseries t ts =
  t.timeseries <- Some ts;
  for dst = 0 to t.n - 1 do
    Timeseries.register ts ~name:"net_in_flight" ~replica:dst
      ~kind:Timeseries.Queue ~unit_:"messages" (fun () ->
        float_of_int t.in_flight.(dst))
  done;
  Timeseries.register ts ~name:"net_dropped_total" ~replica:(-1)
    ~kind:Timeseries.Level ~unit_:"messages" (fun () ->
      float_of_int (t.drop_loss + t.drop_crashed + t.drop_partitioned))
let add_handler t node h = t.handlers.(node) <- h :: t.handlers.(node)
let on_hear t node f = t.hearers.(node) <- f :: t.hearers.(node)
let alive t node = t.alive.(node)

let guard t node f () = if t.alive.(node) then f ()

(* The timer is armed outside any context, as one armed at setup is:
   what a poll sends belongs to no one transaction. *)
let poller t node ~label ~every ~busy f =
  let armed = ref false in
  let rec kick () =
    if busy () && not !armed then begin
      armed := true;
      let ctx = Engine.ctx t.engine in
      Engine.set_ctx t.engine None;
      ignore
        (Engine.schedule t.engine ~label ~after:every (fun () ->
             armed := false;
             if t.alive.(node) && busy () then begin
               f ();
               kick ()
             end));
      Engine.set_ctx t.engine ctx
    end
  in
  kick

let draw_from t model =
  match model with
  | Constant d -> d
  | Uniform (lo, hi) ->
      Simtime.of_us (Rng.range t.rng (Simtime.to_us lo) (Simtime.to_us hi))
  | Exponential { floor; mean } ->
      let extra = Rng.exponential t.rng ~mean:(Simtime.to_ms mean) in
      Simtime.add floor (Simtime.of_sec (extra /. 1_000.))

(* The undirected link between [a] and [b] as one int. *)
let link t a b = (min a b * t.n) + max a b

(* Most runs set no per-link override: skip the lookup entirely then. *)
let draw_latency t ~src ~dst =
  let model =
    if Hashtbl.length t.link_latency = 0 then t.latency
    else
      Option.value ~default:t.latency
        (Hashtbl.find_opt t.link_latency (link t src dst))
  in
  draw_from t model

let set_link_latency t a b model =
  Hashtbl.replace t.link_latency (link t a b) model

let clear_link_latencies t = Hashtbl.reset t.link_latency

let reachable t src dst = t.group_of.(src) = t.group_of.(dst)

(* Open a message span when a collector is installed and the sender runs
   under a causal context: the span's parent is whatever span caused the
   send (the delivered message upstream, or the transaction root at
   submit time). Context-free traffic — maintenance timers armed at
   setup — is deliberately unattributed. Returns the span's id, or
   [Span.none] when nothing was recorded. *)
let open_msg_span t ~src msg =
  if not t.tracing then Span.none
  else
  match (t.msg_spans, Engine.ctx t.engine) with
  | Some spans, Some { Engine.trace; span = parent } ->
      let at = Engine.now t.engine in
      let name = Msg.interned t.span_names msg in
      let id = Span.start_span spans ~trace ~parent ~track:src ~name at in
      Span.add_event spans id ~at ~track:src "send";
      id
  | _ -> Span.none

let span_drop t span ~at ~dst cause =
  match t.msg_spans with
  | Some spans when span <> Span.none ->
      Span.add_event spans span ~at ~track:dst (drop_note cause);
      Span.finish spans span at
  | _ -> ()

let count_drop t cause =
  match cause with
  | Loss -> t.drop_loss <- t.drop_loss + 1
  | Crashed -> t.drop_crashed <- t.drop_crashed + 1
  | Partitioned -> t.drop_partitioned <- t.drop_partitioned + 1

(* Try a node's handler stack, most recent first, until one consumes
   [msg]. *)
let rec dispatch ~src msg = function
  | [] -> ()
  | h :: rest -> if not (h ~src msg) then dispatch ~src msg rest

let deliver t ~src ~dst ~span msg =
  if not t.alive.(dst) then begin
    count_drop t Crashed;
    span_drop t span ~at:(Engine.now t.engine) ~dst Crashed
  end
  else if not (reachable t src dst) then begin
    count_drop t Partitioned;
    span_drop t span ~at:(Engine.now t.engine) ~dst Partitioned
  end
  else begin
    t.delivered <- t.delivered + 1;
    (match t.hearers.(dst) with [] -> () | hs -> List.iter (fun f -> f src) hs);
    let at = Engine.now t.engine in
    let ctx =
      match t.msg_spans with
      | Some spans when span <> Span.none ->
          Span.add_event spans span ~at ~track:dst "deliver";
          Span.finish spans span at;
          Some { Engine.trace = Span.trace_of spans span; span }
      | _ -> Engine.ctx t.engine
    in
    (* Handlers run under the delivered message's span: anything they
       send (or schedule) is causally attributed to this message. The
       save/restore is inlined: a [Fun.protect] wrapper would allocate
       two closures per delivery. *)
    let saved = Engine.ctx t.engine in
    Engine.set_ctx t.engine ctx;
    (match dispatch ~src msg t.handlers.(dst) with
    | () -> ()
    | exception e ->
        Engine.set_ctx t.engine saved;
        raise e);
    Engine.set_ctx t.engine saved
  end

let send t ~src ~dst msg =
  if t.alive.(src) then begin
    t.sent <- t.sent + 1;
    let span = open_msg_span t ~src msg in
    if not (reachable t src dst) then begin
      count_drop t Partitioned;
      span_drop t span ~at:(Engine.now t.engine) ~dst Partitioned
    end
    else if Rng.float t.rng 1.0 < t.drop_probability then begin
      count_drop t Loss;
      span_drop t span ~at:(Engine.now t.engine) ~dst Loss
    end
    else begin
      let delay = if src = dst then Simtime.zero else draw_latency t ~src ~dst in
      t.in_flight.(dst) <- t.in_flight.(dst) + 1;
      ignore
        (Engine.schedule t.engine ~label:"net:deliver" ~after:delay (fun () ->
             t.in_flight.(dst) <- t.in_flight.(dst) - 1;
             deliver t ~src ~dst ~span msg))
    end
  end

let on_crash t f = t.crash_watchers <- f :: t.crash_watchers
let on_recover t f = t.recover_watchers <- f :: t.recover_watchers

let crash t node =
  if t.alive.(node) then begin
    t.alive.(node) <- false;
    List.iter (fun f -> f node) (List.rev t.crash_watchers)
  end

let recover t node =
  if not t.alive.(node) then begin
    t.alive.(node) <- true;
    List.iter (fun f -> f node) (List.rev t.recover_watchers)
  end

let partition t group =
  Array.fill t.group_of 0 t.n 0;
  List.iter (fun node -> t.group_of.(node) <- 1) group

let heal t = Array.fill t.group_of 0 t.n 0

let set_drop_probability t p = t.drop_probability <- p
let drop_probability t = t.drop_probability
let messages_sent t = t.sent
let messages_delivered t = t.delivered
let messages_dropped t = t.drop_loss + t.drop_crashed + t.drop_partitioned
let dropped_loss t = t.drop_loss
let dropped_crashed t = t.drop_crashed
let dropped_partitioned t = t.drop_partitioned

let reset_counters t =
  t.sent <- 0;
  t.delivered <- 0;
  t.drop_loss <- 0;
  t.drop_crashed <- 0;
  t.drop_partitioned <- 0
