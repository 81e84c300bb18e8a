(** Shared plumbing for the protocol implementations: per-replica stores,
    client-side reply routing, response de-duplication, phase marking and
    once-per-transaction history recording — and the parts of a request's
    path that the paper's functional model does not tell the techniques
    apart by: client submission (RE), the reply cache a resubmission is
    answered from (END), the local read, and the state transfer that
    catches a recovered copy up. *)

open Sim

type Msg.t +=
  | Reply of {
      cid : int; (* common-context id, to separate instances *)
      rid : int;
      committed : bool;
      value : int option;
      replica : int;
    }
  | Read_req of {
      cid : int;
      client : int;
      request : Store.Operation.request;
    }
      (* The routing tier's explicit read path: execute [request]
         read-only at the receiving replica and reply directly. Never
         sent unless a router is in front of the clients, so a run
         without one is byte-identical to the pre-router request path. *)
  | Sync_req of { from : int }
      (* State transfer: a stale copy asks a peer for its database and
         reply cache. Travels on the technique's own channel. *)
  | Sync_state of {
      entries : (Store.Operation.key * (int * int)) list;
      cache_entries : (int * (bool * int option)) list;
    }
      (* The donor's answer: its store as (key, (value, version)) and
         its reply cache. *)

type ctx = {
  cid : int;
  net : Network.t;
  replicas : int list;
  clients : int list;
  spans : Core.Phase_span.t;
  metrics : Metrics.t;
  history : Store.History.t;
  stores : (int, Store.Kv.t) Hashtbl.t;
  reply_cbs : (int, Core.Technique.reply -> unit) Hashtbl.t;
  recorded : (int, unit) Hashtbl.t;
  rng : Rng.t;
}

(** Observability objects that several contexts can share. A sharded
    technique builds one sub-instance per replication group; the groups
    must report into {e one} phase recorder, metrics registry
    and history so the run reads as a single system (and so message
    spans — routed through {!Sim.Network.set_msg_spans}, which keeps
    only the last collector installed — land in the collector every
    group uses). *)
type shared = {
  s_spans : Core.Phase_span.t;
  s_metrics : Metrics.t;
  s_history : Store.History.t;
}

let fresh_shared () =
  {
    s_spans = Core.Phase_span.create ();
    s_metrics = Metrics.create ();
    s_history = Store.History.create ();
  }

let now ctx = Engine.now (Network.engine ctx.net)
let store ctx replica = Hashtbl.find ctx.stores replica

(** Mark the start of a functional-model phase in the recorder
    [spans] ({!Core.Phase_span}), at the network's current time. Every
    phase transition in a protocol is a span boundary. A no-op while
    tracing is switched off ({!Sim.Network.set_tracing}) — marks never
    influence the event schedule, so skipping them is
    behaviour-preserving and is the main saving of a tracing-off run. *)
let mark_phase net spans ~rid ?replica ?note phase =
  if Network.tracing net then
    Core.Phase_span.mark spans ~rid ?replica ?note phase
      (Engine.now (Network.engine net))

(** {!mark_phase} into the context's recorder. *)
let phase_begin ctx ~rid ?replica ?note phase =
  mark_phase ctx.net ctx.spans ~rid ?replica ?note phase

(** Bump a counter in the instance's metrics registry. *)
let count ctx ?labels ?by name = Metrics.incr ctx.metrics ?labels ?by name

(** [sum_replica_counter inst name rs] — the per-replica counter [name]
    (labelled [replica]) of [inst]'s metrics, summed over [rs]. *)
let sum_replica_counter (inst : Core.Technique.instance) name rs =
  List.fold_left
    (fun acc r ->
      acc
      + Metrics.counter inst.Core.Technique.metrics
          ~labels:[ ("replica", string_of_int r) ]
          name)
    0 rs

(** Create the context and install the client-side handler that resolves
    replies: the first reply for a request wins (paper §3.2: "the client
    typically only waits for the first answer"). With [shared], the
    context reports into [shared]'s phase recorder, metrics and history
    instead of fresh ones (it still gets its own cid, stores and reply
    routing). *)
let make ?shared net ~replicas ~clients =
  let cid = Network.fresh_id net in
  let shared =
    match shared with Some s -> s | None -> fresh_shared ()
  in
  let ctx =
    {
      cid;
      net;
      replicas;
      clients;
      spans = shared.s_spans;
      metrics = shared.s_metrics;
      history = shared.s_history;
      stores = Hashtbl.create 8;
      reply_cbs = Hashtbl.create 64;
      recorded = Hashtbl.create 64;
      rng = Rng.split (Engine.rng (Network.engine net));
    }
  in
  (* Message spans share the phase-span collector: one id space per
     transaction, so message spans parent to phase spans and vice versa. *)
  Network.set_msg_spans net (Core.Phase_span.collector ctx.spans);
  List.iter
    (fun r -> Hashtbl.replace ctx.stores r (Store.Kv.create ()))
    replicas;
  (match Network.timeseries net with
  | Some ts ->
      Timeseries.register ts ~name:"active_txns" ~replica:(-1)
        ~kind:Timeseries.Queue ~unit_:"transactions" (fun () ->
          float_of_int (Hashtbl.length ctx.reply_cbs));
      List.iter
        (fun r ->
          let kv = Hashtbl.find ctx.stores r in
          Timeseries.register ts ~name:"kv_size" ~replica:r
            ~kind:Timeseries.Level ~unit_:"keys" (fun () ->
              float_of_int (List.length (Store.Kv.keys kv))))
        replicas
  | None -> ());
  List.iter
    (fun client ->
      Network.add_handler net client (fun ~src msg ->
          ignore src;
          match msg with
          | Reply { cid = c; rid; committed; value; replica } when c = cid -> (
              match Hashtbl.find_opt ctx.reply_cbs rid with
              | None -> true (* duplicate reply: already resolved *)
              | Some cb ->
                  Hashtbl.remove ctx.reply_cbs rid;
                  phase_begin ctx ~rid Core.Phase.Response;
                  count ctx
                    ~labels:[ ("replica", string_of_int replica) ]
                    (if committed then "txn_committed_total"
                     else "txn_aborted_total");
                  cb
                    {
                      Core.Technique.rid;
                      committed;
                      value;
                      at = now ctx;
                      replica;
                    };
                  true)
          | _ -> false))
    clients;
  ctx

(** Register the client's callback and mark the RE phase. Also installs
    the transaction's causal context ({!Sim.Engine.set_ctx}): the sends
    the protocol performs next are attributed to this transaction's root
    span, and the network threads the context onward through deliveries. *)
let register_submit ctx ~client ~(request : Store.Operation.request) cb =
  ignore client;
  Hashtbl.replace ctx.reply_cbs request.rid cb;
  count ctx "txn_submitted_total";
  phase_begin ctx ~rid:request.rid Core.Phase.Request;
  match Core.Phase_span.root ctx.spans ~rid:request.rid with
  | Some root ->
      Engine.set_ctx
        (Network.engine ctx.net)
        (Some { Engine.trace = request.rid; span = root })
  | None -> ()

(** Send the response back to the client (END happens when it arrives). *)
let send_reply ctx ~replica ~client ~rid ~committed ~value =
  Network.send ctx.net ~src:replica ~dst:client
    (Reply { cid = ctx.cid; rid; committed; value; replica })

(** Record the transaction in the global history exactly once, whichever
    replica calls first. *)
let record_once ctx ~rid ~replica (result : Store.Apply.result) =
  if not (Hashtbl.mem ctx.recorded rid) then begin
    Hashtbl.replace ctx.recorded rid ();
    Store.History.add_result ctx.history ~tid:rid ~replica ~at:(now ctx) result
  end

(** The lowest-numbered replica currently alive — used to pick the replica
    that records history/replies in symmetric techniques. *)
let lowest_alive ctx =
  match List.filter (Network.alive ctx.net) ctx.replicas with
  | [] -> List.hd ctx.replicas
  | r :: _ -> r

(** The value a request's reply carries: the last value read, if any
    (protocols call this with the execution result). *)
let reply_value (result : Store.Apply.result) =
  match List.rev result.reads with
  | (_, v, _) :: _ -> Some v
  | [] -> None

(** Deterministic resolution of [Write_random] for techniques that require
    determinism: a hash of the request id and key, so every replica picks
    the same value without coordination. *)
let deterministic_choice ~rid key =
  (rid * 1_000_003) + Hashtbl.hash key mod 997

(** Random resolution for techniques that allow non-determinism. *)
let random_choice ctx (_key : Store.Operation.key) = Rng.int ctx.rng 1_000_000

(** [ops] with every [Write_random] resolved by {!random_choice}: a
    delegate resolves them up front so that all sites execute identical
    operations. *)
let resolve_random ctx ops =
  List.map
    (function
      | Store.Operation.Write_random k ->
          Store.Operation.Write (k, random_choice ctx k)
      | op -> op)
    ops

(** Default retry target: the first retry goes to the (re-evaluated)
    preferred replica — typically "the lowest replica currently believed
    alive" — and later retries cycle through the other live replicas, so
    an alive-but-unreachable server cannot capture the client forever. *)
let cycling_target ctx ~preferred ~attempt =
  let alive = List.filter (Network.alive ctx.net) ctx.replicas in
  let pool = if alive = [] then ctx.replicas else alive in
  let start =
    match List.find_index (Int.equal preferred) pool with
    | Some i -> i
    | None -> 0
  in
  List.nth pool ((start + attempt - 1) mod List.length pool)

(** The reliable channel a technique's clients submit over, spanning
    its replicas and clients; the replicas may use it among themselves. *)
let client_channel ctx =
  Group.Rchan.create_group ctx.net ~nodes:(ctx.replicas @ ctx.clients) ()

(** Client submission: register [request] and send [msg] — the
    technique's request constructor — over [chan_group] to
    [preferred ()]. While no reply has come, resend it every [timeout] to
    {!cycling_target} around a freshly evaluated [preferred ()], with a
    growing attempt counter, so the client works through the replicas
    instead of hammering one that is alive but unreachable. This is the
    paper's §4.1 client behaviour: "clients can then be connected to
    another database server and re-submit the transaction" — the server
    failure is {e not} transparent. *)
let submit_to ctx chan_group ~client ~(request : Store.Operation.request)
    ~timeout ~preferred msg cb =
  register_submit ctx ~client ~request cb;
  let rid = request.rid in
  let chan = Group.Rchan.handle chan_group ~me:client in
  Group.Rchan.send chan ~dst:(preferred ()) msg;
  let rec retry_until_replied attempt =
    ignore
      (Engine.schedule (Network.engine ctx.net) ~label:"client:retry"
         ~after:timeout (fun () ->
           if Hashtbl.mem ctx.reply_cbs rid then begin
             count ctx "resubmissions_total";
             phase_begin ctx ~rid ~note:"resubmission after timeout"
               Core.Phase.Request;
             Group.Rchan.send chan
               ~dst:(cycling_target ctx ~preferred:(preferred ()) ~attempt)
               msg;
             retry_until_replied (attempt + 1)
           end))
  in
  retry_until_replied 1

(** The client's own replica: its position modulo the replica count. *)
let local_replica ctx ~client =
  List.nth ctx.replicas (client mod List.length ctx.replicas)

(** The client's own replica while that is alive, else the lowest alive
    replica. *)
let nearest ctx ~client () =
  let local = local_replica ctx ~client in
  if Network.alive ctx.net local then local else lowest_alive ctx

(** A replica's reply cache: the outcome [(committed, value)] of every
    request it decided, by rid, so that a client's resubmission is
    answered again instead of executed twice. *)
type reply_cache = (int, bool * int option) Hashtbl.t

let reply_cache () : reply_cache = Hashtbl.create 64

(** Serve request [rid] from [client] at [replica]: resend the cached
    reply if [replica] already decided it, else run [fresh]. *)
let serve ctx (cache : reply_cache) ~replica ~client ~rid fresh =
  match Hashtbl.find_opt cache rid with
  | Some (committed, value) ->
      send_reply ctx ~replica ~client ~rid ~committed ~value
  | None -> fresh ()

(** A read-only request executed at [replica] alone: bump [counter] (per
    replica), mark EX with [note], execute against the local store,
    record it once and answer the client directly. *)
let local_read ctx ~replica ~client ~counter ~note
    (request : Store.Operation.request) =
  let rid = request.rid in
  count ctx ~labels:[ ("replica", string_of_int replica) ] counter;
  phase_begin ctx ~rid ~replica ~note Core.Phase.Execution;
  let result = Store.Apply.execute (store ctx replica) request.ops in
  record_once ctx ~rid ~replica result;
  send_reply ctx ~replica ~client ~rid ~committed:true
    ~value:(reply_value result)

(* The replica side of the routed read path: the local read every lazy
   technique already performs, made available to the routing tier for
   every technique. Installing the handler is inert (no timer, no
   message), so a run without a router keeps its exact pre-router
   schedule. *)
let install_read_path ctx =
  List.iter
    (fun r ->
      Network.add_handler ctx.net r (fun ~src:_ msg ->
          match msg with
          | Read_req { cid = c; client; request } when c = ctx.cid ->
              local_read ctx ~replica:r ~client ~counter:"routed_reads_total"
                ~note:"routed local read" request;
              true
          | _ -> false))
    ctx.replicas

(** {2 Recovery state transfer}

    A copy that comes back from a crash (or is readmitted to a view) is
    stale: it drops what it held, marks itself unsynced and asks one or
    more peers ({!request_state}) for their database and reply cache. A
    synced donor answers with a snapshot ({!donate}) as soon as
    [may_snapshot ~joiner] holds, re-checking every 50 ms; the joiner
    installs it and is synced again. What differs between techniques is
    an argument: whom the joiner asks and when, the condition under which a
    donor may snapshot, whether a stale copy ignores everything else on
    its channel until then, and which side counts
    [state_transfers_total] ([`Requests] at the joiner, [`Snapshots] at
    the donor). *)
type transfer = {
  xctx : ctx;
  owner : int;
  xchan : Group.Rchan.t;
  cache : reply_cache;
  mutable synced : bool; (* false between going stale and installing *)
  may_snapshot : joiner:int -> bool;
  mute_until_synced : bool;
  counts : [ `Requests | `Snapshots ];
}

let transfer ctx ~me ~chan ~cache ~may_snapshot ~mute_until_synced ~counts =
  {
    xctx = ctx;
    owner = me;
    xchan = chan;
    cache;
    synced = true;
    may_snapshot;
    mute_until_synced;
    counts;
  }

(** Joiner: mark the copy unsynced and ask each of [peers] for a
    snapshot. *)
let request_state x ~peers =
  x.synced <- false;
  if x.counts = `Requests then count x.xctx "state_transfers_total";
  List.iter
    (fun dst -> Group.Rchan.send x.xchan ~dst (Sync_req { from = x.owner }))
    peers

(** Joiner, on recovery: ask the first live peer; with none alive, keep
    serving the copy as it is. *)
let request_state_from_first_peer x =
  let net = x.xctx.net in
  match
    List.filter (fun p -> p <> x.owner && Network.alive net p) x.xctx.replicas
  with
  | [] -> ()
  | peer :: _ -> request_state x ~peers:[ peer ]

(** Donor: send [dst] this copy's snapshot and reply cache once
    [may_snapshot ~joiner:dst] holds — a snapshot taken earlier could
    miss writes the joiner would never hear of again. Gives up if this
    copy stops being synced or crashes meanwhile. *)
let rec donate x ~dst =
  let net = x.xctx.net in
  if x.synced && Network.alive net x.owner then
    if x.may_snapshot ~joiner:dst then begin
      let entries = Store.Kv.snapshot (store x.xctx x.owner) in
      let cache_entries =
        Hashtbl.fold (fun rid v acc -> (rid, v) :: acc) x.cache []
      in
      if x.counts = `Snapshots then count x.xctx "state_transfers_total";
      Group.Rchan.send x.xchan ~dst (Sync_state { entries; cache_entries })
    end
    else
      ignore
        (Engine.schedule (Network.engine net) ~label:"commit:indoubt"
           ~after:(Simtime.of_ms 50)
           (Network.guard net x.owner (fun () -> donate x ~dst)))

(** Deliver the owner's channel: a synced copy donates on [Sync_req]; a
    [Sync_state] is installed — every entry at least as new as the local
    one, every cached outcome not known yet — and makes the copy synced;
    every other message goes to [handler], unless the copy is stale and
    [mute_until_synced]. *)
let on_deliver x handler =
  Group.Rchan.on_deliver x.xchan (fun ~src msg ->
      match msg with
      | Sync_req { from } -> if x.synced then donate x ~dst:from
      | Sync_state { entries; cache_entries } ->
          let kv = store x.xctx x.owner in
          List.iter
            (fun (k, (value, version)) -> Store.Kv.install kv k ~value ~version)
            entries;
          List.iter
            (fun (rid, outcome) ->
              if not (Hashtbl.mem x.cache rid) then
                Hashtbl.replace x.cache rid outcome)
            cache_entries;
          x.synced <- true
      | _ -> if x.synced || not x.mute_until_synced then handler ~src msg)

(** The client side of the routed read path: register (or, on a
    failover retry for an already-registered request id, just refresh)
    the reply callback and send the request to the chosen replica. *)
let read_at ctx ~client ~replica (request : Store.Operation.request) cb =
  let rid = request.Store.Operation.rid in
  if Hashtbl.mem ctx.reply_cbs rid then
    (* Resend after a router timeout: keep the submitted counter; only
       the callback is refreshed. *)
    Hashtbl.replace ctx.reply_cbs rid cb
  else register_submit ctx ~client ~request cb;
  Network.send ctx.net ~src:client ~dst:replica
    (Read_req { cid = ctx.cid; client; request })

(** Build the uniform {!Core.Technique.instance} handle. *)
let instance ctx ~info ~submit =
  install_read_path ctx;
  {
    Core.Technique.info;
    submit;
    read_at = Some (fun ~client ~replica request cb ->
        read_at ctx ~client ~replica request cb);
    read_targets = (fun _request -> ctx.replicas);
    replica_store = (fun r -> store ctx r);
    history = ctx.history;
    spans = ctx.spans;
    metrics = ctx.metrics;
    replicas = ctx.replicas;
    groups = [ ctx.replicas ];
  }
