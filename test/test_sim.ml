(* Unit and property tests for the discrete-event simulation substrate. *)

open Sim

let tc name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* Simtime                                                            *)
(* ------------------------------------------------------------------ *)

let test_simtime_units () =
  Alcotest.(check int) "ms" 5_000 (Simtime.to_us (Simtime.of_ms 5));
  Alcotest.(check int) "sec" 1_500_000 (Simtime.to_us (Simtime.of_sec 1.5));
  Alcotest.(check (float 1e-9)) "to_ms" 2.5 (Simtime.to_ms (Simtime.of_us 2_500))

let test_simtime_arith () =
  let a = Simtime.of_ms 3 and b = Simtime.of_ms 5 in
  Alcotest.(check int) "add" 8_000 (Simtime.to_us (Simtime.add a b));
  Alcotest.(check int) "sub saturates" 0 (Simtime.to_us (Simtime.sub a b));
  Alcotest.(check int) "sub" 2_000 (Simtime.to_us (Simtime.sub b a));
  Alcotest.(check bool) "lt" true Simtime.(a < b);
  Alcotest.(check int) "add inf" (Simtime.to_us Simtime.infinity)
    (Simtime.to_us (Simtime.add Simtime.infinity a))

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  let xs = List.init 100 (fun _ -> Rng.int a 1000) in
  let ys = List.init 100 (fun _ -> Rng.int b 1000) in
  Alcotest.(check (list int)) "same stream" xs ys;
  let c = Rng.create ~seed:43 in
  let zs = List.init 100 (fun _ -> Rng.int c 1000) in
  Alcotest.(check bool) "different seed differs" true (xs <> zs)

let test_rng_bounds () =
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1000 do
    let x = Rng.int r 10 in
    Alcotest.(check bool) "int in bounds" true (x >= 0 && x < 10);
    let y = Rng.range r 5 9 in
    Alcotest.(check bool) "range in bounds" true (y >= 5 && y <= 9);
    let f = Rng.float r 2.0 in
    Alcotest.(check bool) "float in bounds" true (f >= 0.0 && f < 2.0);
    let e = Rng.exponential r ~mean:3.0 in
    Alcotest.(check bool) "exponential nonnegative" true (e >= 0.0)
  done

let test_rng_split_independent () =
  let r = Rng.create ~seed:1 in
  let s = Rng.split r in
  let xs = List.init 50 (fun _ -> Rng.int r 1000) in
  let ys = List.init 50 (fun _ -> Rng.int s 1000) in
  Alcotest.(check bool) "streams differ" true (xs <> ys)

(* The splitmix64 stream for seed 11, pinned bit for bit: every schedule
   in the simulator is a function of it. Floats are compared as hex. *)
let test_rng_golden_stream () =
  let r = Rng.create ~seed:11 in
  let ints n f = List.init n (fun _ -> f ()) in
  let hex = List.map (Printf.sprintf "%h") in
  Alcotest.(check (list int)) "int"
    [ 93436343; 665187925; 144728527; 904807470 ]
    (ints 4 (fun () -> Rng.int r 1_000_000_007));
  Alcotest.(check (list string)) "float"
    [ "0x1.a9f5a61ff77ep-2"; "0x1.7321873ff63a6p-1"; "0x1.04e439686bb3p-3" ]
    (hex (ints 3 (fun () -> Rng.float r 1.0)));
  Alcotest.(check (list int)) "range" [ 33; 1; -31; 40 ]
    (ints 4 (fun () -> Rng.range r (-50) 50));
  let c = Rng.split r in
  Alcotest.(check (list int)) "split: child int"
    [ 763142352239424206; 1696015728185942127; 306759330038073114 ]
    (ints 3 (fun () -> Rng.int c max_int));
  Alcotest.(check (list string)) "split: child float"
    [ "0x1.466aaeb5bd3eep+7"; "0x1.5df5493e5703ap+5" ]
    (hex (ints 2 (fun () -> Rng.float c 250.)));
  Alcotest.(check (list int)) "split: parent continues" [ 5; 5; 0 ]
    (ints 3 (fun () -> Rng.int r 6))

let test_zipf () =
  let r = Rng.create ~seed:5 in
  let sampler = Rng.Zipf.make ~n:100 ~theta:0.99 in
  let counts = Array.make 100 0 in
  for _ = 1 to 10_000 do
    let k = Rng.Zipf.draw r sampler in
    Alcotest.(check bool) "in range" true (k >= 0 && k < 100);
    counts.(k) <- counts.(k) + 1
  done;
  (* Skewed: the hottest key must dominate the coldest. *)
  Alcotest.(check bool) "skew" true (counts.(0) > 10 * (counts.(99) + 1))

let test_zipf_uniform_theta0 () =
  let r = Rng.create ~seed:5 in
  let sampler = Rng.Zipf.make ~n:10 ~theta:0.0 in
  let counts = Array.make 10 0 in
  for _ = 1 to 10_000 do
    let k = Rng.Zipf.draw r sampler in
    counts.(k) <- counts.(k) + 1
  done;
  Array.iter
    (fun c -> Alcotest.(check bool) "roughly uniform" true (c > 700 && c < 1300))
    counts

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_time_order () =
  let e = Engine.create () in
  let log = ref [] in
  let at ms tag =
    ignore
      (Engine.schedule e ~after:(Simtime.of_ms ms) (fun () ->
           log := tag :: !log))
  in
  at 30 "c";
  at 10 "a";
  at 20 "b";
  ignore (Engine.run e);
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log);
  Alcotest.(check int) "clock" 30_000 (Simtime.to_us (Engine.now e))

let test_engine_fifo_same_instant () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore
      (Engine.schedule e ~after:(Simtime.of_ms 1) (fun () -> log := i :: !log))
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "schedule order" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let tm = Engine.schedule e ~after:(Simtime.of_ms 1) (fun () -> fired := true) in
  Engine.cancel tm;
  ignore (Engine.run e);
  Alcotest.(check bool) "cancelled timer silent" false !fired

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.schedule e ~after:(Simtime.of_ms 1) (fun () ->
         log := "outer" :: !log;
         ignore
           (Engine.schedule e ~after:(Simtime.of_ms 1) (fun () ->
                log := "inner" :: !log))));
  ignore (Engine.run e);
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  Alcotest.(check int) "clock advanced twice" 2_000 (Simtime.to_us (Engine.now e))

let test_engine_run_until () =
  let e = Engine.create () in
  let count = ref 0 in
  for i = 1 to 10 do
    ignore (Engine.schedule e ~after:(Simtime.of_ms (10 * i)) (fun () -> incr count))
  done;
  let n = Engine.run ~until:(Simtime.of_ms 45) e in
  Alcotest.(check int) "events executed" 4 n;
  Alcotest.(check int) "counter" 4 !count;
  Alcotest.(check int) "rest pending" 6 (Engine.pending e)

let test_engine_max_events () =
  let e = Engine.create () in
  let count = ref 0 in
  let rec reschedule () =
    incr count;
    ignore (Engine.schedule e ~after:(Simtime.of_ms 1) reschedule)
  in
  ignore (Engine.schedule e ~after:(Simtime.of_ms 1) reschedule);
  let n = Engine.run ~max_events:50 e in
  Alcotest.(check int) "bounded" 50 n;
  Alcotest.(check int) "count" 50 !count


let test_engine_cancelled_head_respects_until () =
  (* Regression: a cancelled timer at the head of the queue must not let
     [run ~until] execute a live event beyond the horizon. *)
  let e = Engine.create () in
  let tm = Engine.schedule e ~after:(Simtime.of_ms 10) (fun () -> ()) in
  Engine.cancel tm;
  let fired = ref false in
  ignore (Engine.schedule e ~after:(Simtime.of_ms 500) (fun () -> fired := true));
  ignore (Engine.run ~until:(Simtime.of_ms 100) e);
  Alcotest.(check bool) "beyond-horizon event did not run" false !fired;
  Alcotest.(check bool) "clock within horizon" true
    Simtime.(Engine.now e <= Simtime.of_ms 100);
  ignore (Engine.run ~until:(Simtime.of_ms 600) e);
  Alcotest.(check bool) "it runs once the horizon allows" true !fired

let test_engine_schedule_at_past_clamps () =
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:(Simtime.of_ms 50) (fun () -> ()));
  ignore (Engine.run e);
  (* Scheduling at an absolute time in the past clamps to now. *)
  let ran_at = ref Simtime.zero in
  ignore
    (Engine.schedule_at e ~at:(Simtime.of_ms 10) (fun () -> ran_at := Engine.now e));
  ignore (Engine.run e);
  Alcotest.(check int) "clamped to now" 50_000 (Simtime.to_us !ran_at)

let test_engine_pending_counter () =
  (* The O(1) counter must track the O(n) heap scan through schedules,
     cancels (including double-cancel), dispatch and a timer that
     re-arms itself from its own action. *)
  let e = Engine.create () in
  let agree label =
    Alcotest.(check int) label (Engine.pending_scan e) (Engine.pending e)
  in
  agree "empty";
  let tms =
    List.init 10 (fun i ->
        Engine.schedule e ~after:(Simtime.of_ms (i + 1)) (fun () -> ()))
  in
  agree "after schedules";
  Alcotest.(check int) "ten live" 10 (Engine.pending e);
  List.iteri (fun i tm -> if i mod 3 = 0 then Engine.cancel tm) tms;
  agree "after cancels";
  (* Cancelling an already-cancelled timer must not double-count. *)
  Engine.cancel (List.hd tms);
  agree "double cancel";
  ignore (Engine.run ~until:(Simtime.of_ms 5) e);
  agree "after partial run";
  let armed = ref None in
  let rec tick () =
    armed := Some (Engine.schedule e ~after:(Simtime.of_ms 2) tick)
  in
  tick ();
  agree "re-arming timer armed";
  ignore (Engine.run ~until:(Simtime.of_ms 9) e);
  agree "re-arming timer ticking";
  Option.iter Engine.cancel !armed;
  agree "re-arming timer cancelled";
  ignore (Engine.run e);
  agree "drained";
  Alcotest.(check int) "empty again" 0 (Engine.pending e)

let prop_engine_pending_matches_scan =
  QCheck.Test.make ~name:"pending counter matches heap scan" ~count:200
    QCheck.(list (pair (int_range 1 20) (int_range 0 3)))
    (fun script ->
      let e = Engine.create () in
      let live = ref [] in
      let ok = ref true in
      let check () = if Engine.pending e <> Engine.pending_scan e then ok := false in
      List.iter
        (fun (ms, action) ->
          (match action with
          | 0 | 1 ->
              live :=
                Engine.schedule e ~after:(Simtime.of_ms ms) (fun () -> ())
                :: !live
          | 2 -> (
              match !live with
              | tm :: rest ->
                  Engine.cancel tm;
                  live := rest
              | [] -> ())
          | _ -> ignore (Engine.step e));
          check ())
        script;
      ignore (Engine.run e);
      check ();
      !ok && Engine.pending e = 0)

(* A claimed key: [claim_seq] takes the seq a [schedule] would have taken
   at that moment, and [schedule_claimed] later queues the action at that
   key, so it runs exactly where the [schedule_at] would have, ties at one
   instant included. The same script runs twice, once scheduling at claim
   time and once deferring through a claim; the run order must agree. *)
let test_engine_schedule_claimed () =
  let script ~defer =
    let e = Engine.create () in
    let log = ref [] in
    let note tag () = log := tag :: !log in
    let at ms tag =
      ignore (Engine.schedule e ~after:(Simtime.of_ms ms) (note tag))
    in
    (* Two deferred actions due at 5 ms, claimed around two plain ones
       due at the same instant. *)
    let queue_a = defer e ~at:(Simtime.of_ms 5) (note "a") in
    at 5 "x";
    let queue_b = defer e ~at:(Simtime.of_ms 5) (note "b") in
    at 5 "y";
    at 3 "early";
    (* Queued at 1 ms, in the opposite order, around a plain action
       scheduled then for the same 5 ms instant. *)
    ignore
      (Engine.schedule e ~after:(Simtime.of_ms 1) (fun () ->
           queue_b ();
           at 4 "z";
           queue_a ()));
    ignore (Engine.run e);
    (List.rev !log, Engine.events_executed e, Engine.timers_scheduled e)
  in
  let eager e ~at f =
    ignore (Engine.schedule_at e ~at f);
    ignore
  in
  let claimed e ~at f =
    let seq = Engine.claim_seq e in
    fun () -> ignore (Engine.schedule_claimed e ~at ~seq f)
  in
  let order, events, scheduled = script ~defer:eager in
  Alcotest.(check (list string))
    "claim-time order"
    [ "early"; "a"; "x"; "b"; "y"; "z" ]
    order;
  let order', events', scheduled' = script ~defer:claimed in
  Alcotest.(check (list string)) "claimed keys run in place" order order';
  Alcotest.(check int) "same events" events events';
  Alcotest.(check int) "queued timers counted" scheduled scheduled';
  (* A claimed key can only be queued ahead of the clock. *)
  let e = Engine.create () in
  let seq = Engine.claim_seq e in
  ignore (Engine.schedule e ~after:(Simtime.of_ms 2) ignore);
  ignore (Engine.run e);
  Alcotest.check_raises "key in the past"
    (Invalid_argument
       "Engine.schedule_claimed: key already passed or not claimed")
    (fun () ->
      ignore (Engine.schedule_claimed e ~at:(Simtime.of_ms 1) ~seq ignore));
  Alcotest.check_raises "seq never claimed"
    (Invalid_argument
       "Engine.schedule_claimed: key already passed or not claimed")
    (fun () ->
      ignore (Engine.schedule_claimed e ~at:(Simtime.of_ms 3) ~seq:1000 ignore))

(* The live counter through claims (which queue nothing), claimed
   timers, their cancellation and a re-arm at a later claimed key, the
   pattern of a retransmit timer that follows the head of a queue. *)
let test_engine_claimed_pending () =
  let e = Engine.create () in
  let agree label =
    Alcotest.(check int) label (Engine.pending_scan e) (Engine.pending e)
  in
  let seqs = List.init 4 (fun _ -> Engine.claim_seq e) in
  agree "claims queue nothing";
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  let arm i =
    Engine.schedule_claimed e
      ~at:(Simtime.of_ms (i + 1))
      ~seq:(List.nth seqs i) ignore
  in
  let head = arm 0 in
  agree "armed";
  Engine.cancel head;
  agree "cancelled";
  let head = arm 1 in
  agree "re-armed";
  ignore (Engine.schedule e ~after:(Simtime.of_ms 1) ignore);
  ignore (Engine.run ~until:(Simtime.of_ms 1) e);
  agree "after a step";
  Engine.cancel head;
  ignore (arm 3);
  agree "re-armed past a gap";
  ignore (Engine.run e);
  agree "drained";
  Alcotest.(check int) "empty" 0 (Engine.pending e);
  Alcotest.(check int) "cancelled timers dropped" 2 (Engine.timers_cancelled e);
  Alcotest.(check int) "queued timers" 4 (Engine.timers_scheduled e)

(* Compaction: once cancelled timers are most of a large queue, the next
   schedule drops them. The survivors still run in (time, seq) order. *)
let test_engine_compaction () =
  let e = Engine.create () in
  let ran = ref [] in
  let tms =
    Array.init 5000 (fun i ->
        Engine.schedule e ~after:(Simtime.of_us (5000 - i)) (fun () ->
            ran := i :: !ran))
  in
  Array.iteri (fun i tm -> if i mod 10 <> 0 then Engine.cancel tm) tms;
  Alcotest.(check int) "nothing dropped yet" 0 (Engine.timers_cancelled e);
  ignore
    (Engine.schedule e ~after:(Simtime.of_us 6000) (fun () -> ran := -1 :: !ran));
  Alcotest.(check int) "dropped by compaction" 4500 (Engine.timers_cancelled e);
  Alcotest.(check int) "peak counts cancelled timers" 5000 (Engine.queue_peak e);
  Alcotest.(check int) "pending" 501 (Engine.pending e);
  Alcotest.(check int) "scan agrees" 501 (Engine.pending_scan e);
  ignore (Engine.run e);
  Alcotest.(check (list int)) "survivors in time order"
    (List.init 500 (fun k -> 4990 - (10 * k)) @ [ -1 ])
    (List.rev !ran)

(* The engine's queue against a reference: live timers in a map ordered
   by (time, seq). Slow and plainly correct. *)
module type ENGINE = sig
  type t
  type timer

  val create : unit -> t
  val now : t -> int
  val schedule : t -> after:int -> (unit -> unit) -> timer
  val schedule_at : t -> at:int -> (unit -> unit) -> timer
  val cancel : timer -> unit
  val step : t -> bool
  val run_until : t -> int -> unit
  val executed : t -> int
  val pending : t -> int
  val consistent : t -> bool
end

module Real : ENGINE = struct
  type t = Engine.t
  type timer = Engine.timer

  let create () = Engine.create ()
  let now e = Simtime.to_us (Engine.now e)
  let schedule e ~after f = Engine.schedule e ~after:(Simtime.of_us after) f
  let schedule_at e ~at f = Engine.schedule_at e ~at:(Simtime.of_us at) f
  let cancel = Engine.cancel
  let step = Engine.step
  let run_until e u = ignore (Engine.run ~until:(Simtime.of_us u) e)
  let executed = Engine.events_executed
  let pending = Engine.pending
  let consistent e = Engine.pending e = Engine.pending_scan e
end

module Model : ENGINE = struct
  module Q = Map.Make (struct
    type t = int * int

    let compare = compare
  end)

  type t = {
    mutable clock : int;
    mutable seq : int;
    mutable q : (unit -> unit) Q.t;
    mutable executed : int;
  }

  type timer = t * (int * int)

  let create () = { clock = 0; seq = 0; q = Q.empty; executed = 0 }
  let now t = t.clock

  let add t ~at f =
    let key = (max at t.clock, t.seq) in
    t.seq <- t.seq + 1;
    t.q <- Q.add key f t.q;
    key

  let schedule_at t ~at f = (t, add t ~at f)
  let schedule t ~after f = schedule_at t ~at:(t.clock + after) f
  let cancel (t, key) = t.q <- Q.remove key t.q

  let step t =
    match Q.min_binding_opt t.q with
    | None -> false
    | Some (((time, _) as key), f) ->
        t.q <- Q.remove key t.q;
        t.clock <- time;
        t.executed <- t.executed + 1;
        f ();
        true

  let rec run_until t u =
    match Q.min_binding_opt t.q with
    | Some ((time, _), _) when time <= u ->
        ignore (step t);
        run_until t u
    | _ -> ()

  let executed t = t.executed
  let pending t = Q.cardinal t.q
  let consistent _ = true
end

type queue_op =
  | Sched of int  (** delay, us *)
  | Sched_at of int  (** absolute time, us; may lie in the past *)
  | Burst of int * int  (** count, seed: timers with seeded delays *)
  | Cancel of int  (** the handle at this index, modulo the handles *)
  | Cancel_many of int * int  (** percent, seed *)
  | Chain of int  (** period, us: an action that re-arms itself twice *)
  | Step
  | Run_for of int  (** us *)

let show_queue_op = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Sched_at a -> Printf.sprintf "Sched_at %d" a
  | Burst (n, s) -> Printf.sprintf "Burst (%d, %d)" n s
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Cancel_many (p, s) -> Printf.sprintf "Cancel_many (%d, %d)" p s
  | Chain k -> Printf.sprintf "Chain %d" k
  | Step -> "Step"
  | Run_for d -> Printf.sprintf "Run_for %d" d

(* Run [script], then drain. Returns the ids of the actions in
   execution order, the executed count, the pending count after every
   op, and whether [pending = pending_scan] held throughout. *)
let exec_script (module E : ENGINE) script =
  let e = E.create () in
  let log = ref [] and next_id = ref 0 in
  let action () =
    let id = !next_id in
    incr next_id;
    fun () -> log := id :: !log
  in
  let handles = ref [] in
  let keep tm = handles := tm :: !handles in
  let consistent = ref true and pendings = ref [] in
  List.iter
    (fun op ->
      (match op with
      | Sched d -> keep (E.schedule e ~after:d (action ()))
      | Sched_at a -> keep (E.schedule_at e ~at:a (action ()))
      | Burst (n, seed) ->
          let st = Random.State.make [| seed |] in
          for _ = 1 to n do
            keep (E.schedule e ~after:(Random.State.int st (n / 2)) (action ()))
          done
      | Cancel i -> (
          match !handles with
          | [] -> ()
          | hs -> E.cancel (List.nth hs (i mod List.length hs)))
      | Cancel_many (pct, seed) ->
          let st = Random.State.make [| seed |] in
          List.iter
            (fun tm -> if Random.State.int st 100 < pct then E.cancel tm)
            !handles
      | Chain k ->
          let rec link left () =
            action () ();
            if left > 0 then ignore (E.schedule e ~after:k (link (left - 1)))
          in
          keep (E.schedule e ~after:k (link 2))
      | Step -> ignore (E.step e)
      | Run_for d -> E.run_until e (E.now e + d));
      pendings := E.pending e :: !pendings;
      if not (E.consistent e) then consistent := false)
    script;
  E.run_until e max_int;
  if not (E.consistent e) then consistent := false;
  (List.rev !log, E.executed e, List.rev (E.pending e :: !pendings), !consistent)

let queue_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun d -> Sched d) (int_range 0 40));
        (2, map (fun a -> Sched_at a) (int_range 0 2000));
        (2, map2 (fun n s -> Burst (n, s)) (int_range 1000 3000) nat);
        (3, map (fun i -> Cancel i) nat);
        (2, map2 (fun p s -> Cancel_many (p, s)) (int_range 40 100) nat);
        (1, map (fun k -> Chain k) (int_range 1 30));
        (3, return Step);
        (2, map (fun d -> Run_for d) (int_range 0 300));
      ])

let prop_engine_queue_matches_model =
  QCheck.Test.make ~name:"queue matches sorted reference" ~count:60
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map show_queue_op ops))
       ~shrink:QCheck.Shrink.list
       QCheck.Gen.(list_size (int_range 1 40) queue_op_gen))
    (fun script ->
      let log, executed, pendings, consistent =
        exec_script (module Real) script
      in
      let log', executed', pendings', _ = exec_script (module Model) script in
      consistent && log = log' && executed = executed' && pendings = pendings')

(* ------------------------------------------------------------------ *)
(* Network                                                            *)
(* ------------------------------------------------------------------ *)

let make_net ?(n = 3) ?(config = Network.default_config) () =
  let e = Engine.create ~seed:11 () in
  let net = Network.create e ~n config in
  (e, net)

let collect_pings net node log =
  Network.add_handler net node (fun ~src msg ->
      match msg with
      | Msg.Ping k ->
          log := (src, k) :: !log;
          true
      | _ -> false)

let test_network_delivery () =
  let e, net = make_net () in
  let log = ref [] in
  collect_pings net 1 log;
  Network.send net ~src:0 ~dst:1 (Msg.Ping 7);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int))) "delivered" [ (0, 7) ] !log;
  Alcotest.(check int) "sent" 1 (Network.messages_sent net);
  Alcotest.(check int) "delivered count" 1 (Network.messages_delivered net)

let test_network_latency_bounds () =
  let config =
    {
      Network.latency = Network.Uniform (Simtime.of_ms 1, Simtime.of_ms 2);
      drop_probability = 0.0;
      passthrough = false;
    }
  in
  let e, net = make_net ~config () in
  let arrival = ref Simtime.zero in
  Network.add_handler net 1 (fun ~src:_ _ ->
      arrival := Engine.now e;
      true);
  Network.send net ~src:0 ~dst:1 (Msg.Ping 0);
  ignore (Engine.run e);
  let us = Simtime.to_us !arrival in
  Alcotest.(check bool) "within bounds" true (us >= 1_000 && us <= 2_000)

let test_network_crash_drops () =
  let e, net = make_net () in
  let log = ref [] in
  collect_pings net 1 log;
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 (Msg.Ping 1);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int))) "not delivered" [] !log;
  Alcotest.(check int) "dropped" 1 (Network.messages_dropped net);
  Network.recover net 1;
  Network.send net ~src:0 ~dst:1 (Msg.Ping 2);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int))) "delivered after recovery" [ (0, 2) ] !log

let test_network_crashed_source_cannot_send () =
  let e, net = make_net () in
  let log = ref [] in
  collect_pings net 1 log;
  Network.crash net 0;
  Network.send net ~src:0 ~dst:1 (Msg.Ping 1);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int))) "nothing" [] !log

let test_network_partition () =
  let e, net = make_net () in
  let log = ref [] in
  collect_pings net 1 log;
  Network.partition net [ 0 ];
  Network.send net ~src:0 ~dst:1 (Msg.Ping 1);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int))) "blocked" [] !log;
  Network.heal net;
  Network.send net ~src:0 ~dst:1 (Msg.Ping 2);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int))) "healed" [ (0, 2) ] !log

let test_network_partition_within_group () =
  let e, net = make_net () in
  let log = ref [] in
  collect_pings net 2 log;
  (* 1 and 2 on the same side still communicate. *)
  Network.partition net [ 1; 2 ];
  Network.send net ~src:1 ~dst:2 (Msg.Ping 9);
  ignore (Engine.run e);
  Alcotest.(check (list (pair int int))) "same side ok" [ (1, 9) ] !log

let test_network_drop_probability () =
  let config =
    { Network.default_config with Network.drop_probability = 0.5 }
  in
  let e, net = make_net ~config () in
  let count = ref 0 in
  Network.add_handler net 1 (fun ~src:_ _ ->
      incr count;
      true);
  for _ = 1 to 1000 do
    Network.send net ~src:0 ~dst:1 (Msg.Ping 0)
  done;
  ignore (Engine.run e);
  Alcotest.(check bool) "roughly half lost" true (!count > 350 && !count < 650)

let test_network_handler_stack () =
  let e, net = make_net () in
  let pings = ref 0 and pongs = ref 0 in
  Network.add_handler net 1 (fun ~src:_ msg ->
      match msg with
      | Msg.Ping _ ->
          incr pings;
          true
      | _ -> false);
  Network.add_handler net 1 (fun ~src:_ msg ->
      match msg with
      | Msg.Pong _ ->
          incr pongs;
          true
      | _ -> false);
  Network.send net ~src:0 ~dst:1 (Msg.Ping 0);
  Network.send net ~src:0 ~dst:1 (Msg.Pong 0);
  ignore (Engine.run e);
  Alcotest.(check (pair int int)) "both layers got theirs" (1, 1) (!pings, !pongs)

let test_network_guard () =
  let e, net = make_net () in
  let fired = ref 0 in
  let count = Network.guard net 0 (fun () -> incr fired) in
  let rec tick () =
    ignore
      (Engine.schedule e ~after:(Simtime.of_ms 10) (fun () ->
           count ();
           tick ()))
  in
  tick ();
  ignore (Engine.run ~until:(Simtime.of_ms 35) e);
  Network.crash net 0;
  ignore (Engine.run ~until:(Simtime.of_ms 100) e);
  Alcotest.(check int) "guard stops timers at crash" 3 !fired


let test_network_per_link_latency () =
  let config =
    { Network.default_config with Network.latency = Network.Constant (Simtime.of_ms 1) }
  in
  let e, net = make_net ~config ~n:3 () in
  Network.set_link_latency net 0 2 (Network.Constant (Simtime.of_ms 40));
  let arrivals = Hashtbl.create 4 in
  List.iter
    (fun node ->
      Network.add_handler net node (fun ~src:_ _ ->
          Hashtbl.replace arrivals node (Engine.now e);
          true))
    [ 1; 2 ];
  Network.send net ~src:0 ~dst:1 (Msg.Ping 0);
  Network.send net ~src:0 ~dst:2 (Msg.Ping 0);
  ignore (Engine.run e);
  Alcotest.(check int) "default link" 1_000
    (Simtime.to_us (Hashtbl.find arrivals 1));
  Alcotest.(check int) "overridden link" 40_000
    (Simtime.to_us (Hashtbl.find arrivals 2));
  (* Symmetric and clearable. *)
  Network.send net ~src:2 ~dst:0 (Msg.Ping 0);
  let t0 = Engine.now e in
  Network.add_handler net 0 (fun ~src:_ _ ->
      Hashtbl.replace arrivals 0 (Engine.now e);
      true);
  ignore (Engine.run e);
  Alcotest.(check int) "reverse direction also 40ms" 40_000
    (Simtime.to_us (Simtime.sub (Hashtbl.find arrivals 0) t0));
  Network.clear_link_latencies net;
  Network.send net ~src:0 ~dst:2 (Msg.Ping 0);
  let t1 = Engine.now e in
  ignore (Engine.run e);
  Alcotest.(check int) "cleared override" 1_000
    (Simtime.to_us (Simtime.sub (Hashtbl.find arrivals 2) t1))

(* Determinism: identical seeds produce identical message traces. *)
let run_workload seed =
  let e = Engine.create ~seed () in
  let net = Network.create e ~n:4 Network.default_config in
  let log = ref [] in
  for node = 0 to 3 do
    Network.add_handler net node (fun ~src msg ->
        match msg with
        | Msg.Ping k ->
            log := (Simtime.to_us (Engine.now e), src, node, k) :: !log;
            if k > 0 then
              Network.send net ~src:node ~dst:((node + 1) mod 4) (Msg.Ping (k - 1));
            true
        | _ -> false)
  done;
  Network.send net ~src:0 ~dst:1 (Msg.Ping 20);
  ignore (Engine.run e);
  List.rev !log

let test_determinism () =
  let a = run_workload 99 and b = run_workload 99 in
  Alcotest.(check bool) "same seed, same trace" true (a = b);
  let c = run_workload 100 in
  Alcotest.(check bool) "different seed, different timings" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Drop causes                                                        *)
(* ------------------------------------------------------------------ *)

let test_drop_causes () =
  let e, net = make_net ~n:4 () in
  (* Crashed destination. *)
  Network.crash net 1;
  Network.send net ~src:0 ~dst:1 (Msg.Ping 0);
  ignore (Engine.run e);
  Alcotest.(check int) "crashed" 1 (Network.dropped_crashed net);
  Network.recover net 1;
  (* Partition separates {2,3} from {0,1}: dropped at send time. *)
  Network.partition net [ 2; 3 ];
  Network.send net ~src:0 ~dst:2 (Msg.Ping 1);
  ignore (Engine.run e);
  Alcotest.(check int) "partitioned" 1 (Network.dropped_partitioned net);
  Network.heal net;
  (* Probabilistic loss. *)
  Network.set_drop_probability net 1.0;
  Network.send net ~src:0 ~dst:1 (Msg.Ping 2);
  ignore (Engine.run e);
  Alcotest.(check int) "loss" 1 (Network.dropped_loss net);
  Alcotest.(check int) "total is the sum" 3 (Network.messages_dropped net);
  Network.reset_counters net;
  Alcotest.(check int) "reset" 0 (Network.messages_dropped net)

(* A message in flight towards a node that crashes before delivery is
   counted as a crash drop, not loss. *)
let test_drop_crash_in_flight () =
  let e, net = make_net () in
  Network.send net ~src:0 ~dst:1 (Msg.Ping 0);
  Network.crash net 1;
  ignore (Engine.run e);
  Alcotest.(check int) "crashed in flight" 1 (Network.dropped_crashed net);
  Alcotest.(check int) "no loss" 0 (Network.dropped_loss net)

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

let ms = Simtime.of_ms

let test_span_nesting () =
  let t = Span.create () in
  let root = Span.start_span t ~trace:7 ~name:"txn" (ms 0) in
  let a = Span.start_span t ~trace:7 ~parent:root ~track:1 ~name:"EX" (ms 1) in
  Span.add_event t a ~at:(ms 2) ~track:2 "replica 2 executes";
  Span.finish t a (ms 3);
  let b = Span.start_span t ~trace:7 ~parent:root ~name:"AC" (ms 3) in
  Span.finish t b (ms 5);
  Span.finish t root (ms 5);
  Alcotest.(check int) "span count" 3 (List.length (Span.spans t));
  Alcotest.(check bool) "well nested" true (Span.well_nested t ~trace:7);
  let a_span = Option.get (Span.find t a) in
  Alcotest.(check (option (float 1e-9))) "duration" (Some 2.)
    (Span.duration_ms a_span);
  Alcotest.(check int) "events" 1 (List.length (Span.events a_span));
  Alcotest.(check (list int)) "traces" [ 7 ] (Span.traces t)

let test_span_orphans () =
  let t = Span.create () in
  let root = Span.start_span t ~trace:1 ~name:"txn" (ms 0) in
  let a = Span.start_span t ~trace:1 ~parent:root ~name:"EX" (ms 1) in
  Alcotest.(check int) "two open" 2 (List.length (Span.open_spans t));
  Span.finish t a (ms 2);
  Alcotest.(check int) "one orphan" 1 (List.length (Span.open_spans t));
  (* The open root makes the trace ill-nested until flushed. *)
  Alcotest.(check bool) "not nested while open" false
    (Span.well_nested t ~trace:1);
  Span.finish_all t (ms 9);
  Alcotest.(check int) "flushed" 0 (List.length (Span.open_spans t));
  Alcotest.(check bool) "nested after flush" true (Span.well_nested t ~trace:1)

let test_span_finish_extends () =
  let t = Span.create () in
  let root = Span.start_span t ~trace:1 ~name:"txn" (ms 0) in
  Span.finish t root (ms 4);
  (* Re-finishing later extends (lazy tail), earlier is ignored. *)
  Span.finish t root (ms 9);
  Span.finish t root (ms 2);
  let s = Option.get (Span.find t root) in
  Alcotest.(check (option (float 1e-9))) "extended" (Some 9.)
    (Span.duration_ms s)

let test_span_ill_nested_detected () =
  let t = Span.create () in
  let root = Span.start_span t ~trace:1 ~name:"txn" (ms 0) in
  let a = Span.start_span t ~trace:1 ~parent:root ~name:"EX" (ms 1) in
  Span.finish t a (ms 8);
  Span.finish t root (ms 5) (* child outlives parent *);
  Alcotest.(check bool) "detects escape" false (Span.well_nested t ~trace:1)

(* The indexed store against a naive reference: a plain list of the same
   records in id order, from which every query is answered by filtering.
   Ops pick ids modulo (count + 2), so finishes and events also hit ids
   that were never issued (and must be ignored). *)
type span_op =
  | Start of int * int option * int option  (** trace, parent pick, track *)
  | Finish of int * int  (** id pick, stop (ms) *)
  | Event of int * int * int option  (** id pick, at (ms), track *)

let span_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map3
            (fun tr p tk -> Start (tr, p, tk))
            (int_bound 7) (opt small_nat) (opt (int_bound 4)) );
        (1, map2 (fun i at -> Finish (i, at)) small_nat (int_bound 50));
        ( 1,
          map3
            (fun i at tk -> Event (i, at, tk))
            small_nat (int_bound 50) (opt (int_bound 4)) );
      ])

let pp_span_op = function
  | Start (tr, p, tk) ->
      Printf.sprintf "start(trace=%d,parent=%s,track=%s)" tr
        (Option.fold ~none:"-" ~some:string_of_int p)
        (Option.fold ~none:"-" ~some:string_of_int tk)
  | Finish (i, at) -> Printf.sprintf "finish(%d,%dms)" i at
  | Event (i, at, _) -> Printf.sprintf "event(%d,%dms)" i at

let prop_span_index_matches_reference =
  QCheck.Test.make ~name:"span index matches a filtered reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map pp_span_op ops))
       QCheck.Gen.(list_size (int_bound 120) span_op_gen))
    (fun ops ->
      let t = Span.create () in
      let rev_model = ref [] in
      let n () = List.length !rev_model in
      let model_find id = List.find_opt (fun (s : Span.span) -> s.id = id) !rev_model in
      List.iter
        (function
          | Start (trace, parent, track) ->
              let parent = Option.map (fun p -> p mod (n () + 1)) parent in
              let start = ms (trace + n ()) in
              let name = "s" ^ string_of_int (n ()) in
              let id = Span.start_span t ~trace ?parent ?track ~name start in
              rev_model :=
                { Span.id; trace; name; parent; track; start; stop = None; rev_events = [] }
                :: !rev_model
          | Finish (pick, at) -> (
              let id = pick mod (n () + 2) in
              Span.finish t id (ms at);
              match model_find id with
              | Some s -> (
                  match s.stop with
                  | Some prev when Simtime.(ms at <= prev) -> ()
                  | _ -> s.stop <- Some (ms at))
              | None -> ())
          | Event (pick, at, track) -> (
              let id = pick mod (n () + 2) in
              let note = "e" ^ string_of_int at in
              Span.add_event t id ~at:(ms at) ?track note;
              match model_find id with
              | Some s -> s.rev_events <- { Span.at = ms at; track; note } :: s.rev_events
              | None -> ()))
        ops;
      let model = List.rev !rev_model in
      let distinct_traces =
        List.fold_left
          (fun acc (s : Span.span) -> if List.mem s.trace acc then acc else s.trace :: acc)
          [] model
        |> List.rev
      in
      (* Nesting answered from the model by a scan, as the definition
         reads: every parent exists in the same trace and encloses its
         closed child. *)
      let model_well_nested trace =
        List.for_all
          (fun (s : Span.span) ->
            s.trace <> trace
            ||
            match s.parent with
            | None -> s.stop <> None
            | Some pid -> (
                match model_find pid with
                | None -> false
                | Some p -> (
                    p.trace = trace
                    && Simtime.(s.start >= p.start)
                    &&
                    match (s.stop, p.stop) with
                    | Some cs, Some ps -> Simtime.(cs <= ps)
                    | _ -> false)))
          model
      in
      let queries_agree () =
        Span.spans t = model
        && List.map Span.events (Span.spans t)
           = List.map (fun (s : Span.span) -> List.rev s.rev_events) model
        && Span.open_spans t
           = List.filter (fun (s : Span.span) -> s.stop = None) model
        && List.for_all
             (fun trace -> Span.well_nested t ~trace = model_well_nested trace)
             (List.init 10 (fun i -> i - 1))
      in
      Span.count t = n ()
      && queries_agree ()
      && List.for_all
           (fun id ->
             Span.find t id = if id < 0 then None else List.nth_opt model id)
           (List.init (n () + 3) (fun i -> i - 1))
      && List.for_all
           (fun trace ->
             Span.trace_spans t ~trace
             = List.filter (fun (s : Span.span) -> s.trace = trace) model)
           (List.init 10 (fun i -> i - 1))
      && Span.traces t = distinct_traces
      &&
      (* Flush both sides, then every query must still agree. *)
      let flush = ms 60 in
      Span.finish_all t flush;
      List.iter
        (fun (s : Span.span) -> if s.stop = None then s.stop <- Some flush)
        model;
      queries_agree ())

(* The exporters as they were written over span records, kept here as
   the reference the array-reading exporters must match byte for byte:
   every span built as a record, one [Buffer] per export, message spans
   decoded from their event list. *)
module Reference_export = struct
  let add_int buf n = Buffer.add_string buf (string_of_int n)
  let esc = Json.escape
  let tid_of_track = function None -> 0 | Some r -> r + 1

  let track_name = function
    | 0 -> "client"
    | tid -> "replica " ^ string_of_int (tid - 1)

  let is_msg_span (s : Span.span) =
    String.length s.name > 4 && String.sub s.name 0 4 = "msg:"

  (* label, destination, delivered *)
  let decode (s : Span.span) =
    let dst = ref None and delivered = ref false in
    List.iter
      (fun (e : Span.event) ->
        if e.note = "deliver" then begin
          delivered := true;
          dst := e.track
        end
        else if String.length e.note > 5 && String.sub e.note 0 5 = "drop:" then
          dst := e.track)
      (Span.events s);
    (String.sub s.name 4 (String.length s.name - 4), !dst, !delivered)

  let add_span_jsonl buf (s : Span.span) =
    let str = Buffer.add_string buf and int = add_int buf in
    str "{\"type\":\"span\",\"id\":";
    int s.id;
    str ",\"trace\":";
    int s.trace;
    str ",\"name\":\"";
    str (esc s.name);
    str "\"";
    Option.iter (fun p -> str ",\"parent\":"; int p) s.parent;
    (match s.track with
    | None -> str ",\"track\":\"client\""
    | Some r -> str ",\"track\":"; int r);
    str ",\"start_us\":";
    int (Simtime.to_us s.start);
    Option.iter (fun st -> str ",\"stop_us\":"; int (Simtime.to_us st)) s.stop;
    (match Span.events s with
    | [] -> ()
    | events ->
        str ",\"events\":[";
        List.iteri
          (fun i (e : Span.event) ->
            if i > 0 then str ",";
            str "{\"at_us\":";
            int (Simtime.to_us e.at);
            Option.iter (fun r -> str ",\"track\":"; int r) e.track;
            str ",\"note\":\"";
            str (esc e.note);
            str "\"}")
          events;
        str "]");
    str "}"

  let to_jsonl t =
    let buf = Buffer.create 4096 in
    List.iteri
      (fun i s ->
        if i > 0 then Buffer.add_char buf '\n';
        add_span_jsonl buf s)
      (Span.spans t);
    Buffer.contents buf

  let to_chrome t =
    let spans = Span.spans t in
    let buf = Buffer.create 4096 in
    let str = Buffer.add_string buf and int = add_int buf in
    str "{\"traceEvents\":[";
    let first = ref true in
    let next_event () = if !first then first := false else str "," in
    let seen = Hashtbl.create 16 in
    List.iter
      (fun (s : Span.span) ->
        let pid = s.trace and tid = tid_of_track s.track in
        if not (Hashtbl.mem seen (pid, -1)) then begin
          Hashtbl.replace seen (pid, -1) ();
          next_event ();
          str "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
          int pid;
          str ",\"tid\":0,\"args\":{\"name\":\"txn ";
          int pid;
          str "\"}}"
        end;
        if not (Hashtbl.mem seen (pid, tid)) then begin
          Hashtbl.replace seen (pid, tid) ();
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
        let ts = Simtime.to_us s.start in
        let stop = match s.stop with Some st -> Simtime.to_us st | None -> ts in
        next_event ();
        str "{\"name\":\"";
        str (esc s.name);
        str "\",\"cat\":\"phase\",\"ph\":\"X\",\"ts\":";
        int ts;
        str ",\"dur\":";
        int (Stdlib.max 1 (stop - ts));
        str ",\"pid\":";
        int s.trace;
        str ",\"tid\":";
        int (tid_of_track s.track);
        str ",\"args\":{\"trace\":";
        int s.trace;
        let has_notes = ref false in
        List.iter
          (fun (e : Span.event) ->
            if e.note <> "" then begin
              str (if !has_notes then ",\"" else ",\"notes\":[\"");
              has_notes := true;
              str (esc e.note);
              str "\""
            end)
          (Span.events s);
        if !has_notes then str "]";
        str "}}")
      spans;
    let flow ~label ~ph id ts pid tid =
      next_event ();
      str "{\"name\":\"";
      str (esc label);
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
        if is_msg_span s then
          match (decode s, s.stop) with
          | (label, Some dst, true), Some stop ->
              flow ~label ~ph:{|"ph":"s"|} s.id (Simtime.to_us s.start) s.trace
                (tid_of_track s.track);
              flow ~label ~ph:{|"ph":"f","bp":"e"|} s.id (Simtime.to_us stop)
                s.trace (tid_of_track (Some dst))
          | _ -> ())
      spans;
    str "],\"displayTimeUnit\":\"ms\"}";
    Buffer.contents buf
end

(* Random span sets for the exporter equivalence: message and phase
   names, names and notes that need JSON escaping (before, at and after
   the offset 4 where a flow label starts), deliver/drop events (a bare
   "drop:" included), client-track spans and events, tracks of 64 and
   above, spans left open, zero-length and negative-length spans. A name
   or note is drawn either as the array's string or as a fresh copy
   equal in content, so an exporter that shares work between equal names
   must compare content, not physical identity. *)
let export_names =
  [| "txn"; "RE"; "EX"; "msg:Data"; "msg:Ack"; "msg:"; "msg:q\"uo\\te";
     "tab\tnew\nline"; "msg:ctl\001\031"; ""; "caf\xc3\xa9"; "m\"g:Data";
     "msg:\"Ack"; "ms\\:x\"y"; "q\"x:abc"; "abcd\\e" |]

let export_notes =
  [| "send"; "deliver"; "drop:loss"; "drop:"; "drop:partitioned"; "";
     "say \"hi\"\r\n"; "\002bell"; "deliverx" |]

type export_op =
  | X_start of int * int option * int option * (int * bool) * int
      (** trace, parent pick, track, (name pick, copied), start (us) *)
  | X_finish of int * int  (** id pick, stop (us) *)
  | X_event of int * int * int option * (int * bool)
      (** id pick, at (us), track, (note pick, copied) *)

(* The picked string itself, or a physically distinct copy of it. *)
let pick_string strings (i, copied) =
  if copied then Bytes.to_string (Bytes.of_string strings.(i)) else strings.(i)

let export_op_gen =
  QCheck.Gen.(
    (* Mostly low tracks; sometimes lanes around and beyond 62 and 64. *)
    let track = opt (frequency [ (4, int_bound 4); (1, int_range 58 70) ]) in
    let pick strings = pair (int_bound (Array.length strings - 1)) bool in
    frequency
      [
        ( 3,
          map3
            (fun (tr, p) tk (nm, st) -> X_start (tr, p, tk, nm, st))
            (pair (int_bound 5) (opt small_nat))
            track
            (pair (pick export_names) (int_bound 3_000)) );
        (2, map2 (fun i st -> X_finish (i, st)) small_nat (int_bound 3_000));
        ( 3,
          map3
            (fun i (at, tk) nt -> X_event (i, at, tk, nt))
            small_nat
            (pair (int_bound 3_000) track)
            (pick export_notes) );
      ])

let prop_export_matches_reference =
  QCheck.Test.make ~name:"exports match the record-based reference" ~count:300
    (QCheck.make
       ~print:(fun ops -> string_of_int (List.length ops) ^ " ops")
       QCheck.Gen.(list_size (int_bound 80) export_op_gen))
    (fun ops ->
      let t = Span.create () in
      List.iter
        (function
          | X_start (trace, parent, track, name, start) ->
              let parent = Option.map (fun p -> p mod (Span.count t + 1)) parent in
              ignore
                (Span.start_span t ~trace ?parent ?track
                   ~name:(pick_string export_names name) (Simtime.of_us start))
          | X_finish (pick, stop) ->
              Span.finish t (pick mod (Span.count t + 1)) (Simtime.of_us stop)
          | X_event (pick, at, track, note) ->
              Span.add_event t (pick mod (Span.count t + 1)) ~at:(Simtime.of_us at)
                ?track (pick_string export_notes note))
        ops;
      Trace_export.to_chrome t = Reference_export.to_chrome t
      && Trace_export.to_jsonl t = Reference_export.to_jsonl t)

(* Numbers at every digit-count boundary, up to [max_int], and negative
   trace ids down to [min_int]: the exporters size each number by
   comparison before writing it, so each boundary is a place the size and
   the text could part. *)
let test_export_digit_boundaries () =
  let t = Span.create () in
  let rec powers p acc = if p > max_int / 10 then p :: acc else powers (p * 10) (p :: acc) in
  let times = max_int :: List.concat_map (fun p -> [ p - 1; p ]) (powers 1 []) in
  List.iteri
    (fun i us ->
      let trace = match i mod 3 with 0 -> i | 1 -> -i | _ -> min_int + i in
      let id = Span.start_span t ~trace ~track:(i mod 70) ~name:"msg:Data" (Simtime.of_us us) in
      Span.add_event t id ~at:(Simtime.of_us us) ~track:(i mod 70) "send";
      Span.add_event t id ~at:(Simtime.of_us us) ~track:((i + 1) mod 70) "deliver";
      Span.finish t id (Simtime.of_us us))
    times;
  Alcotest.(check string) "chrome" (Reference_export.to_chrome t) (Trace_export.to_chrome t);
  Alcotest.(check string) "jsonl" (Reference_export.to_jsonl t) (Trace_export.to_jsonl t)

(* Each distinct span name's and note's text is built once per export,
   however many physically distinct copies of it the spans hold: the
   words an export allocates on the minor heap (its result is one large
   block, allocated outside it) do not grow with the number of copies. *)
let export_minor_words copies =
  let t = Span.create () in
  for i = 0 to copies - 1 do
    let copy s = Bytes.to_string (Bytes.of_string s) in
    let id =
      Span.start_span t ~trace:1 ~track:(i mod 5) ~name:(copy "msg:Data(Rb(\"x\"))")
        (Simtime.of_us i)
    in
    Span.add_event t id ~at:(Simtime.of_us i) ~track:(i mod 5) (copy "send");
    Span.add_event t id ~at:(Simtime.of_us i) ~track:((i + 1) mod 5) (copy "deliver");
    Span.finish t id (Simtime.of_us (i + 1))
  done;
  let before = Gc.minor_words () in
  ignore (Sys.opaque_identity (Trace_export.to_chrome t));
  ignore (Sys.opaque_identity (Trace_export.to_jsonl t));
  Gc.minor_words () -. before

let test_export_fragments_once () =
  let small = export_minor_words 1_000 and large = export_minor_words 8_000 in
  if large > small +. 1_000. then
    Alcotest.failf "exports allocated %.0f minor words for 1k copies of one name and %.0f \
                    for 8k" small large

(* Deterministic cost, not wall time: the words allocated, minor and
   major heap together, to record one message-shaped span (start, a
   "send" and a "deliver" event, finish), as {!Network} records every
   traced send. At 50k spans the column store allocates about 25 words
   per span: 17 words of storage and 8 of option boxes at the call
   sites. A record per span and per event, consed into lists, allocated
   about 44; the bound of 32 sits between the two. *)
let words_per_msg_span n =
  let t = Span.create () in
  let before = Gc.allocated_bytes () in
  for i = 0 to n - 1 do
    let at = Simtime.of_us i and track = i mod 5 in
    let id =
      Span.start_span t ~trace:(i mod 64) ~parent:(Stdlib.max 0 (i - 1)) ~track
        ~name:"msg:Data" at
    in
    Span.add_event t id ~at ~track "send";
    Span.add_event t id ~at ~track:((i + 1) mod 5) "deliver";
    Span.finish t id at
  done;
  (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) /. float_of_int n

let test_msg_span_words () =
  let words = words_per_msg_span 50_000 in
  if words > 32. then
    Alcotest.failf "recording a message span allocated %.1f words (bound 32)" words

(* Deterministic work, not wall time: the allocation of summarising every
   rid's phase durations (the post-run pass of a traced run) must grow
   linearly with the number of traces. Each trace carries message-like
   spans in the same collector, as it does under tracing. A per-rid scan
   of the whole span list would make the cost quadratic (~4x here). *)
let phase_summary_words traces =
  let ps = Core.Phase_span.create () in
  let spans = Core.Phase_span.collector ps in
  for rid = 1 to traces do
    let at = ms rid in
    Core.Phase_span.mark ps ~rid Core.Phase.Request at;
    for _ = 1 to 4 do
      ignore (Span.start_span spans ~trace:rid ~name:"msg:Data" at)
    done;
    Core.Phase_span.mark ps ~rid Core.Phase.Execution at;
    Core.Phase_span.mark ps ~rid Core.Phase.Response at
  done;
  Core.Phase_span.finalize ps ~at:(ms (traces + 1));
  let before = Gc.minor_words () in
  List.iter
    (fun rid -> ignore (Sys.opaque_identity (Core.Phase_span.durations ps ~rid)))
    (Core.Phase_span.rids ps);
  Gc.minor_words () -. before

let test_phase_summary_linear () =
  let small = phase_summary_words 500 and large = phase_summary_words 1000 in
  if large > 2.5 *. small then
    Alcotest.failf "phase summary allocation grew %.2fx (%.0f -> %.0f words) \
                    when traces doubled"
      (large /. small) small large

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let test_metrics_counters () =
  let m = Metrics.create () in
  Metrics.incr m "commits";
  Metrics.incr m ~by:2 "commits";
  Metrics.incr m ~labels:[ ("replica", "1") ] "commits";
  let snap = Metrics.snapshot m in
  Alcotest.(check (option int)) "plain" (Some 3)
    (Metrics.counter_value snap "commits");
  Alcotest.(check (option int)) "labelled" (Some 1)
    (Metrics.counter_value snap ~labels:[ ("replica", "1") ] "commits");
  Alcotest.(check (option int)) "missing" None
    (Metrics.counter_value snap "aborts")

(* The JSON dump parses back to the snapshot it was made from: every
   sample a counter, labels with quotes and backslashes intact. Label
   order names the same counter, and an absent counter reads 0. *)
let test_metrics_json_round_trip () =
  let m = Metrics.create () in
  let odd = [ ("note", "say \"hi\" \\ bye"); ("replica", "0") ] in
  Metrics.incr m ~labels:odd "quoted_total";
  Metrics.incr m ~labels:(List.rev odd) ~by:2 "quoted_total";
  Metrics.incr m ~by:5 "plain_total";
  Metrics.incr m ~labels:[ ("replica", "1") ] ~by:0 "zero_total";
  Alcotest.(check int) "either label order" 3
    (Metrics.counter m ~labels:(List.rev odd) "quoted_total");
  Alcotest.(check int) "absent name" 0 (Metrics.counter m "aborts");
  Alcotest.(check int) "absent labels" 0
    (Metrics.counter m ~labels:[ ("replica", "9") ] "plain_total");
  let snap = Metrics.snapshot m in
  let open Sim.Json in
  let str = function Str s -> s | _ -> Alcotest.fail "expected a string" in
  let parsed =
    match Sim.Json.parse (Metrics.snapshot_to_json snap) with
    | Ok (Arr samples) ->
        List.map
          (function
            | Obj kvs ->
                Alcotest.(check string) "type" "counter"
                  (str (List.assoc "type" kvs));
                let labels =
                  match List.assoc "labels" kvs with
                  | Obj ls -> List.map (fun (k, v) -> (k, str v)) ls
                  | _ -> Alcotest.fail "labels is not an object"
                in
                let value =
                  match List.assoc "value" kvs with
                  | Num v -> int_of_float v
                  | _ -> Alcotest.fail "value is not a number"
                in
                (str (List.assoc "metric" kvs), labels, value)
            | _ -> Alcotest.fail "sample is not an object")
          samples
    | Ok _ -> Alcotest.fail "dump is not an array"
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check (list (triple string (list (pair string string)) int)))
    "round trip"
    (List.map (fun (s : Metrics.sample) -> (s.metric, s.labels, s.value)) snap)
    parsed;
  Alcotest.(check int) "three counters" 3 (List.length parsed)

(* Every number reads back as [Num]. *)
let rec ints_as_num = function
  | Json.Int i -> Json.Num (float_of_int i)
  | Arr vs -> Arr (List.map ints_as_num vs)
  | Obj kvs -> Obj (List.map (fun (k, v) -> (k, ints_as_num v)) kvs)
  | v -> v

(* Values whose numbers survive the encoder's six significant digits:
   integers, and decimals of at most six digits. Strings draw on every
   control byte, quotes, backslashes and bytes above 0x7f. *)
let json_gen =
  let open QCheck.Gen in
  let byte =
    frequency
      [
        (2, map Char.chr (int_range 0 0x1f));
        (1, oneofl [ '"'; '\\'; '/' ]);
        (2, printable);
        (1, char);
      ]
  in
  let str = string_size ~gen:byte (int_range 0 12) in
  let num =
    oneof
      [
        map (fun k -> float_of_int k /. 1000.) (int_range (-999_999) 999_999);
        map float_of_int (int_range (-(1 lsl 40)) (1 lsl 40));
      ]
  in
  sized
  @@ fix (fun self n ->
         let leaf =
           oneof
             [
               return Json.Null;
               map (fun b -> Json.Bool b) bool;
               map (fun i -> Json.Int i) (int_range (-(1 lsl 53)) (1 lsl 53));
               map (fun f -> Json.Num f) num;
               map (fun s -> Json.Str s) str;
             ]
         in
         if n <= 0 then leaf
         else
           frequency
             [
               (2, leaf);
               (1, map (fun vs -> Json.Arr vs) (list_size (int_range 0 4) (self (n / 4))));
               ( 1,
                 map
                   (fun kvs -> Json.Obj kvs)
                   (list_size (int_range 0 4) (pair str (self (n / 4)))) );
             ])

let prop_json_round_trip =
  QCheck.Test.make ~name:"parse (to_string v) = v" ~count:500
    (QCheck.make ~print:Json.to_string json_gen)
    (fun v -> Json.parse (Json.to_string v) = Ok (ints_as_num v))

(* Every escape the grammar allows decodes; \uXXXX to UTF-8, a
   surrogate pair to one code point. *)
let test_json_escapes_decode () =
  let check name text expected =
    Alcotest.(check (result string string)) name (Ok expected)
      (Result.map (function Json.Str s -> s | v -> Json.to_string v) (Json.parse text))
  in
  check "short escapes" {|"\"\\\/\b\f\n\r\t"|} "\"\\/\b\012\n\r\t";
  check "control byte" {|"\u0001\u001F"|} "\001\031";
  check "two and three bytes" {|"\u00e9\u20AC"|} "\xc3\xa9\xe2\x82\xac";
  check "surrogate pair" {|"\ud83d\ude00"|} "\xf0\x9f\x98\x80";
  List.iter
    (fun bad ->
      Alcotest.(check bool) (bad ^ " rejected") true (Result.is_error (Json.parse bad)))
    [ {|"\x"|}; {|"\u12"|}; {|"\u12g4"|}; {|"\ud83d"|}; {|"\ude00"|}; {|"\ud83d\u0041"|} ]

(* Escaping, and both exporters applying it to span names and notes: a
   clean string passes through unchanged, special characters do not. *)
let test_json_escape () =
  let check input expected =
    Alcotest.(check string) (String.escaped input) expected
      (Json.escape input)
  in
  check "Data(Inject(Req))" "Data(Inject(Req))";
  check "a\"b\\c\nd\te\001" {|a\"b\\c\nd\te\u0001|};
  let t = Span.create () in
  let id = Span.start_span t ~trace:1 ~name:"q\"n" (ms 0) in
  Span.add_event t id ~at:(ms 1) "x\ny";
  Span.finish t id (ms 2);
  Alcotest.(check string) "jsonl"
    {|{"type":"span","id":0,"trace":1,"name":"q\"n","track":"client","start_us":0,"stop_us":2000,"events":[{"at_us":1000,"note":"x\ny"}]}|}
    (Trace_export.to_jsonl t);
  Alcotest.(check string) "chrome"
    ({|{"traceEvents":[{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"txn 1"}},|}
    ^ {|{"name":"thread_name","ph":"M","pid":1,"tid":0,"args":{"name":"client"}},|}
    ^ {|{"name":"q\"n","cat":"phase","ph":"X","ts":0,"dur":2000,"pid":1,"tid":0,"args":{"trace":1,"notes":["x\ny"]}}],"displayTimeUnit":"ms"}|})
    (Trace_export.to_chrome t)

(* ------------------------------------------------------------------ *)
(* Profiler                                                           *)
(* ------------------------------------------------------------------ *)

let bucket report label =
  List.find_opt
    (fun (r : Profiler.row) -> r.Profiler.r_label = label)
    report.Profiler.p_buckets

let test_profiler_attribute () =
  let p = Profiler.create () in
  Profiler.measure p ~label:"a" (fun () -> Sys.opaque_identity (String.make 64 'x'))
  |> ignore;
  Profiler.measure p ~label:"a" (fun () -> ()) |> ignore;
  Profiler.measure p ~label:"b" (fun () -> ()) |> ignore;
  let r = Profiler.report p in
  Alcotest.(check int) "two buckets" 2 (List.length r.Profiler.p_buckets);
  (match bucket r "a" with
  | None -> Alcotest.fail "bucket a missing"
  | Some a ->
      Alcotest.(check int) "a measured twice" 2 a.Profiler.r_events;
      Alcotest.(check bool) "a allocated" true (a.Profiler.r_alloc_w > 0.);
      Alcotest.(check bool) "a wall non-negative" true (a.Profiler.r_wall_ms >= 0.));
  (* First-seen order is deterministic. *)
  Alcotest.(check (list string)) "bucket order" [ "a"; "b" ]
    (List.map (fun (r : Profiler.row) -> r.Profiler.r_label) r.Profiler.p_buckets)

(* Allocation is counted when it happens, not when a minor collection
   runs: 10k pairs (3 words each) allocated with no collection in
   between read at least their 30k words, and a lone minor collection,
   which allocates nothing, reads about 0. *)
let test_profiler_alloc_exact () =
  let words f =
    let p = Profiler.create () in
    Profiler.measure p ~label:"x" f;
    match bucket (Profiler.report p) "x" with
    | Some b -> b.Profiler.r_alloc_w
    | None -> Alcotest.fail "bucket missing"
  in
  Gc.minor ();
  let minors = (Gc.quick_stat ()).Gc.minor_collections in
  let pairs =
    words (fun () ->
        for i = 1 to 10_000 do
          ignore (Sys.opaque_identity (i, i))
        done)
  in
  Alcotest.(check int) "no collection while allocating" minors
    (Gc.quick_stat ()).Gc.minor_collections;
  Alcotest.(check bool)
    (Printf.sprintf "10k pairs read %.0f >= 30000 words" pairs)
    true (pairs >= 30_000.);
  let minor = words Gc.minor in
  Alcotest.(check bool)
    (Printf.sprintf "a minor collection reads %.0f words, about 0" minor)
    true (minor < 100.)

let test_profiler_measure_exn () =
  let p = Profiler.create () in
  (try Profiler.measure p ~label:"boom" (fun () -> failwith "x")
   with Failure _ -> ());
  match bucket (Profiler.report p) "boom" with
  | Some b -> Alcotest.(check int) "attributed despite raise" 1 b.Profiler.r_events
  | None -> Alcotest.fail "bucket missing after exception"

let test_profiler_engine_labels () =
  let e = Engine.create () in
  let p = Profiler.create () in
  Engine.set_profiler e (Some p);
  for _ = 1 to 3 do
    ignore
      (Engine.schedule e ~label:"tick" ~after:(Simtime.of_ms 1) (fun () -> ()))
  done;
  ignore (Engine.schedule e ~after:(Simtime.of_ms 2) (fun () -> ()));
  ignore (Engine.run ~until:(Simtime.of_ms 10) e);
  let r = Profiler.report p in
  (match bucket r "tick" with
  | Some b -> Alcotest.(check int) "3 ticks attributed" 3 b.Profiler.r_events
  | None -> Alcotest.fail "tick bucket missing");
  (match bucket r "timer" with
  | Some b ->
      Alcotest.(check int) "unlabelled goes to default bucket" 1
        b.Profiler.r_events
  | None -> Alcotest.fail "default timer bucket missing")

let test_engine_deterministic_counters () =
  let e = Engine.create () in
  let fired = ref 0 in
  for _ = 1 to 5 do
    ignore (Engine.schedule e ~after:(Simtime.of_ms 1) (fun () -> incr fired))
  done;
  let tm = Engine.schedule e ~after:(Simtime.of_ms 2) (fun () -> incr fired) in
  Engine.cancel tm;
  ignore (Engine.run ~until:(Simtime.of_ms 10) e);
  Alcotest.(check int) "executed" 5 (Engine.events_executed e);
  Alcotest.(check int) "scheduled" 6 (Engine.timers_scheduled e);
  Alcotest.(check int) "cancelled discarded" 1 (Engine.timers_cancelled e);
  Alcotest.(check int) "queue peak" 6 (Engine.queue_peak e);
  Alcotest.(check int) "handlers all ran" 5 !fired

let test_profiler_normalize () =
  let p = Profiler.create () in
  Profiler.set_engine_stats p ~events:42 ~scheduled:50 ~cancelled:3 ~queue_peak:7;
  Profiler.set_meta p ~spans_created:11 ~samples_taken:5 ();
  Profiler.add_run_wall p 0.013;
  Profiler.add_trace_bytes p 1024;
  let m = Profiler.mark () in
  ignore (Sys.opaque_identity (Array.make 1000 0));
  Profiler.attribute p ~label:"x" m;
  let r = Profiler.report p in
  let n = Profiler.normalize r in
  (* Deterministic fields survive; wall/alloc-derived ones become 0. *)
  Alcotest.(check (list int)) "counters kept"
    [ 42; 50; 3; 7; 11; 5 ]
    [ n.p_events; n.p_scheduled; n.p_cancelled; n.p_queue_peak; n.p_spans_created; n.p_samples_taken ];
  Alcotest.(check (list string)) "bucket labels kept"
    (List.map (fun (b : Profiler.row) -> b.r_label) r.p_buckets)
    (List.map (fun (b : Profiler.row) -> b.r_label) n.p_buckets);
  Alcotest.(check (list (float 0.))) "wall and allocation zeroed"
    [ 0.; 0.; 0.; 0.; 0.; 0. ]
    [ n.p_wall_s; n.p_events_per_sec; n.p_self_wall_s; n.p_alloc_words;
      float_of_int n.p_heap_peak_words; float_of_int n.p_trace_bytes ];
  List.iter
    (fun (b : Profiler.row) ->
      Alcotest.(check (list (float 0.))) (b.r_label ^ " zeroed") [ 0.; 0.; 0.; 0. ]
        [ b.r_wall_ms; b.r_wall_share; b.r_alloc_w; b.r_alloc_share ])
    n.p_buckets;
  Alcotest.(check string) "encoded"
    {|{"type":"profile","events":42,"scheduled":50,"cancelled":3,"queue_peak":7,"wall_ms":0.0,"events_per_sec":0.0,"self_wall_ms":0.0,"alloc_words":0.0,"heap_peak_words":0,"spans_created":11,"samples_taken":5,"trace_bytes":0,"buckets":[{"label":"x","events":1,"wall_ms":0.0,"wall_share":0.0,"alloc_words":0.0,"alloc_share":0.0}]}|}
    (Profiler.report_to_json n);
  Alcotest.(check bool) "idempotent" true (Profiler.normalize n = n)

let test_profiler_json_fields () =
  let p = Profiler.create () in
  Profiler.set_engine_stats p ~events:7 ~scheduled:9 ~cancelled:1 ~queue_peak:4;
  Profiler.set_meta p ~spans_created:3 ~samples_taken:2 ();
  Profiler.add_trace_bytes p 128;
  let json = Profiler.report_to_json (Profiler.report p) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (needle ^ " present") true
        (let nl = String.length needle and hl = String.length json in
         let rec scan i =
           if i + nl > hl then false
           else if String.sub json i nl = needle then true
           else scan (i + 1)
         in
         scan 0))
    [
      "\"events\":7";
      "\"scheduled\":9";
      "\"cancelled\":1";
      "\"queue_peak\":4";
      "\"spans_created\":3";
      "\"samples_taken\":2";
      "\"trace_bytes\":128";
    ]

let () =
  Alcotest.run "sim"
    [
      ( "simtime",
        [ tc "units" test_simtime_units; tc "arith" test_simtime_arith ] );
      ( "rng",
        [
          tc "deterministic" test_rng_deterministic;
          tc "bounds" test_rng_bounds;
          tc "split" test_rng_split_independent;
          tc "golden stream" test_rng_golden_stream;
          tc "zipf skew" test_zipf;
          tc "zipf uniform" test_zipf_uniform_theta0;
        ] );
      ( "engine",
        [
          tc "time order" test_engine_time_order;
          tc "fifo same instant" test_engine_fifo_same_instant;
          tc "cancel" test_engine_cancel;
          tc "nested" test_engine_nested_schedule;
          tc "run until" test_engine_run_until;
          tc "max events" test_engine_max_events;
          tc "cancelled head vs until" test_engine_cancelled_head_respects_until;
          tc "schedule_at past clamps" test_engine_schedule_at_past_clamps;
          tc "pending counter" test_engine_pending_counter;
          QCheck_alcotest.to_alcotest prop_engine_pending_matches_scan;
          tc "compaction" test_engine_compaction;
          tc "schedule_claimed order" test_engine_schedule_claimed;
          tc "claimed pending" test_engine_claimed_pending;
          QCheck_alcotest.to_alcotest prop_engine_queue_matches_model;
        ] );
      ( "network",
        [
          tc "delivery" test_network_delivery;
          tc "latency bounds" test_network_latency_bounds;
          tc "crash drops" test_network_crash_drops;
          tc "crashed source" test_network_crashed_source_cannot_send;
          tc "partition" test_network_partition;
          tc "partition same side" test_network_partition_within_group;
          tc "drop probability" test_network_drop_probability;
          tc "handler stack" test_network_handler_stack;
          tc "guard" test_network_guard;
          tc "per-link latency" test_network_per_link_latency;
          tc "determinism" test_determinism;
        ] );
      ( "drop causes",
        [
          tc "by cause" test_drop_causes;
          tc "crash in flight" test_drop_crash_in_flight;
        ] );
      ( "span",
        [
          tc "nesting" test_span_nesting;
          tc "orphans" test_span_orphans;
          tc "finish extends" test_span_finish_extends;
          tc "ill-nested detected" test_span_ill_nested_detected;
          QCheck_alcotest.to_alcotest prop_span_index_matches_reference;
          QCheck_alcotest.to_alcotest prop_export_matches_reference;
          tc "exports at digit boundaries" test_export_digit_boundaries;
          tc "export text built once per name" test_export_fragments_once;
          tc "phase summary linear in traces" test_phase_summary_linear;
          tc "message span allocation bounded" test_msg_span_words;
        ] );
      ( "metrics",
        [
          tc "counters" test_metrics_counters;
          tc "json round-trip" test_metrics_json_round_trip;
          tc "json escape + exporters" test_json_escape;
        ] );
      ( "json",
        [
          QCheck_alcotest.to_alcotest prop_json_round_trip;
          tc "escapes decode" test_json_escapes_decode;
        ] );
      ( "profiler",
        [
          tc "attribute accounting" test_profiler_attribute;
          tc "allocation counted exactly" test_profiler_alloc_exact;
          tc "measure exception-safe" test_profiler_measure_exn;
          tc "engine dispatch labels" test_profiler_engine_labels;
          tc "engine counters" test_engine_deterministic_counters;
          tc "normalize json" test_profiler_normalize;
          tc "report json round-trips fields" test_profiler_json_fields;
        ] );
    ]
