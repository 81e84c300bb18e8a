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

let test_engine_periodic () =
  let e = Engine.create () in
  let ticks = ref 0 in
  let tm = Engine.periodic e ~every:(Simtime.of_ms 10) (fun () -> incr ticks) in
  ignore (Engine.run ~until:(Simtime.of_ms 55) e);
  Alcotest.(check int) "five ticks" 5 !ticks;
  Engine.cancel tm;
  ignore (Engine.run ~until:(Simtime.of_ms 200) e);
  Alcotest.(check int) "no ticks after cancel" 5 !ticks

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
     cancels (including double-cancel), dispatch and periodic timers. *)
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
  let p = Engine.periodic e ~every:(Simtime.of_ms 2) (fun () -> ()) in
  agree "periodic armed";
  ignore (Engine.run ~until:(Simtime.of_ms 9) e);
  agree "periodic ticking";
  Engine.cancel p;
  agree "periodic cancelled";
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
   by (time, seq), periodic timers re-armed after their action as
   {!Engine.periodic} does. Slow and plainly correct. *)
module type ENGINE = sig
  type t
  type timer

  val create : unit -> t
  val now : t -> int
  val schedule : t -> after:int -> (unit -> unit) -> timer
  val schedule_at : t -> at:int -> (unit -> unit) -> timer
  val periodic : t -> every:int -> (unit -> unit) -> timer
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
  let periodic e ~every f = Engine.periodic e ~every:(Simtime.of_us every) f
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

  type every = { mutable armed : int * int; mutable stopped : bool }
  type timer = Once of t * (int * int) | Every of t * every

  let create () = { clock = 0; seq = 0; q = Q.empty; executed = 0 }
  let now t = t.clock

  let add t ~at f =
    let key = (max at t.clock, t.seq) in
    t.seq <- t.seq + 1;
    t.q <- Q.add key f t.q;
    key

  let schedule_at t ~at f = Once (t, add t ~at f)
  let schedule t ~after f = schedule_at t ~at:(t.clock + after) f

  let periodic t ~every f =
    let h = { armed = (0, 0); stopped = false } in
    let rec tick () =
      if not h.stopped then begin
        f ();
        if not h.stopped then h.armed <- add t ~at:(t.clock + every) tick
      end
    in
    h.armed <- add t ~at:(t.clock + every) tick;
    Every (t, h)

  let cancel = function
    | Once (t, key) -> t.q <- Q.remove key t.q
    | Every (t, h) ->
        h.stopped <- true;
        t.q <- Q.remove h.armed t.q

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
  | Periodic of int  (** period, us *)
  | Step
  | Run_for of int  (** us *)

let show_queue_op = function
  | Sched d -> Printf.sprintf "Sched %d" d
  | Sched_at a -> Printf.sprintf "Sched_at %d" a
  | Burst (n, s) -> Printf.sprintf "Burst (%d, %d)" n s
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Cancel_many (p, s) -> Printf.sprintf "Cancel_many (%d, %d)" p s
  | Periodic k -> Printf.sprintf "Periodic %d" k
  | Step -> "Step"
  | Run_for d -> Printf.sprintf "Run_for %d" d

(* Run [script], then stop the periodic timers and drain. Returns the ids
   of the actions in execution order, the executed count, the pending
   count after every op, and whether [pending = pending_scan] held
   throughout. *)
let exec_script (module E : ENGINE) script =
  let e = E.create () in
  let log = ref [] and next_id = ref 0 in
  let action () =
    let id = !next_id in
    incr next_id;
    fun () -> log := id :: !log
  in
  let handles = ref [] and periodics = ref [] in
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
      | Periodic k ->
          let tm = E.periodic e ~every:k (action ()) in
          keep tm;
          periodics := tm :: !periodics
      | Step -> ignore (E.step e)
      | Run_for d -> E.run_until e (E.now e + d));
      pendings := E.pending e :: !pendings;
      if not (E.consistent e) then consistent := false)
    script;
  List.iter E.cancel !periodics;
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
        (1, map (fun k -> Periodic k) (int_range 1 30));
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
  ignore
    (Engine.periodic e ~every:(Simtime.of_ms 10)
       (Network.guard net 0 (fun () -> incr fired)));
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
      Span.count t = n ()
      && Span.spans t = model
      && List.for_all
           (fun id ->
             Span.find t id = if id < 0 then None else List.nth_opt model id)
           (List.init (n () + 3) (fun i -> i - 1))
      && List.for_all
           (fun trace ->
             Span.trace_spans t ~trace
             = List.filter (fun (s : Span.span) -> s.trace = trace) model)
           (List.init 10 (fun i -> i - 1))
      && Span.traces t = distinct_traces)

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
  Metrics.set_gauge m "depth" 4.5;
  let snap = Metrics.snapshot m in
  Alcotest.(check (option int)) "plain" (Some 3)
    (Metrics.counter_value snap "commits");
  Alcotest.(check (option int)) "labelled" (Some 1)
    (Metrics.counter_value snap ~labels:[ ("replica", "1") ] "commits");
  Alcotest.(check (option int)) "missing" None
    (Metrics.counter_value snap "aborts");
  Alcotest.(check (option (float 1e-9))) "gauge" (Some 4.5)
    (Metrics.gauge_value snap "depth")

let test_metrics_histogram () =
  let m = Metrics.create () in
  List.iter (Metrics.observe m "lat_ms") [ 1.0; 2.0; 3.0; 4.0; 100.0 ];
  let snap = Metrics.snapshot m in
  let h = Option.get (Metrics.histogram_value snap "lat_ms") in
  Alcotest.(check int) "count" 5 h.Metrics.count;
  Alcotest.(check (float 1e-9)) "sum" 110.0 h.Metrics.sum;
  Alcotest.(check (float 1e-9)) "min" 1.0 h.Metrics.min;
  Alcotest.(check (float 1e-9)) "max" 100.0 h.Metrics.max;
  Alcotest.(check (float 1e-9)) "mean" 22.0 (Metrics.mean h);
  (* Bucketed quantiles are upper-bound estimates within bucket width. *)
  let p50 = Metrics.quantile h 0.5 in
  Alcotest.(check bool) "p50 near median" true (p50 >= 2.0 && p50 <= 4.6);
  Alcotest.(check (float 1e-9)) "p100 clamps to max" 100.0
    (Metrics.quantile h 1.0)

let test_metrics_diff () =
  let m = Metrics.create () in
  Metrics.incr m "a";
  Metrics.observe m "h" 1.0;
  let before = Metrics.snapshot m in
  Metrics.incr m ~by:4 "a";
  Metrics.incr m "b";
  Metrics.observe m "h" 2.0;
  Metrics.observe m "h" 3.0;
  let after = Metrics.snapshot m in
  let d = Metrics.diff ~before ~after in
  Alcotest.(check (option int)) "counter delta" (Some 4)
    (Metrics.counter_value d "a");
  Alcotest.(check (option int)) "new counter" (Some 1)
    (Metrics.counter_value d "b");
  let h = Option.get (Metrics.histogram_value d "h") in
  Alcotest.(check int) "histogram delta count" 2 h.Metrics.count;
  Alcotest.(check (float 1e-9)) "histogram delta sum" 5.0 h.Metrics.sum;
  (* Unchanged instruments drop out of the diff. *)
  Metrics.incr m "c";
  let s1 = Metrics.snapshot m in
  let s2 = Metrics.snapshot m in
  Alcotest.(check int) "no-change diff is empty" 0
    (List.length (Metrics.diff ~before:s1 ~after:s2))

(* Escaping, and both exporters applying it to span names and notes: a
   clean string passes through unchanged, special characters do not. *)
let test_json_escape () =
  let check input expected =
    Alcotest.(check string) (String.escaped input) expected
      (Trace_export.json_escape input)
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
  let json =
    "{\"type\":\"profile\",\"events\":42,\"wall_ms\":13.25,\"events_per_sec\":123456.7,\
     \"alloc_words\":99,\"heap_peak_words\":1024,\"buckets\":[{\"label\":\"x\",\
     \"events\":42,\"wall_ms\":13.25,\"wall_share\":1,\"self_wall_ms\":13.25,\
     \"alloc_words\":99,\"alloc_share\":1,\"trace_bytes\":5}]}"
  in
  let n = Profiler.normalize_json json in
  (* Deterministic fields survive; wall/alloc-derived ones become 0. *)
  let contains needle hay =
    let nl = String.length needle and hl = String.length hay in
    let rec scan i =
      if i + nl > hl then false
      else if String.sub hay i nl = needle then true
      else scan (i + 1)
    in
    scan 0
  in
  Alcotest.(check bool) "events kept" true (contains "\"events\":42" n);
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " zeroed") false
        (contains (Printf.sprintf "\"%s\":%s" f "13.25") n
        || contains (Printf.sprintf "\"%s\":%s" f "123456.7") n
        || contains (Printf.sprintf "\"%s\":%s" f "99") n
        || contains (Printf.sprintf "\"%s\":%s" f "1024") n
        || contains (Printf.sprintf "\"%s\":%s" f "5") n))
    Profiler.nondeterministic_fields;
  (* Idempotent. *)
  Alcotest.(check string) "idempotent" n (Profiler.normalize_json n)

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
          tc "periodic" test_engine_periodic;
          tc "run until" test_engine_run_until;
          tc "max events" test_engine_max_events;
          tc "cancelled head vs until" test_engine_cancelled_head_respects_until;
          tc "schedule_at past clamps" test_engine_schedule_at_past_clamps;
          tc "pending counter" test_engine_pending_counter;
          QCheck_alcotest.to_alcotest prop_engine_pending_matches_scan;
          tc "compaction" test_engine_compaction;
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
          tc "phase summary linear in traces" test_phase_summary_linear;
        ] );
      ( "metrics",
        [
          tc "counters+gauges" test_metrics_counters;
          tc "histogram" test_metrics_histogram;
          tc "snapshot diff" test_metrics_diff;
          tc "json escape + exporters" test_json_escape;
        ] );
      ( "profiler",
        [
          tc "attribute accounting" test_profiler_attribute;
          tc "measure exception-safe" test_profiler_measure_exn;
          tc "engine dispatch labels" test_profiler_engine_labels;
          tc "engine counters" test_engine_deterministic_counters;
          tc "normalize json" test_profiler_normalize;
          tc "report json round-trips fields" test_profiler_json_fields;
        ] );
    ]
