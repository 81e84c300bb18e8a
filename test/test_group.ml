(* Tests for the group-communication substrate: failure detector, stubborn
   channels, FIFO reliable broadcast, consensus, atomic broadcast and
   view-synchronous broadcast. *)

open Sim
open Group

let tc name f = Alcotest.test_case name `Quick f

type Msg.t += Payload of int

let payload_of = function Payload k -> k | _ -> Alcotest.fail "bad payload"

let make ?(seed = 21) ?(n = 3) ?(drop = 0.0) ?(passthrough = false) () =
  let e = Engine.create ~seed () in
  let config =
    { Network.default_config with Network.drop_probability = drop; passthrough }
  in
  let net = Network.create e ~n config in
  (e, net)

let run_ms e ms = ignore (Engine.run ~until:(Simtime.of_ms ms) e)

(* ------------------------------------------------------------------ *)
(* Failure detector                                                   *)
(* ------------------------------------------------------------------ *)

let test_fd_suspects_crashed () =
  let e, net = make () in
  let members = [ 0; 1; 2 ] in
  let group = Fd.create_group net ~members () in
  let fd0 = Fd.handle group ~me:0 in
  let suspected_events = ref [] in
  Fd.on_suspect fd0 (fun p -> suspected_events := p :: !suspected_events);
  run_ms e 200;
  Alcotest.(check bool) "nobody suspected yet" false
    (Fd.suspected fd0 1 || Fd.suspected fd0 2);
  Network.crash net 2;
  run_ms e 600;
  Alcotest.(check bool) "crashed is suspected" true (Fd.suspected fd0 2);
  Alcotest.(check bool) "alive is trusted" false (Fd.suspected fd0 1);
  Alcotest.(check (list int)) "callback fired" [ 2 ] !suspected_events;
  Alcotest.(check (list int)) "trusted" [ 0; 1 ] (Fd.trusted fd0)

let test_fd_trust_restored () =
  let e, net = make () in
  let members = [ 0; 1 ] in
  let group = Fd.create_group net ~members () in
  let fd0 = Fd.handle group ~me:0 in
  let trust_events = ref [] in
  Fd.on_trust fd0 (fun p -> trust_events := p :: !trust_events);
  Network.crash net 1;
  run_ms e 400;
  Alcotest.(check bool) "suspected while down" true (Fd.suspected fd0 1);
  Network.recover net 1;
  run_ms e 800;
  Alcotest.(check bool) "trusted again" false (Fd.suspected fd0 1);
  Alcotest.(check (list int)) "trust callback" [ 1 ] !trust_events

(* ------------------------------------------------------------------ *)
(* Stubborn channels                                                  *)
(* ------------------------------------------------------------------ *)

let test_rchan_lossy_delivery () =
  let e, net = make ~drop:0.4 () in
  let group = Rchan.create_group net ~nodes:[ 0; 1 ] ~rto:(Simtime.of_ms 5) () in
  let c0 = Rchan.handle group ~me:0 in
  let c1 = Rchan.handle group ~me:1 in
  let got = ref [] in
  Rchan.on_deliver c1 (fun ~src msg ->
      Alcotest.(check int) "src" 0 src;
      got := payload_of msg :: !got);
  for k = 1 to 50 do
    Rchan.send c0 ~dst:1 (Payload k)
  done;
  run_ms e 5_000;
  let got = List.sort Int.compare !got in
  Alcotest.(check (list int)) "all delivered exactly once"
    (List.init 50 (fun i -> i + 1))
    got

let test_rchan_passthrough_no_overhead () =
  let e, net = make ~passthrough:true () in
  let group = Rchan.create_group net ~nodes:[ 0; 1 ] () in
  let c0 = Rchan.handle group ~me:0 in
  let c1 = Rchan.handle group ~me:1 in
  let got = ref 0 in
  Rchan.on_deliver c1 (fun ~src:_ _ -> incr got);
  Rchan.send c0 ~dst:1 (Payload 1);
  run_ms e 100;
  Alcotest.(check int) "delivered" 1 !got;
  (* passthrough: exactly one wire message, no acks *)
  Alcotest.(check int) "one message" 1 (Network.messages_sent net)

(* Exactly-once under loss, reordering and a sender crash: three nodes
   each send [per_phase] messages to every node (themselves included)
   over a network whose latency spread (0.5-30 ms) is wider than the
   retransmit timeout, so retransmits overtake originals and duplicates
   arrive. Node 2 crashes mid-stream, which kills its retransmit chains
   and leaves permanent gaps in its links, then recovers and sends a
   second batch. Returns (deliveries, Data packets that arrived). *)
let rchan_stream ~passthrough ~drop =
  let e = Engine.create ~seed:47 () in
  let net =
    Network.create e ~n:3
      {
        Network.latency = Uniform (Simtime.of_us 500, Simtime.of_ms 30);
        drop_probability = drop;
        passthrough;
      }
  in
  let nodes = [ 0; 1; 2 ] in
  let group = Rchan.create_group net ~nodes () in
  let per_phase = 40 in
  (* (receiver, origin, payload) -> deliveries *)
  let delivered = Hashtbl.create 256 and arrivals = ref 0 in
  List.iter
    (fun me ->
      Rchan.on_deliver (Rchan.handle group ~me) (fun ~src msg ->
          let key = (me, src, payload_of msg) in
          Hashtbl.replace delivered key
            (1 + Option.value ~default:0 (Hashtbl.find_opt delivered key)));
      Network.add_handler net me (fun ~src:_ msg ->
          if String.starts_with ~prefix:"Data(" (Msg.name msg) then incr arrivals;
          false))
    nodes;
  let send_batch ~first ~start =
    for k = first to first + per_phase - 1 do
      List.iter
        (fun src ->
          ignore
            (Engine.schedule e
               ~after:(Simtime.of_ms (start + (4 * (k - first))))
               (Network.guard net src (fun () ->
                    Rchan.mcast (Rchan.handle group ~me:src) ~dsts:nodes
                      (Payload ((1000 * src) + k))))))
        nodes
    done
  in
  send_batch ~first:0 ~start:0;
  send_batch ~first:per_phase ~start:400;
  ignore (Engine.schedule e ~after:(Simtime.of_ms 80) (fun () -> Network.crash net 2));
  ignore (Engine.schedule e ~after:(Simtime.of_ms 300) (fun () -> Network.recover net 2));
  run_ms e 10_000;
  let count ~me ~src k =
    Option.value ~default:0 (Hashtbl.find_opt delivered (me, src, (1000 * src) + k))
  in
  Hashtbl.iter
    (fun (me, src, p) c ->
      if c > 1 then Alcotest.failf "node %d delivered (%d, %d) %d times" me src p c)
    delivered;
  (* Senders 0 and 1 never crash: every receiver gets all of theirs
     (node 2 through retransmission after its recovery, so not in
     passthrough mode). The second batch is sent while node 2 is up. *)
  let expected ~me ~src k =
    k >= per_phase || (src < 2 && (me < 2 || not passthrough))
  in
  List.iter
    (fun me ->
      for k = 0 to (2 * per_phase) - 1 do
        List.iter
          (fun src ->
            if expected ~me ~src k && count ~me ~src k <> 1 then
              Alcotest.failf "node %d delivered (%d, %d) %d times" me src k
                (count ~me ~src k))
          nodes
      done)
    nodes;
  (Hashtbl.length delivered, !arrivals)

let test_rchan_exactly_once_under_faults () =
  let delivered, arrivals = rchan_stream ~passthrough:false ~drop:0.3 in
  (* The crash really cost node 2 part of its first batch, and
     retransmits really produced duplicates for the dedup to discard. *)
  Alcotest.(check bool) "crash lost messages" true (delivered < 3 * 3 * 80);
  Alcotest.(check bool) "duplicates arrived" true (arrivals > delivered)

(* [on_settled] reports each message once, when its chain ends: acked
   by a live receiver, or its retries spent towards a crashed one, even
   when the loss keeps the ack from coming back at first. *)
let test_rchan_settled_once () =
  let e, net = make ~drop:0.3 () in
  let group =
    Rchan.create_group net ~nodes:[ 0; 1; 2 ] ~rto:(Simtime.of_ms 5)
      ~max_retries:4 ()
  in
  let c0 = Rchan.handle group ~me:0 in
  let settled = Hashtbl.create 16 in
  Rchan.on_settled c0 (fun ~dst msg ->
      let key = (dst, payload_of msg) in
      Hashtbl.replace settled key
        (1 + Option.value ~default:0 (Hashtbl.find_opt settled key)));
  Network.crash net 2;
  for k = 1 to 30 do
    Rchan.send c0 ~dst:1 (Payload k);
    Rchan.send c0 ~dst:2 (Payload k)
  done;
  run_ms e 2_000;
  for k = 1 to 30 do
    List.iter
      (fun dst ->
        Alcotest.(check (option int))
          (Printf.sprintf "payload %d to %d settles once" k dst)
          (Some 1)
          (Hashtbl.find_opt settled (dst, k)))
      [ 1; 2 ]
  done

let test_rchan_passthrough_dedup () =
  let delivered, arrivals = rchan_stream ~passthrough:true ~drop:0.0 in
  Alcotest.(check int) "one delivery per arrival" arrivals delivered

(* The stubborn channel as it was with one retransmit timer per message:
   each send arms its own timer and each ack cancels it. Kept as the
   reference the one-timer-per-endpoint channel must match event for
   event. It takes its instance id as an argument; the real channel
   draws it from the network. *)
module Rchan_per_message = struct
  type Msg.t +=
    | Data of { gid : int; src : int; seq : int; payload : Msg.t }
    | Ack of { gid : int; seq : int }

  let () =
    Msg.wrapper [%extension_constructor Data] "Data" (function
      | Data { payload; _ } -> payload
      | _ -> assert false)

  type unacked = {
    packet : Msg.t;
    dst : int;
    mutable retries : int;
    mutable timer : Engine.timer;
  }

  type t = {
    net : Network.t;
    gid : int;
    me : int;
    nodes : int;
    rto : Simtime.t;
    max_retries : int;
    next_seq : int array;
    unacked : unacked Int_table.t;
    seen : Dedup.t;
    mutable deliver_cbs : (src:int -> Msg.t -> unit) list;
  }

  let link_key t seq peer = (seq * t.nodes) + peer

  let rec retransmit t key () =
    if Network.alive t.net t.me then
      match Int_table.find_opt t.unacked key with
      | Some u when u.retries < t.max_retries ->
          u.retries <- u.retries + 1;
          Network.send t.net ~src:t.me ~dst:u.dst u.packet;
          u.timer <- arm t key
      | _ -> ()

  and arm t key =
    Engine.schedule (Network.engine t.net) ~label:"rchan:retransmit"
      ~after:t.rto (retransmit t key)

  let send t ~dst msg =
    let seq = t.next_seq.(dst) in
    t.next_seq.(dst) <- seq + 1;
    let packet = Data { gid = t.gid; src = t.me; seq; payload = msg } in
    Network.send t.net ~src:t.me ~dst packet;
    let key = link_key t seq dst in
    Int_table.replace t.unacked key
      { packet; dst; retries = 0; timer = arm t key }

  let create_group net ~gid ~nodes ~rto ~max_retries =
    let size = Network.size net in
    List.map
      (fun me ->
        let t =
          {
            net;
            gid;
            me;
            nodes = size;
            rto;
            max_retries;
            next_seq = Array.make size 0;
            unacked = Int_table.create 32;
            seen = Dedup.create ~nodes:size;
            deliver_cbs = [];
          }
        in
        (match Network.timeseries net with
        | Some ts ->
            Timeseries.register ts ~name:"rchan_unacked" ~replica:me
              ~kind:Timeseries.Queue ~unit_:"messages" (fun () ->
                float_of_int (Int_table.length t.unacked))
        | None -> ());
        Network.add_handler net me (fun ~src msg ->
            match msg with
            | Data { gid = g; src = origin; seq; payload } when g = gid ->
                Network.send net ~src:me ~dst:src (Ack { gid; seq });
                if Dedup.fresh t.seen ~origin ~seq then
                  List.iter (fun f -> f ~src:origin payload) t.deliver_cbs;
                true
            | Ack { gid = g; seq } when g = gid ->
                let key = link_key t seq src in
                (match Int_table.find_opt t.unacked key with
                | Some u ->
                    Engine.cancel u.timer;
                    Int_table.remove t.unacked key
                | None -> ());
                true
            | _ -> false);
        (me, t))
      nodes
end

(* A channel under test, either implementation: send from a node, and
   register a node's delivery callback. *)
type channel = {
  chan_send : src:int -> dst:int -> Msg.t -> unit;
  chan_on_deliver : int -> (src:int -> Msg.t -> unit) -> unit;
}

let rchan_channel net ~nodes ~rto ~max_retries =
  let group = Rchan.create_group net ~nodes ~rto ~max_retries () in
  {
    chan_send =
      (fun ~src ~dst msg -> Rchan.send (Rchan.handle group ~me:src) ~dst msg);
    chan_on_deliver = (fun me f -> Rchan.on_deliver (Rchan.handle group ~me) f);
  }

let per_message_channel net ~nodes ~rto ~max_retries =
  let handles =
    Rchan_per_message.create_group net ~gid:1 ~nodes ~rto ~max_retries
  in
  {
    chan_send =
      (fun ~src ~dst msg ->
        Rchan_per_message.send (List.assoc src handles) ~dst msg);
    chan_on_deliver =
      (fun me f ->
        let t = List.assoc me handles in
        t.Rchan_per_message.deliver_cbs <- t.deliver_cbs @ [ f ]);
  }

(* A random fault-and-traffic plan over four nodes: messages (each sent
   under a transaction span of its own), loss windows, and crashes with
   a later recovery, at microsecond offsets. *)
type plan_step =
  | Send_at of { at : int; src : int; dsts : int list; payload : int }
  | Loss_window of { at : int; until : int; probability : float }
  | Crash_window of { at : int; until : int; node : int }

(* With [latency_is_rto] every message takes exactly one retransmit
   timeout to arrive, so deliveries and retransmits tie at one instant
   and only their seqs order them. *)
type plan = {
  seed : int;
  rto_ms : int;
  max_retries : int;
  latency_is_rto : bool;
  steps : plan_step list;
}

let plan_nodes = [ 0; 1; 2; 3 ]

let gen_plan =
  let open QCheck.Gen in
  let time = int_range 0 150_000 in
  let window =
    let* at = time in
    let* len = int_range 1_000 60_000 in
    return (at, at + len)
  in
  let step =
    frequency
      [
        ( 6,
          let* at = time in
          let* src = int_range 0 3 in
          let* dsts = list_size (int_range 1 3) (int_range 0 3) in
          let* payload = int_range 0 999 in
          return (Send_at { at; src; dsts; payload }) );
        ( 1,
          let* at, until = window in
          let* probability = float_range 0.1 0.7 in
          return (Loss_window { at; until; probability }) );
        ( 1,
          let* at, until = window in
          let* node = int_range 0 3 in
          return (Crash_window { at; until; node }) );
      ]
  in
  let* seed = int_range 0 10_000 in
  let* rto_ms = int_range 2 10 in
  let* max_retries = int_range 1 4 in
  let* latency_is_rto = bool in
  let* steps = list_size (int_range 5 40) step in
  return { seed; rto_ms; max_retries; latency_is_rto; steps }

let print_plan p =
  Printf.sprintf "seed %d, rto %d ms, max_retries %d%s: %s" p.seed p.rto_ms
    p.max_retries
    (if p.latency_is_rto then ", latency = rto" else "")
    (String.concat "; "
       (List.map
          (function
            | Send_at { at; src; dsts; payload } ->
                Printf.sprintf "send %d->[%s] %d @%dus" src
                  (String.concat "," (List.map string_of_int dsts))
                  payload at
            | Loss_window { at; until; probability } ->
                Printf.sprintf "loss %.2f %d-%dus" probability at until
            | Crash_window { at; until; node } ->
                Printf.sprintf "crash %d %d-%dus" node at until)
          p.steps))

(* What a run shows of its channel: the deliveries (time, receiver,
   origin, payload), the events executed, the network's sent, delivered
   and dropped counts, the sampled [rchan_unacked] series of every node
   and the Chrome export of the traced run. A delivered payload below
   1000 is echoed back to its origin, so replies travel under the
   delivered message's span. *)
let run_plan make_channel p =
  let e = Engine.create ~seed:p.seed () in
  let rto = Simtime.of_ms p.rto_ms in
  let config =
    if p.latency_is_rto then
      { Network.default_config with latency = Constant rto }
    else Network.default_config
  in
  let net = Network.create e ~n:4 config in
  let spans = Span.create () in
  Network.set_msg_spans net spans;
  let ts = Timeseries.create ~interval:(Simtime.of_ms 2) e in
  Network.set_timeseries net ts;
  let chan =
    make_channel net ~nodes:plan_nodes ~rto ~max_retries:p.max_retries
  in
  let log = ref [] in
  List.iter
    (fun me ->
      chan.chan_on_deliver me (fun ~src msg ->
          let k = payload_of msg in
          log := (Simtime.to_us (Engine.now e), me, src, k) :: !log;
          if k < 1000 then
            chan.chan_send ~src:me ~dst:src (Payload (k + 1000))))
    plan_nodes;
  let at us f = ignore (Engine.schedule_at e ~at:(Simtime.of_us us) f) in
  List.iteri
    (fun trace -> function
      | Send_at { at = t; src; dsts; payload } ->
          at t (fun () ->
              let root =
                Span.start_span spans ~trace ~track:src ~name:"send"
                  (Engine.now e)
              in
              Engine.set_ctx e (Some { Engine.trace; span = root });
              List.iter
                (fun dst -> chan.chan_send ~src ~dst (Payload payload))
                dsts)
      | Loss_window { at = t; until; probability } ->
          at t (fun () -> Network.set_drop_probability net probability);
          at until (fun () -> Network.set_drop_probability net 0.)
      | Crash_window { at = t; until; node } ->
          at t (fun () -> Network.crash net node);
          at until (fun () -> Network.recover net node))
    p.steps;
  ignore (Engine.run ~until:(Simtime.of_ms 400) e);
  let unacked =
    List.map
      (fun me ->
        match Timeseries.find ts ~name:"rchan_unacked" ~replica:me with
        | Some series ->
            List.map
              (fun (pt : Timeseries.point) -> (Simtime.to_us pt.at, pt.value))
              (Timeseries.points series)
        | None -> [])
      plan_nodes
  in
  ( List.rev !log,
    Engine.events_executed e,
    (Network.messages_sent net, Network.messages_delivered net,
     Network.messages_dropped net),
    unacked,
    Trace_export.to_chrome spans )

let prop_rchan_matches_per_message_timers =
  QCheck.Test.make ~name:"one timer per endpoint matches per-message timers"
    ~count:60
    (QCheck.make ~print:print_plan gen_plan)
    (fun p ->
      let deliveries, events, counts, unacked, chrome =
        run_plan rchan_channel p
      and deliveries', events', counts', unacked', chrome' =
        run_plan per_message_channel p
      in
      let same label a b =
        if a <> b then QCheck.Test.fail_reportf "%s differ" label
      in
      same "deliveries" deliveries deliveries';
      same "events executed" events events';
      same "sent/delivered/dropped" counts counts';
      same "rchan_unacked series" unacked unacked';
      same "chrome exports" chrome chrome';
      true)

(* ------------------------------------------------------------------ *)
(* Reliable broadcast                                                 *)
(* ------------------------------------------------------------------ *)

let test_rbcast_all_deliver () =
  let e, net = make () in
  let members = [ 0; 1; 2 ] in
  let group = Rbcast.create_group net ~members () in
  let logs = Array.make 3 [] in
  List.iter
    (fun m ->
      let h = Rbcast.handle group ~me:m in
      Rbcast.on_deliver h (fun ~origin msg ->
          logs.(m) <- (origin, payload_of msg) :: logs.(m)))
    members;
  Rbcast.broadcast (Rbcast.handle group ~me:0) (Payload 7);
  Rbcast.broadcast (Rbcast.handle group ~me:1) (Payload 8);
  run_ms e 1_000;
  Array.iteri
    (fun i log ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d" i)
        [ (0, 7); (1, 8) ]
        (List.sort compare log))
    logs

let test_rbcast_no_duplicates_under_loss () =
  let e, net = make ~drop:0.3 () in
  let members = [ 0; 1; 2 ] in
  let group = Rbcast.create_group net ~members ~rto:(Simtime.of_ms 5) () in
  let count = Array.make 3 0 in
  List.iter
    (fun m ->
      let h = Rbcast.handle group ~me:m in
      Rbcast.on_deliver h (fun ~origin:_ _ -> count.(m) <- count.(m) + 1))
    members;
  for k = 1 to 20 do
    Rbcast.broadcast (Rbcast.handle group ~me:(k mod 3)) (Payload k)
  done;
  run_ms e 10_000;
  Array.iteri
    (fun i c -> Alcotest.(check int) (Printf.sprintf "member %d" i) 20 c)
    count

(* The [rbcast_seen] gauge counts distinct deliveries (duplicates from
   relays and retransmits excluded), and callbacks run in the order they
   were registered. *)
let test_rbcast_seen_gauge_and_callback_order () =
  let e, net = make ~drop:0.3 () in
  let ts = Timeseries.create e in
  Network.set_timeseries net ts;
  let members = [ 0; 1; 2 ] in
  let group = Rbcast.create_group net ~members ~rto:(Simtime.of_ms 5) () in
  let calls = Array.make 3 [] in
  List.iter
    (fun m ->
      let h = Rbcast.handle group ~me:m in
      List.iter
        (fun tag ->
          Rbcast.on_deliver h (fun ~origin:_ msg ->
              calls.(m) <- (tag, payload_of msg) :: calls.(m)))
        [ "first"; "second" ])
    members;
  for k = 1 to 20 do
    Rbcast.broadcast (Rbcast.handle group ~me:(k mod 3)) (Payload k)
  done;
  run_ms e 10_000;
  List.iter
    (fun m ->
      let rec pairs = function
        | (t2, k2) :: (t1, k1) :: rest ->
            Alcotest.(check (pair string string))
              "registration order" ("first", "second") (t1, t2);
            Alcotest.(check int) "same delivery" k1 k2;
            pairs rest
        | [] -> ()
        | [ _ ] -> Alcotest.fail "unpaired callback"
      in
      pairs calls.(m);
      match Timeseries.find ts ~name:"rbcast_seen" ~replica:m with
      | None -> Alcotest.fail "rbcast_seen not registered"
      | Some series ->
          let last = List.nth (List.rev (Timeseries.points series)) 0 in
          Alcotest.(check (float 0.)) (Printf.sprintf "member %d seen" m) 20.
            last.Timeseries.value)
    members

(* Agreement when the origin crashes before every copy got through:
   member 0 broadcasts to five members, the copies to 2, 3 and 4 are
   swallowed until 0 crashes at 5 ms, so only 1 holds the message. Its
   suspicion timer finds it still unstable and relays it; every
   survivor delivers it once. Without the relay, 2, 3 and 4 never do. *)
let test_rbcast_relay_after_origin_crash () =
  let e, net = make ~n:5 () in
  let members = [ 0; 1; 2; 3; 4 ] in
  let group = Rbcast.create_group net ~members () in
  let got = Array.make 5 0 in
  List.iter
    (fun m ->
      Rbcast.on_deliver (Rbcast.handle group ~me:m) (fun ~origin msg ->
          Alcotest.(check int) "origin" 0 origin;
          Alcotest.(check int) "payload" 7 (payload_of msg);
          got.(m) <- got.(m) + 1))
    members;
  let origin_up = ref true in
  List.iter
    (fun m ->
      Network.add_handler net m (fun ~src msg ->
          !origin_up && src = 0 && Msg.name msg = "Data(Rb(Payload))"))
    [ 2; 3; 4 ];
  Rbcast.broadcast (Rbcast.handle group ~me:0) (Payload 7);
  ignore
    (Engine.schedule e ~after:(Simtime.of_ms 5) (fun () ->
         Network.crash net 0;
         origin_up := false));
  run_ms e 2_000;
  Alcotest.(check (list int)) "every survivor delivers once" [ 1; 1; 1; 1 ]
    (List.map (fun m -> got.(m)) [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "the one holder relayed it" 1
    (Rbcast.relayed (Rbcast.handle group ~me:1));
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "member %d holds nothing" m)
        0
        (Rbcast.held (Rbcast.handle group ~me:m)))
    [ 1; 2; 3; 4 ];
  Alcotest.(check int) "no timer left" 0 (Engine.pending e)

(* An origin that goes idle after a loss-free broadcast: its stability
   notice releases every held copy, nobody relays and no timer stays
   armed, so the engine drains. *)
let test_rbcast_idle_origin_drains () =
  let e, net = make ~n:4 () in
  let members = [ 0; 1; 2; 3 ] in
  let group = Rbcast.create_group net ~members () in
  let h m = Rbcast.handle group ~me:m in
  Rbcast.broadcast (h 0) (Payload 1);
  Rbcast.broadcast (h 0) (Payload 2);
  Rbcast.broadcast (h 2) (Payload 3);
  let events = Engine.run e in
  Alcotest.(check bool) "the run drains by itself" true (events > 0);
  Alcotest.(check int) "nothing pending" 0 (Engine.pending e);
  List.iter
    (fun m ->
      Alcotest.(check (triple int int int))
        (Printf.sprintf "member %d: relayed, held, unstable" m)
        (0, 0, 0)
        (Rbcast.relayed (h m), Rbcast.held (h m), Rbcast.unstable (h m)))
    members;
  (* Two stability notices (one per origin) of three copies each, next
     to the 9 copies and the acks of both. *)
  Alcotest.(check int) "messages: copies, notices and their acks"
    ((9 + 6) * 2)
    (Network.messages_sent net)

(* A fault-free lazy-primary run drains: when the last refresh is stable
   no reliable-broadcast timer is left armed, so the engine stops long
   before the runner's deadline with an empty queue. *)
let test_rbcast_lazy_primary_run_drains () =
  let engine = ref None in
  let result =
    Workload.Runner.run ~seed:11 ~n_replicas:8 ~n_clients:4
      ~spec:{ Workload.Spec.default with txns_per_client = 30 }
      ~tune:(fun net ~replicas:_ ~clients:_ ->
        engine := Some (Network.engine net))
      (Protocols.Registry.default_factory
         (Option.get (Protocols.Registry.find "lazy-primary")))
  in
  let e = Option.get !engine in
  Alcotest.(check int) "all committed" 120 result.Workload.Runner.committed;
  Alcotest.(check int) "no live timer" 0 (Engine.pending e);
  Alcotest.(check bool) "drained before the deadline" true
    Simtime.(Engine.now e < of_sec 60.)

(* An origin that crashes with a copy still unsettled resends it when it
   recovers: member 0's first broadcast reaches 1 and 2, its copy to 3
   is swallowed until 0 crashes at 5 ms, and 0 is back at 20 ms and
   keeps broadcasting, so nobody suspects it. Member 3 gets the message
   from 0's resend well before any suspicion timer could fire, and every
   watermark drains once 0 goes quiet. *)
let test_rbcast_recovered_origin_resends () =
  let e, net = make ~n:4 () in
  let members = [ 0; 1; 2; 3 ] in
  let group = Rbcast.create_group net ~members () in
  let h m = Rbcast.handle group ~me:m in
  let got = Array.make 4 [] in
  List.iter
    (fun m ->
      Rbcast.on_deliver (h m) (fun ~origin:_ msg ->
          got.(m) <- payload_of msg :: got.(m)))
    members;
  let swallowing = ref true in
  Network.add_handler net 3 (fun ~src msg ->
      !swallowing && src = 0 && Msg.name msg = "Data(Rb(Payload))");
  Rbcast.broadcast (h 0) (Payload 0);
  let at ms f = ignore (Engine.schedule_at e ~at:(Simtime.of_ms ms) f) in
  at 5 (fun () ->
      Network.crash net 0;
      swallowing := false);
  at 20 (fun () -> Network.recover net 0);
  for k = 1 to 50 do
    at (20 + (10 * k)) (fun () -> Rbcast.broadcast (h 0) (Payload k))
  done;
  run_ms e 60;
  Alcotest.(check bool) "member 3 has the first broadcast by 60 ms" true
    (List.mem 0 got.(3));
  run_ms e 3_000;
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "member %d delivers all 51" m)
        51
        (List.length (List.sort_uniq compare got.(m)));
      Alcotest.(check (pair int int))
        (Printf.sprintf "member %d: held, relayed" m)
        (0, 0)
        (Rbcast.held (h m), Rbcast.relayed (h m)))
    members;
  Alcotest.(check int) "origin 0 all stable" 0 (Rbcast.unstable (h 0))

(* [log] lists a member's deliveries as (origin, payload), oldest first,
   and [sent] the broadcasts the same way. FIFO order: what the member
   delivered from each origin is a prefix of what that origin broadcast,
   in the order it broadcast it. *)
let in_fifo_order ~sent log =
  let from o l =
    List.filter_map (fun (o', k) -> if o = o' then Some k else None) l
  in
  let rec prefix = function
    | [], _ -> true
    | x :: xs, y :: ys -> x = y && prefix (xs, ys)
    | _ :: _, [] -> false
  in
  List.for_all
    (fun (o, _) -> prefix (from o log, from o sent))
    (List.sort_uniq compare log)

(* Property: agreement, validity, integrity and FIFO order of reliable
   broadcast under random loss, sends and crashes among five members. A
   crashed member either stays down or recovers 150 ms later; it
   broadcasts nothing while down. The members that never crash deliver the same
   messages, each once, among them everything any of them broadcast; a
   message of an origin that crashed reaches all of them if it reached
   one. Every member delivers each origin's messages in the order the
   origin broadcast them. *)
let prop_rbcast_agreement =
  let n = 5 in
  QCheck.Test.make ~name:"rbcast agreement under loss and crashes" ~count:40
    QCheck.(
      quad (int_bound 9999) (int_bound 30)
        (list_of_size (Gen.int_range 1 30)
           (pair (int_bound (n - 1)) (int_bound 300)))
        (list_of_size (Gen.int_range 0 2)
           (triple (int_bound (n - 1)) (int_bound 300) bool)))
    (fun (seed, drop_pct, sends, crashes) ->
      let e, net =
        make ~seed ~n ~drop:(float_of_int drop_pct /. 100.) ()
      in
      let members = List.init n Fun.id in
      let group = Rbcast.create_group net ~members () in
      let logs = Array.make n [] in
      List.iter
        (fun m ->
          Rbcast.on_deliver (Rbcast.handle group ~me:m) (fun ~origin msg ->
              logs.(m) <- (origin, payload_of msg) :: logs.(m)))
        members;
      List.iter
        (fun (m, at, recovers) ->
          ignore
            (Engine.schedule_at e ~at:(Simtime.of_ms at) (fun () ->
                 Network.crash net m));
          if recovers then
            ignore
              (Engine.schedule_at e ~at:(Simtime.of_ms (at + 150)) (fun () ->
                   Network.recover net m)))
        crashes;
      let sent = ref [] in
      List.iteri
        (fun k (m, at) ->
          ignore
            (Engine.schedule_at e ~at:(Simtime.of_ms at) (fun () ->
                 if Network.alive net m then begin
                   sent := (m, k) :: !sent;
                   Rbcast.broadcast (Rbcast.handle group ~me:m) (Payload k)
                 end)))
        sends;
      run_ms e 30_000;
      let correct =
        List.filter
          (fun m -> not (List.exists (fun (c, _, _) -> c = m) crashes))
          members
      in
      let set m = List.sort_uniq compare (List.map snd logs.(m)) in
      let from_correct =
        List.sort_uniq compare
          (List.filter_map
             (fun (m, k) -> if List.mem m correct then Some k else None)
             !sent)
      in
      List.for_all
        (fun m ->
          List.length logs.(m) = List.length (set m)
          && (match correct with [] -> true | c :: _ -> set m = set c)
          && List.for_all (fun k -> List.mem k (set m)) from_correct)
        correct
      && List.for_all
           (fun m -> in_fifo_order ~sent:(List.rev !sent) (List.rev logs.(m)))
           members)

(* The [rbcast_held] gauge is a queue: while member 2 is cut off, copies
   to it do not settle, origin 0's watermark stops advancing and member
   1's held messages pile up, which the queue-growth detector reports.
   Without the partition it reports nothing for the gauge. *)
let test_rbcast_held_gauge_flags_stuck_watermark () =
  let held_findings ~partitioned =
    let e, net = make () in
    let ts = Timeseries.create ~interval:(Simtime.of_ms 5) e in
    Network.set_timeseries net ts;
    let group = Rbcast.create_group net ~members:[ 0; 1; 2 ] () in
    let h0 = Rbcast.handle group ~me:0 in
    if partitioned then begin
      Network.partition net [ 2 ];
      ignore
        (Engine.schedule e ~after:(Simtime.of_ms 300) (fun () ->
             Network.heal net))
    end;
    for k = 0 to 299 do
      ignore
        (Engine.schedule_at e ~at:(Simtime.of_ms k) (fun () ->
             Rbcast.broadcast h0 (Payload k)))
    done;
    run_ms e 2_000;
    List.filter
      (fun (f : Saturation.finding) ->
        f.detector = "queue_growth" && f.metric = "rbcast_held")
      (Saturation.analyze (Timeseries.series ts))
  in
  Alcotest.(check bool) "flagged while the watermark is stuck" true
    (List.exists
       (fun (f : Saturation.finding) -> f.replica = 1)
       (held_findings ~partitioned:true));
  Alcotest.(check int) "quiet when it advances" 0
    (List.length (held_findings ~partitioned:false))

(* Five members each broadcast, one message every millisecond, at 30%
   loss. Every 10 ms the held and unstable counts of each member are
   read; the largest of them, per the messages a member broadcasts in
   [window] channel timeouts, must stay under a constant however long
   the run, and both counts drop to zero once it drains, as does the
   number of early arrivals waiting for an earlier message. With [crashed]
   one member crashes at the start and stays down. *)
let rbcast_bounded ?crashed ~per_member () =
  let n = 5 in
  let e, net = make ~seed:31 ~n ~drop:0.3 () in
  let members = List.init n Fun.id in
  let rto = Simtime.of_ms 10 in
  let group = Rbcast.create_group net ~members ~rto () in
  let h m = Rbcast.handle group ~me:m in
  let live = List.filter (fun m -> Some m <> crashed) members in
  let delivered = Array.make n 0 in
  List.iter
    (fun m ->
      Rbcast.on_deliver (h m) (fun ~origin:_ _ ->
          delivered.(m) <- delivered.(m) + 1))
    members;
  Option.iter (Network.crash net) crashed;
  let max_held = ref 0 and max_unstable = ref 0 in
  for k = 0 to per_member - 1 do
    ignore
      (Engine.schedule_at e ~at:(Simtime.of_ms k) (fun () ->
           List.iter (fun m -> Rbcast.broadcast (h m) (Payload k)) live))
  done;
  let rec sample () =
    List.iter
      (fun m ->
        max_held := max !max_held (Rbcast.held (h m));
        max_unstable := max !max_unstable (Rbcast.unstable (h m)))
      live;
    if Simtime.(Engine.now e < of_ms per_member) then
      ignore (Engine.schedule e ~after:(Simtime.of_ms 10) sample)
  in
  sample ();
  ignore (Engine.run e);
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "member %d delivers every broadcast" m)
        (per_member * List.length live)
        delivered.(m);
      Alcotest.(check (triple int int int))
        (Printf.sprintf "member %d drained: held, unstable, early" m)
        (0, 0, 0)
        (Rbcast.held (h m), Rbcast.unstable (h m), Rbcast.early (h m)))
    live;
  (* Broadcasts per member in [timeouts] channel timeouts (1 per ms). *)
  let per timeouts = timeouts * Simtime.to_us rto / 1000 in
  (!max_held, !max_unstable, per)

(* No member is down: a copy settles within a few retries, so a member
   holds about one suspicion timeout (ten channel timeouts) of each
   other member's broadcasts, however long the run. *)
let test_rbcast_bounded_under_loss () =
  let held, unstable, per = rbcast_bounded ~per_member:10_000 () in
  let window = per 10 in
  Alcotest.(check bool)
    (Printf.sprintf "held %d <= 8 x %d" held window)
    true
    (held <= 8 * window);
  Alcotest.(check bool)
    (Printf.sprintf "unstable %d <= 4 x %d" unstable window)
    true
    (unstable <= 4 * window)

(* One member is down for good: copies to it settle only when their
   retries run out, 100 channel timeouts after they were sent, so that
   is the window the others hold and the origins wait for. *)
let test_rbcast_bounded_with_member_down () =
  let held, unstable, per = rbcast_bounded ~crashed:4 ~per_member:3_000 () in
  let window = per 100 in
  Alcotest.(check bool)
    (Printf.sprintf "held %d <= 4 x %d" held window)
    true
    (held <= 4 * window);
  Alcotest.(check bool)
    (Printf.sprintf "unstable %d <= 2 x %d" unstable window)
    true
    (unstable <= 2 * window)

(* ------------------------------------------------------------------ *)
(* FIFO order of reliable broadcast                                   *)
(* ------------------------------------------------------------------ *)

(* [run send] broadcasts over [group] with [send origin payload] and
   drives the engine; returns those broadcasts and each member's
   deliveries, as (origin, payload) oldest first. *)
let fifo_logs ~members group run =
  let logs = Array.make (List.length members) [] in
  List.iter
    (fun m ->
      Rbcast.on_deliver (Rbcast.handle group ~me:m) (fun ~origin msg ->
          logs.(m) <- (origin, payload_of msg) :: logs.(m)))
    members;
  let sent = ref [] in
  let send o k =
    sent := (o, k) :: !sent;
    Rbcast.broadcast (Rbcast.handle group ~me:o) (Payload k)
  in
  run send;
  (List.rev !sent, Array.map List.rev logs)

let check_fifo ~sent ~members logs =
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "member %d delivers each origin in order" m)
        true
        (in_fifo_order ~sent logs.(m)))
    members

(* Two concurrent senders, interleaved sends, no fault. *)
let test_rbcast_fifo_order () =
  let e, net = make ~seed:3 () in
  let members = [ 0; 1; 2 ] in
  let group = Rbcast.create_group net ~members () in
  let sent, logs =
    fifo_logs ~members group (fun send ->
        for k = 0 to 9 do
          send 0 k;
          send 1 (100 + k)
        done;
        run_ms e 2_000)
  in
  List.iter
    (fun m ->
      Alcotest.(check int)
        (Printf.sprintf "member %d delivers all" m)
        20
        (List.length logs.(m)))
    members;
  check_fifo ~sent ~members logs

(* At 30% loss copies overtake each other, and origin 0 crashes for good
   at 12 ms in the middle of its stream, so the survivors relay what it
   left unstable. Each survivor still delivers each origin's messages in
   the order it broadcast them, and all deliver the same ones. *)
let test_rbcast_fifo_order_under_loss () =
  let e, net = make ~seed:5 ~n:5 ~drop:0.3 () in
  let members = [ 0; 1; 2; 3; 4 ] in
  let group = Rbcast.create_group net ~members ~rto:(Simtime.of_ms 5) () in
  let sent, logs =
    fifo_logs ~members group (fun send ->
        for k = 0 to 19 do
          ignore
            (Engine.schedule_at e ~at:(Simtime.of_ms k) (fun () ->
                 if Network.alive net 0 then send 0 k;
                 send 1 (100 + k)))
        done;
        ignore
          (Engine.schedule_at e ~at:(Simtime.of_ms 12) (fun () ->
               Network.crash net 0));
        run_ms e 10_000)
  in
  let survivors = [ 1; 2; 3; 4 ] in
  Alcotest.(check bool) "survivors relayed" true
    (List.exists (fun m -> Rbcast.relayed (Rbcast.handle group ~me:m) > 0)
       survivors);
  check_fifo ~sent ~members logs;
  List.iter
    (fun m ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d delivers what member 1 does" m)
        (List.sort compare logs.(1))
        (List.sort compare logs.(m)))
    survivors

(* Origin 0 crashes at 5 ms, right after a broadcast whose copies have
   not settled, recovers at 20 ms and goes on broadcasting, under 10%
   loss. Every member delivers all of 0's broadcasts in the order 0
   sent them, whichever of 0's retransmits, its recovery resend or a
   relay brings each copy. *)
let test_rbcast_fifo_order_across_recovery () =
  let e, net = make ~seed:9 ~n:4 ~drop:0.1 () in
  let members = [ 0; 1; 2; 3 ] in
  let group = Rbcast.create_group net ~members ~rto:(Simtime.of_ms 5) () in
  let sent, logs =
    fifo_logs ~members group (fun send ->
        let at ms f = ignore (Engine.schedule_at e ~at:(Simtime.of_ms ms) f) in
        for k = 0 to 39 do
          at k (fun () -> if Network.alive net 0 then send 0 k)
        done;
        at 5 (fun () -> Network.crash net 0);
        at 20 (fun () -> Network.recover net 0);
        run_ms e 5_000)
  in
  let from_0 = List.map snd sent in
  List.iter
    (fun m ->
      Alcotest.(check (list int))
        (Printf.sprintf "member %d delivers all of 0's, in order" m)
        from_0
        (List.map snd logs.(m)))
    members

(* ------------------------------------------------------------------ *)
(* Consensus                                                          *)
(* ------------------------------------------------------------------ *)

module Cint = Consensus.Make (struct
  type t = int
end)

let consensus_setup ?(seed = 4) ?(n = 3) () =
  let e, net = make ~seed ~n () in
  let members = List.init n Fun.id in
  let fd = Fd.create_group net ~members () in
  let group = Cint.create_group net ~members ~fd () in
  (e, net, members, group)

let test_consensus_agreement () =
  let e, _net, members, group = consensus_setup () in
  let decisions = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let h = Cint.handle group ~me:m in
      Cint.on_decide h (fun ~instance v -> Hashtbl.replace decisions (m, instance) v);
      Cint.propose h ~instance:0 (100 + m))
    members;
  run_ms e 3_000;
  let vals =
    List.map (fun m -> Hashtbl.find_opt decisions (m, 0)) members
  in
  (match vals with
  | [ Some a; Some b; Some c ] ->
      Alcotest.(check bool) "agreement" true (a = b && b = c);
      Alcotest.(check bool) "validity" true (List.mem a [ 100; 101; 102 ])
  | _ -> Alcotest.fail "not all members decided");
  Alcotest.(check (option int))
    "decision accessor" (List.nth vals 0)
    (Cint.decision (Cint.handle group ~me:0) ~instance:0)

let test_consensus_multiple_instances () =
  let e, _net, members, group = consensus_setup () in
  let decisions = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let h = Cint.handle group ~me:m in
      Cint.on_decide h (fun ~instance v -> Hashtbl.replace decisions (m, instance) v))
    members;
  List.iter
    (fun m ->
      let h = Cint.handle group ~me:m in
      for inst = 0 to 4 do
        Cint.propose h ~instance:inst ((10 * inst) + m)
      done)
    members;
  run_ms e 5_000;
  for inst = 0 to 4 do
    let v0 = Hashtbl.find_opt decisions (0, inst) in
    Alcotest.(check bool)
      (Printf.sprintf "instance %d decided" inst)
      true (v0 <> None);
    List.iter
      (fun m ->
        Alcotest.(check (option int))
          (Printf.sprintf "instance %d member %d" inst m)
          v0
          (Hashtbl.find_opt decisions (m, inst)))
      members
  done

let test_consensus_coordinator_crash () =
  let e, net, members, group = consensus_setup ~n:5 () in
  let decisions = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let h = Cint.handle group ~me:m in
      Cint.on_decide h (fun ~instance v -> Hashtbl.replace decisions (m, instance) v))
    members;
  (* Coordinator of round 0 is member 0: crash it before anyone proposes. *)
  Network.crash net 0;
  run_ms e 10;
  List.iter
    (fun m ->
      if m <> 0 then Cint.propose (Cint.handle group ~me:m) ~instance:0 (200 + m))
    members;
  run_ms e 10_000;
  let vals =
    List.filter_map (fun m -> Hashtbl.find_opt decisions (m, 0))
      (List.filter (fun m -> m <> 0) members)
  in
  Alcotest.(check int) "all survivors decided" 4 (List.length vals);
  (match vals with
  | v :: rest ->
      List.iter (fun v' -> Alcotest.(check int) "agreement" v v') rest;
      Alcotest.(check bool) "validity" true (v >= 201 && v <= 204)
  | [] -> Alcotest.fail "no decisions")

let test_consensus_under_loss () =
  let e, _net, members, group =
    let e, net = make ~seed:9 ~n:3 ~drop:0.2 () in
    let members = [ 0; 1; 2 ] in
    let fd = Fd.create_group net ~members () in
    let group = Cint.create_group net ~members ~fd ~rto:(Simtime.of_ms 5) () in
    (e, net, members, group)
  in
  let decisions = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let h = Cint.handle group ~me:m in
      Cint.on_decide h (fun ~instance v -> Hashtbl.replace decisions (m, instance) v);
      Cint.propose h ~instance:0 m)
    members;
  run_ms e 20_000;
  let vals = List.filter_map (fun m -> Hashtbl.find_opt decisions (m, 0)) members in
  Alcotest.(check int) "all decided despite loss" 3 (List.length vals);
  match vals with
  | v :: rest -> List.iter (fun v' -> Alcotest.(check int) "agreement" v v') rest
  | [] -> ()

(* A round whose coordinator alone holds a value is aborted and its
   value carried into the next one (semi-passive's deferred initial
   values). Only member 0 proposes; 1 and 2 only participate. Member 0
   is cut off after the round-0 estimates reach it (1 ms) and before its
   Proposal lands (2 ms), so 1 and 2 suspect it and move to round 1,
   whose coordinator (1) holds no value and cannot propose. After the
   heal the retransmitted round-0 Proposal is stale at 1 and 2; their
   nacks make member 0 abort round 0 and bring its value to round 1. *)
let test_consensus_abort_carries_value () =
  let e = Engine.create ~seed:4 () in
  let net =
    Network.create e ~n:3
      { Network.default_config with latency = Constant (Simtime.of_ms 1) }
  in
  let members = [ 0; 1; 2 ] in
  let fd = Fd.create_group net ~members () in
  let group = Cint.create_group net ~members ~fd () in
  let aborts = ref 0 in
  List.iter
    (fun me ->
      Network.add_handler net me (fun ~src:_ msg ->
          if Msg.name msg = "Data(Cons_abort)" then incr aborts;
          false))
    members;
  let decisions = Hashtbl.create 4 in
  List.iter
    (fun m ->
      Cint.on_decide (Cint.handle group ~me:m) (fun ~instance:_ v ->
          Hashtbl.replace decisions m v))
    members;
  Cint.propose (Cint.handle group ~me:0) ~instance:0 42;
  Cint.participate (Cint.handle group ~me:1) ~instance:0;
  Cint.participate (Cint.handle group ~me:2) ~instance:0;
  ignore
    (Engine.schedule e ~after:(Simtime.of_us 1_500) (fun () ->
         Network.partition net [ 0 ]));
  run_ms e 400;
  Alcotest.(check int) "undecided while partitioned" 0
    (Hashtbl.length decisions);
  Network.heal net;
  run_ms e 3_000;
  Alcotest.(check bool) "round 0 aborted" true (!aborts > 0);
  List.iter
    (fun m ->
      Alcotest.(check (option int))
        (Printf.sprintf "member %d decides member 0's value" m)
        (Some 42) (Hashtbl.find_opt decisions m))
    members

(* ------------------------------------------------------------------ *)
(* Atomic broadcast                                                   *)
(* ------------------------------------------------------------------ *)

let abcast_setup ~impl ?(seed = 33) ?(n = 3) ?(clients = []) () =
  let e, net = make ~seed ~n:(n + List.length clients) () in
  let members = List.init n Fun.id in
  let group = Abcast.create_group net ~members ~clients ~impl () in
  (e, net, members, group)

let check_total_order ~logs members =
  (* Every member must deliver the same sequence. *)
  match members with
  | [] -> ()
  | first :: rest ->
      let reference = List.rev logs.(first) in
      List.iter
        (fun m ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "member %d same sequence" m)
            reference
            (List.rev logs.(m)))
        rest

(* Golden: the per-member delivery order of a fixed-seed run of the
   sequencer with 20 % loss, a client injecting next to the members, and
   two leader crashes with recovery. The run goes through two takeovers
   and overridden slots. The invariant comes first: all three members
   deliver one sequence holding every broadcast id exactly once (174;
   a member broadcasts nothing while it is down). The pin
   is checked only after it, so a fault-path change that moves the pin
   shows whether it kept agreement and completeness. Re-pinned when
   takeover began re-announcing from the lowest delivery cursor instead
   of from slot 0 and recovery began re-acking: the changed sends shift
   the shared latency draws, and so the order from the first takeover
   on. The set of ids is the old pin's. *)
let abcast_seq_golden =
  "1.0 2.0 3.0 0.0 1.1 2.1 3.1 0.1 1.2 2.2 3.2 0.2 1.3 2.3 0.3 3.3 " ^
  "2.4 3.4 1.4 0.4 1.5 2.5 3.5 1.6 2.6 1.9 2.9 0.5 3.8 1.8 1.7 2.7 " ^
  "3.6 3.7 3.9 2.8 1.10 2.10 3.10 1.11 2.11 3.11 1.12 2.12 3.12 1.13 " ^
  "2.13 3.13 1.14 2.14 3.14 1.15 2.15 3.15 1.16 2.16 3.16 1.17 2.17 " ^
  "3.17 1.18 2.18 3.18 1.19 2.19 3.19 1.20 2.20 3.20 0.6 1.21 2.21 " ^
  "3.21 0.7 1.22 2.22 3.22 0.8 1.23 2.23 3.23 0.9 1.24 2.24 3.24 " ^
  "0.10 2.27 3.26 2.26 0.11 3.25 2.25 0.12 3.27 0.13 2.28 3.28 0.14 " ^
  "2.29 3.29 0.15 2.30 3.30 0.16 2.31 3.31 0.17 2.32 3.32 0.18 2.33 " ^
  "3.33 0.19 2.34 3.34 0.20 2.35 3.35 0.21 2.36 3.36 0.22 1.25 2.37 " ^
  "3.37 0.23 1.26 2.38 0.24 1.27 2.39 3.38 3.39 0.25 1.28 2.40 3.40 " ^
  "0.26 1.29 2.41 3.41 0.27 1.30 2.42 3.42 0.28 1.31 2.43 3.43 0.29 " ^
  "2.44 1.32 3.44 1.33 0.30 2.45 3.45 0.31 1.34 2.46 3.46 0.32 1.35 " ^
  "2.47 3.47 0.33 1.36 2.48 3.48 0.34 1.37 2.49 3.49 0.35"

let test_abcast_seq_golden () =
  let e, net = make ~seed:29 ~n:4 ~drop:0.2 () in
  let members = [ 0; 1; 2 ] in
  let group = Abcast_seq.create_group net ~members ~clients:[ 3 ] () in
  let sent = Array.make 4 0 in
  let k = ref 0 in
  let rec tick () =
    incr k;
    let src = !k mod 4 in
    if Network.alive net src then begin
      sent.(src) <- sent.(src) + 1;
      if src = 3 then Abcast_seq.broadcast_from group ~src (Payload !k)
      else Abcast_seq.broadcast (Abcast_seq.handle group ~me:src) (Payload !k)
    end;
    if !k < 200 then ignore (Engine.schedule e ~after:(Simtime.of_ms 11) tick)
  in
  ignore (Engine.schedule e ~after:(Simtime.of_ms 5) tick);
  List.iter
    (fun (at, f) -> ignore (Engine.schedule e ~after:(Simtime.of_ms at) f))
    [
      (300, fun () -> Network.crash net 0);
      (900, fun () -> Network.recover net 0);
      (1100, fun () -> Network.crash net 1);
      (1600, fun () -> Network.recover net 1);
    ];
  run_ms e 8_000;
  let show ids =
    String.concat " " (List.map (fun (o, s) -> Printf.sprintf "%d.%d" o s) ids)
  in
  let orders = List.map (fun m -> show (Abcast_seq.delivered (Abcast_seq.handle group ~me:m))) members in
  List.iteri
    (fun m order ->
      Alcotest.(check string)
        (Printf.sprintf "member %d agrees with member 0" m)
        (List.hd orders) order)
    orders;
  let ids = Abcast_seq.delivered (Abcast_seq.handle group ~me:0) in
  let broadcast =
    List.concat (List.init 4 (fun o -> List.init sent.(o) (fun s -> (o, s))))
  in
  Alcotest.(check int) "174 ids" 174 (List.length ids);
  Alcotest.(check (list (pair int int)))
    "every broadcast id, each once" broadcast (List.sort compare ids);
  Alcotest.(check string) "delivery order" abcast_seq_golden (show ids)

(* Crash recovery of the sequencer. A plan crashes and recovers members
   one at a time (f < n/2, the synchronous model's failover assumption),
   each window aimed at a fixed member or at whoever leads when it opens,
   and optionally right after the target broadcasts. Members and a
   client inject every 10 ms under 0–20 % loss. Every member must end
   with the same sequence, each id once, and holding every id whose
   sender stayed up for the channel's whole retry budget after sending
   it; an id whose sender crashed sooner may be lost, but then by all. *)
type crash_window = {
  gap_ms : int; (* from the previous recovery (or the run's start) *)
  down_ms : int;
  target : int; (* member 0-2, or 3 for the leader when the window opens *)
  after_broadcast : bool;
}

type crash_plan = { c_seed : int; loss_pct : int; windows : crash_window list }

let gen_crash_plan =
  let open QCheck.Gen in
  let window =
    let* gap_ms = int_range 20 600 in
    let* down_ms = int_range 30 1500 in
    let* target = int_range 0 3 in
    let* after_broadcast = bool in
    return { gap_ms; down_ms; target; after_broadcast }
  in
  let* c_seed = int_range 0 10_000 in
  let* loss_pct = int_range 0 20 in
  let* windows = list_size (int_range 0 5) window in
  return { c_seed; loss_pct; windows }

let print_crash_plan p =
  Printf.sprintf "seed %d, loss %d%%: %s" p.c_seed p.loss_pct
    (String.concat "; "
       (List.map
          (fun w ->
            Printf.sprintf "+%dms crash %s%s for %dms" w.gap_ms
              (if w.target = 3 then "leader" else string_of_int w.target)
              (if w.after_broadcast then " after it broadcasts" else "")
              w.down_ms)
          p.windows))

let shrink_crash_plan p =
  QCheck.Iter.map (fun windows -> { p with windows }) (QCheck.Shrink.list p.windows)

(* Past a crash this long after sending, the sender's channel has spent
   its retry budget (100 retries at the 10 ms default rto) at least once. *)
let retry_budget_ms = 1_200

let check_crash_plan ?(on_net = ignore) p =
  let e, net = make ~seed:p.c_seed ~n:4 ~drop:(float_of_int p.loss_pct /. 100.) () in
  let members = [ 0; 1; 2 ] in
  let group = Abcast_seq.create_group net ~members ~clients:[ 3 ] () in
  on_net net;
  let h m = Abcast_seq.handle group ~me:m in
  let sent = Hashtbl.create 512 and next = Array.make 4 0 in
  let broadcast src =
    if Network.alive net src then begin
      Hashtbl.replace sent (src, next.(src)) (Simtime.to_ms (Engine.now e));
      next.(src) <- next.(src) + 1;
      if src = 3 then Abcast_seq.broadcast_from group ~src (Payload 0)
      else Abcast_seq.broadcast (h src) (Payload 0)
    end
  in
  for k = 0 to 299 do
    ignore
      (Engine.schedule e ~after:(Simtime.of_ms (5 + (10 * k))) (fun () ->
           broadcast (k mod 4)))
  done;
  (* A leader target resolves to the leader most members see. *)
  let current_leader () =
    let views = List.map (fun m -> Abcast_seq.leader (h m)) members in
    let votes l = List.length (List.filter (( = ) l) views) in
    List.fold_left (fun a b -> if votes b > votes a then b else a) (List.hd views) views
  in
  let crashes = ref [] in
  let at = ref 100 in
  List.iter
    (fun w ->
      at := !at + w.gap_ms;
      ignore
        (Engine.schedule e ~after:(Simtime.of_ms !at) (fun () ->
             let m = if w.target = 3 then current_leader () else w.target in
             if w.after_broadcast then broadcast m;
             crashes := (m, Simtime.to_ms (Engine.now e)) :: !crashes;
             Network.crash net m;
             ignore
               (Engine.schedule e ~after:(Simtime.of_ms w.down_ms) (fun () ->
                    Network.recover net m))));
      at := !at + w.down_ms)
    p.windows;
  (* A run sends about 15k messages. Step a millisecond at a time so that
     a message storm fails the case quickly instead of stalling it. *)
  let until = max 3_000 !at + 12_000 in
  for ms = 1 to until do
    run_ms e ms;
    if Network.messages_sent net > 1_000_000 then
      QCheck.Test.fail_reportf "message storm: %d messages sent by %d ms"
        (Network.messages_sent net) ms
  done;
  let orders = List.map (fun m -> Abcast_seq.delivered (h m)) members in
  let order = List.hd orders in
  List.iteri
    (fun m o ->
      if o <> order then
        QCheck.Test.fail_reportf "member %d delivered %d ids, member 0 %d" m
          (List.length o) (List.length order))
    orders;
  if List.length (List.sort_uniq compare order) <> List.length order then
    QCheck.Test.fail_reportf "an id delivered twice";
  List.iter
    (fun ((o, s) as id) ->
      if not (Hashtbl.mem sent id) then
        QCheck.Test.fail_reportf "delivered %d.%d, never broadcast" o s)
    order;
  let delivered = Hashtbl.create 512 in
  List.iter (fun id -> Hashtbl.replace delivered id ()) order;
  Hashtbl.iter
    (fun ((o, s) as id) t ->
      let may_lose =
        List.exists
          (fun (m, c) -> m = o && c >= t && c < t +. float_of_int retry_budget_ms)
          !crashes
      in
      if (not may_lose) && not (Hashtbl.mem delivered id) then
        QCheck.Test.fail_reportf "%d.%d (sent at %.0f ms) never delivered" o s t)
    sent;
  true

(* A plan whose members fetch a payload they missed. *)
let fetch_plan =
  let w gap_ms down_ms target after_broadcast =
    { gap_ms; down_ms; target; after_broadcast }
  in
  {
    c_seed = 4072;
    loss_pct = 0;
    windows = [ w 452 1495 2 true; w 27 448 2 false; w 582 1246 0 true ];
  }

(* Plans the property once found stalling (or, the last, storming), one
   per catch-up path: each fails with that path taken out. *)
let test_abcast_seq_crash_plans () =
  let w gap_ms down_ms target after_broadcast =
    { gap_ms; down_ms; target; after_broadcast }
  in
  List.iter
    (fun (path, c_seed, loss_pct, windows) ->
      match check_crash_plan { c_seed; loss_pct; windows } with
      | _ -> ()
      | exception e -> Alcotest.failf "%s: %s" path (Printexc.to_string e))
    [
      ("re-ack on recovery", 6401, 3, [ w 574 1134 2 false; w 428 66 1 true ]);
      ("re-ack on trust", 6740, 17, [ w 23 1427 1 false ]);
      ("leader records its slot", 6725, 10, [ w 249 89 3 false ]);
      ("Epoch to the new leader", 2030, 19, [ w 545 123 1 false ]);
      ( "slots learned from delivered acks",
        7529,
        7,
        [
          w 383 239 0 false;
          w 263 997 3 false;
          w 543 1268 0 false;
          w 47 191 3 false;
          w 90 754 1 true;
        ] );
      ("leader orders what came without quorum", 6600, 14, [ w 448 1455 3 true ]);
      ("one Fetch per poll", fetch_plan.c_seed, fetch_plan.loss_pct, fetch_plan.windows);
    ]

let prop_abcast_seq_crash_recovery =
  QCheck.Test.make ~name:"abcast-seq agreement and completeness under crash-recovery"
    ~count:40
    (QCheck.make ~print:print_crash_plan ~shrink:shrink_crash_plan gen_crash_plan)
    check_crash_plan

(* A takeover re-announces what members may lack, not the whole run: the
   Order deliveries in the second after the leader crashes are the same
   after 500 and after 2 000 delivered slots. *)
let takeover_orders ~slots =
  let e, net = make ~seed:41 () in
  let members = [ 0; 1; 2 ] in
  let group = Abcast_seq.create_group net ~members () in
  for k = 0 to slots - 1 do
    ignore
      (Engine.schedule e ~after:(Simtime.of_ms (2 * k)) (fun () ->
           Abcast_seq.broadcast (Abcast_seq.handle group ~me:(k mod 3)) (Payload k)))
  done;
  let crash_at = (2 * slots) + 500 in
  run_ms e crash_at;
  List.iter
    (fun m ->
      Alcotest.(check int) "all delivered before the crash" slots
        (List.length (Abcast_seq.delivered (Abcast_seq.handle group ~me:m))))
    members;
  let orders = ref 0 in
  List.iter
    (fun m ->
      Network.add_handler net m (fun ~src:_ msg ->
          if Msg.name msg = "Data(Order)" then incr orders;
          false))
    members;
  Network.crash net 0;
  run_ms e (crash_at + 1_000);
  Alcotest.(check int) "new leader" 1 (Abcast_seq.leader (Abcast_seq.handle group ~me:1));
  !orders

let test_abcast_seq_takeover_flat () =
  let small = takeover_orders ~slots:500 and large = takeover_orders ~slots:2_000 in
  Alcotest.(check bool)
    (Printf.sprintf "Order deliveries after the crash: %d at 500 slots, %d at 2000"
       small large)
    true
    (large <= small)

(* The [abcast_undelivered] gauge is a counter of slots at or above the
   delivery cursor: it rises while ordered slots wait for stability or a
   payload under loss and returns to zero once everything is delivered. *)
let test_abcast_undelivered_gauge () =
  let e, net = make ~seed:29 ~drop:0.2 () in
  let ts = Timeseries.create ~interval:(Simtime.of_ms 1) e in
  Network.set_timeseries net ts;
  let members = [ 0; 1; 2 ] in
  let group = Abcast_seq.create_group net ~members () in
  for k = 1 to 30 do
    ignore
      (Engine.schedule e ~after:(Simtime.of_ms (2 * k)) (fun () ->
           Abcast_seq.broadcast (Abcast_seq.handle group ~me:(k mod 3))
             (Payload k)))
  done;
  run_ms e 5_000;
  List.iter
    (fun m ->
      Alcotest.(check int) "all delivered" 30
        (List.length (Abcast_seq.delivered (Abcast_seq.handle group ~me:m)));
      match Timeseries.find ts ~name:"abcast_undelivered" ~replica:m with
      | None -> Alcotest.fail "abcast_undelivered not registered"
      | Some series ->
          let points = Timeseries.points series in
          let last = List.nth (List.rev points) 0 in
          Alcotest.(check (float 0.)) "drained" 0. last.Timeseries.value;
          Alcotest.(check bool) "rose while ordering" true
            (Timeseries.max_value series > 0.);
          Alcotest.(check bool) "never negative" true
            (List.for_all (fun p -> p.Timeseries.value >= 0.) points))
    members

(* Acks are a bitset over member positions, and a group may be wider than
   one machine word: a 64-member group puts member 63 past the last bit
   of an OCaml int. Members 62 and 63 are down while two messages are
   ordered, and the detector's timeout outlasts the run, so nobody
   suspects them: no member may deliver before both have acked. Member
   63 comes back first and acks every re-sent Order again; its acks must
   count once, or the group would deliver without member 62. *)
let test_abcast_seq_wide_group () =
  let e, net = make ~seed:17 ~n:64 () in
  let members = List.init 64 Fun.id in
  let fd =
    Fd.create_group net ~members ~heartbeat_every:(Simtime.of_ms 500)
      ~timeout:(Simtime.of_sec 60.) ()
  in
  let group = Abcast_seq.create_group net ~members ~fd () in
  let h m = Abcast_seq.handle group ~me:m in
  let none_delivered ~waiting_for =
    List.iter
      (fun m ->
        Alcotest.(check int)
          (Printf.sprintf "member %d waits for %s" m waiting_for)
          0
          (List.length (Abcast_seq.delivered (h m))))
      members
  in
  Network.crash net 62;
  Network.crash net 63;
  ignore
    (Engine.schedule e ~after:(Simtime.of_ms 5) (fun () ->
         Abcast_seq.broadcast (h 0) (Payload 1);
         Abcast_seq.broadcast (h 61) (Payload 2)));
  run_ms e 300;
  none_delivered ~waiting_for:"members 62 and 63";
  Network.recover net 63;
  run_ms e 600;
  none_delivered ~waiting_for:"member 62";
  Network.recover net 62;
  run_ms e 1_600;
  let order = Abcast_seq.delivered (h 0) in
  Alcotest.(check int) "both delivered" 2 (List.length order);
  List.iter
    (fun m ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d delivers member 0's order" m)
        order (Abcast_seq.delivered (h m)))
    members

let test_abcast_total_order impl () =
  let e, _net, members, group = abcast_setup ~impl () in
  let logs = Array.make 3 [] in
  List.iter
    (fun m ->
      let h = Abcast.handle group ~me:m in
      Abcast.on_deliver h (fun ~origin msg ->
          logs.(m) <- (origin, payload_of msg) :: logs.(m)))
    members;
  List.iter
    (fun m ->
      let h = Abcast.handle group ~me:m in
      for k = 0 to 9 do
        Abcast.broadcast h (Payload ((m * 100) + k))
      done)
    members;
  run_ms e 20_000;
  Alcotest.(check int) "member 0 got all" 30 (List.length logs.(0));
  check_total_order ~logs members

let test_abcast_client_inject impl () =
  let e, _net, members, group = abcast_setup ~impl ~clients:[ 3 ] () in
  let logs = Array.make 3 [] in
  List.iter
    (fun m ->
      let h = Abcast.handle group ~me:m in
      Abcast.on_deliver h (fun ~origin msg ->
          logs.(m) <- (origin, payload_of msg) :: logs.(m)))
    members;
  Abcast.broadcast_from group ~src:3 (Payload 55);
  run_ms e 10_000;
  List.iter
    (fun m ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d" m)
        [ (3, 55) ]
        (List.rev logs.(m)))
    members

let test_abcast_member_crash impl () =
  let e, net, members, group = abcast_setup ~impl ~n:5 ~seed:77 () in
  let logs = Array.make 5 [] in
  List.iter
    (fun m ->
      let h = Abcast.handle group ~me:m in
      Abcast.on_deliver h (fun ~origin msg ->
          logs.(m) <- (origin, payload_of msg) :: logs.(m)))
    members;
  (* Everyone broadcasts; member 0 (the initial sequencer / first
     coordinator) crashes mid-stream. *)
  List.iter
    (fun m ->
      let h = Abcast.handle group ~me:m in
      for k = 0 to 4 do
        ignore
          (Engine.schedule e ~after:(Simtime.of_ms (1 + k))
             (Network.guard net m (fun () -> Abcast.broadcast h (Payload ((m * 10) + k)))))
      done)
    members;
  ignore (Engine.schedule e ~after:(Simtime.of_ms 3) (fun () -> Network.crash net 0));
  run_ms e 30_000;
  let survivors = List.filter (fun m -> m <> 0) members in
  check_total_order ~logs survivors;
  (* All messages from correct members must be delivered. *)
  let delivered1 = List.rev_map snd logs.(1) in
  List.iter
    (fun m ->
      for k = 0 to 4 do
        Alcotest.(check bool)
          (Printf.sprintf "msg %d delivered" ((m * 10) + k))
          true
          (List.mem ((m * 10) + k) delivered1)
      done)
    survivors

let prop_abcast_random_schedules impl =
  QCheck.Test.make ~name:"abcast total order under random seeds" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let e, _net, members, group = abcast_setup ~impl ~seed () in
      let logs = Array.make 3 [] in
      List.iter
        (fun m ->
          let h = Abcast.handle group ~me:m in
          Abcast.on_deliver h (fun ~origin msg ->
              logs.(m) <- (origin, payload_of msg) :: logs.(m)))
        members;
      List.iter
        (fun m ->
          let h = Abcast.handle group ~me:m in
          for k = 0 to 4 do
            Abcast.broadcast h (Payload ((m * 10) + k))
          done)
        members;
      run_ms e 20_000;
      List.length logs.(0) = 15
      && List.rev logs.(0) = List.rev logs.(1)
      && List.rev logs.(1) = List.rev logs.(2))

(* ------------------------------------------------------------------ *)
(* View-synchronous broadcast                                         *)
(* ------------------------------------------------------------------ *)

let test_vscast_basic_delivery () =
  let e, _net, members, group =
    let e, net = make ~seed:51 () in
    let members = [ 0; 1; 2 ] in
    (e, net, members, Vscast.create_group net ~members ())
  in
  let logs = Array.make 3 [] in
  List.iter
    (fun m ->
      let h = Vscast.handle group ~me:m in
      Vscast.on_deliver h (fun ~origin msg ->
          logs.(m) <- (origin, payload_of msg) :: logs.(m)))
    members;
  let h0 = Vscast.handle group ~me:0 in
  for k = 0 to 4 do
    Vscast.broadcast h0 (Payload k)
  done;
  run_ms e 5_000;
  List.iter
    (fun m ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "member %d delivers in sender order" m)
        (List.init 5 (fun k -> (0, k)))
        (List.rev logs.(m)))
    members

let test_vscast_view_change_on_crash () =
  let e, net = make ~seed:52 () in
  let members = [ 0; 1; 2 ] in
  let group = Vscast.create_group net ~members () in
  let views = ref [] in
  let h0 = Vscast.handle group ~me:0 in
  let h1 = Vscast.handle group ~me:1 in
  Vscast.on_view_change h0 (fun v -> views := v :: !views);
  Network.crash net 2;
  run_ms e 5_000;
  (match !views with
  | [ v ] ->
      Alcotest.(check int) "view id" 1 v.View.id;
      Alcotest.(check (list int)) "members" [ 0; 1 ] v.View.members
  | vs -> Alcotest.fail (Printf.sprintf "expected 1 view change, got %d" (List.length vs)));
  Alcotest.(check int) "other member agrees" 1 (Vscast.current_view h1).View.id;
  (* Broadcasts still work in the new view. *)
  let got = ref [] in
  Vscast.on_deliver h1 (fun ~origin:_ msg -> got := payload_of msg :: !got);
  Vscast.broadcast h0 (Payload 9);
  run_ms e 10_000;
  Alcotest.(check (list int)) "post-view-change delivery" [ 9 ] !got

let test_vscast_view_synchrony () =
  (* Sender crashes while broadcasting: survivors must deliver the same
     set of messages before installing the next view. *)
  let e, net = make ~seed:53 ~n:4 () in
  let members = [ 0; 1; 2; 3 ] in
  let group = Vscast.create_group net ~members () in
  let logs = Array.make 4 [] in
  List.iter
    (fun m ->
      let h = Vscast.handle group ~me:m in
      Vscast.on_deliver h (fun ~origin msg ->
          logs.(m) <- (origin, payload_of msg) :: logs.(m)))
    members;
  let h3 = Vscast.handle group ~me:3 in
  for k = 0 to 9 do
    ignore
      (Engine.schedule e ~after:(Simtime.of_us (200 * k))
         (Network.guard net 3 (fun () -> Vscast.broadcast h3 (Payload k))))
  done;
  (* Crash the sender mid-stream. *)
  ignore (Engine.schedule e ~after:(Simtime.of_ms 1) (fun () -> Network.crash net 3));
  run_ms e 10_000;
  let survivors = [ 0; 1; 2 ] in
  let sets =
    List.map
      (fun m -> List.sort compare (List.map snd logs.(m)))
      survivors
  in
  (match sets with
  | s0 :: rest ->
      List.iter
        (fun s -> Alcotest.(check (list int)) "same delivered set" s0 s)
        rest
  | [] -> ());
  List.iter
    (fun m ->
      let h = Vscast.handle group ~me:m in
      Alcotest.(check (list int)) "final view" [ 0; 1; 2 ]
        (Vscast.current_view h).View.members)
    survivors


(* ------------------------------------------------------------------ *)
(* Additional edge cases                                              *)
(* ------------------------------------------------------------------ *)

let test_fd_timing_parameters () =
  let e, net = make () in
  let members = [ 0; 1 ] in
  let group =
    Fd.create_group net ~members
      ~heartbeat_every:(Simtime.of_ms 10)
      ~timeout:(Simtime.of_ms 50)
      ()
  in
  let fd0 = Fd.handle group ~me:0 in
  let suspected_at = ref None in
  Fd.on_suspect fd0 (fun _ -> suspected_at := Some (Engine.now e));
  ignore (Engine.schedule e ~after:(Simtime.of_ms 100) (fun () -> Network.crash net 1));
  run_ms e 1_000;
  match !suspected_at with
  | None -> Alcotest.fail "never suspected"
  | Some t ->
      let delay = Simtime.to_ms (Simtime.sub t (Simtime.of_ms 100)) in
      Alcotest.(check bool)
        (Printf.sprintf "suspicion within [timeout, timeout+2hb+slack] (%.1fms)" delay)
        true
        (delay >= 45. && delay <= 90.)

let test_rchan_retries_exhaust () =
  (* Sending to a permanently dead node must not livelock the engine. *)
  let e, net = make () in
  let group =
    Rchan.create_group net ~nodes:[ 0; 1 ] ~rto:(Simtime.of_ms 5)
      ~max_retries:10 ()
  in
  Network.crash net 1;
  Rchan.send (Rchan.handle group ~me:0) ~dst:1 (Payload 1);
  let executed = Engine.run ~until:(Simtime.of_sec 60.) e in
  Alcotest.(check bool) "bounded retransmissions" true (executed < 100);
  Alcotest.(check bool) "engine drained" true (Engine.pending e = 0)

let test_consensus_even_membership () =
  let e, _net, members, group = consensus_setup ~n:4 () in
  let decisions = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let h = Cint.handle group ~me:m in
      Cint.on_decide h (fun ~instance v -> Hashtbl.replace decisions (m, instance) v);
      Cint.propose h ~instance:0 m)
    members;
  run_ms e 5_000;
  let vals = List.filter_map (fun m -> Hashtbl.find_opt decisions (m, 0)) members in
  Alcotest.(check int) "all four decide" 4 (List.length vals);
  match vals with
  | v :: rest -> List.iter (fun v2 -> Alcotest.(check int) "agreement" v v2) rest
  | [] -> ()

let test_consensus_max_crashes () =
  (* n=5 tolerates f=2: crash two members including two consecutive
     coordinators. *)
  let e, net, members, group = consensus_setup ~n:5 ~seed:8 () in
  let decisions = Hashtbl.create 8 in
  List.iter
    (fun m ->
      let h = Cint.handle group ~me:m in
      Cint.on_decide h (fun ~instance v -> Hashtbl.replace decisions (m, instance) v))
    members;
  Network.crash net 0;
  Network.crash net 1;
  run_ms e 10;
  List.iter
    (fun m ->
      if m > 1 then Cint.propose (Cint.handle group ~me:m) ~instance:0 (300 + m))
    members;
  run_ms e 20_000;
  let vals =
    List.filter_map
      (fun m -> if m > 1 then Hashtbl.find_opt decisions (m, 0) else None)
      members
  in
  Alcotest.(check int) "three survivors decide" 3 (List.length vals);
  match vals with
  | v :: rest ->
      List.iter (fun v2 -> Alcotest.(check int) "agreement" v v2) rest;
      Alcotest.(check bool) "validity" true (v >= 302 && v <= 304)
  | [] -> ()

let test_vscast_double_crash () =
  let e, net = make ~seed:71 ~n:5 () in
  let members = [ 0; 1; 2; 3; 4 ] in
  let group = Vscast.create_group net ~members () in
  let h4 = Vscast.handle group ~me:4 in
  Network.crash net 0;
  run_ms e 3_000;
  Network.crash net 1;
  run_ms e 10_000;
  Alcotest.(check (list int)) "view shrinks twice" [ 2; 3; 4 ]
    (Vscast.current_view h4).View.members;
  (* Still delivers. *)
  let got = ref [] in
  let h2 = Vscast.handle group ~me:2 in
  Vscast.on_deliver h2 (fun ~origin:_ msg -> got := payload_of msg :: !got);
  Vscast.broadcast h4 (Payload 3);
  run_ms e 20_000;
  Alcotest.(check (list int)) "delivery in the shrunken view" [ 3 ] !got

let test_vscast_rejoin () =
  let e, net = make ~seed:72 () in
  let members = [ 0; 1; 2 ] in
  let group = Vscast.create_group net ~members () in
  let h0 = Vscast.handle group ~me:0 in
  let h2 = Vscast.handle group ~me:2 in
  Network.crash net 2;
  run_ms e 3_000;
  Alcotest.(check (list int)) "excluded" [ 0; 1 ]
    (Vscast.current_view h0).View.members;
  Network.recover net 2;
  run_ms e 1_000;
  Vscast.request_join h2;
  run_ms e 15_000;
  Alcotest.(check (list int)) "readmitted" [ 0; 1; 2 ]
    (Vscast.current_view h0).View.members;
  Alcotest.(check (list int)) "joiner agrees" [ 0; 1; 2 ]
    (Vscast.current_view h2).View.members;
  Alcotest.(check bool) "joiner back in view" true (Vscast.in_view h2);
  (* Post-rejoin broadcasts reach the joiner. *)
  let got = ref [] in
  Vscast.on_deliver h2 (fun ~origin:_ msg -> got := payload_of msg :: !got);
  Vscast.broadcast h0 (Payload 9);
  run_ms e 25_000;
  Alcotest.(check (list int)) "delivered to rejoined member" [ 9 ] !got

let test_abcast_bulk_exactly_once impl () =
  let e, _net, members, group = abcast_setup ~impl ~seed:90 () in
  let counts = Array.make 3 0 in
  List.iter
    (fun m ->
      let h = Abcast.handle group ~me:m in
      Abcast.on_deliver h (fun ~origin:_ _ -> counts.(m) <- counts.(m) + 1))
    members;
  let h0 = Abcast.handle group ~me:0 in
  for k = 0 to 99 do
    Abcast.broadcast h0 (Payload k)
  done;
  run_ms e 60_000;
  Array.iteri
    (fun m c ->
      Alcotest.(check int) (Printf.sprintf "member %d delivered all once" m) 100 c)
    counts


let test_abcast_optimistic_delivery impl () =
  let e, _net, members, group = abcast_setup ~impl ~seed:93 () in
  let opt_log = ref [] and final_log = ref [] in
  let h1 = Abcast.handle group ~me:1 in
  Abcast.on_opt_deliver h1 (fun ~origin:_ msg ->
      opt_log := payload_of msg :: !opt_log);
  Abcast.on_deliver h1 (fun ~origin:_ msg ->
      (* Every final delivery must have been optimistically delivered
         first (the payload is known before its order is fixed). *)
      let k = payload_of msg in
      Alcotest.(check bool)
        (Printf.sprintf "opt before final for %d" k)
        true
        (List.mem k !opt_log);
      final_log := k :: !final_log);
  List.iter
    (fun m ->
      let h = Abcast.handle group ~me:m in
      for k = 0 to 4 do
        Abcast.broadcast h (Payload ((m * 10) + k))
      done)
    members;
  run_ms e 20_000;
  Alcotest.(check int) "all finally delivered" 15 (List.length !final_log);
  Alcotest.(check int) "all optimistically delivered" 15 (List.length !opt_log);
  Alcotest.(check (list int)) "same sets"
    (List.sort Int.compare !opt_log)
    (List.sort Int.compare !final_log)

let prop_vscast_random_crash =
  (* Whatever the crash timing of one member during a broadcast stream,
     the survivors install the same final view and deliver the same set. *)
  QCheck.Test.make ~name:"vscast view synchrony under random crash timing"
    ~count:10
    QCheck.(pair (int_range 0 5_000) (int_range 0 3_000))
    (fun (seed, crash_us) ->
      let e, net = make ~seed ~n:4 () in
      let members = [ 0; 1; 2; 3 ] in
      let group = Vscast.create_group net ~members () in
      let logs = Array.make 4 [] in
      List.iter
        (fun m ->
          let h = Vscast.handle group ~me:m in
          Vscast.on_deliver h (fun ~origin msg ->
              logs.(m) <- (origin, payload_of msg) :: logs.(m)))
        members;
      let h0 = Vscast.handle group ~me:0 in
      for k = 0 to 9 do
        ignore
          (Engine.schedule e ~after:(Simtime.of_us (150 * k))
             (Network.guard net 0 (fun () -> Vscast.broadcast h0 (Payload k))))
      done;
      ignore
        (Engine.schedule e ~after:(Simtime.of_us crash_us) (fun () ->
             Network.crash net 3));
      run_ms e 30_000;
      let survivors = [ 0; 1; 2 ] in
      let views =
        List.map
          (fun m -> (Vscast.current_view (Vscast.handle group ~me:m)).View.members)
          survivors
      in
      let sets =
        List.map (fun m -> List.sort compare logs.(m)) survivors
      in
      List.for_all (fun v -> v = [ 0; 1; 2 ]) views
      && List.for_all (fun s -> s = List.hd sets) sets)

let prop_consensus_random_coordinator_crash =
  QCheck.Test.make
    ~name:"consensus agreement under random coordinator crash timing"
    ~count:10
    QCheck.(pair (int_range 0 5_000) (int_range 0 4_000))
    (fun (seed, crash_us) ->
      let e, net = make ~seed ~n:5 () in
      let members = [ 0; 1; 2; 3; 4 ] in
      let fd = Fd.create_group net ~members () in
      let group = Cint.create_group net ~members ~fd () in
      let decisions = Hashtbl.create 8 in
      List.iter
        (fun m ->
          let h = Cint.handle group ~me:m in
          Cint.on_decide h (fun ~instance v ->
              Hashtbl.replace decisions (m, instance) v);
          Cint.propose h ~instance:0 (100 + m))
        members;
      ignore
        (Engine.schedule e ~after:(Simtime.of_us crash_us) (fun () ->
             Network.crash net 0));
      run_ms e 30_000;
      let vals =
        List.filter_map
          (fun m -> if m <> 0 then Hashtbl.find_opt decisions (m, 0) else None)
          members
      in
      List.length vals = 4
      && List.for_all (fun v -> v = List.hd vals) vals
      && List.hd vals >= 100
      && List.hd vals <= 104)


(* ------------------------------------------------------------------ *)
(* Isolation of instances sharing one network                         *)
(* ------------------------------------------------------------------ *)

(* Two instances of every layer above the stubborn channels, all over
   the same members on one lossy network. Instance [i] sends only
   payloads in [i * 1000, i * 1000 + 999], and both instances of a
   consensus or commit layer use the same instance and transaction
   numbers. Every member must see exactly its own instance's traffic:
   each layer builds the channels it talks over, so no message of one
   instance can reach the other. *)
let test_isolation () =
  let e, net = make ~seed:23 ~n:3 ~drop:0.1 () in
  let members = [ 0; 1; 2 ] in
  let instances = [ 0; 1 ] in
  let got = Hashtbl.create 64 in
  let record key v =
    Hashtbl.replace got key
      (v :: Option.value ~default:[] (Hashtbl.find_opt got key))
  in
  (* Broadcast layers: [create ()] builds one instance and returns, per
     member, its delivery hook and its broadcast. *)
  let broadcast_layers =
    [
      ( "rbcast",
        fun () ->
          let g = Rbcast.create_group net ~members () in
          fun me ->
            let h = Rbcast.handle g ~me in
            ((fun f -> Rbcast.on_deliver h (fun ~origin:_ m -> f m)),
              Rbcast.broadcast h) );
      ( "abcast-sequencer",
        fun () ->
          let g = Abcast.create_group net ~members ~impl:Abcast.Sequencer () in
          fun me ->
            let h = Abcast.handle g ~me in
            ((fun f -> Abcast.on_deliver h (fun ~origin:_ m -> f m)),
              Abcast.broadcast h) );
      ( "abcast-consensus",
        fun () ->
          let g =
            Abcast.create_group net ~members ~impl:Abcast.Consensus_based ()
          in
          fun me ->
            let h = Abcast.handle g ~me in
            ((fun f -> Abcast.on_deliver h (fun ~origin:_ m -> f m)),
              Abcast.broadcast h) );
      ( "vscast",
        fun () ->
          let g = Vscast.create_group net ~members () in
          fun me ->
            let h = Vscast.handle g ~me in
            ((fun f -> Vscast.on_deliver h (fun ~origin:_ m -> f m)),
              Vscast.broadcast h) );
    ]
  in
  let sends =
    List.concat_map
      (fun (layer, create) ->
        List.concat_map
          (fun i ->
            let member = create () in
            List.map
              (fun me ->
                let on_deliver, broadcast = member me in
                on_deliver (fun m -> record (layer, i, me) (payload_of m));
                (i, me, broadcast))
              members)
          instances)
      broadcast_layers
  in
  let own i me = List.init 3 (fun k -> (i * 1000) + (me * 10) + k) in
  let sent i = List.concat_map (own i) members in
  List.iter
    (fun (i, me, broadcast) ->
      List.iter (fun v -> broadcast (Payload v)) (own i me))
    sends;
  (* Consensus: both instances decide instance numbers 0..2 over one
     shared failure detector. *)
  let fd = Fd.create_group net ~members () in
  List.iter
    (fun i ->
      let g = Cint.create_group net ~members ~fd () in
      List.iter
        (fun me ->
          let h = Cint.handle g ~me in
          Cint.on_decide h (fun ~instance v ->
              record ("consensus", i, me) ((instance * 10_000) + v));
          for instance = 0 to 2 do
            Cint.propose h ~instance ((i * 1000) + me)
          done)
        members)
    instances;
  (* Commit: instance 0 votes yes and instance 1 votes no, on the same
     transaction numbers, so a vote or decision crossing over would
     flip an outcome. *)
  let commit_layers =
    [
      ( "2pc",
        fun i ->
          let g =
            Core.Two_phase_commit.create_group net ~nodes:members
              ~vote:(fun ~me:_ ~txn:_ -> i = 0)
              ~learn:(fun ~me ~txn d ->
                record ("2pc", i, me)
                  ((txn * 10) + if d = Core.Two_phase_commit.Commit then 1 else 0))
              ()
          in
          fun txn ->
            Core.Two_phase_commit.start g ~coordinator:0 ~participants:members
              ~txn ~on_complete:ignore );
    ]
  in
  List.iter
    (fun (_, create) ->
      List.iter
        (fun i ->
          let start = create i in
          for txn = 1 to 3 do
            start txn
          done)
        instances)
    commit_layers;
  run_ms e 20_000;
  let delivered key =
    List.sort Int.compare (Option.value ~default:[] (Hashtbl.find_opt got key))
  in
  List.iter
    (fun i ->
      List.iter
        (fun me ->
          let check layer expected =
            Alcotest.(check (list int))
              (Printf.sprintf "%s instance %d, member %d" layer i me)
              expected
              (delivered (layer, i, me))
          in
          List.iter (fun (layer, _) -> check layer (sent i)) broadcast_layers;
          (* Instance 0 decides values 0..2, instance 1 1000..1002; a
             commit layer records txn * 10 + 1 for Commit, + 0 for Abort. *)
          let decided = delivered ("consensus", i, me) in
          Alcotest.(check int)
            (Printf.sprintf "consensus instance %d, member %d decides 3" i me)
            3 (List.length decided);
          List.iter
            (fun d ->
              Alcotest.(check bool)
                (Printf.sprintf "consensus instance %d decides its own value %d" i d)
                true
                (d mod 10_000 / 1000 = i))
            decided;
          List.iter
            (fun (layer, _) ->
              check layer
                (List.init 3 (fun t -> ((t + 1) * 10) + if i = 0 then 1 else 0)))
            commit_layers)
        members)
    instances

(* The names the group layers give their messages on message spans, read
   off real traffic: a tap on top of every node's handler stack names
   each message delivered there. A wrapper shows its payload's name, a
   counted constructor its count (Order from 2 ids, Catchup from 0), a
   leaf its label, and an unregistered constructor its own name, as each
   layer printed them before the registry. The tap also looks every
   message up in a name cache, which must return one string per name:
   the name behind the "msg:" prefix, built once. *)
type tap = { names : (string, string) Hashtbl.t; cache : Msg.names }

let tap net ~nodes =
  let t = { names = Hashtbl.create 16; cache = Msg.names ~prefix:"msg:" } in
  List.iter
    (fun node ->
      Network.add_handler net node (fun ~src:_ m ->
          let name = Msg.name m and interned = Msg.interned t.cache m in
          (match Hashtbl.find_opt t.names name with
          | Some first ->
              if interned != first then Alcotest.failf "%s: a second string" name
          | None ->
              Alcotest.(check string) "interned" ("msg:" ^ name) interned;
              Hashtbl.replace t.names name interned);
          false))
    nodes;
  t

let check_names label t want =
  List.iter
    (fun name ->
      Alcotest.(check bool) (label ^ ": " ^ name) true (Hashtbl.mem t.names name))
    want;
  Alcotest.(check int) (label ^ ": one name per constructor path")
    (Hashtbl.length t.names) (Msg.built t.cache)

let test_msg_names () =
  (* Reliable broadcast over stubborn channels; idle origins send a
     stability notice. *)
  (let e, net = make ~n:4 () in
   let members = [ 0; 1; 2; 3 ] in
   let group = Rbcast.create_group net ~members () in
   let t = tap net ~nodes:members in
   Rbcast.broadcast (Rbcast.handle group ~me:0) (Payload 1);
   Rbcast.broadcast (Rbcast.handle group ~me:2) (Payload 2);
   ignore (Engine.run e);
   check_names "rbcast" t [ "Data(Rb(Payload))"; "Data(Rb_stable)"; "Ack" ]);
  (* The sequencer with a batch window: three broadcasts in one window
     share an Order, a lone one later gets its own, a client injects. *)
  (let e, net = make ~n:4 () in
   let members = [ 0; 1; 2 ] in
   let group =
     Abcast.create_group net ~members ~clients:[ 3 ] ~impl:Abcast.Sequencer
       ~batch_window:(Simtime.of_ms 5) ()
   in
   let t = tap net ~nodes:members in
   for k = 0 to 2 do
     Abcast.broadcast (Abcast.handle group ~me:0) (Payload k)
   done;
   run_ms e 1_000;
   Abcast.broadcast_from group ~src:3 (Payload 3);
   run_ms e 2_000;
   check_names "sequencer" t
     [ "Data(Order[3])"; "Data(Order)"; "Data(Inject(Payload))"; "Data(Order_ack)";
       "Heartbeat" ]);
  (* A member that missed a payload fetches it. *)
  (let t = ref None in
   ignore (check_crash_plan ~on_net:(fun net -> t := Some (tap net ~nodes:[ 0; 1; 2 ])) fetch_plan);
   check_names "sequencer fetch" (Option.get !t) [ "Data(Fetch_reply(Payload))" ]);
  (* Consensus-based ordering; a member cut off past its channels' retry
     budget catches up on the instances it missed. *)
  (let e, net, members, group = abcast_setup ~impl:Abcast.Consensus_based () in
   let t = tap net ~nodes:members in
   Network.partition net [ 2 ];
   for k = 0 to 5 do
     ignore
       (Engine.schedule e ~after:(Simtime.of_ms (10 * k)) (fun () ->
            Abcast.broadcast (Abcast.handle group ~me:0) (Payload k)))
   done;
   run_ms e 5_000;
   Network.heal net;
   Abcast.broadcast (Abcast.handle group ~me:0) (Payload 6);
   run_ms e 20_000;
   check_names "consensus-based" t
     [ "Data(Inject(Payload))"; "Data(Catchup[1])"; "Data(Cons_est)";
       "Data(Cons_proposal)"; "Data(Cons_reply)"; "Data(Cons_decide)"; "Data(Progress)" ]);
  (* View-synchronous multicast. *)
  (let e, net = make ~seed:51 () in
   let members = [ 0; 1; 2 ] in
   let group = Vscast.create_group net ~members () in
   let t = tap net ~nodes:members in
   Vscast.broadcast (Vscast.handle group ~me:0) (Payload 0);
   run_ms e 1_000;
   check_names "vscast" t [ "Data(Vs(Payload))"; "Data(Vs_ack)" ])

let () =
  Alcotest.run "group"
    [
      ( "fd",
        [
          tc "suspects crashed" test_fd_suspects_crashed;
          tc "trust restored" test_fd_trust_restored;
        ] );
      ("msg", [ tc "message names" test_msg_names ]);
      ( "rchan",
        [
          tc "lossy delivery" test_rchan_lossy_delivery;
          tc "passthrough" test_rchan_passthrough_no_overhead;
          tc "exactly once under faults" test_rchan_exactly_once_under_faults;
          tc "passthrough dedup" test_rchan_passthrough_dedup;
          tc "settled once" test_rchan_settled_once;
          QCheck_alcotest.to_alcotest prop_rchan_matches_per_message_timers;
        ] );
      ( "rbcast",
        [
          tc "all deliver" test_rbcast_all_deliver;
          tc "no duplicates under loss" test_rbcast_no_duplicates_under_loss;
          tc "seen gauge, callback order"
            test_rbcast_seen_gauge_and_callback_order;
          tc "relay after origin crash" test_rbcast_relay_after_origin_crash;
          QCheck_alcotest.to_alcotest prop_rbcast_agreement;
          tc "recovered origin resends" test_rbcast_recovered_origin_resends;
          tc "held gauge flags a stuck watermark"
            test_rbcast_held_gauge_flags_stuck_watermark;
          tc "idle origin drains" test_rbcast_idle_origin_drains;
          tc "lazy-primary run drains" test_rbcast_lazy_primary_run_drains;
          tc "bounded under loss" test_rbcast_bounded_under_loss;
          tc "bounded with a member down"
            test_rbcast_bounded_with_member_down;
          tc "per-sender order" test_rbcast_fifo_order;
          tc "per-sender order, loss + relays"
            test_rbcast_fifo_order_under_loss;
          tc "per-sender order, recovery"
            test_rbcast_fifo_order_across_recovery;
        ] );
      ( "consensus",
        [
          tc "agreement+validity" test_consensus_agreement;
          tc "multiple instances" test_consensus_multiple_instances;
          tc "coordinator crash" test_consensus_coordinator_crash;
          tc "under message loss" test_consensus_under_loss;
          tc "abort carries the coordinator's value"
            test_consensus_abort_carries_value;
        ] );
      ( "abcast-sequencer",
        [
          tc "total order" (test_abcast_total_order Abcast.Sequencer);
          tc "client inject" (test_abcast_client_inject Abcast.Sequencer);
          tc "member crash" (test_abcast_member_crash Abcast.Sequencer);
          tc "golden under crashes and loss" test_abcast_seq_golden;
          tc "takeover cost flat in run length" test_abcast_seq_takeover_flat;
          tc "crash plans that once stalled" test_abcast_seq_crash_plans;
          QCheck_alcotest.to_alcotest prop_abcast_seq_crash_recovery;
          tc "undelivered gauge" test_abcast_undelivered_gauge;
          tc "64 members, acks past one word" test_abcast_seq_wide_group;
          QCheck_alcotest.to_alcotest
            (prop_abcast_random_schedules Abcast.Sequencer);
        ] );
      ( "abcast-consensus",
        [
          tc "total order" (test_abcast_total_order Abcast.Consensus_based);
          tc "client inject" (test_abcast_client_inject Abcast.Consensus_based);
          tc "member crash" (test_abcast_member_crash Abcast.Consensus_based);
          QCheck_alcotest.to_alcotest
            (prop_abcast_random_schedules Abcast.Consensus_based);
        ] );
      ( "vscast",
        [
          tc "basic delivery" test_vscast_basic_delivery;
          tc "view change on crash" test_vscast_view_change_on_crash;
          tc "view synchrony" test_vscast_view_synchrony;
          tc "double crash" test_vscast_double_crash;
          tc "rejoin" test_vscast_rejoin;
        ] );
      ("isolation", [ tc "instances on one network" test_isolation ]);
      ( "edge-cases",
        [
          tc "fd timing" test_fd_timing_parameters;
          tc "rchan retries exhaust" test_rchan_retries_exhaust;
          tc "consensus even membership" test_consensus_even_membership;
          tc "consensus max crashes" test_consensus_max_crashes;
          tc "abcast bulk (sequencer)" (test_abcast_bulk_exactly_once Abcast.Sequencer);
          tc "abcast bulk (consensus)" (test_abcast_bulk_exactly_once Abcast.Consensus_based);
          tc "optimistic delivery (sequencer)" (test_abcast_optimistic_delivery Abcast.Sequencer);
          tc "optimistic delivery (consensus)" (test_abcast_optimistic_delivery Abcast.Consensus_based);
          QCheck_alcotest.to_alcotest prop_vscast_random_crash;
          QCheck_alcotest.to_alcotest prop_consensus_random_coordinator_crash;
        ] );
    ]
