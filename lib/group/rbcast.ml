open Sim

type Msg.t +=
  | Rb of { origin : int; seq : int; stable : int; payload : Msg.t }
  | Stable of { origin : int; stable : int }

let () =
  Msg.wrapper [%extension_constructor Rb] "Rb" (function
    | Rb { payload; _ } -> payload
    | _ -> assert false);
  Msg.leaf [%extension_constructor Stable] "Rb_stable"

(* One of our own broadcasts whose copies have not all settled: the
   packet (resent after we recover) and, by node, whether the copy to
   that node is still unsettled. *)
type own = { packet : Msg.t; unsettled : Bytes.t; mutable left : int }

let vacant =
  {
    packet = Stable { origin = -1; stable = 0 };
    unsettled = Bytes.empty;
    left = 0;
  }

(* A received message held until its origin's watermark covers it: the
   packet a relay resends and when it arrived. *)
type held = { rb : Msg.t; since : Simtime.t }

(* What a member knows of one origin's broadcasts. *)
type origin = {
  mutable heard : int; (* the origin's watermark, as last heard *)
  mutable top : int; (* one more than the highest seq held *)
  mutable count : int; (* messages held *)
  mutable last : Simtime.t; (* when a packet of the origin's last came *)
  mutable timer : Engine.timer option; (* the suspicion timer *)
}

type t = {
  net : Network.t;
  me : int;
  nodes : int; (* endpoints of the network: origins are [0 .. nodes-1] *)
  others : int list; (* the members but [me] *)
  chan : Rchan.t;
  passthrough : bool;
  suspect_after : Simtime.t;
  idle_after : Simtime.t;
  mutable next_seq : int;
  (* Receiver side: by origin, the next seq to deliver, and the fresh
     messages that wait for an earlier one, keyed like [held]. *)
  next : int array;
  early : Msg.t Int_table.t;
  mutable seen : int; (* fresh messages, our own included *)
  mutable deliver_cbs : (origin:int -> Msg.t -> unit) list; (* in order *)
  (* Origin side: our broadcasts [stable .. next_seq - 1], in a ring
     indexed by seq (capacity a power of two). Every seq below [stable]
     is stable: each of its copies was acked or ran out of retries. *)
  mutable own : own array;
  mutable stable : int;
  mutable announced : int; (* the highest watermark we have sent *)
  mutable last_sent : Simtime.t; (* when we last broadcast *)
  mutable notice : Engine.timer option;
  (* Holder side, created on first use: what we know of each origin,
     and the messages we hold, keyed by [seq * nodes + origin]. *)
  mutable origins : origin option array;
  mutable held : held Int_table.t option;
  mutable n_held : int;
  mutable relayed : int;
}

type group = { handles : (int, t) Hashtbl.t }

let engine t = Network.engine t.net
let now t = Engine.now (engine t)
let key t ~origin ~seq = (seq * t.nodes) + origin

let deliver t ~origin payload =
  List.iter (fun f -> f ~origin payload) t.deliver_cbs

(* --- origin side --------------------------------------------------------- *)

let slot t seq = seq land (Array.length t.own - 1)

(* Store our broadcast [seq], the next one after [stable .. seq - 1]. *)
let push_own t seq o =
  let cap = Array.length t.own in
  if seq - t.stable = cap then begin
    let own = Array.make (max 8 (2 * cap)) vacant in
    for s = t.stable to seq - 1 do
      own.(s land (Array.length own - 1)) <- t.own.(slot t s)
    done;
    t.own <- own
  end;
  t.own.(slot t seq) <- o

(* Tell the others the watermark once we have been idle for
   [idle_after]; a broadcast before then carries it instead. *)
let rec arm_notice t =
  if Option.is_none t.notice && t.stable > t.announced then begin
    let idle_at = Simtime.add t.last_sent t.idle_after in
    t.notice <-
      Some
        (Engine.schedule_at (engine t) ~label:"rbcast:stable"
           ~at:(Simtime.max (now t) idle_at) (fun () ->
             t.notice <- None;
             if Network.alive t.net t.me && t.stable > t.announced then
               if Simtime.(now t >= Simtime.add t.last_sent t.idle_after)
               then begin
                 t.announced <- t.stable;
                 Rchan.mcast t.chan ~dsts:t.others
                   (Stable { origin = t.me; stable = t.stable })
               end
               else arm_notice t))
  end

(* Move the watermark past every settled broadcast at its head. *)
let advance t =
  while t.stable < t.next_seq && t.own.(slot t t.stable).left = 0 do
    t.own.(slot t t.stable) <- vacant;
    t.stable <- t.stable + 1
  done;
  arm_notice t

(* The copy of our [seq] to [dst] has settled. *)
let settle t ~seq ~dst =
  if seq >= t.stable && seq < t.next_seq then begin
    let o = t.own.(slot t seq) in
    if Bytes.get o.unsettled dst = '\001' then begin
      Bytes.set o.unsettled dst '\000';
      o.left <- o.left - 1;
      if seq = t.stable then advance t
    end
  end

let broadcast t msg =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.seen <- t.seen + 1;
  let packet = Rb { origin = t.me; seq; stable = t.stable; payload = msg } in
  if not t.passthrough then begin
    let unsettled = Bytes.make t.nodes '\000' in
    List.iter (fun p -> Bytes.set unsettled p '\001') t.others;
    push_own t seq { packet; unsettled; left = List.length t.others };
    t.announced <- t.stable;
    t.last_sent <- now t;
    (* With no other member the broadcast is stable at once. *)
    if t.others = [] then advance t
  end;
  Rchan.mcast t.chan ~dsts:t.others packet;
  deliver t ~origin:t.me msg

(* --- holder side --------------------------------------------------------- *)

let held_table t =
  match t.held with
  | Some h -> h
  | None ->
      let h = Int_table.create 64 in
      t.held <- Some h;
      h

let origin_state t origin =
  if Array.length t.origins = 0 then t.origins <- Array.make t.nodes None;
  match t.origins.(origin) with
  | Some s -> s
  | None ->
      let s =
        { heard = 0; top = 0; count = 0; last = Simtime.zero; timer = None }
      in
      t.origins.(origin) <- Some s;
      s

let drop t s ~origin ~seq =
  let h = held_table t in
  let k = key t ~origin ~seq in
  if Int_table.mem h k then begin
    Int_table.remove h k;
    s.count <- s.count - 1;
    t.n_held <- t.n_held - 1
  end

(* The suspicion timer. An origin heard from within [suspect_after] is
   up, and its own channels still carry every copy it has not settled.
   A message held for [suspect_after] while the origin has been silent
   as long means the origin may have crashed before every copy got
   through: relay each such message to the others and stop holding it,
   leaving it to the relay's own retransmit chains. *)
let rec arm_suspicion t s ~origin ~at =
  s.timer <-
    Some
      (Engine.schedule_at (engine t) ~label:"rbcast:suspect" ~at (fun () ->
           s.timer <- None;
           if Network.alive t.net t.me then suspect t s ~origin))

and suspect t s ~origin =
  let now = now t in
  let heard_until = Simtime.add s.last t.suspect_after in
  if Simtime.(heard_until > now) then arm_suspicion t s ~origin ~at:heard_until
  else relay_held t s ~origin ~now

and relay_held t s ~origin ~now =
  let h = held_table t in
  let oldest = ref None in
  let dsts = lazy (List.filter (fun p -> p <> origin) t.others) in
  for seq = s.heard to s.top - 1 do
    match Int_table.find_opt h (key t ~origin ~seq) with
    | Some m when Simtime.(add m.since t.suspect_after <= now) ->
        t.relayed <- t.relayed + 1;
        Rchan.mcast t.chan ~dsts:(Lazy.force dsts) m.rb;
        drop t s ~origin ~seq
    | Some m -> (
        match !oldest with
        | Some o when Simtime.(o <= m.since) -> ()
        | _ -> oldest := Some m.since)
    | None -> ()
  done;
  Option.iter
    (fun since ->
      arm_suspicion t s ~origin ~at:(Simtime.add since t.suspect_after))
    !oldest

(* [origin]'s watermark is at least [stable]: stop holding what it covers. *)
let hear t s ~origin ~stable =
  if stable > s.heard then begin
    for seq = s.heard to min stable s.top - 1 do
      drop t s ~origin ~seq
    done;
    s.heard <- stable;
    if s.count = 0 then begin
      Option.iter Engine.cancel s.timer;
      s.timer <- None
    end
  end

let hold t s ~origin ~seq rb =
  if seq >= s.heard then begin
    Int_table.replace (held_table t) (key t ~origin ~seq) { rb; since = now t };
    s.count <- s.count + 1;
    t.n_held <- t.n_held + 1;
    if seq >= s.top then s.top <- seq + 1;
    if Option.is_none s.timer then
      arm_suspicion t s ~origin ~at:(Simtime.add (now t) t.suspect_after)
  end

(* Deliver [origin]'s next message, then the early arrivals it lets
   through. *)
let rec deliver_next t ~origin payload =
  let seq = t.next.(origin) in
  t.next.(origin) <- seq + 1;
  deliver t ~origin payload;
  if Int_table.length t.early > 0 then begin
    let k = key t ~origin ~seq:(seq + 1) in
    match Int_table.find_opt t.early k with
    | Some p ->
        Int_table.remove t.early k;
        deliver_next t ~origin p
    | None -> ()
  end

let receive t ~src msg =
  match msg with
  | Rb { origin; seq; stable; payload } as rb ->
      let next = t.next.(origin) in
      let fresh =
        seq = next
        || (seq > next && not (Int_table.mem t.early (key t ~origin ~seq)))
      in
      if fresh then t.seen <- t.seen + 1;
      (* Hold before hearing the watermark, so that a stream of
         broadcasts keeps one suspicion timer running instead of
         cancelling and re-arming it for each message. *)
      if not t.passthrough then begin
        let s = origin_state t origin in
        if fresh then hold t s ~origin ~seq rb;
        hear t s ~origin ~stable;
        if src = origin then s.last <- now t
      end;
      if seq = next then deliver_next t ~origin payload
      else if fresh then Int_table.replace t.early (key t ~origin ~seq) payload
  | Stable { origin; stable } ->
      let s = origin_state t origin in
      hear t s ~origin ~stable;
      s.last <- now t
  | _ -> ()

(* After a crash: resend our broadcasts whose copies were still
   unsettled (their chains ended with the crash), and restart the timers
   that fired while we were down. *)
let recover t =
  for seq = t.stable to t.next_seq - 1 do
    let o = t.own.(slot t seq) in
    List.iter
      (fun dst ->
        if Bytes.get o.unsettled dst = '\001' then
          Rchan.send t.chan ~dst o.packet)
      t.others
  done;
  arm_notice t;
  Array.iteri
    (fun origin -> function
      | Some s when s.count > 0 && Option.is_none s.timer ->
          arm_suspicion t s ~origin ~at:(Simtime.add (now t) t.suspect_after)
      | _ -> ())
    t.origins

let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]
let held t = t.n_held
let unstable t = t.next_seq - t.stable
let relayed t = t.relayed
let early t = Int_table.length t.early

let create_group net ~members ?rto () =
  let chan_group = Rchan.create_group net ~nodes:members ?rto () in
  let passthrough = Network.passthrough net in
  let handles = Hashtbl.create 8 in
  let nodes = Network.size net in
  List.iter
    (fun me ->
      let chan = Rchan.handle chan_group ~me in
      let rto = Rchan.rto chan in
      let t =
        {
          net;
          me;
          nodes;
          others = List.filter (fun p -> p <> me) members;
          chan;
          passthrough;
          suspect_after = Simtime.mul rto 10;
          idle_after = Simtime.mul rto 2;
          next_seq = 0;
          next = Array.make nodes 0;
          early = Int_table.create 8;
          seen = 0;
          deliver_cbs = [];
          own = [||];
          stable = 0;
          announced = 0;
          last_sent = Simtime.zero;
          notice = None;
          origins = [||];
          held = None;
          n_held = 0;
          relayed = 0;
        }
      in
      (match Network.timeseries net with
      | Some ts ->
          (* [seen] counts every message ever received, not a backlog —
             a Level, so the queue-growth detector ignores it ... *)
          Timeseries.register ts ~name:"rbcast_seen" ~replica:me
            ~kind:Timeseries.Level ~unit_:"messages" (fun () ->
              float_of_int t.seen);
          (* ... while the held messages are one: a watermark that stops
             advancing makes it grow. *)
          Timeseries.register ts ~name:"rbcast_held" ~replica:me
            ~kind:Timeseries.Queue ~unit_:"messages" (fun () ->
              float_of_int t.n_held)
      | None -> ());
      Rchan.on_deliver chan (fun ~src msg -> receive t ~src msg);
      if not passthrough then begin
        Rchan.on_settled chan (fun ~dst msg ->
            match msg with
            | Rb { origin; seq; _ } when origin = me -> settle t ~seq ~dst
            | _ -> ());
        Network.on_recover net (fun node -> if node = me then recover t)
      end;
      Hashtbl.replace handles me t)
    members;
  { handles }

let handle group ~me = Hashtbl.find group.handles me
