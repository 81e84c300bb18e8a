open Sim

(* [held] and [above] acknowledge the reverse link: every seq below
   [held] has arrived, and so has each seq in [above]. [held = 0] with
   [above = []] acknowledges nothing. *)
type Msg.t +=
  | Data of {
      gid : int;
      src : int;
      seq : int;
      payload : Msg.t;
      held : int;
      above : int list;
    }
  | Ack of { gid : int; held : int; above : int list }

let () =
  Msg.wrapper [%extension_constructor Data] "Data" (function
    | Data { payload; _ } -> payload
    | _ -> assert false)

(* A sent message still waiting for its ack: the packet, where it goes,
   how many retransmits it has spent since its chain (re)started, and
   its next retransmit: the key (due, seq) it fires at and the context
   it was first sent under. A retransmit keeps that context, as a timer
   armed under it would. [settled]: [on_settled] has reported it. *)
type unacked = {
  packet : Msg.t;
  dst : int;
  mutable retries : int;
  mutable due : Simtime.t;
  mutable seq : int; (* claimed with [Engine.claim_seq] *)
  ctx : Engine.ctx option;
  mutable acked : bool;
  mutable settled : bool;
}

(* Fills the ring slots nothing occupies, so that popped entries (and
   their packets) are not kept reachable. *)
let vacant =
  {
    packet = Ack { gid = -1; held = 0; above = [] };
    dst = -1;
    retries = 0;
    due = Simtime.zero;
    seq = -1;
    ctx = None;
    acked = true;
    settled = true;
  }

(* The state of a link, made when it first needs some. As receiver:
   every seq below [held] has arrived from the peer (as of the last ack
   built), [above] holds the seqs at or above it that arrived since,
   [owed] says an ack is due and [owed_ctx] is the context of the
   message that made it due. As sender: [acked] is how far the peer's
   cumulative acks reach, [heard] when the peer was last heard from on
   any layer, and [parked] whether the link has parked ([probe]). *)
type link = {
  peer : int;
  mutable held : int;
  mutable above : int list;
  mutable owed : bool;
  mutable owed_ctx : Engine.ctx option;
  mutable acked : int;
  mutable heard : Simtime.t;
  mutable parked : bool;
  mutable probe : Engine.timer option;
}

(* Sequence numbers are per link (sender, receiver). Per-link tables are
   keyed by [link_key t seq peer = seq * nodes + peer], one int per
   (peer, seq) pair. *)
type t = {
  net : Network.t;
  gid : int;
  me : int;
  nodes : int; (* endpoints of the network: peers are [0 .. nodes-1] *)
  rto : Simtime.t;
  passthrough : bool;
  (* Sender side: next seq towards each destination, and the un-acked
     messages keyed by (dst, seq). *)
  next_seq : int array;
  unacked : unacked Int_table.t;
  (* The retransmit ring: the entries whose chains still run, in (due,
     seq) order, as a circular buffer of [len] entries from [first]
     (capacity a power of two). Acked entries stay until they reach the
     head. One engine timer, [armed], waits at the head's key, and
     [fire] is the action it runs. *)
  mutable ring : unacked array;
  mutable first : int;
  mutable len : int;
  mutable armed : Engine.timer option;
  mutable fire : unit -> unit;
  mutable listening : bool; (* [hear] is registered *)
  (* Receiver side: the per-origin seqs delivered so far. *)
  seen : Dedup.t;
  (* Ack state by peer ([[||]] until the first link needs some, which
     keeps building a group's endpoints cheap). [owing] of them owe
     one; [owed_links] lists them, newest first, with links paid since;
     [owing_since] is when the endpoint last went from owing nothing to
     owing something. One engine timer, armed while [ack_armed], sends
     what is still owed [ack_delay] after that. *)
  mutable links : link option array;
  ack_delay : Simtime.t;
  mutable owing : int;
  mutable owed_links : link list;
  mutable owing_since : Simtime.t;
  mutable ack_armed : bool;
  mutable deliver_cbs : (src:int -> Msg.t -> unit) list; (* in order *)
  mutable settled_cbs : (dst:int -> acked:bool -> Msg.t -> unit) list;
      (* in order *)
}

type group = { handles : (int, t) Hashtbl.t }

let link_key t seq peer = (seq * t.nodes) + peer

let deliver t ~src payload = List.iter (fun f -> f ~src payload) t.deliver_cbs

(* [u] is acked ([acked]) or parked towards a silent peer: report it
   once, so a late ack of a parked message reports nothing. An endpoint
   with no [on_settled] callback skips all of it. *)
let settle t u ~acked =
  match (t.settled_cbs, u.packet) with
  | [], _ -> ()
  | cbs, Data { payload; _ } when not u.settled ->
      u.settled <- true;
      List.iter (fun f -> f ~dst:u.dst ~acked payload) cbs
  | _ -> ()

let link t peer =
  if Array.length t.links = 0 then t.links <- Array.make t.nodes None;
  match t.links.(peer) with
  | Some l -> l
  | None ->
      let l =
        {
          peer;
          held = 0;
          above = [];
          owed = false;
          owed_ctx = None;
          acked = 0;
          heard = Simtime.zero;
          parked = false;
          probe = None;
        }
      in
      t.links.(peer) <- Some l;
      l

(* The entries [t] still holds towards [l]'s peer, in seq order. *)
let held t l =
  Seq.filter_map
    (fun seq -> Int_table.find_opt t.unacked (link_key t seq l.peer))
    (Seq.init (t.next_seq.(l.peer) - l.acked) (( + ) l.acked))

(* --- the retransmit ring ----------------------------------------------- *)

let push t u =
  let cap = Array.length t.ring in
  if t.len = cap then begin
    let ring = Array.make (max 8 (2 * cap)) vacant in
    for i = 0 to t.len - 1 do
      ring.(i) <- t.ring.((t.first + i) land (cap - 1))
    done;
    t.ring <- ring;
    t.first <- 0
  end;
  t.ring.((t.first + t.len) land (Array.length t.ring - 1)) <- u;
  t.len <- t.len + 1

let pop t =
  let u = t.ring.(t.first) in
  t.ring.(t.first) <- vacant;
  t.first <- (t.first + 1) land (Array.length t.ring - 1);
  t.len <- t.len - 1;
  u

(* Drop the acked entries at the head, then arm the timer at the key of
   the first entry left. *)
let rec arm_head t =
  if t.len = 0 then t.armed <- None
  else
    let u = t.ring.(t.first) in
    if u.acked then begin
      ignore (pop t);
      arm_head t
    end
    else
      t.armed <-
        Some
          (Engine.schedule_claimed (Network.engine t.net)
             ~label:"rchan:retransmit" ~at:u.due ~seq:u.seq t.fire)

(* Keep the ring entries [keep] accepts; the caller moves the timer. *)
let filter_ring t keep =
  let mask = Array.length t.ring - 1 in
  let kept = ref 0 in
  for i = 0 to t.len - 1 do
    let u = t.ring.((t.first + i) land mask) in
    t.ring.((t.first + i) land mask) <- vacant;
    if keep u then begin
      t.ring.((t.first + !kept) land mask) <- u;
      incr kept
    end
  done;
  t.len <- !kept

let resend t u ~retries =
  let engine = Network.engine t.net in
  u.retries <- retries;
  Engine.set_ctx engine u.ctx;
  Network.send t.net ~src:t.me ~dst:u.dst u.packet;
  u.due <- Simtime.add (Engine.now engine) t.rto;
  u.seq <- Engine.claim_seq engine;
  push t u

(* --- parking ------------------------------------------------------------- *)

(* Retransmits of a message before its link parks towards a peer
   silent as long: ten timeouts, the failure detector's default. *)
let patience = 10

(* Probes of a parked link, at gaps doubling from [patience] timeouts,
   the last 12.7 s after the park at the default: a peer only cut off,
   that nobody talks to, is found if the cut heals by then. *)
let probes = 7

let rec arm_probe t l k =
  let engine = Network.engine t.net in
  l.probe <-
    Some
      (Engine.schedule engine ~label:"rchan:probe"
         ~after:(Simtime.mul t.rto (patience lsl k))
         (fun () ->
           (match held t l () with
           | Seq.Cons (u, _) ->
               Engine.set_ctx engine u.ctx;
               Network.send t.net ~src:t.me ~dst:u.dst u.packet
           | Seq.Nil -> ());
           if k + 1 < probes then arm_probe t l (k + 1)))

(* [l]'s peer is taken to be down. *)
let park t l =
  l.parked <- true;
  Seq.iter (fun u -> settle t u ~acked:false) (held t l);
  filter_ring t (fun u -> u.dst <> l.peer);
  arm_probe t l 0

let resume t l =
  l.parked <- false;
  Option.iter Engine.cancel l.probe;
  let engine = Network.engine t.net in
  let ctx = Engine.ctx engine and empty = t.len = 0 in
  Seq.iter (resend t ~retries:0) (held t l);
  Engine.set_ctx engine ctx;
  if empty && t.len > 0 then arm_head t

(* [src] was heard from: a link parked towards it resumes, once the
   delivery under way has applied the acks it carries. *)
let hear t src =
  let l = link t src and engine = Network.engine t.net in
  l.heard <- Engine.now engine;
  if l.parked then
    ignore
      (Engine.schedule engine ~label:"rchan:resume" ~after:Simtime.zero
         (fun () -> if l.parked && Network.alive t.net t.me then resume t l))

(* The armed timer: handles the head entry at its key, as a timer of its
   own would. An entry that has spent its patience on a peer silent as
   long parks its link; any other goes again. Hearing is registered at
   the first retransmit, [patience] timeouts before any park. *)
let fire t () =
  let u = pop t in
  if not t.listening then begin
    t.listening <- true;
    Network.on_hear t.net t.me (hear t)
  end;
  let l = link t u.dst and now = Engine.now (Network.engine t.net) in
  if u.retries >= patience && Simtime.(sub now l.heard >= mul t.rto patience)
  then park t l
  else resend t u ~retries:(u.retries + 1);
  arm_head t

(* Our node crashed: every chain stops until the recovery. *)
let down t =
  Option.iter Engine.cancel t.armed;
  filter_ring t (fun _ -> false);
  Array.iter (Option.iter (fun l -> Option.iter Engine.cancel l.probe)) t.links

let up t = Array.iter (Option.iter (resume t)) t.links

(* --- acknowledgements ---------------------------------------------------- *)

(* What [l]'s ack says now; paying it clears the debt. The seqs in
   [above] that the contiguous prefix has since reached are dropped. *)
let pay t l =
  let held = Dedup.prefix t.seen ~origin:l.peer ~from:l.held in
  l.held <- held;
  let above = List.filter (fun s -> s >= held) l.above in
  l.above <- [];
  l.owed <- false;
  t.owing <- t.owing - 1;
  if t.owing = 0 then t.owed_links <- [];
  (held, above)

(* The ack timer: sends each link's ack still owed as an [Ack] of its
   own, once [ack_delay] has passed since the endpoint began owing. A
   timer armed for debts paid since waits for the current ones. *)
let rec send_owed t () =
  t.ack_armed <- false;
  if t.owing > 0 then begin
    let due = Simtime.add t.owing_since t.ack_delay in
    if Simtime.(Engine.now (Network.engine t.net) < due) then arm_acks t due
    else
      List.iter
        (fun l ->
          if l.owed then begin
            let ctx = l.owed_ctx in
            let held, above = pay t l in
            Engine.set_ctx (Network.engine t.net) ctx;
            Network.send t.net ~src:t.me ~dst:l.peer
              (Ack { gid = t.gid; held; above })
          end)
        (List.rev t.owed_links)
  end

and arm_acks t at =
  t.ack_armed <- true;
  ignore
    (Engine.schedule_at (Network.engine t.net) ~label:"rchan:ack" ~at
       (send_owed t))

(* [seq] arrived from [peer]: owe [peer] a cumulative ack. *)
let owe t ~peer seq =
  let l = link t peer in
  if seq >= l.held then l.above <- seq :: l.above;
  if not l.owed then begin
    l.owed <- true;
    l.owed_ctx <- Engine.ctx (Network.engine t.net);
    t.owed_links <- l :: t.owed_links;
    if t.owing = 0 then begin
      t.owing_since <- Engine.now (Network.engine t.net);
      if not t.ack_armed then arm_acks t (Simtime.add t.owing_since t.ack_delay)
    end;
    t.owing <- t.owing + 1
  end

(* [u] is acked: forget it and report it. The caller moves the timer
   on if [u] was at the head of the ring. *)
let ack t key u =
  settle t u ~acked:true;
  u.acked <- true;
  Int_table.remove t.unacked key

(* Apply an ack from [peer]: every seq below [held] and each one in
   [above]. The timer moves once, after all of them. *)
let take_acks t ~peer ~held ~above =
  let head = if t.len > 0 then t.ring.(t.first) else vacant in
  let ack_seq seq =
    let key = link_key t seq peer in
    match Int_table.find_opt t.unacked key with
    | Some u -> ack t key u
    | None -> ()
  in
  if held > 0 then begin
    let l = link t peer in
    while l.acked < held do
      ack_seq l.acked;
      l.acked <- l.acked + 1
    done
  end;
  List.iter ack_seq above;
  if head.acked && head != vacant then begin
    Option.iter Engine.cancel t.armed;
    arm_head t
  end

(* --- sending ---------------------------------------------------------- *)

(* A message to our own node never touches the network: a zero-delay
   event delivers it, and only while we are up. *)
let send_self t msg =
  if Network.alive t.net t.me then
    ignore
      (Engine.schedule (Network.engine t.net) ~label:"rchan:self"
         ~after:Simtime.zero
         (Network.guard t.net t.me (fun () -> deliver t ~src:t.me msg)))

let send_data t ~dst msg =
  let seq = t.next_seq.(dst) and l = link t dst in
  t.next_seq.(dst) <- seq + 1;
  let held, above = if l.owed then pay t l else (0, []) in
  let packet =
    Data { gid = t.gid; src = t.me; seq; payload = msg; held; above }
  in
  Network.send t.net ~src:t.me ~dst packet;
  if not t.passthrough then begin
    let engine = Network.engine t.net in
    let u =
      {
        packet;
        dst;
        retries = 0;
        due = Simtime.add (Engine.now engine) t.rto;
        seq = -1;
        ctx = Engine.ctx engine;
        acked = false;
        settled = false;
      }
    in
    Int_table.replace t.unacked (link_key t seq dst) u;
    (* A parked link sends it once, and a crashed node not at all: its
       chain starts when the link resumes. *)
    if l.parked then settle t u ~acked:false
    else if Network.alive t.net t.me then begin
      u.seq <- Engine.claim_seq engine;
      push t u;
      if t.len = 1 then arm_head t
    end
  end

let send t ~dst msg =
  if dst = t.me then send_self t msg else send_data t ~dst msg

let mcast t ~dsts msg = List.iter (fun dst -> send t ~dst msg) dsts
let on_deliver t f = t.deliver_cbs <- t.deliver_cbs @ [ f ]
let on_settled t f = t.settled_cbs <- t.settled_cbs @ [ f ]
let rto t = t.rto

let default_rto = Simtime.of_ms 10

(* Retransmits until the park, [patience] of them plus one, then the
   probes' gaps. *)
let quiet_after =
  Simtime.mul default_rto (patience + 1 + (patience * ((1 lsl probes) - 1)))

let create_group net ~nodes ?(rto = default_rto) () =
  let gid = Network.fresh_id net in
  let handles = Hashtbl.create 8 in
  let size = Network.size net in
  List.iter
    (fun me ->
      let t =
        {
          net;
          gid;
          me;
          nodes = size;
          rto;
          passthrough = Network.passthrough net;
          next_seq = Array.make size 0;
          unacked = Int_table.create 32;
          ring = [||];
          first = 0;
          len = 0;
          armed = None;
          fire = ignore;
          listening = false;
          seen = Dedup.create ~nodes:size;
          links = [||];
          ack_delay = Simtime.of_us (Simtime.to_us rto / 2);
          owing = 0;
          owed_links = [];
          owing_since = Simtime.zero;
          ack_armed = false;
          deliver_cbs = [];
          settled_cbs = [];
        }
      in
      t.fire <- fire t;
      (match Network.timeseries net with
      | Some ts ->
          Timeseries.register ts ~name:"rchan_unacked" ~replica:me
            ~kind:Timeseries.Queue ~unit_:"messages" (fun () ->
              float_of_int (Int_table.length t.unacked))
      | None -> ());
      Network.add_handler net me (fun ~src msg ->
          match msg with
          | Data { gid = g; src = origin; seq; payload; held; above }
            when g = gid ->
              if not t.passthrough then begin
                if held > 0 || above <> [] then
                  take_acks t ~peer:src ~held ~above;
                owe t ~peer:src seq
              end;
              if Dedup.fresh t.seen ~origin ~seq then
                deliver t ~src:origin payload;
              true
          | Ack { gid = g; held; above } when g = gid ->
              (* [src] is the receiver the acked messages were sent to. *)
              take_acks t ~peer:src ~held ~above;
              true
          | _ -> false);
      Hashtbl.replace handles me t)
    nodes;
  if not (Network.passthrough net) then begin
    Network.on_crash net (fun node ->
        Option.iter down (Hashtbl.find_opt handles node));
    Network.on_recover net (fun node ->
        Option.iter up (Hashtbl.find_opt handles node))
  end;
  { handles }

let handle group ~me = Hashtbl.find group.handles me
