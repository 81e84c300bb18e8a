type impl = Sequencer | Consensus_based

type t = Seq of Abcast_seq.t | Ct of Abcast_ct.t
type group = Gseq of Abcast_seq.group | Gct of Abcast_ct.group

(* [batch_window] only concerns the sequencer engine: the consensus
   engine already batches naturally (every consensus instance decides on
   the full set of pending messages). *)
let create_group net ~members ?clients ?(impl = Sequencer) ?fd ?batch_window
    () =
  match impl with
  | Sequencer ->
      Gseq (Abcast_seq.create_group net ~members ?clients ?fd ?batch_window ())
  | Consensus_based -> Gct (Abcast_ct.create_group net ~members ?clients ?fd ())

let handle group ~me =
  match group with
  | Gseq g -> Seq (Abcast_seq.handle g ~me)
  | Gct g -> Ct (Abcast_ct.handle g ~me)

let broadcast t msg =
  match t with
  | Seq h -> Abcast_seq.broadcast h msg
  | Ct h -> Abcast_ct.broadcast h msg

let broadcast_from group ~src msg =
  match group with
  | Gseq g -> Abcast_seq.broadcast_from g ~src msg
  | Gct g -> Abcast_ct.broadcast_from g ~src msg

let on_deliver t f =
  match t with
  | Seq h -> Abcast_seq.on_deliver h f
  | Ct h -> Abcast_ct.on_deliver h f

let on_opt_deliver t f =
  match t with
  | Seq h -> Abcast_seq.on_opt_deliver h f
  | Ct h -> Abcast_ct.on_opt_deliver h f

let opt_delivered t =
  match t with
  | Seq h -> Abcast_seq.opt_delivered h
  | Ct h -> Abcast_ct.opt_delivered h

let delivered t =
  match t with Seq h -> Abcast_seq.delivered h | Ct h -> Abcast_ct.delivered h
