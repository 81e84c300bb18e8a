(** Two-phase commit (paper §4.3–§4.4, [GR93]).

    The coordinator sends PREPARE to every participant; each participant
    votes by consulting the [vote] function supplied at group creation; on
    unanimous yes the coordinator broadcasts COMMIT, otherwise ABORT, and
    each participant's [learn] function fires with the decision.

    The protocol is deliberately {e blocking}, as the paper notes database
    protocols are (§2.1): if the coordinator crashes after PREPARE and
    never comes back, the prepared participants wait indefinitely — no
    third party can decide for them. A cooperative {e termination
    protocol} covers the recoverable cases: an in-doubt participant (voted
    YES, decision never arrived — its channel parked towards a
    coordinator that was down or cut off) re-requests the decision from
    the coordinator, which answers from its durable outcome log: every
    [participant_timeout], at most four times with no 2PC message
    received in between (any message refills them), and again when it
    recovers itself. A recovering coordinator's channels resend the
    decisions they still hold, so the in-doubt window closes whenever
    the coordinator recovers, or is reachable again while the group
    talks; the participants of a permanently dead coordinator stay
    blocked, and stop asking.
    Participants that are unreachable are treated according to
    [participant_timeout]: when set, the coordinator counts a missing
    vote as a NO after that delay (presumed abort) and the same period
    paces the participants' decision re-requests; when [None], the
    coordinator blocks too and participants never re-ask. *)

type decision = Commit | Abort

type group

val create_group :
  Sim.Network.t ->
  nodes:int list ->
  ?participant_timeout:Sim.Simtime.t ->
  vote:(me:int -> txn:int -> bool) ->
  learn:(me:int -> txn:int -> decision -> unit) ->
  unit ->
  group

(** Run one 2PC round. [on_complete] fires at the coordinator once the
    decision is made (before all participants have necessarily learned
    it — they learn via their [learn] callback). *)
val start :
  group ->
  coordinator:int ->
  participants:int list ->
  txn:int ->
  on_complete:(decision -> unit) ->
  unit

(** Number of rounds decided [Commit] / [Abort] (stats, tests). *)
val commits : group -> int

val aborts : group -> int

(** The transactions [me] has voted YES for without yet learning the
    decision, in no particular order. A node with in-doubt transactions
    holds an incomplete view of the committed state — state-transfer
    donors use this to defer snapshots until the doubt resolves. *)
val in_doubt : group -> me:int -> int list
