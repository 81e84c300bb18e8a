(** Transaction generator: zipfian key choice, configurable update mix.
    Updates are read-modify-writes ([Incr]) so that every update creates
    a real conflict on its item — the worst case the paper's techniques
    are designed around. *)

type t

val create : ?seed:int -> Spec.t -> t

(** [for_spec spec ~seed] is [create ~seed spec]. Partially applied to
    [spec], it builds the key samplers once: they depend on the spec
    alone, so the generators it makes share them. *)
val for_spec : Spec.t -> seed:int -> t

(** One transaction for [client], numbered with [net]'s next rid; the
    boolean flags whether it is an update transaction. A transaction is
    all-update or all-read (the usual OLTP mix model); with [Spec.Tpcb]
    updates are two-key transfers and reads two-key balance probes.
    [at] is the submission's virtual time — during a declared
    flash-crowd window the keys come from the spike's rotated hot-set
    sampler; omitted (or outside the window) the steady sampler is used,
    so pre-flash-crowd call sites are unchanged. *)
val request :
  ?at:Sim.Simtime.t ->
  t ->
  Sim.Network.t ->
  client:int ->
  bool * Store.Operation.request
