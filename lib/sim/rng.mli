(** Deterministic pseudo-random number generation (splitmix64).

    Every source of randomness in the simulator flows through one of these
    generators so that a run is a pure function of its seed. *)

type t

val create : seed:int -> t

(** [split t] derives an independent generator from [t]; [t] advances. *)
val split : t -> t

(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)
val int : t -> int -> int

(** [range t lo hi] is uniform in [\[lo, hi\]] inclusive. *)
val range : t -> int -> int -> int

(** [float t bound] is uniform in [\[0, bound)]. *)
val float : t -> float -> float

val bool : t -> bool

(** [exponential t ~mean] draws from Exp(1/mean). *)
val exponential : t -> mean:float -> float

(** Zipfian sampler over [\[0, n)] with skew [theta] (0 = uniform). *)
module Zipf : sig
  type sampler

  val make : n:int -> theta:float -> sampler
  val draw : t -> sampler -> int
end
