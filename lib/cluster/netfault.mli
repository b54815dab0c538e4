(** Deterministic network nemesis over {!Net}: the fault layer the
    nemesis harness (Workloads.Soak, all three profiles) drives.

    Three fault families compose:

    - {b Cuts} — directional link cuts installed via
      {!Net.set_fault_cut} and evaluated at the delivery instant, so
      installing a cut mid-flight drops messages already on the wire
      (the documented Net semantics). {!cut} with [~oneway:true]
      gives asymmetric faults; {!partition} and {!isolate} build the
      usual group splits.
    - {b Loss} — per-link drop probability, sampled once per message
      from a private PRNG seeded at {!create}; same seed, same
      schedule ⇒ bit-identical replay.
    - {b Delay} — fixed extra delay plus uniform jitter per matching
      message, from the same PRNG.

    One nemesis per network: {!create} installs the Net hooks, a
    second [create] on the same net replaces the first. *)

type t

type stats = private {
  mutable cut_drops : int;  (** messages dropped by a cut at delivery time *)
  mutable loss_drops : int;  (** messages dropped by sampled loss *)
  mutable delayed : int;  (** messages given extra delay *)
  mutable events : int;  (** schedule events applied so far *)
}

val create : ?seed:int -> Net.t -> t
(** Install the nemesis hooks on [net]. [seed] (default 42) fixes the
    loss/jitter PRNG independently of the simulation's own RNG. *)

(** {2 Cuts} *)

val cut : ?oneway:bool -> t -> Net.addr -> Net.addr -> unit
(** Cut the [a]↔[b] link (both directions unless [~oneway:true], in
    which case only [a]→[b] traffic is dropped). *)

val heal : t -> Net.addr -> Net.addr -> unit
(** Remove both directions of the [a]↔[b] cut. *)

val partition : t -> Net.addr list -> Net.addr list -> unit
(** Cut every cross link between the two groups, both directions. *)

val isolate : t -> Net.addr -> unit
(** Cut [a] off from every other attached address. *)

val heal_all : t -> unit

(** {2 Loss and delay shaping} *)

val shape :
  ?src:Net.addr ->
  ?dst:Net.addr ->
  ?drop:float ->
  ?delay:Simkit.Sim.time ->
  ?jitter:Simkit.Sim.time ->
  t ->
  unit
(** Push a shaping rule: messages matching [src]/[dst] (omitted =
    wildcard) are dropped with probability [drop], and otherwise
    delayed by [delay] plus uniform jitter in [0, jitter]. Most
    recent rule wins when several match. *)

val clear_shaping : t -> unit

val clear : t -> unit
(** [heal_all] + [clear_shaping]: the no-fault state. *)

(** {2 Scheduling} *)

val schedule : t -> (Simkit.Sim.time * (t -> unit)) list -> unit
(** Spawn a process that applies each [(at, action)] at time
    [now + at] (list must be sorted by [at]). Actions typically call
    {!cut}/{!partition}/{!shape}/{!clear}. *)

val stats : t -> stats
(** A copy of the counters; later faults do not change it. *)
