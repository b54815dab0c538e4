(** A machine in the cluster: a CPU resource, liveness state and an
    incarnation number bumped on every restart.

    Crashing a host discards its volatile state: registered crash
    hooks run so that components (caches, in-memory log tails, lock
    clerks) can drop theirs, and every service loop is expected to
    compare its saved incarnation against the current one and exit
    when stale. *)

type t

exception Crashed of string
(** Raised by operations attempted on a crashed host. *)

val create : string -> t
(** One single-core machine, like the paper's DEC Alpha servers. *)

val name : t -> string
val is_alive : t -> bool

val incarnation : t -> int
(** Bumped by {!restart}; service loops use it to detect staleness. *)

val check : t -> unit
(** Raise {!Crashed} if the host is down. *)

val consume : t -> Simkit.Sim.time -> unit
(** Occupy one CPU core for the given duration (queueing FIFO with
    other work on this host). Raises {!Crashed} if the host is down
    when the work would start. *)

val cpu : t -> Simkit.Sim.Resource.t
(** The CPU resource, for utilisation measurements (Table 3). *)

val on_crash : t -> (unit -> unit) -> unit
(** Register a hook run at crash time (volatile-state teardown). *)

val crash : t -> unit
val restart : t -> unit

val guard : t -> int -> bool
(** [guard h inc] is true while the host is alive and still in
    incarnation [inc] — the condition under which a service loop
    started in incarnation [inc] may keep running. *)
