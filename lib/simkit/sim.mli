(** Discrete-event simulation kernel.

    Processes are ordinary OCaml functions run as cooperative
    coroutines via effect handlers. A process runs until it performs a
    blocking operation ({!sleep}, {!suspend}, or a blocking primitive
    from {!Ivar}, {!Mailbox}, {!Resource}); the engine then advances
    virtual time to the next pending event. All blocking operations
    must be performed from inside {!run}.

    Time is measured in integer nanoseconds of {e simulated} time; a
    63-bit [int] covers ~146 years, far more than any experiment. *)

type time = int
(** Simulated time in nanoseconds. *)

val ns : int -> time
val us : int -> time
val ms : int -> time

val sec : float -> time
(** [sec s] is [s] seconds as a time value (rounded to nanoseconds). *)

val to_sec : time -> float
(** [to_sec t] converts back to floating-point seconds. *)

exception Deadlock of string
(** Raised by {!run} when no events remain but the main process has
    not finished. *)

exception Timed_out
(** Raised by {!run} when the [until] horizon is exceeded. *)

val run : ?seed:int -> ?until:time -> (unit -> 'a) -> 'a
(** [run main] creates a fresh engine, runs [main] as the initial
    process and drives the event loop until [main] returns. Processes
    still pending at that point are abandoned (useful for daemons).
    [seed] makes the simulation deterministic (default 42). *)

val now : unit -> time
(** Current simulated time. *)

val sleep : time -> unit
(** Block the calling process for a simulated duration. *)

val spawn : ?name:string -> (unit -> unit) -> unit
(** Start a new process at the current instant. The spawner continues
    immediately; the child runs when the scheduler next picks it. An
    exception escaping a process aborts the whole simulation. Unlike
    blocking operations, [spawn] may also be called from event
    callbacks running outside any process ({!at}, timer bodies are
    started through it internally). *)

val fork_join : ('a -> unit) -> 'a list -> unit
(** [fork_join f xs] spawns one process running [f x] for each [x]
    of [xs], in list order, at the current instant, and blocks until
    all of them have returned: the call returns at the instant the
    last child finishes. On [[]] it returns at once and spawns
    nothing. Results flow back through state that [f] closes over. An
    exception escaping a child does not reach the caller: as from any
    process, it aborts the whole simulation. *)

val at : time -> (unit -> unit) -> unit
(** [at t f] schedules callback [f] at absolute instant [t] (clamped
    to now if in the past). [f] runs {e outside any process} and must
    not block — it may spawn, send, fill ivars, or schedule further
    callbacks. This is the allocation-lean alternative to
    [spawn (fun () -> sleep (t - now ()); f ())]: one heap event, no
    fiber. *)

val suspend : (('a -> unit) -> unit) -> 'a
(** [suspend f] blocks the calling process and hands [f] a resumer
    function; calling the resumer (at most once) with a value
    reschedules the process at the instant of the call. This is the
    primitive from which all blocking abstractions are built.

    [f] runs synchronously at suspension time, outside any process:
    it must only register the resumer (no blocking, no effects). Work
    that must happen after registration belongs in a process spawned
    {e before} calling [suspend]. *)

val rng : unit -> Random.State.t
(** The engine's deterministic random state. *)

val random_float : float -> float
val random_int : int -> int

type stats = {
  events : int;  (** events executed (cancelled skips excluded) *)
  spawns : int;  (** processes started *)
  skipped : int;  (** lazily-cancelled events discarded at pop *)
  heap_len : int;  (** events currently pending *)
}

val stats : unit -> stats
(** Kernel counters: inside {!run}, the live counters of the current
    engine; outside, those of the most recently finished run. The
    [events] count divided by host wall-clock time is the simulator's
    events/sec — the capacity metric the scale experiments gate on. *)

(** Write-once synchronisation variable. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  val fill : 'a t -> 'a -> unit
  (** Fill the ivar and wake all readers. Raises [Invalid_argument]
      if already filled. *)

  val read : 'a t -> 'a
  (** Block until filled, then return the value. *)

  val peek : 'a t -> 'a option
  val is_filled : 'a t -> bool
end

(** Unbounded FIFO channel with blocking receive. *)
module Mailbox : sig
  type 'a t

  val create : unit -> 'a t
  val send : 'a t -> 'a -> unit

  val recv : 'a t -> 'a
  (** Block until a message is available. Messages are delivered in
      FIFO order; blocked receivers are served in FIFO order. *)

  val length : 'a t -> int
end

(** FIFO [k]-server queueing resource; models CPUs, disk arms and
    network links, with utilisation accounting. *)
module Resource : sig
  type t

  val create : ?capacity:int -> string -> t
  (** [create name] makes a resource with [capacity] servers
      (default 1). [name] appears in statistics output. *)

  val acquire : t -> unit
  (** Block until one of the servers is free, then occupy it. *)

  val acquire_cb : t -> (unit -> unit) -> unit
  (** Callback-style acquire: run [k] as soon as a server is free —
      synchronously if one is free now, otherwise from the releasing
      context when this waiter reaches the head of the FIFO queue.
      [k] must not block (it may spawn). Pairs with {!release} exactly
      like {!acquire}; used by event-chain code that has no process of
      its own. *)

  val release : t -> unit

  val use : t -> time -> unit
  (** [use r d] = acquire, hold for [d] simulated time, release. *)

  val reserve : t -> time -> time
  (** [reserve r d] models FIFO store-and-forward occupancy without a
      waiting process: the work starts when the resource frees up
      ([max now free_at]), holds it for [d], and the new completion
      instant is returned (and becomes the next caller's earliest
      start). O(1), no queue, no suspension — the caller chains an
      {!at} callback on the returned instant. Busy-time accounting is
      credited immediately, so {!utilization} stays meaningful, but a
      resource must not mix [reserve] with [acquire]/[use]: the two
      disciplines do not see each other's occupancy. Capacity is
      treated as 1 pipe. *)

  val name : t -> string

  val reset_stats : t -> unit
  (** Restart utilisation accounting at the current instant. *)

  val utilization : t -> float
  (** Mean fraction of servers busy since the last {!reset_stats}
      (or creation). In [0, 1]. *)

  val busy_time : t -> time
  (** Total busy server-time accumulated since the last reset. *)
end

(** Broadcast condition: many waiters, woken all at once. *)
module Condition : sig
  type t

  val create : unit -> t

  val wait : t -> unit
  (** Block until the next {!broadcast}. *)

  val broadcast : t -> unit
end

(** Cancellable one-shot timers. *)
module Timer : sig
  type t

  val after : time -> (unit -> unit) -> t
  (** [after d f] runs [f] as a new process [d] from now unless
      cancelled first. *)

  val cancel : t -> unit
  val is_pending : t -> bool
end
