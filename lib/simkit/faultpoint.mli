(** Deterministic crash/delay/error injection sites.

    Subsystems mark their durability boundaries with {!hit}
    (disabled: one branch, no allocation, no perturbation of the
    simulation schedule). A test enables the registry, runs a
    workload once to {e count} the hits, then re-runs it with an
    action {e armed} at hit [k]: because the simulation is
    deterministic under one seed and counting performs no effects,
    the armed run replays the counting run exactly up to hit [k] —
    so the two-pass sweep enumerates every intermediate crash point
    of the workload.

    The registry is deliberately global (sites live in library code
    across simkit, blockdev, petal, frangipani); call {!reset} at
    the start of each [Sim.run] that uses it. When no test ever
    calls {!enable}, every hook is inert.

    Actions are one-shot. [Crash f] calls [f site] inline (the
    callback typically crashes a host — it must not block). [Raise]
    raises from the hitting process: only arm it at sites whose
    callers handle the exception (e.g. ["recovery.apply"]); raising
    inside a server's request handler would abort the simulation.
    [Delay] sleeps the hitting process, perturbing schedules. *)

type action =
  | Crash of (string -> unit)  (** called with the site name, inline *)
  | Raise of exn  (** raised from the process that hit the site *)
  | Delay of Sim.time  (** sleep the hitting process *)

val reset : unit -> unit
(** Disable and forget all counters and armed actions. *)

val enable : unit -> unit

val hit : string -> unit
(** Mark one dynamic occurrence of a named site. Counts it (when
    enabled) and performs any action armed for this global hit
    number or this site's hit number. *)

val total : unit -> int
(** Dynamic hits across all sites since {!reset}. *)

val count : string -> int
val counts : unit -> (string * int) list
(** Per-site hit counts, sorted by site name. *)

val arm : at:int -> action -> unit
(** Fire when the global hit counter reaches [at] (1-based). *)

val arm_site : string -> at:int -> action -> unit
(** Fire on the [at]-th hit of one named site. *)
