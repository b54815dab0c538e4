(** The clerk module linked into each Frangipani server (paper §6).

    The clerk caches ("sticky") locks granted by the lock service,
    shares them among local users with reader/writer counting, sends
    [request]/[release] messages, and reacts to [grant]/[revoke].
    Before complying with a revoke it invokes the file system's
    callback so dirty data covered by the lock reaches Petal first.

    It also renews the 30-second lease, detects its own lease expiry
    (after which every operation raises {!Types.Lease_expired}), and
    relays the lock service's request to run recovery for a crashed
    peer. *)

type t

val create :
  rpc:Cluster.Rpc.t ->
  servers:Cluster.Net.addr array ->
  table:string ->
  unit ->
  t
(** Open the lock table: obtains a lease and starts the housekeeping
    daemon. Blocks until some lock server answers. *)

val lease : t -> int
(** The lease identifier (a Frangipani server derives its private log
    position from it, paper §7). *)

val table : t -> string

val set_callbacks :
  ?on_contended:(lock:int -> unit) ->
  t ->
  on_revoke:(lock:int -> to_read:bool -> unit) ->
  on_do_recovery:(dead_lease:int -> unit) ->
  on_expired:(unit -> unit) ->
  unit
(** [on_revoke ~lock ~to_read] must write back dirty data covered by
    [lock] and, unless [to_read] (a downgrade), invalidate cached
    data. [on_do_recovery dead] must replay the dead server's log.
    [on_expired] is invoked once if the lease lapses. [on_contended
    ~lock] fires when a revoke arrives but cannot start because local
    users still hold the lock — the FS layer uses it to shed
    discretionary holds (cancel speculative read-ahead) so a remote
    waiter is not serialised behind a prefetch. *)

val acquire : t -> lock:int -> Types.mode -> unit
(** Block until the lock is held in (at least) the given mode for
    this caller. Local users queue FIFO; the global lock is fetched
    from the lock service when the cached one is insufficient. A
    cached R is upgraded to W in place: it stays held, with its
    cache, while the request waits. The caller must not itself hold
    the lock in R while it waits for W. *)

val release : t -> lock:int -> Types.mode -> unit
(** End a local use. The global lock stays cached (sticky) until
    revoked or idle for {!Types.idle_discard}. *)

val acquire_for_recovery : t -> lock:int -> unit
(** Seize a dead server's (exclusively held) lock — used by the
    recovery demon to take ownership of the victim's log. *)

val holds : t -> lock:int -> Types.mode option
(** The cached global mode. *)

val lease_valid_until : t -> Simkit.Sim.time

val check_lease_margin : t -> bool
(** The §6 hazard check: true iff the lease will still be valid for
    {!Types.lease_margin} — a Frangipani server calls this before
    every write to Petal. *)

type stats = private {
  mutable renew_misses : int;  (** renewal rounds in which no lock server answered *)
  mutable requests : int;  (** lock requests sent, retransmissions included *)
  mutable request_msgs : int;
      (** messages that carried them: requests for one server made in
          one simulated instant share a message *)
}

val stats : t -> stats
(** A copy of the lease-renewal and request counters. A missed renewal round
    triggers an early retry on a 1→8 s exponential backoff rather than
    waiting out the full renew interval, so [renew_misses] counts
    brushes with the §6 expiry path. [requests / request_msgs] is the
    request coalescing factor. *)

val close : t -> unit
(** Release all cached locks and close the table (clean shutdown).
    The caller must have flushed dirty data first. After the lease
    expired it sends nothing: the lease stays until its log is replayed. *)
