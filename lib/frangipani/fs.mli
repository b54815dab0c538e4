(** The Frangipani file server module: the public file-system API.

    Each {!t} is one Frangipani server — one mount of a shared Petal
    virtual disk, coordinated with every other mount through the
    distributed lock service. All servers see one coherent file tree
    (§2.1): changes made on one machine are immediately visible on
    all others, with the same guarantees as a local Unix file system
    (data is staged through the cache and reaches non-volatile
    storage on the next sync/fsync; metadata is logged).

    Files and directories are named by inode numbers ([inum]); the
    root directory is {!root}. Operations raise {!Errors.Error}. *)

type t = Ctx.t

type stats = {
  inum : int;
  itype : Ondisk.itype;
  size : int;
  nlink : int;
  mtime : int;
  ctime : int;
  atime : int;
}

val root : int
(** The root directory's inode number (0). *)

val format : Petal.Client.vdisk -> unit
(** One-time initialisation of a fresh virtual disk: superblock and
    an empty root directory. *)

val mount :
  host:Cluster.Host.t ->
  rpc:Cluster.Rpc.t ->
  vd:Petal.Client.vdisk ->
  lock_servers:Cluster.Net.addr array ->
  ?table:string ->
  ?config:Ctx.config ->
  ?readonly:bool ->
  unit ->
  t
(** Add this machine as a Frangipani server (§7: it needs only the
    virtual disk and the lock service; no other server is touched).
    Opens the lock table (default ["fs0"]), derives its private log
    slot from the lease, clears and locks that log, and starts the
    sync demon. [readonly] mounts snapshots (no log, no writes). *)

val unmount : t -> unit
(** Flush everything, release locks, close the lease — the clean
    removal of §7. *)

val crash : t -> unit
(** Crash the server's host: volatile state (cache, log tail,
    clerk) is lost; recovery will eventually run on another server. *)

(* --- namespace operations --------------------------------------------- *)

val create : t -> dir:int -> string -> int
(** Create a regular file; returns its inum. *)

val mkdir : t -> dir:int -> string -> int
val symlink : t -> dir:int -> string -> target:string -> int

val lookup : t -> dir:int -> string -> int
(** Raises [Enoent] if absent. ["."] resolves to [dir] itself. *)

val readdir : t -> int -> (string * int) list
(** The directory's entries. Moves its approximate atime only when this
    server holds the directory's lock exclusively (a cached write lock);
    under a shared hold the inode is left clean. *)

val readlink : t -> int -> string

val link : t -> dir:int -> string -> inum:int -> unit
(** Hard-link a regular file or symlink under a new name. *)

val unlink : t -> dir:int -> string -> unit
(** Remove a file or symlink entry; frees the inode and blocks when
    the last link goes. *)

val rmdir : t -> dir:int -> string -> unit

val rename : t -> sdir:int -> string -> ddir:int -> string -> unit
(** Atomic rename, overwriting a compatible destination if present.
    Uses the two-phase sorted-lock protocol of §5. Cycle prevention
    for directory renames is the caller's (path layer's) concern. *)

(* --- file I/O ----------------------------------------------------------- *)

val read : t -> int -> off:int -> len:int -> bytes
(** Read up to [len] bytes at [off] (clamped at end-of-file). Moves
    the approximate atime only when this server holds the file's lock
    exclusively (a cached write lock); under a shared hold the inode is
    left clean. A sequential read triggers read-ahead if configured,
    with a window that ramps from a quarter of [read_ahead] to all of
    it along the sequential run; the first read after a revoke that
    invalidated the file's cache does not. A negative [off] fails with
    [Einval]. *)

val write : t -> int -> off:int -> bytes -> unit
(** Write [data] at [off], extending the file as needed. A negative
    [off] fails with [Einval]. *)

val truncate : t -> int -> size:int -> unit
val stat : t -> int -> stats

val fsync : t -> int -> unit
(** Force the log and the file's dirty data to Petal (§2.1). *)

val sync : t -> unit
(** The 30-second update demon's work: log first, then all dirty
    blocks. *)

(* --- introspection ------------------------------------------------------ *)

val host : t -> Cluster.Host.t
val log_slot : t -> int
val cache_stats : t -> int * int

val wal_stats : t -> Wal.wal_stats
(** This server's log-flush counters (groups, appends made during a
    flush, log-pressure stalls, reclaim rounds, waits). *)

val petal_stats : t -> Petal.Client.stats
(** This server's Petal driver counters (op counts, simulated time,
    piece and RPC accounting) — lets tests assert a cold sequential
    read costs O(chunks) RPCs and a write-back one RPC per touched
    chunk. *)

val net_stats : t -> Cluster.Rpc.stats
(** The machine's RPC endpoint counters (attempts, timeouts, retries,
    duplicate suppressions). *)

val lease_stats : t -> Locksvc.Clerk.stats
(** Lease-renewal counters from this mount's lock clerk. *)

val is_poisoned : t -> bool

type recovery_stats = Ctx.recovery_stats = private {
  mutable replays : int;  (** recovery replays started on this server *)
  mutable diffs_applied : int;
  mutable diffs_skipped : int;
      (** superseded by a newer diff of the sector, or already on disk
          (version check) *)
  mutable torn_tails : int;  (** replays whose log ended in a torn record *)
}

val recovery_stats : t -> recovery_stats
(** A copy of the counters from this server's recovery demon (replays
    of other servers' logs it has performed). *)

val drop_caches : t -> unit
(** Evict all clean cached blocks (used by the uncached-read
    experiments, Figure 6) and give back the fresh-inode batch whose
    sectors they held. *)

(** {2 Fault injection}

    These deliberately violate invariants to give {!Fsck} something
    to find; never call them for real work. *)

val unlink_entry_only_for_test : t -> dir:int -> string -> unit
(** Remove a directory entry {e without} freeing its target: creates
    an orphan inode. *)

val corrupt_nlink_for_test : t -> int -> int -> unit
(** Overwrite an inode's link count. *)
