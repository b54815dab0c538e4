(** The Petal "device driver": makes the distributed virtual disk
    look like an ordinary local disk to its host (paper §2.1).

    It routes each chunk request to the responsible server under the
    cluster's Paxos-agreed ownership map, fails over to the replica
    on timeout, and hides striping entirely. All offsets and lengths
    must be 512-byte aligned; requests may span chunk boundaries and
    are split internally.

    I/O blocks like a local disk's, but fans out inside the call:
    {!read_runs} and {!write_runs} submit every chunk piece of every
    extent at once (each piece failing over to its replica
    independently), then return when the last piece lands or raise
    the first piece's failure without waiting for the rest.
    Submission applies backpressure — at most 64 pieces (4 MB, the
    write-behind window of §4) are outstanding per driver, so a flood
    of writes blocks the submitter rather than growing unbounded
    queues.

    Reconfiguration: every data request carries the map epoch the
    client routed under. A server whose committed map differs rejects
    with [Wrong_epoch]; the driver then refetches the map (through
    [Rpc.call_retry]) and re-routes the piece, so membership changes
    are invisible to the cache layer above. *)

type t
(** A driver instance (one per client host). *)

type vdisk
(** An open virtual disk. *)

val connect :
  rpc:Cluster.Rpc.t ->
  servers:Cluster.Net.addr array ->
  ?active:int list ->
  unit ->
  t
(** [servers] is the fixed provisioned-member array (same order on
    every client and server); [active] the member indexes initially
    serving data (default: all). The driver keeps its map current by
    refetching on [Wrong_epoch] rejects. *)

val fetch_map : t -> int * int list
(** Force a map refetch and return the (epoch, active members) the
    driver now routes under. Used by reconfiguration drivers to
    observe cutover. *)

val route : t -> root:int -> chunk:int -> int * int
(** The (primary, replica) member indexes this client sends chunk
    [chunk] of the disk rooted at [root] to under its current map:
    {!Protocol.owners} of the active set. *)

val create_vdisk : t -> nrep:int -> int
(** Ask the Petal cluster to create a virtual disk with [nrep] (1 or
    2) replicas; returns its id. *)

val add_server : t -> idx:int -> unit
(** Propose activating standby member [idx] (Paxos-agreed; returns
    once accepted into the log). Raises [Failure] if the cluster
    rejects it — e.g. another reconfiguration is still pending. *)

val remove_server : t -> idx:int -> unit
(** Propose decommissioning member [idx]; same contract as
    {!add_server}. *)

val delete_vdisk : t -> id:int -> unit
(** Delete snapshot disk [id] and free the chunk versions only it
    pinned. Raises [Failure] if [id] names a live disk or a transfer
    is pending; deleting an already-deleted id succeeds (idempotent).
    Deleting the last snapshot of a disk re-enables reconfiguration,
    which is refused while any snapshot exists. *)

val open_vdisk : t -> int -> vdisk
(** Fetch the disk's metadata from the cluster and return a handle.
    Raises {!Protocol.Unavailable} if no server answers. *)

val id : vdisk -> int
val is_snapshot : vdisk -> bool

val read_runs : vdisk -> (int * int) list -> bytes list
(** Read several [(off, len)] extents as one scatter-gather operation;
    returns one buffer per extent, in order, once every piece of every
    extent has landed. Uncommitted space reads as zeros. Adjacent
    chunk pieces of consecutive extents that address the same chunk
    (hence the same server) are coalesced into a single RPC — the
    batched read path's round-trip saver, visible in {!op_stats}.
    Every piece, foreground or read-ahead, read or write, waits for a
    slot in the client's one in-flight pool (64 pieces) — the only
    backpressure between Frangipani and Petal. *)

val write_runs : vdisk -> (int * bytes) list -> unit
(** Write several [(off, data)] extents as one scatter-gather
    operation. On return every piece is durable (both replicas for
    2-way disks, modulo degraded mode when a replica is down). Pieces
    go down in list order, one RPC each: unlike {!read_runs} there is
    no coalescing, because Frangipani's write-back already submits
    maximal runs inside aligned chunk-sized windows. Raises
    {!Protocol.Read_only} on snapshots. *)

val read : vdisk -> off:int -> len:int -> bytes
(** [read_runs] of the one extent [(off, len)]. *)

val write : vdisk -> off:int -> bytes -> unit
(** [write_runs] of the one extent [(off, data)]. *)

val snapshot : vdisk -> int
(** Create a crash-consistent copy-on-write snapshot; returns the
    read-only snapshot disk's id. *)

val set_write_guard : vdisk -> (unit -> int option) -> unit
(** Install the §6 lease guard: the function is called on every write
    and its result travels with the request as an expiration
    timestamp; a Petal server ignores writes that arrive after it
    (raising {!Protocol.Stale_write} back at the client). Frangipani
    sets it to [lease_valid_until - margin] at mount. *)

type stats = private {
  mutable writes : int;  (** {!write}/{!write_runs} calls *)
  write_seconds : float;  (** simulated time inside writes *)
  mutable reads : int;  (** {!read}/{!read_runs} calls *)
  read_seconds : float;  (** simulated time inside reads *)
  mutable read_pieces : int;  (** chunk pieces across all reads, pre-coalescing *)
  mutable read_rpcs : int;  (** read RPCs actually issued *)
  mutable read_coalesced : int;  (** pieces merged into a neighbouring RPC *)
  mutable write_pieces : int;  (** chunk pieces across all writes *)
  write_rpcs : int;  (** write RPCs issued: one per piece *)
  mutable failovers : int;  (** piece RPCs that timed out on the primary *)
  mutable primary_skips : int;  (** pieces routed straight to the replica *)
  mutable probe_heals : int;  (** suspected primaries found healthy again *)
  mutable map_refreshes : int;  (** ownership-map refetches *)
  mutable wrong_epoch_retries : int;  (** pieces re-routed after a [Wrong_epoch] *)
  mutable freeze_waits : int;
      (** wait-and-retry rounds against a server not ahead of the
          client's map — Paxos apply lag or the drain-time write
          freeze of a pending reconfiguration *)
}

val op_stats : vdisk -> stats
(** A copy of the operation counters accumulated by this driver
    instance — simulated time spent inside Petal operations plus the
    piece, RPC and read-coalescing accounting, for performance
    debugging. Later operations do not change it. *)
