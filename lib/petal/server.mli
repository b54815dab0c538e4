(** A Petal storage server.

    Each server owns a set of local disks, stores 64 KB chunk
    extents on them, answers chunk read/write requests, and
    participates in the Paxos group that maintains the virtual-disk
    table (creation, snapshots) and — since PR 5 — the cluster's
    chunk-ownership map.

    Chunk placement: servers are created over a fixed
    provisioned-member array, of which a Paxos-agreed {e active}
    subset serves data. The primary for chunk [c] of the virtual disk
    rooted at [r] is the active member at ring slot
    [Protocol.ring_slot ~root:r ~chunk:c n] (n = active count); the
    replica (for 2-way replicated disks) the next slot. Writes arrive
    at the primary, which applies them locally and forwards them to
    the replica before acknowledging.
    Snapshots are copy-on-write: each stored extent is tagged with
    the epoch it was written in, and a snapshot bumps the source
    disk's epoch so later writes go to fresh extents.

    Reconfiguration ([Add_server]/[Remove_server] through the Paxos
    log) is a two-phase ownership handoff: the old map stays
    authoritative while current owners stream affected chunks to
    their future owners through the resync machinery, and
    [Complete_transfer] — proposed by whichever server first observes
    every involved member drained — atomically bumps the map epoch.
    Data requests carry the client's map epoch and are rejected with
    [Wrong_epoch] when it is stale. See DESIGN.md, "Dynamic
    reconfiguration". *)

type t

val create :
  host:Cluster.Host.t ->
  rpc:Cluster.Rpc.t ->
  peers:Cluster.Net.addr array ->
  index:int ->
  disks:Blockdev.Storage.t array ->
  stable:Paxos_group.stable ->
  ?active:int list ->
  unit ->
  t
(** Start a Petal server: registers RPC handlers and joins the Paxos
    group. [peers] is the fixed provisioned-member array (all Paxos
    participants, standbys included) in ring order; [index] is this
    server's position; [active] the member indexes initially serving
    data (default: all). Every server of a cluster must be created
    with the same [peers] and [active]. *)

val host : t -> Cluster.Host.t
val index : t -> int

val chunk_count : t -> int
(** Number of live chunk extents stored (all epochs), for tests. *)

val disk_bytes_allocated : t -> int
(** Physical bytes committed on this server's disks. *)

val set_trusted : t -> Cluster.Net.addr list option -> unit
(** §2.2's partial security measure: accept data/management requests
    only from the listed (trusted Frangipani server) addresses, plus
    the Petal peers. [None] (the default) accepts everyone. *)

val degraded_count : t -> int
(** Chunks this server knows to be stale on some peer, pending
    resync — including pending ownership-transfer pushes. Zero once
    anti-entropy has caught up after a failure and any transfer has
    drained. *)

val current_epoch : t -> int
(** The committed ownership-map epoch. *)

val current_active : t -> int list
(** The member indexes serving data under the committed map. *)

val pending_transfer : t -> bool
(** Whether this server knows of a reconfiguration whose handoff has
    not yet cut over. *)

val nonowned_chunk_count : t -> int
(** Stored chunks this server does not own under the committed map.
    Transiently non-zero right after a cutover; the background GC
    frees them, and the reconfiguration sweep asserts they reach 0 —
    the "no data served from a decommissioned owner" teeth. *)

type stats = private {
  mutable stale_applied : int;
      (** writes that reached the raw disk with a lapsed stamp anyway
          (the copy-on-write base read can block past the stamp). This
          is the §6 invariant the lease margin is sized to protect; the
          partition sweep asserts it stays 0. *)
  mutable wrong_epoch_rejects : int;
      (** data requests refused by the ownership-map guard (stale
          client epoch, or this server not an owner of the addressed
          chunk) *)
  mutable freeze_rejects : int;
      (** client mutations refused by the drain-time write freeze: once
          a transfer has been pending past a grace period, writes to
          chunks whose owner set actually changes get
          [Wrong_epoch] (the client waits and retries), so the push
          backlog can only shrink and a hot-chunk writer cannot defer
          the cutover forever *)
  mutable max_cutover : Simkit.Sim.time;
      (** worst pending-to-commit latency of a completed transfer, as
          observed by this server's apply — the quantity the soak
          bounds under a sustained hot-chunk writer *)
  mutable xfer_pushes : int;  (** resync/handoff push RPCs acknowledged *)
  mutable xfer_bytes : int;
      (** bytes carried by those pushes (the migration traffic the
          bench reports) *)
  mutable gc_chunks : int;  (** chunks freed by the post-cutover ownership GC *)
  mutable snap_gc_chunks : int;
      (** chunk versions freed by [Delete_vdisk] because no remaining
          snapshot pinned them *)
}

val stats : t -> stats
(** A copy of this server's counters since it started; later work does
    not change it. *)
