(** Per-server block cache with write-ahead ordering.

    Stands in for the kernel buffer pool of the paper (§2.1). Every
    entry is covered by a lock of the lock service; the coherence
    protocol (§5) flushes a lock's dirty entries before the lock is
    released or downgraded, and invalidates them on release.

    Metadata updates go through transactions: the cached sector is
    modified in place, its version number is bumped, and a redo
    record is accumulated; committing the transaction appends one
    logical record to the {!Wal} and tags the touched entries with
    the record id, so a dirty metadata sector is never written to
    Petal before its log record (every flush enforces the ordering).
    A sector's diff covers every byte that logged updates changed
    since the sector was last written back, so the newest durable
    record of a dirty sector alone restores it from Petal's copy:
    the log may reuse the space of its older records without writing
    the sector first.
    While a transaction that touched a sector is open, the entry also
    keeps the sector's bytes from before that transaction's first
    update: an abort restores them, a commit drops them, and a flush
    writes them instead of the transaction's unlogged bytes. User data
    is written through the same cache but never logged (§4).

    Every flush below ({!flush_lock}, {!flush_all}, {!flush_upto_rid}
    and the write-behind of {!maybe_writeback}) goes through one
    write-back routine. It waits until the log holds the newest
    record of every entry it was handed, then writes the dirty ones
    to Petal in address-sorted runs inside 64 KB windows. Each entry
    goes out as its committed image: the pre-transaction bytes while
    a transaction that touched it is open (the entry then stays
    dirty), its current bytes otherwise. An entry another flush is
    already writing is not re-sent; the flush waits for that write,
    and if it fails, writes what it left dirty at the same generation
    itself. A flush returns only once every entry it was handed is on
    Petal as of the call; otherwise it raises (Petal unreachable,
    lease expired: [Errors.Error Eio]). One exception: a metadata
    entry that a transaction re-dirtied under a newer record while the
    flush waited for the log stays dirty for the next flush — the
    state it was handed in is described by a durable record. *)

type t

val create :
  vd:Petal.Client.vdisk ->
  wal:Wal.t ->
  lease_ok:(unit -> bool) ->
  t

(** A metadata transaction: one logical operation, one log record. *)
type txn

val with_txn : t -> (txn -> 'a) -> 'a
(** Run a metadata operation; commit its accumulated diffs as a
    single log record on normal return. *)

val on_commit : txn -> (unit -> unit) -> unit
(** Register work (typically bitmap-sector lock releases) to run
    right after the transaction's record is appended. *)

val read : t -> lock:int -> addr:int -> len:int -> bytes
(** Return the cached block, fetching it from Petal on a miss. The
    returned buffer is the live cache entry: callers must treat it
    as read-only. *)

val update : t -> txn -> lock:int -> addr:int -> off:int -> bytes:bytes -> unit
(** Logged metadata update of the 512-byte sector at [addr]: bump its
    version and splice [bytes] at [off] ([off >= 8], past the version
    field). The bytes that differ from the cached image widen the
    sector's changed span, which a write-back resets; the transaction
    holds one diff per sector, covering the whole span under the
    newest version. An update that changes no byte still logs its
    version. *)

val update_nolog : t -> lock:int -> addr:int -> off:int -> bytes:bytes -> unit
(** Unlogged metadata update (the approximate last-accessed time,
    §2.1): bumps the version but writes no record; lost in a crash. *)

val write_data : t -> lock:int -> addr:int -> bytes:bytes -> unit
(** Cache a full user-data block as dirty (not logged). *)

val update_data : t -> lock:int -> addr:int -> len:int -> off:int -> bytes:bytes -> unit
(** Partial user-data update within a block of [len] bytes
    (read-modify-write; not logged). *)

val mem : t -> int -> bool
(** Is this address cached? (Read-clustering uses it to find runs of
    missing blocks.) *)

val present : t -> int -> bool
(** Is this address cached or already being fetched? (What a
    prefetch would skip — used to size read-ahead windows.) *)

val fill_runs :
  ?still_wanted:(unit -> bool) ->
  t ->
  (int * int * int) list ->
  granule:int ->
  unit
(** Fetch several [(lock, addr, len)] miss runs with one Petal
    submission (pieces of every run fan out concurrently; adjacent
    pieces in one chunk coalesce into one RPC) and populate clean
    entries of [granule] bytes — the batched scatter-gather read
    path; a read-ahead window and a foreground miss draw on the same
    Petal client in-flight pool. [still_wanted] is consulted
    when the data arrives: if it answers false (a cancelled
    read-ahead — its lock was revoked mid-fetch) nothing is inserted,
    and readers already waiting on the fetch re-issue it
    themselves. *)

val flush_lock : t -> int -> unit
(** Write back all dirty entries covered by a lock (logging first;
    see the flush contract above). *)

val invalidate_lock : t -> int -> unit
(** Drop all entries covered by a lock (they must be clean — call
    {!flush_lock} first). *)

val flush_all : t -> unit
(** Write back every dirty entry (logging first). *)

val flush_upto_rid : t -> int -> unit
(** The WAL's reclaim hook: flush the dirty entries whose newest
    record id is between 1 and the bound. The log has already written
    those records, so the flush's log wait returns at once and never
    recurses into the log flush that called it. *)

val drop_clean : t -> unit
(** Evict all clean entries (lets experiments measure uncached
    reads). *)

val discard_volatile : t -> unit
(** Crash simulation: drop everything, dirty included. *)

val maybe_writeback : t -> unit
(** Kick a background drain once 1 MB is dirty (write-behind); called
    by the write path so streaming writes overlap with their flush. *)

val dirty_bytes : t -> int
val stats : t -> int * int  (** hits, misses *)
