(** Per-server write-ahead redo log (paper §4).

    Metadata updates are described as sub-sector diffs, each carrying
    the new version number of the 512-byte metadata sector it
    touches. Records are appended to an in-memory tail and written to
    the server's private 128 KB log region in Petal — always before
    the metadata they describe (write-ahead ordering is enforced
    together with {!Cache}).

    The log is a circular buffer of sectors ({!Layout.log_bytes}, a
    fixed 128 KB); each written sector carries a monotonically
    increasing LSN, so recovery finds the live window as the maximal
    run of consecutive LSNs, and sector placement
    [(lsn-1) mod log_sectors] makes the buffer circular. Before a
    sector is overwritten, the metadata covered by the records about
    to be lost is written to Petal (the paper's "reclaim the oldest
    25%" policy generalised to exactly what is needed, and run
    proactively between groups so it rarely stalls a flush).
    Records are replayed at recovery only into sectors whose version
    is older, so replaying a stale record is harmless.

    One flusher writes at a time. It takes every pending record,
    packs the batch into groups of at most 64 sectors cut between
    records (a longer record gets a group to itself), and writes the
    groups strictly in LSN order, so prefix durability — no sector
    durable before its predecessors — is preserved, and a group that
    lands ends on a whole record. Callers that need records durable
    while a flush is writing wait for it; the next batch carries
    their records (group commit). *)

type diff = {
  addr : int;  (** sector-aligned Petal address of the metadata sector *)
  doff : int;  (** offset of the change within the sector *)
  data : bytes;
  version : int;  (** the sector's version after this update *)
}

type t

val create :
  vd:Petal.Client.vdisk ->
  slot:int ->
  synchronous:bool ->
  lease_ok:(unit -> bool) ->
  unit ->
  t
(** [slot] selects the private log region ([lease mod 256], §7), a
    circular log of {!Layout.log_bytes} (128 KB, the paper's figure).
    [synchronous] makes every {!append} flush before
    returning (§4's optional stronger failure semantics). [lease_ok]
    is consulted before any Petal write — the §6 hazard check. *)

val set_reclaim_hook : t -> (upto_rid:int -> unit) -> unit
(** Install the reclaim hook: before log sectors are reused, the
    flusher calls it with the newest record id those sectors hold, and
    it must return only once Petal holds the metadata every record up
    to [upto_rid] describes (it raises otherwise, failing the flush).
    The file system installs {!Cache.flush_upto_rid}, which writes
    through the cache's one write-back path. The flusher calls it
    between groups, once the live window passes 3/4 of the log (down
    to half), and before a group would overwrite unapplied sectors (a
    log-pressure stall); those records are already durable, so the
    hook must not wait for the log. *)

val append : t -> diff list -> int
(** Append one logical record (one metadata operation); returns its
    record id, used as a durability barrier. Without [synchronous], a
    flush starts in the background once a quarter of the log is
    pending. *)

val ensure_flushed : t -> int -> unit
(** Block until the record with the given id is durable in Petal. *)

val flush : t -> unit
(** Write all pending records to Petal (group commit). *)

val last_rid : t -> int

val discard_volatile : t -> unit
(** Crash simulation: drop the in-memory tail (unwritten records, and
    the groups of an in-flight flush not yet written). *)

type wal_stats = private {
  mutable flush_groups : int;  (** groups written to Petal *)
  mutable pipeline_overlaps : int;
      (** appends made while a flush was writing (their records go
          out in a later batch) *)
  mutable log_pressure_stalls : int;
      (** groups that had to reclaim before overwriting *)
  mutable reclaim_rounds : int;  (** reclaim invocations (stalled + proactive) *)
  mutable ensure_stalls : int;
      (** waits by ensure_flushed on a flush that was writing *)
  mutable appended_bytes : int;  (** serialized record bytes appended *)
  mutable written_bytes : int;
      (** log sector bytes of the groups that landed on Petal *)
}

val stats : t -> wal_stats
(** A copy of the counters; later log traffic does not change it. *)

type scan_report = {
  diffs : diff list;  (** diffs of all complete records, in log order *)
  records : int;  (** complete records decoded *)
  live_sectors : int;  (** CRC-valid sectors in the replay window *)
  torn : bool;
      (** the stream ended inside an incomplete or garbled record — a
          crash mid-group-commit; the valid prefix is in [diffs] *)
}

val scan_report : Petal.Client.vdisk -> slot:int -> scan_report
(** Recovery: read a log region and decode the live window. Decoding
    is strict (lengths, alignment, versions) and stops at the first
    inconsistency rather than raising, so recovery after a crash
    mid-commit replays the valid prefix. *)

val scan : Petal.Client.vdisk -> slot:int -> diff list
(** [(scan_report vd ~slot).diffs]. *)
