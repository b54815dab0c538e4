(** Per-server write-ahead redo log (paper §4).

    Metadata updates are described as sub-sector diffs, each carrying
    the new version number of the 512-byte metadata sector it
    touches. Records are appended to an in-memory tail and written to
    the server's private 128 KB log region in Petal — always before
    the metadata they describe (write-ahead ordering is enforced
    together with {!Cache}).

    The log is a circular buffer of sectors (128 KB by default,
    configurable per server); each written sector carries a
    monotonically increasing LSN, so recovery finds the live window
    as the maximal run of consecutive LSNs, and sector placement
    [(lsn-1) mod log_sectors] makes the buffer circular. Before a
    sector is overwritten, the metadata covered by the records about
    to be lost is written to Petal (the paper's "reclaim the oldest
    25%" policy generalised to exactly what is needed, and run
    proactively between pipeline groups so it rarely stalls a flush).
    Records are replayed at recovery only into sectors whose version
    is older, so replaying a stale record is harmless.

    Flushing is a two-stage pipeline: pending records are formatted
    into bounded groups of sector images while an earlier group's
    Petal submission is still in flight. A single submitter writes
    groups strictly in LSN order, so prefix durability — no sector
    durable before its predecessors — is preserved. *)

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
(** Install the cache's "write back all dirty metadata recorded by
    records with id ≤ [upto_rid]" hook, used when the log wraps. *)

val append : t -> diff list -> int
(** Append one logical record (one metadata operation); returns its
    record id, used as a durability barrier. *)

val ensure_flushed : t -> int -> unit
(** Block until the record with the given id is durable in Petal. *)

val flush : t -> unit
(** Write all pending records to Petal (group commit). *)

val last_rid : t -> int

val discard_volatile : t -> unit
(** Crash simulation: drop the in-memory tail (unwritten records and
    formatted-but-unsubmitted groups). *)

type wal_stats = private {
  mutable flush_groups : int;  (** groups submitted to Petal *)
  mutable pipeline_overlaps : int;
      (** groups formatted while another was in flight *)
  mutable log_pressure_stalls : int;
      (** submissions that had to reclaim before overwriting *)
  mutable reclaim_rounds : int;  (** reclaim invocations (stalled + proactive) *)
  mutable ensure_stalls : int;
      (** ensure_flushed calls that waited on the pipeline *)
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
