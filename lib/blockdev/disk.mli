(** Simulated physical disk.

    Stores real bytes, sector-addressed, with a seek + rotation +
    transfer service-time model. Default timing parameters are
    calibrated to the DIGITAL RZ29 drives of the paper's testbed:
    9 ms average access, 6 MB/s sustained transfer, 4.3 GB capacity.

    A write of a single 512-byte sector is atomic — the failure
    assumption Frangipani's logging relies on (paper §4). Sectors can
    be artificially damaged to exercise CRC-error recovery paths. *)

type t

exception Failed of string
(** Raised by I/O on a disk that has suffered a hard failure. *)

exception Bad_sector of int
(** Raised when reading a damaged sector (models a CRC error);
    carries the sector number. *)

val create : ?capacity:int -> string -> t
(** [create name] builds a disk of [capacity] bytes (default 4.3 GB)
    with the RZ29's 9 ms average positioning time and 6 MB/s media
    rate. *)

val name : t -> string
val capacity : t -> int

val read : t -> off:int -> len:int -> bytes
(** Blocking sector-aligned read; unwritten space reads as zeros. A
    read of exactly the [(off, len)] of an earlier read still queued
    or in service joins it instead of taking its own arm service: it
    returns its own copy of the earlier read's bytes, or raises the
    same exception. Every write completed before the read was issued
    is reflected either way. *)

val write : t -> off:int -> bytes -> unit
(** Blocking sector-aligned write. The disk copies the bytes into its
    backing store before returning; the caller keeps ownership. *)

val write_sub : t -> off:int -> bytes -> boff:int -> len:int -> unit
(** Write the [\[boff, boff+len)] slice of a larger buffer without
    materialising an intermediate copy. Same semantics as {!write}
    of [Bytes.sub data boff len]. *)

val arm : t -> Simkit.Sim.Resource.t
(** The disk-arm queueing resource, exposed for utilisation stats. *)

val merged : t -> int
(** Reads that joined an identical in-flight read (see {!read}). *)

val fail : t -> unit
(** Hard-fail the disk: all subsequent I/O raises {!Failed}. *)

val heal : t -> unit

val damage_sector : t -> int -> unit
(** Mark one sector as returning CRC errors on read (until it is
    next overwritten). *)
