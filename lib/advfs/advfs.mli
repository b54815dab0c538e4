(** A model of DIGITAL's Advanced File System (AdvFS) — the
    comparison system of the paper's Tables 1–3.

    A single-machine file system over locally attached disks, with
    the properties the paper credits it with: file data striped
    across all disks (nearly double UFS throughput), write-ahead
    logging of metadata (low-latency creates, unlike UFS's
    synchronous updates), a deeper/more effective read-ahead than the
    UFS-derived one Frangipani uses, and an optional PrestoServe
    NVRAM in front of the disks (the "NVR" columns).

    Timing and data movement are modelled faithfully (real bytes on
    the simulated disks, real cache, real log-write traffic); since
    AdvFS is only a performance baseline here, its metadata lives in
    memory and crash recovery is not implemented. *)

type t

val create : host:Cluster.Host.t -> ?nvram:bool -> unit -> t
(** 8 RZ29-class disks, as in the paper's test machine; [nvram]
    (default false) puts a PrestoServe board in front of each. *)

val root : int
val host : t -> Cluster.Host.t

val create_file : t -> dir:int -> string -> int
val mkdir : t -> dir:int -> string -> int
val symlink : t -> dir:int -> string -> target:string -> int
val lookup : t -> dir:int -> string -> int
val readdir : t -> int -> (string * int) list
val readlink : t -> int -> string
val link : t -> dir:int -> string -> inum:int -> unit
val unlink : t -> dir:int -> string -> unit
val rmdir : t -> dir:int -> string -> unit
val rename : t -> sdir:int -> string -> ddir:int -> string -> unit
val read : t -> int -> off:int -> len:int -> bytes
val write : t -> int -> off:int -> bytes -> unit
val truncate : t -> int -> size:int -> unit
val size : t -> int -> int
val fsync : t -> int -> unit
val sync : t -> unit
val drop_caches : t -> unit
(** Evict clean cached blocks (for uncached-read experiments). *)
