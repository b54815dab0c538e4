(** Metadata consistency check and repair — the fsck-like tool the
    paper lists as unimplemented ("If both copies of a sector were
    lost, or if Frangipani's data structures were corrupted by a
    software bug, a metadata consistency check and repair tool (like
    Unix fsck) would be needed", §4).

    Walks the directory tree from the root over a (typically
    read-only snapshot) mount and cross-checks it against the
    allocation bitmaps:

    - every directory entry points at an allocated, live inode;
    - no data block or inode is referenced twice;
    - link counts match the directory structure;
    - every block pointer's allocation bit is set;
    - allocated bits in the scanned bitmap sectors correspond to
      reachable objects (leak detection).

    With [repair] (on a writable mount) it clears leaked bits,
    fixes link counts and removes entries pointing at free inodes. *)

type finding =
  | Dangling_entry of { dir : int; name : string; target : int }
      (** directory entry whose target inode is free *)
  | Bad_nlink of { inum : int; stored : int; actual : int }
  | Unallocated_ref of { inum : int; pool : Layout.pool; bit : int }
      (** block pointer whose allocation bit is clear *)
  | Double_ref of { pool : Layout.pool; bit : int; inums : int * int }
  | Leaked_bit of { pool : Layout.pool; bit : int }
      (** allocated bit not referenced by any reachable object *)
  | Orphan_inode of { inum : int }
      (** allocated inode not reachable from the root *)

val pp_finding : Format.formatter -> finding -> unit

val check : Fs.t -> finding list
(** Full scan; pure (no writes). Run it on a quiesced or snapshot
    mount — a live, concurrently-modified tree will show spurious
    findings. *)

val repair : Fs.t -> finding list -> int
(** Apply fixes for the findings that have a safe local repair;
    returns how many were repaired. *)
