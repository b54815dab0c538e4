(** PrestoServe-style NVRAM write-back cache in front of a disk.

    Writes complete at NVRAM speed and are destaged to the disk by a
    background process; contents are non-volatile, so they survive a
    host crash (the paper treats NVRAM {e card} failure as a Petal
    server failure, which we model by failing the underlying disk).

    The buffer holds the 8 MB of the paper's PrestoServe cards; when
    it is full, writers block until destaging frees space.

    Destaging is an elevator: each sweep sorts the pending entries by
    disk address and coalesces adjacent ones into a single disk write
    per contiguous batch, so a burst of scattered writes costs one
    seek per contiguous region instead of one per entry. *)

val wrap : Disk.t -> Storage.t
