(** Lock-id namespace over the file system's lockable segments (§5):
    one lock per file/directory/symlink (covering the inode and all
    data it points to), one per allocation-bitmap sector, one per
    private log, one global barrier lock for backup (§8), and — in
    the finer-granularity ablation mode — one per 4 KB data block. *)

open Locksvc

let barrier_lock = 1
let inode_lock inum = 0x1_0000_0000 + inum

(** The file an inode lock covers; [None] for every other lock. *)
let inode_of_lock lock =
  let inum = lock - inode_lock 0 in
  if inum >= 0 && inum < Layout.max_inodes then Some inum else None

(** The lock on the bitmap sector holding bit [bit] of [pool]: the
    pool index above bit 32, the sector's index within the pool
    below. *)
let bitmap_lock pool bit =
  0x8_0000_0000 + (Layout.pool_index pool * (1 lsl 32)) + (bit / Layout.bits_per_sector)
let log_lock slot = 0x1_0_0000_0000 + slot
let block_lock addr = (1 lsl 53) + (addr / Layout.block)

(* Deadlock avoidance (§5): multi-lock operations acquire in global
   order. Inode locks sort before bitmap locks by construction of the
   id space, which matches the acquisition discipline of the
   operations (inodes first, then at most pool-ordered bitmap
   sectors). *)
let with_locks clerk locks f =
  let locks = List.sort_uniq compare locks in
  List.iter (fun (l, m) -> Clerk.acquire clerk ~lock:l m) locks;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun (l, m) -> Clerk.release clerk ~lock:l m) (List.rev locks))
    f
