(** On-disk layout of the Petal virtual disk (paper §3, Figure 4).

    {v
    0 ......... 1T  shared configuration parameters (superblock)
    1T ........ 2T  256 private logs (one per server, 128 KB each,
                    spaced 4 GB apart)
    2T ........ 5T  allocation bitmaps, in five sub-regions
    5T ........ 6T  inodes, 512 B each (2^31 of them)
    6T ...... 134T  small blocks, 4 KB each
    134T ..... 2^62 large blocks, 1 TB each
    v}

    Virtual addresses are OCaml 63-bit ints, so the paper's 2{^64}
    space becomes 2{^62}: the large-file limit drops from ~2{^24} to
    ~2{^22} files — every other constant is the paper's. The first
    64 KB of a file live in 16 small blocks; the remainder in one
    large block, so no file exceeds 64 KB + 1 TB.

    To honour the rule that freed metadata is reused only as metadata
    (§4: version numbers must never be overwritten by user data),
    small and large blocks are statically split into metadata pools
    (directory content) and data pools (file content). *)

let tb = 1 lsl 40
let sector = 512
let block = 4096
let inode_size = 512
let small_block = 4096
let large_block = tb
let max_small_blocks_per_file = 16
let small_area_per_file = max_small_blocks_per_file * small_block (* 64 KB *)

(* Regions. *)
let params_base = 0
let logs_base = tb
let bitmap_base = 2 * tb
let inode_base = 5 * tb
let small_base = 6 * tb
let large_base = 134 * tb

let max_servers = 256
let log_bytes = 128 * 1024
let log_sectors = log_bytes / sector (* 256 *)
let log_slot_spacing = 4 * (1 lsl 30) (* 4 GB apart *)

let log_addr ~slot =
  assert (slot >= 0 && slot < max_servers);
  logs_base + (slot * log_slot_spacing)

let max_inodes = 1 lsl 31
let inode_addr inum = inode_base + (inum * inode_size)

type pool = Inode_pool | Small_meta | Small_data | Large_meta | Large_data

(* Small-block pools: the first 2^20 small blocks (4 GB) are the
   metadata pool (directory blocks), the rest hold file data. The
   pools address disjoint block ranges, so a freed metadata block can
   only ever be reallocated as metadata (§4's reuse rule is
   structural, not a convention the allocator must remember). *)
let small_meta_count = 1 lsl 20
let small_data_count = (1 lsl 35) - small_meta_count

let small_addr pool b =
  match pool with
  | Small_meta ->
    assert (b >= 0 && b < small_meta_count);
    small_base + (b * small_block)
  | Small_data ->
    assert (b >= 0 && b < small_data_count);
    small_base + ((small_meta_count + b) * small_block)
  | Inode_pool | Large_meta | Large_data -> invalid_arg "Layout.small_addr"

(* Large-block pools: the first 2^10 large blocks are the metadata
   pool (oversized directories), the rest hold file data. *)
let large_meta_count = 1 lsl 10
let large_data_count = ((1 lsl 62) - large_base) / large_block - large_meta_count

let large_addr pool l =
  match pool with
  | Large_meta ->
    assert (l >= 0 && l < large_meta_count);
    large_base + (l * large_block)
  | Large_data ->
    assert (l >= 0 && l < large_data_count);
    large_base + ((large_meta_count + l) * large_block)
  | Inode_pool | Small_meta | Small_data -> invalid_arg "Layout.large_addr"

(* --- allocation bitmaps ------------------------------------------------ *)

(* Each 512 B bitmap sector = 8 B version + 504 B of bits. The sector
   is also the unit a server locks exclusively and allocates from. *)
let bits_per_sector = 504 * 8

let pool_index = function
  | Inode_pool -> 0
  | Small_meta -> 1
  | Small_data -> 2
  | Large_meta -> 3
  | Large_data -> 4

let pool_size = function
  | Inode_pool -> max_inodes
  | Small_meta -> small_meta_count
  | Small_data -> small_data_count
  | Large_meta -> large_meta_count
  | Large_data -> large_data_count

let pool_sectors p = (pool_size p + bits_per_sector - 1) / bits_per_sector

(* Bitmap sub-regions, 0.5 TB apart within [2T, 5T). *)
let pool_bitmap_base p = bitmap_base + (pool_index p * (tb / 2))

(* Address of the bitmap sector holding bit [n] of pool [p]. *)
let bit_sector p n = pool_bitmap_base p + (n / bits_per_sector * sector)
let bit_in_sector n = n mod bits_per_sector

(* --- directory format --------------------------------------------------- *)

(* Directory content sectors: 8 B version + 7 fixed 64 B slots + 56 B
   pad. A slot holds an inode number and a name of at most
   [max_name] bytes. *)
let dir_slot_size = 64
let dir_slots_per_sector = 7
let max_name = 55

(* --- superblock --------------------------------------------------------- *)

let superblock_addr = params_base
let magic = 0x46524e47 (* "FRNG" *)
