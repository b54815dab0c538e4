(** Codecs for the fixed on-disk structures. Every metadata sector
    carries its version number (paper §4) in its first 8 bytes; these
    helpers never touch that field — versions are managed by the
    transaction layer ({!Meta}). *)

open Stdext

type itype = Free | Reg | Dir | Symlink

let itype_code = function Free -> 0 | Reg -> 1 | Dir -> 2 | Symlink -> 3

let itype_of_code = function
  | 0 -> Free
  | 1 -> Reg
  | 2 -> Dir
  | 3 -> Symlink
  | n -> failwith (Printf.sprintf "frangipani: corrupt inode type %d" n)

(** Decoded view of one 512-byte inode. *)
type inode = {
  itype : itype;
  nlink : int;
  size : int;
  mtime : int;
  ctime : int;
  atime : int;
  small : int array; (* 16 entries; block index + 1, 0 = hole *)
  large : int; (* large block index + 1, 0 = none *)
  target : string; (* symlink target, inline (paper §3) *)
}

let empty_inode =
  {
    itype = Free;
    nlink = 0;
    size = 0;
    mtime = 0;
    ctime = 0;
    atime = 0;
    small = Array.make 16 0;
    large = 0;
    target = "";
  }

(* Field offsets within the inode sector. *)
let off_itype = 8
let off_nlink = 10
let off_size = 16
let off_mtime = 24
let off_ctime = 32
let off_atime = 40
let off_small = 48 (* 16 * 8 bytes *)
let off_large = 176
let off_target = 184 (* u16 len + bytes, <= 255 *)

let decode_inode (b : bytes) =
  let small = Array.init 16 (fun i -> Codec.get_int b (off_small + (8 * i))) in
  let tlen = Codec.get_u16 b off_target in
  {
    itype = itype_of_code (Codec.get_u8 b off_itype);
    nlink = Codec.get_u16 b off_nlink;
    size = Codec.get_int b off_size;
    mtime = Codec.get_int b off_mtime;
    ctime = Codec.get_int b off_ctime;
    atime = Codec.get_int b off_atime;
    small;
    large = Codec.get_int b off_large;
    target = Bytes.sub_string b (off_target + 2) tlen;
  }

(* The inode's bytes from [off_itype] to the end of the sector (all
   but the version). *)
let encode_inode ino =
  let b = Bytes.make (Layout.inode_size - off_itype) '\000' in
  let put off v = Codec.put_int b (off - off_itype) v in
  Codec.put_u8 b (off_itype - off_itype) (itype_code ino.itype);
  Codec.put_u16 b (off_nlink - off_itype) ino.nlink;
  put off_size ino.size;
  put off_mtime ino.mtime;
  put off_ctime ino.ctime;
  put off_atime ino.atime;
  Array.iteri (fun i v -> put (off_small + (8 * i)) v) ino.small;
  put off_large ino.large;
  Codec.put_u16 b (off_target - off_itype) (String.length ino.target);
  Bytes.blit_string ino.target 0 b (off_target + 2 - off_itype)
    (String.length ino.target);
  b

(* --- directory slots ----------------------------------------------------- *)

let dir_slot_off k = 8 + (k * Layout.dir_slot_size)

(** [read_slot sector k] is [Some (name, inum)] if slot [k] is live. *)
let read_slot (b : bytes) k =
  let off = dir_slot_off k in
  let v = Codec.get_int b off in
  if v = 0 then None
  else begin
    let len = Codec.get_u8 b (off + 8) in
    (* A name longer than the format allows means the slot is
       corrupt; treat it as empty rather than crash (fsck territory). *)
    if len > Layout.max_name then None
    else Some (Bytes.sub_string b (off + 9) len, v - 1)
  end

(** Diff payload for writing slot [k]: [(offset_in_sector, bytes)]. *)
let encode_slot name inum =
  let b = Bytes.make Layout.dir_slot_size '\000' in
  Codec.put_int b 0 (inum + 1);
  Codec.put_u8 b 8 (String.length name);
  Bytes.blit_string name 0 b 9 (String.length name);
  b

let empty_slot = Bytes.make Layout.dir_slot_size '\000'

(* --- allocation bitmaps --------------------------------------------------- *)

(* Bit [i] of a bitmap sector lives in byte [8 + i/8]. *)
let test_bit (b : bytes) i =
  Char.code (Bytes.get b (8 + (i / 8))) land (1 lsl (i mod 8)) <> 0

(** Diff payload to flip bit [i]: the new value of its byte. *)
let bit_byte_off i = 8 + (i / 8)

let set_bit_byte (b : bytes) i value =
  let off = bit_byte_off i in
  let old = Char.code (Bytes.get b off) in
  let nb = if value then old lor (1 lsl (i mod 8)) else old land lnot (1 lsl (i mod 8)) in
  Bytes.make 1 (Char.chr nb)

(* --- superblock ------------------------------------------------------------ *)

let encode_superblock () =
  let b = Bytes.make Layout.sector '\000' in
  Codec.put_u32 b 8 Layout.magic;
  b

let check_superblock (b : bytes) = Codec.get_u32 b 8 = Layout.magic
