(** Inode access through the cache; the caller holds the file's lock
    in the appropriate mode. *)

let addr = Layout.inode_addr
let lock = Lockns.inode_lock

let read ctx inum =
  let sector =
    Cache.read ctx.Ctx.cache ~lock:(lock inum) ~addr:(addr inum) ~len:Layout.inode_size
  in
  Ondisk.decode_inode sector

(** Logged inode update: the cache logs only the bytes that changed
    ({!Cache.update}). *)
let write ctx txn inum ino =
  Cache.update ctx.Ctx.cache txn ~lock:(lock inum) ~addr:(addr inum)
    ~off:Ondisk.off_itype ~bytes:(Ondisk.encode_inode ino)

(** Approximate atime (§2.1): cached, unlogged, flushed lazily — and
    moved only while this server holds the file's lock exclusively.
    Under a shared hold it is left alone, so a reader's cache stays
    clean and the writer's revoke costs the reader no inode write. *)
let touch_atime ctx inum =
  if Locksvc.Clerk.holds ctx.Ctx.clerk ~lock:(lock inum) = Some Locksvc.Types.W
  then begin
    let b = Bytes.create 8 in
    Stdext.Codec.put_int b 0 (Simkit.Sim.now ());
    Cache.update_nolog ctx.Ctx.cache ~lock:(lock inum) ~addr:(addr inum)
      ~off:Ondisk.off_atime ~bytes:b
  end
