open Simkit
open Stdext
open Errors
open Locksvc

type t = Ctx.t

type stats = {
  inum : int;
  itype : Ondisk.itype;
  size : int;
  nlink : int;
  mtime : int;
  ctime : int;
  atime : int;
}

let root = 0

exception Retry
(* Internal: a two-phase operation found its phase-1 lookups stale
   after locking (§5); release everything and start over. *)

let host (ctx : t) = ctx.Ctx.host
let log_slot (ctx : t) = ctx.Ctx.slot
let cache_stats (ctx : t) = Cache.stats ctx.Ctx.cache
let wal_stats (ctx : t) = Wal.stats ctx.Ctx.wal
let petal_stats (ctx : t) = Petal.Client.op_stats ctx.Ctx.vd
let net_stats (ctx : t) = Cluster.Rpc.stats ctx.Ctx.rpc
let lease_stats (ctx : t) = Clerk.stats ctx.Ctx.clerk
let is_poisoned (ctx : t) = ctx.Ctx.poisoned

type recovery_stats = Ctx.recovery_stats = {
  mutable replays : int;
  mutable diffs_applied : int;
  mutable diffs_skipped : int;
  mutable torn_tails : int;
}

let recovery_stats (ctx : t) =
  { ctx.Ctx.recovery with replays = ctx.Ctx.recovery.replays }

(* --- formatting --------------------------------------------------------- *)

let format vd =
  (* Root inode: an empty directory, version 1. *)
  let sector = Bytes.make Layout.inode_size '\000' in
  Codec.put_int sector 0 1;
  let root_ino =
    { Ondisk.empty_inode with itype = Dir; nlink = 2; size = 0 }
  in
  Bytes.blit (Ondisk.encode_inode root_ino) 0 sector Ondisk.off_itype
    (Layout.inode_size - Ondisk.off_itype);
  (* Mark inode 0 allocated in the bitmap. *)
  let bsec = Bytes.make Layout.sector '\000' in
  Codec.put_int bsec 0 1;
  Bytes.set bsec 8 '\001';
  (* The three formatting writes are independent: one scatter-gather
     write, its pieces submitted bitmap first, superblock last. *)
  Petal.Client.write_runs vd
    [
      (Layout.bit_sector Layout.Inode_pool 0, bsec);
      (Layout.inode_addr root, sector);
      (Layout.superblock_addr, Ondisk.encode_superblock ());
    ]

(* --- lock helpers -------------------------------------------------------- *)

let ilock = Lockns.inode_lock

let with_locks ctx locks f = Lockns.with_locks ctx.Ctx.clerk locks f

(* Modifying operations also hold the global barrier lock in shared
   mode so an online backup can quiesce the file system (§8). *)
let modifying (ctx : t) locks f =
  if ctx.Ctx.readonly then fail Erofs;
  Clerk.acquire ctx.Ctx.clerk ~lock:Lockns.barrier_lock Types.R;
  Fun.protect
    ~finally:(fun () -> Clerk.release ctx.Ctx.clerk ~lock:Lockns.barrier_lock Types.R)
    (fun () -> with_locks ctx locks f)

let rec retrying f = match f () with v -> v | exception Retry -> retrying f

(* --- inode helpers -------------------------------------------------------- *)

let live_inode ctx inum =
  let ino = Inode.read ctx inum in
  if ino.Ondisk.itype = Free then fail Estale;
  ino

let dir_inode ctx inum =
  let ino = live_inode ctx inum in
  if ino.Ondisk.itype <> Dir then fail Enotdir;
  ino

let is_meta (ino : Ondisk.inode) = ino.itype = Dir

(* Destroy one link's worth of [inum]; frees everything on the last
   link. Caller holds the inode lock W and runs inside [txn]. *)
let drop_link ctx txn inum (ino : Ondisk.inode) =
  if ino.nlink > 1 && ino.itype <> Dir then
    Inode.write ctx txn inum { ino with nlink = ino.nlink - 1; ctime = Sim.now () }
  else begin
    let bits =
      (Layout.Inode_pool, inum) :: File.content_bits ino ~meta:(is_meta ino)
    in
    Alloc.free_many ctx txn bits;
    Inode.write ctx txn inum { Ondisk.empty_inode with itype = Free };
    Ctx.forget_read_ahead ctx inum
  end

(* Take a fresh inode from the server's batch (Alloc), lock it and
   read it with no sector lock held — both normally hit, the batch
   refill having fetched the sector and left the lock cached — then
   claim the bit; a bit another server claimed in between sends the
   create to the next. The fresh inode's lock is uncontended except
   for stale sticky holders, which revoke cleanly. *)
let rec new_inode ctx txn (proto : Ondisk.inode) =
  let inum = Alloc.take_inode ctx txn in
  if inum >= Layout.max_inodes then fail Enospc;
  let lock = ilock inum in
  Clerk.acquire ctx.Ctx.clerk ~lock Types.W;
  match
    ignore (Inode.read ctx inum);
    Alloc.claim ctx txn Layout.Inode_pool inum
  with
  | true ->
    Cache.on_commit txn (fun () -> Clerk.release ctx.Ctx.clerk ~lock Types.W);
    let now = Sim.now () in
    Inode.write ctx txn inum { proto with mtime = now; ctime = now; atime = now };
    inum
  | false ->
    Clerk.release ctx.Ctx.clerk ~lock Types.W;
    new_inode ctx txn proto
  | exception e ->
    Clerk.release ctx.Ctx.clerk ~lock Types.W;
    raise e

(* --- namespace operations -------------------------------------------------- *)

let prologue (ctx : t) =
  Ctx.check_usable ctx;
  Ctx.charge_op ctx

let make_child ctx ~dir name proto ~bump_parent =
  prologue ctx;
  (* Before any lock, fetch or inode reservation. *)
  Dir.check_name name;
  modifying ctx [ (ilock dir, Types.W) ] (fun () ->
      let dino = dir_inode ctx dir in
      if name = "." || Dir.lookup ctx dir dino name <> None then fail Eexist;
      Cache.with_txn ctx.Ctx.cache (fun txn ->
          let inum = new_inode ctx txn proto in
          let dino = Dir.insert ctx txn dir dino name inum in
          let nlink = if bump_parent then dino.Ondisk.nlink + 1 else dino.Ondisk.nlink in
          Inode.write ctx txn dir { dino with nlink; mtime = Sim.now () };
          inum))

let create ctx ~dir name =
  make_child ctx ~dir name
    { Ondisk.empty_inode with itype = Reg; nlink = 1 }
    ~bump_parent:false

let mkdir ctx ~dir name =
  make_child ctx ~dir name
    { Ondisk.empty_inode with itype = Dir; nlink = 2 }
    ~bump_parent:true

let symlink ctx ~dir name ~target =
  if String.length target > 255 then fail Enametoolong;
  make_child ctx ~dir name
    { Ondisk.empty_inode with itype = Symlink; nlink = 1; target;
      size = String.length target }
    ~bump_parent:false

let lookup ctx ~dir name =
  prologue ctx;
  if name = "." then begin
    with_locks ctx [ (ilock dir, Types.R) ] (fun () -> ignore (dir_inode ctx dir));
    dir
  end
  else
    with_locks ctx
      [ (ilock dir, Types.R) ]
      (fun () ->
        let dino = dir_inode ctx dir in
        match Dir.lookup ctx dir dino name with
        | Some inum -> inum
        | None -> fail Enoent)

let readdir ctx dir =
  prologue ctx;
  with_locks ctx
    [ (ilock dir, Types.R) ]
    (fun () ->
      let dino = dir_inode ctx dir in
      Inode.touch_atime ctx dir;
      Dir.entries ctx dir dino)

let readlink ctx inum =
  prologue ctx;
  with_locks ctx
    [ (ilock inum, Types.R) ]
    (fun () ->
      let ino = live_inode ctx inum in
      if ino.Ondisk.itype <> Symlink then fail Einval;
      ino.Ondisk.target)

let link ctx ~dir name ~inum =
  prologue ctx;
  modifying ctx
    [ (ilock dir, Types.W); (ilock inum, Types.W) ]
    (fun () ->
      let dino = dir_inode ctx dir in
      let ino = live_inode ctx inum in
      if ino.Ondisk.itype = Dir then fail Eisdir;
      if Dir.lookup ctx dir dino name <> None then fail Eexist;
      Cache.with_txn ctx.Ctx.cache (fun txn ->
          let dino = Dir.insert ctx txn dir dino name inum in
          Inode.write ctx txn dir { dino with mtime = Sim.now () };
          Inode.write ctx txn inum
            { ino with nlink = ino.Ondisk.nlink + 1; ctime = Sim.now () }))

(* unlink / rmdir share the two-phase shape: peek at the target under
   a read lock, lock dir + target in sorted order, re-validate. *)
let remove_entry ctx ~dir name ~want_dir =
  prologue ctx;
  retrying (fun () ->
      let target =
        with_locks ctx
          [ (ilock dir, Types.R) ]
          (fun () ->
            let dino = dir_inode ctx dir in
            match Dir.lookup ctx dir dino name with
            | Some t -> t
            | None -> fail Enoent)
      in
      modifying ctx
        [ (ilock dir, Types.W); (ilock target, Types.W) ]
        (fun () ->
          let dino = dir_inode ctx dir in
          if Dir.lookup ctx dir dino name <> Some target then raise Retry;
          let ino = live_inode ctx target in
          (match (want_dir, ino.Ondisk.itype) with
          | false, Dir -> fail Eisdir
          | true, Dir -> if not (Dir.is_empty ctx target ino) then fail Enotempty
          | true, _ -> fail Enotdir
          | false, _ -> ());
          Cache.with_txn ctx.Ctx.cache (fun txn ->
              ignore (Dir.remove ctx txn dir dino name);
              let nlink =
                if want_dir then dino.Ondisk.nlink - 1 else dino.Ondisk.nlink
              in
              Inode.write ctx txn dir { dino with nlink; mtime = Sim.now () };
              drop_link ctx txn target ino)))

let unlink ctx ~dir name = remove_entry ctx ~dir name ~want_dir:false
let rmdir ctx ~dir name = remove_entry ctx ~dir name ~want_dir:true

let rename ctx ~sdir sname ~ddir dname =
  prologue ctx;
  if dname = "." || sname = "." then fail Einval;
  retrying (fun () ->
      (* Phase 1: look everything up under read locks. *)
      let src, dst =
        with_locks ctx
          (List.sort_uniq compare [ (ilock sdir, Types.R); (ilock ddir, Types.R) ])
          (fun () ->
            let sino = dir_inode ctx sdir in
            let dino = dir_inode ctx ddir in
            let src =
              match Dir.lookup ctx sdir sino sname with
              | Some s -> s
              | None -> fail Enoent
            in
            (src, Dir.lookup ctx ddir dino dname))
      in
      if src = sdir || src = ddir then fail Einval;
      (* Cycle check (classic EINVAL): a directory must not move into
         its own subtree, or the subtree detaches from the root as an
         unreachable cycle. Walked before the write phase with one
         read lock at a time (never while holding others), respecting
         the sorted-acquisition discipline. A rename racing elsewhere
         in the tree could still slip a cycle past this — the gap
         namei-based kernels close with a global rename lock, which a
         distributed FS cannot afford; our callers do not do that. *)
      if sdir <> ddir then begin
        let rec subtree_contains = function
          | [] -> false
          | d :: rest ->
            d = ddir
            || (let children =
                  with_locks ctx
                    [ (ilock d, Types.R) ]
                    (fun () ->
                      match Inode.read ctx d with
                      | { Ondisk.itype = Dir; _ } as ino ->
                        List.map snd (Dir.entries ctx d ino)
                      | _ -> [])
                in
                subtree_contains (children @ rest))
        in
        if subtree_contains [ src ] then fail Einval
      end;
      if sdir = ddir && Some src = dst then (* rename to itself *) ()
      else begin
        let locks =
          [ (ilock sdir, Types.W); (ilock ddir, Types.W); (ilock src, Types.W) ]
          @ (match dst with
            | Some d when d <> src -> [ (ilock d, Types.W) ]
            | _ -> [])
        in
        (* Phase 2: sorted acquisition, then re-validate (§5). *)
        modifying ctx locks (fun () ->
            let sino = dir_inode ctx sdir in
            let dino = dir_inode ctx ddir in
            if
              Dir.lookup ctx sdir sino sname <> Some src
              || Dir.lookup ctx ddir dino dname <> dst
            then raise Retry;
            let srci = live_inode ctx src in
            (match dst with
            | Some d when d <> src ->
              let dsti = live_inode ctx d in
              (match (srci.Ondisk.itype, dsti.Ondisk.itype) with
              | Dir, Dir ->
                if not (Dir.is_empty ctx d dsti) then fail Enotempty
              | Dir, _ -> fail Enotdir
              | _, Dir -> fail Eisdir
              | _, _ -> ())
            | _ -> ());
            Cache.with_txn ctx.Ctx.cache (fun txn ->
                let sino = ref sino and dino = ref dino in
                ignore (Dir.remove ctx txn sdir !sino sname);
                (if sdir = ddir then dino := { !dino with size = !sino.Ondisk.size });
                (match dst with
                | Some d when d <> src ->
                  Dir.replace ctx txn ddir !dino dname src;
                  let dsti = live_inode ctx d in
                  (if dsti.Ondisk.itype = Dir then
                     dino := { !dino with nlink = !dino.Ondisk.nlink - 1 });
                  drop_link ctx txn d dsti
                | _ ->
                  let d' = Dir.insert ctx txn ddir !dino dname src in
                  dino := d');
                (* A directory moving between parents shifts the
                   parents' link counts. *)
                (if srci.Ondisk.itype = Dir && sdir <> ddir then begin
                   sino := { !sino with nlink = !sino.Ondisk.nlink - 1 };
                   dino := { !dino with nlink = !dino.Ondisk.nlink + 1 }
                 end);
                let now = Sim.now () in
                if sdir = ddir then
                  Inode.write ctx txn sdir { !dino with mtime = now }
                else begin
                  Inode.write ctx txn sdir { !sino with mtime = now };
                  Inode.write ctx txn ddir { !dino with mtime = now }
                end))
      end)

(* --- file I/O ------------------------------------------------------------- *)

let reg_inode ctx inum =
  let ino = live_inode ctx inum in
  (match ino.Ondisk.itype with
  | Ondisk.Reg -> ()
  | Ondisk.Dir -> fail Eisdir
  | Ondisk.Symlink | Ondisk.Free -> fail Einval);
  ino

(* Read-ahead (§9.2): the prefetch inherits the caller's shared hold
   on the file lock and releases it when the fetch completes, like a
   kernel read-ahead keeping the buffers busy. The paper's Figure 8
   anomaly — prefetched data that a revoke discards unread — has two
   halves. A revoke serialised behind an in-flight prefetch is
   cancellation's: the hold is registered as sheddable, and when a
   revoke arrives while the fetch is in flight the clerk's
   [on_contended] callback releases it immediately and flags the fetch
   cancelled, so its data (possibly stale by landing time) is simply
   not inserted. A prefetch that lands whole before the next revoke
   throws it away is the predictor's: an invalidating revoke disarms
   the file ([on_revoke]), so under write sharing a reader prefetches
   only after two reads in a row with no revoke between them.

   [boffs] are the blocks actually worth fetching (mapped, neither
   cached nor in flight). The whole window goes down as one batched
   submission through the Petal client's one in-flight pool, the same
   as a foreground read. *)
let read_ahead_holding_lock ctx inum ino boffs =
  let lock = ilock inum in
  let cancelled = ref false in
  Ctx.hold_register ctx ~lock Types.R cancelled;
  Sim.spawn (fun () ->
      Fun.protect
        ~finally:(fun () ->
          (* Whoever removes the registry entry owns the release; a
             contended revoke may already have shed our hold. *)
          if Ctx.hold_take ctx ~lock cancelled then
            Clerk.release ctx.Ctx.clerk ~lock Types.R)
        (fun () ->
          try
            File.fetch_blocks
              ~still_wanted:(fun () -> not !cancelled)
              ctx inum ino boffs
          with
          | Error _ | Types.Lease_expired | Cluster.Host.Crashed _
          | Petal.Protocol.Unavailable _
          -> ()))

(* A sequential read prefetches past its end a window that ramps with
   the file's sequential run ({!Ctx.read_ahead_window}): a quarter of
   the cap after a cold start or a restart, the whole cap once the run
   is three quarters of it long. *)
let read ctx inum ~off ~len =
  prologue ctx;
  if off < 0 then fail Einval;
  Clerk.acquire ctx.Ctx.clerk ~lock:(ilock inum) Types.R;
  match
    let ino = reg_inode ctx inum in
    let len = max 0 (min len (ino.Ondisk.size - off)) in
    let data = File.read ctx inum ino ~off ~len in
    Inode.touch_atime ctx inum;
    (data, ino, off + len)
  with
  | data, ino, next ->
    let n = Ctx.read_ahead_window ctx ~inum ~off ~len:(next - off) in
    let window =
      if n > 0 && next < ino.Ondisk.size then begin
        let from = (next + Layout.block - 1) / Layout.block * Layout.block in
        (* Blocks already cached or in flight are not fetched again:
           a sequential reader has waited for every block below
           [next], so one file never has more than one window in
           flight ahead of it, however slow Petal is. *)
        File.missing_blocks ctx ino ~from
          ~upto:(min ino.Ondisk.size (from + (n * Layout.block)))
      end
      else []
    in
    if window <> [] then
      (* Hand our hold over to the prefetch process. *)
      read_ahead_holding_lock ctx inum ino window
    else Clerk.release ctx.Ctx.clerk ~lock:(ilock inum) Types.R;
    data
  | exception e ->
    Clerk.release ctx.Ctx.clerk ~lock:(ilock inum) Types.R;
    raise e

let write ctx inum ~off data =
  prologue ctx;
  if off < 0 then fail Einval;
  modifying ctx
    [ (ilock inum, Types.W) ]
    (fun () ->
      let ino = reg_inode ctx inum in
      ignore (File.write ctx inum ino ~off ~data ~meta:false);
      Cache.maybe_writeback ctx.Ctx.cache)

let truncate ctx inum ~size =
  prologue ctx;
  if size < 0 then fail Einval;
  modifying ctx
    [ (ilock inum, Types.W) ]
    (fun () ->
      let ino = reg_inode ctx inum in
      if size = 0 then Ctx.forget_read_ahead ctx inum;
      Cache.with_txn ctx.Ctx.cache (fun txn ->
          let ino = File.truncate ctx txn inum ino ~size ~meta:false in
          Inode.write ctx txn inum { ino with mtime = Sim.now () }))

let stat ctx inum =
  prologue ctx;
  with_locks ctx
    [ (ilock inum, Types.R) ]
    (fun () ->
      let ino = live_inode ctx inum in
      {
        inum;
        itype = ino.Ondisk.itype;
        size = ino.Ondisk.size;
        nlink = ino.Ondisk.nlink;
        mtime = ino.Ondisk.mtime;
        ctime = ino.Ondisk.ctime;
        atime = ino.Ondisk.atime;
      })

(* --- durability ------------------------------------------------------------ *)

let fsync ctx inum =
  prologue ctx;
  Wal.flush ctx.Ctx.wal;
  Cache.flush_lock ctx.Ctx.cache (ilock inum)

let sync ctx =
  Ctx.check_usable ctx;
  Wal.flush ctx.Ctx.wal;
  Cache.flush_all ctx.Ctx.cache

(* --- mount / unmount / crash ------------------------------------------------ *)

let sync_demon ctx () =
  let rec loop () =
    Sim.sleep Ctx.sync_interval;
    if
      Cluster.Host.is_alive ctx.Ctx.host
      && (not ctx.Ctx.unmounted)
      && not ctx.Ctx.poisoned
    then begin
      (* A write delayed past its §6 stamp (a partition eating the
         lease margin) comes back [Stale_write]: the sync failed,
         like an unreachable Petal, and the lease path decides. *)
      (try sync ctx
       with
       | Error _ | Types.Lease_expired | Petal.Protocol.Unavailable _
       | Petal.Protocol.Stale_write _ | Cluster.Host.Crashed _
       -> ());
      loop ()
    end
    else if not ctx.Ctx.unmounted then loop ()
  in
  loop ()

let on_revoke ctx ~lock ~to_read =
  if lock = Lockns.barrier_lock then begin
    (* Entering the backup barrier (§8): clean everything. *)
    Wal.flush ctx.Ctx.wal;
    Cache.flush_all ctx.Ctx.cache
  end
  else begin
    Cache.flush_lock ctx.Ctx.cache lock;
    if not to_read then begin
      Cache.invalidate_lock ctx.Ctx.cache lock;
      Option.iter (Ctx.disarm_read_ahead ctx) (Lockns.inode_of_lock lock)
    end
  end

let on_expired ctx () =
  (* §6: on lease loss the cache is discarded; if any of it was
     dirty, the file system is poisoned until unmounted. *)
  if Cache.dirty_bytes ctx.Ctx.cache > 0 then ctx.Ctx.poisoned <- true;
  Cache.discard_volatile ctx.Ctx.cache;
  Wal.discard_volatile ctx.Ctx.wal

let mount ~host ~rpc ~vd ~lock_servers ?(table = "fs0") ?(config = Ctx.default_config)
    ?(readonly = false) () =
  let sb = Petal.Client.read vd ~off:Layout.superblock_addr ~len:Layout.sector in
  if not (Ondisk.check_superblock sb) then fail Eio;
  let clerk = Clerk.create ~rpc ~servers:lock_servers ~table () in
  let slot = Clerk.lease clerk mod Layout.max_servers in
  let poisoned_ref = ref false in
  let lease_ok () = Clerk.check_lease_margin clerk && not !poisoned_ref in
  let wal =
    Wal.create ~vd ~slot ~synchronous:config.Ctx.synchronous_log ~lease_ok ()
  in
  let cache = Cache.create ~vd ~wal ~lease_ok in
  Wal.set_reclaim_hook wal (fun ~upto_rid -> Cache.flush_upto_rid cache upto_rid);
  let ctx =
    {
      Ctx.host;
      config;
      rpc;
      vd;
      clerk;
      cache;
      wal;
      slot;
      alloc = Alloc_state.create ();
      readonly;
      poisoned = false;
      unmounted = false;
      recovery = { replays = 0; diffs_applied = 0; diffs_skipped = 0; torn_tails = 0 };
      read_ahead_next = Hashtbl.create 64;
      shed_holds = Hashtbl.create 16;
    }
  in
  Clerk.set_callbacks clerk
    ~on_contended:(fun ~lock ->
      (* A revoke is blocked on local users: shed any discretionary
         holds on this lock so the remote waiter is not serialised
         behind a prefetch (whose data would be discarded by the
         revoke anyway) or a batch refill still gathering locks. *)
      List.iter
        (fun (c, mode) ->
          c := true;
          Clerk.release clerk ~lock mode)
        (Ctx.holds_shed ctx ~lock))
    ~on_revoke:(fun ~lock ~to_read -> on_revoke ctx ~lock ~to_read)
    ~on_do_recovery:(fun ~dead_lease -> Recovery.run ctx ~dead_lease)
    ~on_expired:(fun () ->
      on_expired ctx ();
      poisoned_ref := ctx.Ctx.poisoned);
  if not readonly then begin
    (* The §6 hazard guard: stamp every Petal write with the lease
       expiry (minus margin); Petal rejects stale ones. *)
    Petal.Client.set_write_guard vd (fun () ->
        Some (Clerk.lease_valid_until clerk - Types.lease_margin));
    (* Own the private log (held for the life of the mount) and start
       it empty (§7: a restarted server begins with an empty log). *)
    Clerk.acquire clerk ~lock:(Lockns.log_lock slot) Types.W;
    let zeros = Bytes.make (Layout.log_bytes / 2) '\000' in
    Petal.Client.write_runs vd
      [
        (Layout.log_addr ~slot + (Layout.log_bytes / 2), zeros);
        (Layout.log_addr ~slot, zeros);
      ]
  end;
  Cluster.Host.on_crash host (fun () ->
      Cache.discard_volatile cache;
      Wal.discard_volatile wal);
  Sim.spawn ~name:(Cluster.Host.name host ^ ".update") (sync_demon ctx);
  ctx

let unmount ctx =
  if not ctx.Ctx.unmounted then begin
    (if (not ctx.Ctx.poisoned) && not ctx.Ctx.readonly then
       try sync ctx with Error _ | Types.Lease_expired -> ());
    ctx.Ctx.unmounted <- true;
    Clerk.close ctx.Ctx.clerk
  end

let crash ctx = Cluster.Host.crash ctx.Ctx.host

let drop_caches ctx =
  Cache.drop_clean ctx.Ctx.cache;
  Alloc.drop_fresh ctx

(* --- fault injection (exercises Fsck) ----------------------------------- *)

let unlink_entry_only_for_test ctx ~dir name =
  modifying ctx
    [ (ilock dir, Types.W) ]
    (fun () ->
      let dino = dir_inode ctx dir in
      Cache.with_txn ctx.Ctx.cache (fun txn ->
          ignore (Dir.remove ctx txn dir dino name)))

let corrupt_nlink_for_test ctx inum nlink =
  modifying ctx
    [ (ilock inum, Types.W) ]
    (fun () ->
      let ino = live_inode ctx inum in
      Cache.with_txn ctx.Ctx.cache (fun txn ->
          Inode.write ctx txn inum { ino with nlink }))
