(** Bitmap allocator (§3, §5).

    Each server allocates from a 512 B bitmap sector it holds the
    exclusive sector lock for; when that sector fills it locks
    another (picked by a lease-salted rotor, {!rotor}, so servers
    spread out). Freeing a bit may touch a sector currently owned by
    another server — the lock service revokes it transparently.

    Allocation is two steps. A scan ({!reserve_bits}) takes the
    sector lock, reads the sector once, picks clear bits no local
    operation has reserved,
    records them in the server's in-memory reserved set and drops its
    local hold (the lock stays cached). {!claim} re-takes the lock and
    re-reads the bitmap sector: a bit still clear is set within the
    transaction; one another server took meanwhile (it held the
    sector between the two steps, unaware of the reservation) makes
    [claim] return false and the caller takes another bit. Block pools
    reserve one bit and claim it at once ({!alloc}); the reservation
    is dropped when the transaction commits or aborts.

    Inodes come in batches. {!take_inode} pops the next of
    {!batch} fresh inodes the server reserved with one scan and
    fetched ahead ({!refill_inodes}: their locks acquired
    concurrently, their sectors read with one {!Cache.fill_runs}, so
    adjacent sectors of one chunk are one Petal RPC and one disk
    access; the locks stay cached). The batch's reservations belong to
    the server; a taken inode's passes to the create's transaction. A
    create then locks the fresh inode (normally still cached), reads
    it (a cache hit unless a revoke invalidated it) and claims its
    bit, so the sector lock covers only the scan and the bit flip.
    The batch is topped up behind the creates ({!top_up}): a take
    that leaves fewer than [batch / 2] starts one background refill
    unless one is in flight, so a create refills under its directory
    lock only when it finds the batch empty, and then for itself,
    without waiting for the top-up.

    Locking discipline: a create holds its directory lock, then the
    fresh inode's, then the sector lock; sector locks are acquired
    after all inode locks of the operation, in (pool, sector)-sorted
    order for multi-free transactions, and from [claim] on held until
    the transaction commits (via {!Cache.on_commit}), so the logged
    bitmap change can never reach Petal before its record. A refill
    holds no sector lock while it gathers inode locks; it registers
    them as discretionary holds, so a contended revoke sheds one
    instead of deadlocking two servers whose batches overlap. *)

open Simkit
open Locksvc
open Errors

(** The sector of a pool of [sectors] that a server holding [lease]
    tries after [tries] full ones. 7919 is prime, so two leases less
    than [sectors] apart start on distinct sectors unless [sectors]
    is a multiple of 7919. *)
let rotor ~sectors ~lease ~tries = ((lease * 7919) + tries) mod sectors

(* Up to [n] clear, unreserved bits of the sector starting at bit
   [first] in rotor order, as absolute bit numbers; the caller holds
   the sector lock. *)
let scan_sector ctx (ps : Alloc_state.pool_state) pool first ~hint n =
  let limit = min Layout.bits_per_sector (Layout.pool_size pool - first) in
  let sector =
    Cache.read ctx.Ctx.cache ~lock:(Lockns.bitmap_lock pool first)
      ~addr:(Layout.bit_sector pool first) ~len:Layout.sector
  in
  let rec probe i found acc =
    if found = n || i >= limit then List.rev acc
    else begin
      let within = (i + hint) mod limit in
      if
        (not (Ondisk.test_bit sector within))
        && not (Hashtbl.mem ps.reserved (first + within))
      then probe (i + 1) (found + 1) ((first + within) :: acc)
      else probe (i + 1) found acc
    end
  in
  probe 0 0 []

(** Reserve up to [n] clear bits of [pool] (at least one) under one
    sector-lock hold; the lock is not held on return. The
    reservations are the caller's to hand on or drop. *)
let reserve_bits ctx pool n =
  let ps = Alloc_state.pool ctx.Ctx.alloc pool in
  let sectors = Layout.pool_sectors pool in
  let lease = Clerk.lease ctx.Ctx.clerk in
  let rec attempt tries =
    if tries > sectors then fail Enospc
    else begin
      let s =
        match ps.sector with
        | Some s -> s
        | None ->
          let s = rotor ~sectors ~lease ~tries in
          ps.sector <- Some s;
          ps.hint <- 0;
          s
      in
      let first = s * Layout.bits_per_sector in
      let lock = Lockns.bitmap_lock pool first in
      Clerk.acquire ctx.Ctx.clerk ~lock Types.W;
      match
        Fun.protect
          ~finally:(fun () -> Clerk.release ctx.Ctx.clerk ~lock Types.W)
          (fun () -> scan_sector ctx ps pool first ~hint:ps.hint n)
      with
      | [] ->
        ps.sector <- None;
        attempt (tries + 1)
      | bits ->
        List.iter (fun bit -> Hashtbl.replace ps.reserved bit ()) bits;
        let last = List.nth bits (List.length bits - 1) in
        ps.hint <- last - first + 1;
        bits
    end
  in
  attempt 0

(* [txn] takes over the reservation of [bit]. *)
let hand_over ctx txn pool bit =
  let ps = Alloc_state.pool ctx.Ctx.alloc pool in
  Cache.on_commit txn (fun () -> Hashtbl.remove ps.reserved bit)

(** Fresh inodes reserved and fetched together: 8 x 512 B inode
    sectors are one 4 KB read, and an aligned batch is one lock-id
    run, so its 8 inode locks cost one request and one grant message
    ({!Types.run_length}). *)
let batch = Types.run_length

(** Reserve [batch] inode bits, acquire their locks concurrently,
    fetch their sectors with one {!Cache.fill_runs} and drop the
    local holds (the locks stay cached), then append them to the
    server's batch. A hold a contended revoke shed is not fetched;
    its inode is fetched again when taken. A failed refill releases
    its locks, drops its reservations and re-raises. *)
let refill_inodes ctx =
  let st = ctx.Ctx.alloc in
  let ps = Alloc_state.pool st Layout.Inode_pool in
  let bits = reserve_bits ctx Layout.Inode_pool batch in
  let holds = List.map (fun bit -> (bit, ref false)) bits in
  let failure = ref None in
  Sim.fork_join
    (fun (bit, shed) ->
      let lock = Inode.lock bit in
      match Clerk.acquire ctx.Ctx.clerk ~lock Types.W with
      | () -> Ctx.hold_register ctx ~lock Types.W shed
      | exception e -> failure := Some e)
    holds;
  (* From here on a revoke waits for the fetch. *)
  let held =
    List.filter_map
      (fun (bit, shed) -> if Ctx.hold_take ctx ~lock:(Inode.lock bit) shed then Some bit else None)
      holds
  in
  let release () =
    List.iter (fun bit -> Clerk.release ctx.Ctx.clerk ~lock:(Inode.lock bit) Types.W) held
  in
  match
    Option.iter raise !failure;
    Cache.fill_runs ctx.Ctx.cache
      (List.map (fun bit -> (Inode.lock bit, Inode.addr bit, Layout.inode_size)) held)
      ~granule:Layout.inode_size
  with
  | () ->
    release ();
    List.iter (fun bit -> Queue.push bit st.fresh) bits
  | exception e ->
    release ();
    List.iter (Hashtbl.remove ps.reserved) bits;
    raise e

(** Refill in the background once fewer than half a batch is left,
    unless a top-up is already in flight or the server is unusable.
    The top-up is its own process and holds none of the create's
    locks. A failed one has released its locks and dropped its
    reservations ({!refill_inodes}); it ends quietly, like a failed
    prefetch. *)
let top_up ctx =
  let st = ctx.Ctx.alloc in
  if Queue.length st.fresh < batch / 2 && (not st.topping_up) && Ctx.usable ctx then begin
    st.topping_up <- true;
    Sim.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> st.topping_up <- false)
          (fun () ->
            try refill_inodes ctx
            with
            | Error _ | Types.Lease_expired | Cluster.Host.Crashed _
            | Petal.Protocol.Unavailable _
            -> ()))
  end

(** The next fresh inode number for [txn]; its reservation passes to
    [txn]. A create that finds the batch empty refills it itself: had
    it waited for an in-flight top-up, every concurrent creator on the
    server would queue behind that one batch of 8. *)
let rec take_inode ctx txn =
  match Queue.take_opt ctx.Ctx.alloc.fresh with
  | Some inum ->
    hand_over ctx txn Layout.Inode_pool inum;
    top_up ctx;
    inum
  | None ->
    refill_inodes ctx;
    take_inode ctx txn

(** Give back the fresh batch, whose sectors a cache drop evicts: the
    next create refills with one read instead of missing on each
    inode sector in turn. *)
let drop_fresh ctx =
  let st = ctx.Ctx.alloc in
  let ps = Alloc_state.pool st Layout.Inode_pool in
  Queue.iter (Hashtbl.remove ps.reserved) st.fresh;
  Queue.clear st.fresh

(** Set the reserved [bit] within [txn] if it is still clear, holding
    its sector lock until [txn] commits; false if another server
    took it since it was reserved. *)
let claim ctx txn pool bit =
  let lock = Lockns.bitmap_lock pool bit in
  let addr = Layout.bit_sector pool bit in
  let within = Layout.bit_in_sector bit in
  Clerk.acquire ctx.Ctx.clerk ~lock Types.W;
  match Cache.read ctx.Ctx.cache ~lock ~addr ~len:Layout.sector with
  | sector when Ondisk.test_bit sector within ->
    Clerk.release ctx.Ctx.clerk ~lock Types.W;
    false
  | sector ->
    Cache.update ctx.Ctx.cache txn ~lock ~addr ~off:(Ondisk.bit_byte_off within)
      ~bytes:(Ondisk.set_bit_byte sector within true);
    Cache.on_commit txn (fun () -> Clerk.release ctx.Ctx.clerk ~lock Types.W);
    true
  | exception e ->
    Clerk.release ctx.Ctx.clerk ~lock Types.W;
    raise e

(** Allocate one object from [pool]; the bit is set within [txn] and
    the sector lock is released when [txn] commits. *)
let rec alloc ctx txn pool =
  let bit = List.hd (reserve_bits ctx pool 1) in
  hand_over ctx txn pool bit;
  if claim ctx txn pool bit then bit else alloc ctx txn pool

(** Free a set of bits; sector locks are taken in lock-id, hence
    (pool, sector), order and held to commit (deadlock-avoidance
    discipline). *)
let free_many ctx txn bits =
  let keyed =
    List.map (fun (pool, bit) -> (Lockns.bitmap_lock pool bit, pool, bit)) bits
    |> List.sort compare
  in
  let locked = Hashtbl.create 4 in
  List.iter
    (fun (lock, pool, bit) ->
      if not (Hashtbl.mem locked lock) then begin
        Clerk.acquire ctx.Ctx.clerk ~lock Types.W;
        Hashtbl.replace locked lock ();
        Cache.on_commit txn (fun () -> Clerk.release ctx.Ctx.clerk ~lock Types.W)
      end;
      let sector_addr = Layout.bit_sector pool bit in
      let within = Layout.bit_in_sector bit in
      let sector = Cache.read ctx.Ctx.cache ~lock ~addr:sector_addr ~len:Layout.sector in
      if Ondisk.test_bit sector within then
        Cache.update ctx.Ctx.cache txn ~lock ~addr:sector_addr
          ~off:(Ondisk.bit_byte_off within)
          ~bytes:(Ondisk.set_bit_byte sector within false))
    keyed

let free ctx txn pool bit = free_many ctx txn [ (pool, bit) ]
