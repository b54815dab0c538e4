(** Bitmap allocator (§3, §5).

    Each server allocates from a bitmap segment it holds the
    exclusive segment lock for; when that segment fills it locks
    another (picked by a lease-salted rotor, so servers spread out).
    Freeing a bit may touch a segment currently owned by another
    server — the lock service revokes it transparently.

    Allocation is two steps. {!reserve} takes the segment lock, picks
    a clear bit no local operation has reserved, records it in the
    server's in-memory reserved set and drops its local hold (the
    lock stays cached). {!claim} re-takes the lock and re-reads the
    bitmap sector: a bit still clear is set within the transaction;
    one another server took meanwhile (it held the segment between
    the two steps, unaware of the reservation) makes [claim] return
    false and the caller reserves again. A create locks and fetches
    its fresh inode between the two steps, so the segment lock covers
    only the scan and the bit flip; {!alloc} runs them back to back.
    The reservation is dropped when the transaction commits or
    aborts.

    Locking discipline: segment locks are acquired after all inode
    locks of the operation, in (pool, segment)-sorted order for
    multi-free transactions, and from [claim] on held until the
    transaction commits (via {!Cache.on_commit}), so the logged
    bitmap change can never reach Petal before its record. *)

open Locksvc
open Errors

let seg_lock pool seg = Lockns.bitmap_lock (Layout.global_segment pool seg)

(* Find a clear, unreserved bit in [seg]; the caller holds the segment
   lock. Returns the absolute bit number. *)
let scan_segment ctx (ps : Alloc_state.pool_state) pool seg ~hint =
  let lock = seg_lock pool seg in
  let first = Layout.segment_first_bit seg in
  let limit = min Layout.bits_per_segment (Layout.pool_size pool - first) in
  if limit <= 0 then None
  else begin
    let rec probe i tried =
      if tried >= limit then None
      else begin
        let abs_bit = first + ((i + hint) mod limit) in
        let sector =
          Cache.read ctx.Ctx.cache ~lock ~addr:(Layout.bit_sector pool abs_bit)
            ~len:Layout.sector
        in
        if
          (not (Ondisk.test_bit sector (Layout.bit_in_sector abs_bit)))
          && not (Hashtbl.mem ps.reserved abs_bit)
        then Some abs_bit
        else probe (i + 1) (tried + 1)
      end
    in
    probe 0 0
  end

(** Reserve a clear bit of [pool] for [txn]; the segment lock is not
    held on return. *)
let reserve ctx txn pool =
  let ps = Alloc_state.pool ctx.Ctx.alloc pool in
  let nsegs = Layout.pool_segments pool in
  let salt = Clerk.lease ctx.Ctx.clerk * 7919 in
  let rec attempt tries =
    if tries > nsegs then fail Enospc
    else begin
      let seg =
        match ps.seg with
        | Some s -> s
        | None ->
          let s = (salt + tries) mod nsegs in
          ps.seg <- Some s;
          ps.hint <- 0;
          s
      in
      let lock = seg_lock pool seg in
      Clerk.acquire ctx.Ctx.clerk ~lock Types.W;
      match
        Fun.protect
          ~finally:(fun () -> Clerk.release ctx.Ctx.clerk ~lock Types.W)
          (fun () -> scan_segment ctx ps pool seg ~hint:ps.hint)
      with
      | Some bit ->
        Hashtbl.replace ps.reserved bit ();
        Cache.on_commit txn (fun () -> Hashtbl.remove ps.reserved bit);
        ps.hint <- bit - Layout.segment_first_bit seg + 1;
        bit
      | None ->
        ps.seg <- None;
        attempt (tries + 1)
    end
  in
  attempt 0

(** Set the reserved [bit] within [txn] if it is still clear, holding
    its segment lock until [txn] commits; false if another server
    took it since {!reserve}. *)
let claim ctx txn pool bit =
  let lock = seg_lock pool (Layout.segment_of_bit bit) in
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
    the segment lock is released when [txn] commits. *)
let rec alloc ctx txn pool =
  let bit = reserve ctx txn pool in
  if claim ctx txn pool bit then bit else alloc ctx txn pool

(** Free a set of bits; segment locks are taken in (pool, segment)
    order and held to commit (deadlock-avoidance discipline). *)
let free_many ctx txn bits =
  let keyed =
    List.map (fun (pool, bit) -> ((Layout.pool_index pool, Layout.segment_of_bit bit), (pool, bit))) bits
    |> List.sort compare
  in
  let locked = Hashtbl.create 4 in
  List.iter
    (fun ((_, _), (pool, bit)) ->
      let seg = Layout.segment_of_bit bit in
      let lock = seg_lock pool seg in
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
