open Locksvc

type finding =
  | Dangling_entry of { dir : int; name : string; target : int }
  | Bad_nlink of { inum : int; stored : int; actual : int }
  | Unallocated_ref of { inum : int; pool : Layout.pool; bit : int }
  | Double_ref of { pool : Layout.pool; bit : int; inums : int * int }
  | Leaked_bit of { pool : Layout.pool; bit : int }
  | Orphan_inode of { inum : int }

let pool_name = function
  | Layout.Inode_pool -> "inode"
  | Layout.Small_meta -> "small-meta"
  | Layout.Small_data -> "small-data"
  | Layout.Large_meta -> "large-meta"
  | Layout.Large_data -> "large-data"

let pp_finding fmt = function
  | Dangling_entry { dir; name; target } ->
    Format.fprintf fmt "dangling entry %S in dir %d -> free inode %d" name dir target
  | Bad_nlink { inum; stored; actual } ->
    Format.fprintf fmt "inode %d has nlink %d, tree says %d" inum stored actual
  | Unallocated_ref { inum; pool; bit } ->
    Format.fprintf fmt "inode %d references unallocated %s bit %d" inum
      (pool_name pool) bit
  | Double_ref { pool; bit; inums = a, b } ->
    Format.fprintf fmt "%s bit %d referenced by inodes %d and %d" (pool_name pool)
      bit a b
  | Leaked_bit { pool; bit } ->
    Format.fprintf fmt "leaked %s bit %d (allocated, unreferenced)" (pool_name pool)
      bit
  | Orphan_inode { inum } ->
    Format.fprintf fmt "orphan inode %d (allocated, unreachable)" inum

let with_inode_r ctx inum f =
  Lockns.with_locks ctx.Ctx.clerk [ (Lockns.inode_lock inum, Types.R) ] (fun () -> f ())

let bitmap_sector ctx pool bit =
  let lock = Lockns.bitmap_lock pool bit in
  Lockns.with_locks ctx.Ctx.clerk [ (lock, Types.R) ] (fun () ->
      Cache.read ctx.Ctx.cache ~lock ~addr:(Layout.bit_sector pool bit)
        ~len:Layout.sector)

let bit_set ctx pool bit =
  Ondisk.test_bit (bitmap_sector ctx pool bit) (Layout.bit_in_sector bit)

let check ctx =
  let findings = ref [] in
  let note f = findings := f :: !findings in
  (* Phase 1: walk the tree. *)
  let visited = Hashtbl.create 256 in (* inum -> inode *)
  let refs = Hashtbl.create 256 in (* inum -> # of directory entries *)
  let subdirs = Hashtbl.create 64 in (* dir inum -> # of child dirs *)
  let bit_owner = Hashtbl.create 1024 in (* (pool, bit) -> inum *)
  let claim inum pool bit =
    match Hashtbl.find_opt bit_owner (pool, bit) with
    | Some prev -> note (Double_ref { pool; bit; inums = (prev, inum) })
    | None -> Hashtbl.replace bit_owner (pool, bit) inum
  in
  let rec walk inum =
    if not (Hashtbl.mem visited inum) then begin
      let ino = with_inode_r ctx inum (fun () -> Inode.read ctx inum) in
      Hashtbl.replace visited inum ino;
      claim inum Layout.Inode_pool inum;
      let meta = ino.Ondisk.itype = Ondisk.Dir in
      List.iter (fun (pool, bit) -> claim inum pool bit) (File.content_bits ino ~meta);
      if ino.Ondisk.itype = Ondisk.Dir then begin
        let entries = with_inode_r ctx inum (fun () -> Dir.entries ctx inum ino) in
        List.iter
          (fun (name, target) ->
            let tino = with_inode_r ctx target (fun () -> Inode.read ctx target) in
            if tino.Ondisk.itype = Ondisk.Free then
              note (Dangling_entry { dir = inum; name; target })
            else begin
              Hashtbl.replace refs target
                (1 + Option.value ~default:0 (Hashtbl.find_opt refs target));
              if tino.Ondisk.itype = Ondisk.Dir then begin
                Hashtbl.replace subdirs inum
                  (1 + Option.value ~default:0 (Hashtbl.find_opt subdirs inum));
                walk target
              end
              else walk target
            end)
          entries
      end
    end
  in
  walk Fs.root;
  (* Phase 2: link counts. *)
  Hashtbl.iter
    (fun inum (ino : Ondisk.inode) ->
      let actual =
        match ino.Ondisk.itype with
        | Ondisk.Dir -> 2 + Option.value ~default:0 (Hashtbl.find_opt subdirs inum)
        | _ -> Option.value ~default:0 (Hashtbl.find_opt refs inum)
      in
      let actual = if inum = Fs.root then max actual 2 else actual in
      if ino.Ondisk.itype <> Ondisk.Free && actual <> ino.Ondisk.nlink then
        note (Bad_nlink { inum; stored = ino.Ondisk.nlink; actual }))
    visited;
  (* Phase 3: every referenced bit must be set. *)
  Hashtbl.iter
    (fun (pool, bit) inum ->
      if not (bit_set ctx pool bit) then note (Unallocated_ref { inum; pool; bit }))
    bit_owner;
  (* Phase 4: leak scan over every bitmap sector that holds at least
     one reachable bit (bounded: untouched sectors cannot hold
     reachable data). *)
  let sectors = Hashtbl.create 64 in
  Hashtbl.iter
    (fun (pool, bit) _ -> Hashtbl.replace sectors (pool, bit / Layout.bits_per_sector) ())
    bit_owner;
  Hashtbl.iter
    (fun (pool, s) () ->
      let first = s * Layout.bits_per_sector in
      let bits = bitmap_sector ctx pool first in
      for i = 0 to min Layout.bits_per_sector (Layout.pool_size pool - first) - 1 do
        let bit = first + i in
        if Ondisk.test_bit bits i && not (Hashtbl.mem bit_owner (pool, bit)) then
          if pool = Layout.Inode_pool then begin
            let ino = with_inode_r ctx bit (fun () -> Inode.read ctx bit) in
            if ino.Ondisk.itype = Ondisk.Free then note (Leaked_bit { pool; bit })
            else note (Orphan_inode { inum = bit })
          end
          else note (Leaked_bit { pool; bit })
      done)
    sectors;
  List.rev !findings

let repair ctx findings =
  let fixed = ref 0 in
  let fix () = incr fixed in
  List.iter
    (fun finding ->
      match finding with
      | Dangling_entry { dir; name; _ } ->
        Lockns.with_locks ctx.Ctx.clerk
          [ (Lockns.inode_lock dir, Types.W) ]
          (fun () ->
            let dino = Inode.read ctx dir in
            Cache.with_txn ctx.Ctx.cache (fun txn ->
                ignore (Dir.remove ctx txn dir dino name)));
        fix ()
      | Bad_nlink { inum; actual; _ } ->
        Lockns.with_locks ctx.Ctx.clerk
          [ (Lockns.inode_lock inum, Types.W) ]
          (fun () ->
            let ino = Inode.read ctx inum in
            Cache.with_txn ctx.Ctx.cache (fun txn ->
                Inode.write ctx txn inum { ino with nlink = actual }));
        fix ()
      | Leaked_bit { pool; bit } ->
        Cache.with_txn ctx.Ctx.cache (fun txn -> Alloc.free ctx txn pool bit);
        fix ()
      | Unallocated_ref _ | Double_ref _ ->
        (* No safe local repair: needs operator judgement. *)
        ()
      | Orphan_inode { inum } ->
        (* Free the unreachable inode and everything it points to. *)
        Lockns.with_locks ctx.Ctx.clerk
          [ (Lockns.inode_lock inum, Types.W) ]
          (fun () ->
            let ino = Inode.read ctx inum in
            if ino.Ondisk.itype <> Ondisk.Free then
              Cache.with_txn ctx.Ctx.cache (fun txn ->
                  let meta = ino.Ondisk.itype = Ondisk.Dir in
                  Alloc.free_many ctx txn
                    ((Layout.Inode_pool, inum) :: File.content_bits ino ~meta);
                  Inode.write ctx txn inum { Ondisk.empty_inode with itype = Free }));
        fix ())
    findings;
  Wal.flush ctx.Ctx.wal;
  !fixed
