(* Invariants of the on-disk layout (§3, Figure 4), the lock-id
   namespace, and the fixed-structure codecs. *)

open Frangipani

let tb = 1 lsl 40

let test_regions_ordered_and_disjoint () =
  let regions =
    [
      ("params", Layout.params_base, Layout.logs_base);
      ("logs", Layout.logs_base, Layout.bitmap_base);
      ("bitmaps", Layout.bitmap_base, Layout.inode_base);
      ("inodes", Layout.inode_base, Layout.small_base);
      ("small", Layout.small_base, Layout.large_base);
    ]
  in
  List.iter
    (fun (name, lo, hi) ->
      Alcotest.(check bool) (name ^ " non-empty") true (lo < hi))
    regions;
  (* Figure 4's sizes. *)
  Alcotest.(check int) "logs at 1T" tb Layout.logs_base;
  Alcotest.(check int) "bitmaps at 2T" (2 * tb) Layout.bitmap_base;
  Alcotest.(check int) "inodes at 5T" (5 * tb) Layout.inode_base;
  Alcotest.(check int) "small at 6T" (6 * tb) Layout.small_base;
  Alcotest.(check int) "large at 134T" (134 * tb) Layout.large_base

let test_log_slots_disjoint () =
  for s = 0 to Layout.max_servers - 1 do
    let a = Layout.log_addr ~slot:s in
    Alcotest.(check bool) "in region" true
      (a >= Layout.logs_base && a + Layout.log_bytes <= Layout.bitmap_base);
    if s > 0 then
      Alcotest.(check bool) "disjoint from predecessor" true
        (a >= Layout.log_addr ~slot:(s - 1) + Layout.log_bytes)
  done

let test_extremes_in_bounds () =
  (* The largest inode, small block and large block stay inside their
     regions. *)
  let last_inode = Layout.inode_addr (Layout.max_inodes - 1) in
  Alcotest.(check bool) "last inode" true
    (last_inode + Layout.inode_size <= Layout.small_base);
  let last_small =
    Layout.small_addr Layout.Small_data (Layout.small_data_count - 1)
  in
  Alcotest.(check bool) "last small block" true
    (last_small + Layout.small_block <= Layout.large_base);
  let last_large =
    Layout.large_addr Layout.Large_data (Layout.large_data_count - 1)
  in
  Alcotest.(check bool) "last large block" true
    (last_large + Layout.large_block <= 1 lsl 62)

let test_pools_disjoint () =
  (* §4's reuse rule, structurally: across the FULL index space of
     each pool pair, a metadata block number and a data block number
     can never map to the same Petal address. The pools are
     contiguous and ordered, so disjointness of the whole index space
     reduces to the boundary blocks. *)
  let last_meta = Layout.small_addr Layout.Small_meta (Layout.small_meta_count - 1) in
  let first_data = Layout.small_addr Layout.Small_data 0 in
  Alcotest.(check bool) "small pools ordered" true
    (last_meta + Layout.small_block <= first_data);
  Alcotest.(check int) "small pools adjacent (no wasted range)"
    (last_meta + Layout.small_block) first_data;
  Alcotest.(check int) "small meta starts the region" Layout.small_base
    (Layout.small_addr Layout.Small_meta 0);
  let last_lmeta = Layout.large_addr Layout.Large_meta (Layout.large_meta_count - 1) in
  let first_ldata = Layout.large_addr Layout.Large_data 0 in
  Alcotest.(check bool) "large pools ordered" true
    (last_lmeta + Layout.large_block <= first_ldata);
  Alcotest.(check int) "large pools adjacent" (last_lmeta + Layout.large_block)
    first_ldata;
  (* Exhaustive over the (small) metadata pool: every metadata
     address precedes every data address. *)
  for b = 0 to Layout.small_meta_count - 1 do
    assert (Layout.small_addr Layout.Small_meta b < first_data)
  done

let prop_pools_disjoint =
  QCheck.Test.make ~name:"small meta/data addresses never collide" ~count:1000
    QCheck.(pair (int_bound (Layout.small_meta_count - 1))
              (int_bound (1 lsl 30)))
    (fun (m, d) ->
      let d = d mod Layout.small_data_count in
      Layout.small_addr Layout.Small_meta m
      <> Layout.small_addr Layout.Small_data d)

let prop_bitmap_math =
  QCheck.Test.make ~name:"bitmap sector math is consistent" ~count:500
    QCheck.(pair (int_bound 4) (int_bound 10_000_000))
    (fun (pidx, n) ->
      let pool =
        List.nth
          [ Layout.Inode_pool; Small_meta; Small_data; Large_meta; Large_data ]
          pidx
      in
      let n = n mod Layout.pool_size pool in
      let sector = Layout.bit_sector pool n in
      let within = Layout.bit_in_sector n in
      let first = n - within in
      sector mod Layout.sector = 0
      && within >= 0
      && within < Layout.bits_per_sector
      && Layout.bit_sector pool first = sector
      && Lockns.bitmap_lock pool first = Lockns.bitmap_lock pool n
      && (first = 0 || Lockns.bitmap_lock pool (first - 1) <> Lockns.bitmap_lock pool n)
      && sector >= Layout.pool_bitmap_base pool
      && sector < Layout.pool_bitmap_base pool + (tb / 2))

let prop_lock_ids_unique =
  (* Lock ids from different namespaces must never collide, and only
     an inode lock maps back to a file. *)
  QCheck.Test.make ~name:"lock-id namespaces are disjoint" ~count:500
    QCheck.(quad (int_bound (Layout.max_inodes - 1)) (int_bound 255)
              (int_bound 4) (int_bound 100_000))
    (fun (inum, slot, pidx, bit) ->
      let pool =
        List.nth
          [ Layout.Inode_pool; Small_meta; Small_data; Large_meta; Large_data ]
          pidx
      in
      let bit = bit mod Layout.pool_size pool in
      let ids =
        [
          Lockns.barrier_lock;
          Lockns.inode_lock inum;
          Lockns.bitmap_lock pool bit;
          Lockns.log_lock slot;
          Lockns.block_lock (Layout.small_addr Layout.Small_data 12345);
        ]
      in
      List.length (List.sort_uniq compare ids) = 5
      && List.map Lockns.inode_of_lock ids
         = [ None; Some inum; None; None; None ])

(* §3 has each server allocate from a bitmap piece no other server
   uses, which holds only while distinct servers start on distinct
   pieces. Leases 1..max_servers start each pool's rotor on distinct
   sectors. Under the eight-sector segments Small_meta had 33 pieces,
   and 7919 = -1 (mod 33) sent 64 to 128 servers onto those same 33.
   Large_meta is exempt: its 1,024 bits fit in one sector. *)
let test_rotor_starts_distinct () =
  let starts sectors =
    List.init Layout.max_servers (fun l -> Alloc.rotor ~sectors ~lease:(l + 1) ~tries:0)
  in
  let distinct l = List.length (List.sort_uniq compare l) = List.length l in
  List.iter
    (fun pool ->
      Alcotest.(check bool)
        (Printf.sprintf "pool %d: %d sectors" (Layout.pool_index pool) (Layout.pool_sectors pool))
        true
        (distinct (starts (Layout.pool_sectors pool))))
    Layout.[ Inode_pool; Small_meta; Small_data; Large_data ];
  Alcotest.(check int) "Large_meta is one sector" 1 (Layout.pool_sectors Layout.Large_meta);
  Alcotest.(check bool) "33 eight-sector segments collide" false (distinct (starts 33))

let prop_inode_codec_roundtrip =
  QCheck.Test.make ~name:"inode encode/decode round-trips" ~count:300
    QCheck.(
      pair
        (pair (int_bound 3) (int_bound 1_000_000))
        (pair (string_of_size QCheck.Gen.(int_bound 100)) (int_bound 15)))
    (fun ((ty, size), (target, holes)) ->
      let itype =
        List.nth [ Ondisk.Free; Ondisk.Reg; Ondisk.Dir; Ondisk.Symlink ] ty
      in
      let small = Array.init 16 (fun i -> if i < holes then 0 else i * 7) in
      let ino =
        { Ondisk.itype; nlink = size mod 100; size; mtime = size * 3;
          ctime = size * 5; atime = size * 7; small; large = size mod 17;
          target = (if itype = Ondisk.Symlink then target else "") }
      in
      let sector = Bytes.make Layout.inode_size '\000' in
      let enc = Ondisk.encode_inode ino in
      Bytes.blit enc 0 sector Ondisk.off_itype (Bytes.length enc);
      Ondisk.decode_inode sector = ino)

let prop_dir_slot_roundtrip =
  QCheck.Test.make ~name:"directory slot encode/decode round-trips" ~count:300
    QCheck.(pair (string_of_size QCheck.Gen.(int_range 1 55)) (int_bound 1_000_000))
    (fun (name, inum) ->
      QCheck.assume (not (String.contains name '\000'));
      let sector = Bytes.make Layout.sector '\000' in
      let slot = Ondisk.encode_slot name inum in
      Bytes.blit slot 0 sector (Ondisk.dir_slot_off 3) (Bytes.length slot);
      Ondisk.read_slot sector 3 = Some (name, inum)
      && Ondisk.read_slot sector 2 = None)

let () =
  Alcotest.run "layout"
    [
      ( "layout",
        [
          Alcotest.test_case "regions ordered" `Quick test_regions_ordered_and_disjoint;
          Alcotest.test_case "log slots disjoint" `Quick test_log_slots_disjoint;
          Alcotest.test_case "extremes in bounds" `Quick test_extremes_in_bounds;
          Alcotest.test_case "meta/data pools disjoint" `Quick test_pools_disjoint;
          QCheck_alcotest.to_alcotest prop_pools_disjoint;
          QCheck_alcotest.to_alcotest prop_bitmap_math;
          Alcotest.test_case "rotor starts distinct" `Quick test_rotor_starts_distinct;
        ] );
      ("lockns", [ QCheck_alcotest.to_alcotest prop_lock_ids_unique ]);
      ( "ondisk",
        [
          QCheck_alcotest.to_alcotest prop_inode_codec_roundtrip;
          QCheck_alcotest.to_alcotest prop_dir_slot_roundtrip;
        ] );
    ]
