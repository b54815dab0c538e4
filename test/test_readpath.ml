(* The batched scatter-gather read path: foreground miss coalescing,
   parallel read-ahead, and its interaction with holes, the 64 KB
   small/large boundary, lock revocation, and replica failure. *)

open Simkit
open Frangipani
module T = Workloads.Testbed

let small () = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 ()

let setup ?config ?(nservers = 1) () =
  let t = small ()
  in
  let servers = List.init nservers (fun _ -> T.add_server t ?config ()) in
  (t, servers)

let one ?config () =
  let t, servers = setup ?config () in
  (t, List.hd servers)

let bytes_pat n seed = Bytes.init n (fun i -> Char.chr ((i * 7 + seed) mod 256))

(* Write [data] through [fs] in 64 KB pieces and push it to Petal so
   a later drop_caches gives a truly cold read. *)
let write_out fs f data =
  let len = Bytes.length data in
  let piece = 65536 in
  let rec go off =
    if off < len then begin
      Fs.write fs f ~off (Bytes.sub data off (min piece (len - off)));
      go (off + piece)
    end
  in
  go 0;
  Fs.sync fs;
  Fs.drop_caches fs

(* --- O(chunks) round trips ------------------------------------------------ *)

let test_cold_read_rpc_count () =
  Sim.run (fun () ->
      let _, fs = one () in
      let f = Fs.create fs ~dir:Fs.root "big" in
      let size = 512 * 1024 in
      let data = bytes_pat size 1 in
      write_out fs f data;
      let s0 = Fs.petal_stats fs in
      for i = 0 to (size / 65536) - 1 do
        let got = Fs.read fs f ~off:(i * 65536) ~len:65536 in
        Alcotest.(check bool)
          (Printf.sprintf "data @%dK" (i * 64))
          true
          (Bytes.equal got (Bytes.sub data (i * 65536) 65536))
      done;
      let s1 = Fs.petal_stats fs in
      let open Petal.Client in
      let rpcs = s1.read_rpcs - s0.read_rpcs in
      (* 512 KB spans ~9 chunks (16 small blocks + 7 large-area
         chunks); batching must keep the whole cold sweep at O(chunks)
         RPCs — the inode sector and boundary splits add a handful —
         not O(blocks) = 128. *)
      Alcotest.(check bool)
        (Printf.sprintf "O(chunks) rpcs, got %d" rpcs)
        true
        (rpcs >= size / 65536 && rpcs <= 14))

let test_misaligned_read_coalesces () =
  Sim.run (fun () ->
      let _, fs = one () in
      let f = Fs.create fs ~dir:Fs.root "mis" in
      let size = 1024 * 1024 in
      let data = bytes_pat size 3 in
      write_out fs f data;
      (* A block-aligned but chunk-misaligned cold read in the large
         area: the 64 KB miss runs split mid-chunk, so the tail piece
         of one run and the head piece of the next hit the same chunk
         and must ride one RPC. *)
      let off = Layout.small_area_per_file + (3 * Layout.block) in
      let len = 256 * 1024 in
      let s0 = Fs.petal_stats fs in
      let got = Fs.read fs f ~off ~len in
      let s1 = Fs.petal_stats fs in
      Alcotest.(check bool) "data" true (Bytes.equal got (Bytes.sub data off len));
      let open Petal.Client in
      Alcotest.(check bool) "adjacent pieces coalesced" true
        (s1.read_coalesced - s0.read_coalesced > 0);
      Alcotest.(check bool) "coalescing saved rpcs" true
        (s1.read_rpcs - s0.read_rpcs < s1.read_pieces - s0.read_pieces))

(* --- holes and the small/large boundary ----------------------------------- *)

let test_sparse_holes () =
  Sim.run (fun () ->
      let _, fs = one () in
      let f = Fs.create fs ~dir:Fs.root "sparse" in
      (* Blocks 0 and 3 of the small area, plus a write in the large
         area: blocks 1-2 stay unmapped and must read as zeros without
         breaking the batched miss runs around them. *)
      let p0 = bytes_pat 4096 5 and p3 = bytes_pat 4096 6 and pl = bytes_pat 4096 7 in
      Fs.write fs f ~off:0 p0;
      Fs.write fs f ~off:(3 * Layout.block) p3;
      Fs.write fs f ~off:(Layout.small_area_per_file + 65536) pl;
      Fs.sync fs;
      Fs.drop_caches fs;
      let size = Layout.small_area_per_file + 65536 + 4096 in
      let expect = Bytes.make size '\000' in
      Bytes.blit p0 0 expect 0 4096;
      Bytes.blit p3 0 expect (3 * Layout.block) 4096;
      Bytes.blit pl 0 expect (Layout.small_area_per_file + 65536) 4096;
      let got = Fs.read fs f ~off:0 ~len:size in
      Alcotest.(check bool) "holes read as zeros, data intact" true
        (Bytes.equal got expect))

let test_small_large_boundary () =
  Sim.run (fun () ->
      let _, fs = one () in
      let f = Fs.create fs ~dir:Fs.root "boundary" in
      let size = 128 * 1024 in
      let data = bytes_pat size 9 in
      write_out fs f data;
      (* One cold read spanning the 64 KB small/large switch: the
         address discontinuity splits the miss runs, both go down in
         one batched submission. *)
      let s0 = Fs.petal_stats fs in
      let got = Fs.read fs f ~off:0 ~len:size in
      let s1 = Fs.petal_stats fs in
      Alcotest.(check bool) "data across boundary" true (Bytes.equal got data);
      let open Petal.Client in
      Alcotest.(check bool) "one submission, few rpcs" true
        (s1.reads - s0.reads <= 3 && s1.read_rpcs - s0.read_rpcs <= 7))

(* --- revoke during a batched prefetch -------------------------------------- *)

let test_revoke_mid_prefetch () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a = List.nth servers 0 and b = List.nth servers 1 in
      let f = Fs.create a ~dir:Fs.root "contested" in
      let size = 1024 * 1024 in
      write_out a f (bytes_pat size 11);
      (* a's sequential read spawns a batched prefetch that keeps
         holding the file's R lock. *)
      ignore (Fs.read a f ~off:0 ~len:65536);
      (* b's write W-locks the file: the revoke must wait for a's
         in-flight batch, then a discards the prefetched data and
         releases. If the prefetch leaked the hold this would
         deadlock; if invalidation were skipped, a would read stale
         bytes below. *)
      let fresh = Bytes.make 4096 'B' in
      Fs.write b f ~off:0 fresh;
      Fs.sync b;
      let got = Fs.read a f ~off:0 ~len:4096 in
      Alcotest.(check bool) "a sees b's write after revoke" true
        (Bytes.equal got fresh);
      (* The prefetched window really was discarded: re-reading it
         costs new Petal reads. *)
      let s0 = Fs.petal_stats a in
      ignore (Fs.read a f ~off:65536 ~len:65536);
      let s1 = Fs.petal_stats a in
      Alcotest.(check bool) "prefetched data was discarded" true
        Petal.Client.(s1.reads - s0.reads > 0))

(* --- reads under a shared lock leave the inode clean ------------------------ *)

let test_shared_read_leaves_inode_clean () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a = List.nth servers 0 and b = List.nth servers 1 in
      let f = Fs.create a ~dir:Fs.root "shared" in
      Fs.write a f ~off:0 (bytes_pat 65536 15);
      Fs.sync a;
      ignore (Fs.read b f ~off:0 ~len:65536);
      (* a's write revokes b's R lock; b has nothing dirty to write
         back, not even an atime. *)
      let w0 = (Fs.petal_stats b).Petal.Client.writes in
      Fs.write a f ~off:0 (bytes_pat 4096 16);
      Alcotest.(check int) "reader's revoke writes nothing to Petal" w0
        (Fs.petal_stats b).Petal.Client.writes;
      (* Under the writer's exclusive hold a read still moves atime. *)
      let before = (Fs.stat a f).Fs.atime in
      Sim.sleep (Sim.sec 1.0);
      ignore (Fs.read a f ~off:0 ~len:4096);
      Alcotest.(check bool) "read under W advances atime" true
        ((Fs.stat a f).Fs.atime > before))

(* --- an invalidating revoke disarms read-ahead ---------------------------- *)

let test_revoke_disarms_read_ahead () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a = List.nth servers 0 and b = List.nth servers 1 in
      let f = Fs.create a ~dir:Fs.root "streamed" in
      let size = 1024 * 1024 in
      let data = bytes_pat size 17 in
      write_out a f data;
      let piece = 65536 in
      (* A prefetch's inherited hold sits in the shed registry exactly
         while its fetch is in flight. *)
      let prefetching () = Hashtbl.mem b.Ctx.shed_holds (Lockns.inode_lock f) in
      let settle () = Sim.sleep (Sim.sec 2.0) in
      let read_at i =
        let got = Fs.read b f ~off:(i * piece) ~len:piece in
        Alcotest.(check bool)
          (Printf.sprintf "data @%dK" (i * 64))
          true
          (Bytes.equal got (Bytes.sub data (i * piece) piece))
      in
      (* A stream nobody revokes prefetches from offset 0. *)
      read_at 0;
      Alcotest.(check bool) "unrevoked stream prefetches at 0" true (prefetching ());
      settle ();
      read_at 1;
      settle ();
      (* a's write invalidates b's cache, prefetched window included. *)
      let fresh = Bytes.make 4096 'A' in
      Fs.write a f ~off:0 fresh;
      Bytes.blit fresh 0 data 0 4096;
      (* Sequential by offset, but the first read after the revoke
         pays only for its own blocks: the inode sector and one data
         run. *)
      let r0 = (Fs.petal_stats b).Petal.Client.reads in
      read_at 2;
      Alcotest.(check bool) "no prefetch after revoke" false (prefetching ());
      settle ();
      Alcotest.(check int) "only demand reads after revoke" 2
        ((Fs.petal_stats b).Petal.Client.reads - r0);
      (* The next sequential read, with no revoke between, re-arms. *)
      read_at 3;
      Alcotest.(check bool) "second read in a row prefetches" true (prefetching ());
      settle ();
      let r1 = (Fs.petal_stats b).Petal.Client.reads in
      read_at 4;
      Alcotest.(check int) "window was prefetched" r1
        (Fs.petal_stats b).Petal.Client.reads)

(* --- a slow Petal does not pile up speculation -------------------------------- *)

(* Every message to a Petal server waits 50 ms, so prefetches stay in
   flight across many reads. *)
let slow_petal t =
  let nf = Cluster.Netfault.create t.T.net in
  Array.iter
    (fun dst -> Cluster.Netfault.shape nf ~dst ~delay:(Sim.ms 50))
    t.T.petal.Petal.Testbed.addrs

(* The blocks of [ino] from offset [from] to [size] that are cached or
   in flight on [fs]. *)
let blocks_ahead fs ino ~from ~size =
  List.init ((size - from) / Layout.block) (fun k -> from + (k * Layout.block))
  |> List.filter (fun boff ->
         match File.block_addr ino ~boff with
         | Some addr -> Cache.present fs.Ctx.cache addr
         | None -> false)
  |> List.length

let test_slow_petal_bounds_speculation () =
  Sim.run (fun () ->
      let t, fs = one () in
      let f = Fs.create fs ~dir:Fs.root "slow" in
      let size = 4 * 1024 * 1024 in
      let data = bytes_pat size 19 in
      write_out fs f data;
      let ino = Inode.read fs f in
      slow_petal t;
      let read_ahead = fs.Ctx.config.Ctx.read_ahead in
      let piece = 65536 in
      let most = ref 0 in
      for i = 0 to (size / piece) - 1 do
        let got = Fs.read fs f ~off:(i * piece) ~len:piece in
        Alcotest.(check bool)
          (Printf.sprintf "data @%dK" (i * 64))
          true
          (Bytes.equal got (Bytes.sub data (i * piece) piece));
        (* Let the prefetch this read spawned register its window,
           then count the blocks past the read's end that are cached
           or in flight: never more than one window, however slow the
           fetches. *)
        Sim.sleep (Sim.ms 1);
        let ahead = blocks_ahead fs ino ~from:((i + 1) * piece) ~size in
        most := max !most ahead;
        Alcotest.(check bool)
          (Printf.sprintf "at most one window ahead @%dK (%d blocks)" (i * 64)
             ahead)
          true (ahead <= read_ahead)
      done;
      Alcotest.(check int) "a whole window ran ahead" read_ahead !most)

(* --- the window ramps along a sequential run --------------------------------- *)

let test_read_ahead_ramps () =
  Sim.run (fun () ->
      let t, servers = setup ~nservers:2 () in
      let a = List.nth servers 0 and b = List.nth servers 1 in
      let f = Fs.create a ~dir:Fs.root "ramp" in
      let size = 4 * 1024 * 1024 in
      let data = bytes_pat size 23 in
      write_out a f data;
      let ino = Inode.read a f in
      slow_petal t;
      let cap = a.Ctx.config.Ctx.read_ahead and piece = 65536 in
      let step = piece / Layout.block in
      (* Read the piece at [off] on [a], then count the blocks past it
         that are cached or in flight once the prefetch has registered
         its window. *)
      let read_at off =
        let got = Fs.read a f ~off ~len:piece in
        Alcotest.(check bool)
          (Printf.sprintf "data @%dK" (off / 1024))
          true
          (Bytes.equal got (Bytes.sub data off piece));
        Sim.sleep (Sim.ms 1);
        blocks_ahead a ino ~from:(off + piece) ~size
      in
      (* A cold file's first read prefetches a quarter of the cap; each
         read that continues it widens the window by the run behind it,
         up to the cap. *)
      for i = 0 to 16 do
        Alcotest.(check int)
          (Printf.sprintf "window after read %d" i)
          (min cap ((cap / 4) + (max 0 (i - 1) * step)))
          (read_at (i * piece))
      done;
      (* A seek restarts the ramp: the seeking read prefetches nothing,
         the read after it a quarter of the cap. *)
      let far = size / 2 in
      Alcotest.(check int) "a seek prefetches nothing" 0 (read_at far);
      Alcotest.(check int) "the ramp restarts after a seek" (cap / 4)
        (read_at (far + piece));
      (* So does a revoke that invalidates the file; the cancelled
         prefetch lands and is dropped before [a] reads again. *)
      Fs.write b f ~off:0 (Bytes.sub data 0 4096);
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check int) "the read after a revoke prefetches nothing" 0
        (read_at (far + (2 * piece)));
      Alcotest.(check int) "the ramp restarts after a revoke" (cap / 4)
        (read_at (far + (3 * piece))))

(* --- replica failure during a batched read ---------------------------------- *)

let test_dead_replica_batched_read () =
  Sim.run (fun () ->
      let t, fs = one () in
      let f = Fs.create fs ~dir:Fs.root "degraded" in
      let size = 512 * 1024 in
      let data = bytes_pat size 13 in
      write_out fs f data;
      (* Kill one Petal machine (a lock server dies with it; give
         Paxos a beat), then sweep the file cold: every piece routed
         to the dead primary fails over to its replica on its own 2 s
         timeout, and pieces of one batch overlap their timeouts
         instead of paying them in series. *)
      Cluster.Host.crash t.T.petal.Petal.Testbed.hosts.(1);
      Sim.sleep (Sim.sec 15.0);
      Fs.drop_caches fs;
      let t0 = Sim.now () in
      for i = 0 to (size / 65536) - 1 do
        let got = Fs.read fs f ~off:(i * 65536) ~len:65536 in
        Alcotest.(check bool)
          (Printf.sprintf "degraded data @%dK" (i * 64))
          true
          (Bytes.equal got (Bytes.sub data (i * 65536) 65536))
      done;
      (* ~9 chunks; serial per-piece failover would cost ~9 x 2 s on
         top of the transfer. *)
      Alcotest.(check bool) "failovers overlap within batches" true
        (Sim.now () - t0 < Sim.sec 10.0))

(* --- predictor table bounds --------------------------------------------------- *)

let test_read_ahead_table_bounded () =
  Sim.run (fun () ->
      let _, fs = one () in
      let n = Ctx.read_ahead_table_cap + 40 in
      let files =
        List.init n (fun i ->
            let f = Fs.create fs ~dir:Fs.root (Printf.sprintf "t%d" i) in
            Fs.write fs f ~off:0 (bytes_pat 512 i);
            f)
      in
      List.iter (fun f -> ignore (Fs.read fs f ~off:0 ~len:512)) files;
      Alcotest.(check bool) "predictor table capped" true
        (Hashtbl.length fs.Ctx.read_ahead_next <= Ctx.read_ahead_table_cap);
      let victim = List.nth files (n - 1) in
      Alcotest.(check bool) "entry live before unlink" true
        (Hashtbl.mem fs.Ctx.read_ahead_next victim);
      Fs.unlink fs ~dir:Fs.root (Printf.sprintf "t%d" (n - 1));
      Alcotest.(check bool) "unlink drops predictor entry" false
        (Hashtbl.mem fs.Ctx.read_ahead_next victim);
      let v2 = List.nth files (n - 2) in
      Fs.truncate fs v2 ~size:0;
      Alcotest.(check bool) "truncate-to-zero drops predictor entry" false
        (Hashtbl.mem fs.Ctx.read_ahead_next v2))

let () =
  Alcotest.run "readpath"
    [
      ( "batched",
        [
          Alcotest.test_case "cold read is O(chunks) rpcs" `Quick
            test_cold_read_rpc_count;
          Alcotest.test_case "misaligned read coalesces" `Quick
            test_misaligned_read_coalesces;
          Alcotest.test_case "sparse holes in miss run" `Quick test_sparse_holes;
          Alcotest.test_case "small/large boundary" `Quick
            test_small_large_boundary;
        ] );
      ( "interaction",
        [
          Alcotest.test_case "revoke mid-batched-prefetch" `Quick
            test_revoke_mid_prefetch;
          Alcotest.test_case "dead replica during batched read" `Quick
            test_dead_replica_batched_read;
          Alcotest.test_case "read-ahead table bounded" `Quick
            test_read_ahead_table_bounded;
          Alcotest.test_case "shared read leaves inode clean" `Quick
            test_shared_read_leaves_inode_clean;
          Alcotest.test_case "revoke disarms read-ahead" `Quick
            test_revoke_disarms_read_ahead;
          Alcotest.test_case "slow Petal bounds speculation" `Quick
            test_slow_petal_bounds_speculation;
          Alcotest.test_case "read-ahead ramps to its cap" `Quick
            test_read_ahead_ramps;
        ] );
    ]
