open Simkit
open Frangipani
module T = Workloads.Testbed

let small () = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 ()

let setup ?config ?(nservers = 1) () =
  let t = small () in
  let servers = List.init nservers (fun _ -> T.add_server t ?config ()) in
  (t, servers)

let one () =
  let t, servers = setup () in
  (t, List.hd servers)

let check_err e f =
  match f () with
  | _ -> Alcotest.fail ("expected " ^ Errors.to_string e)
  | exception Errors.Error e' ->
    Alcotest.(check string) "errno" (Errors.to_string e) (Errors.to_string e')

let bytes_pat n seed = Bytes.init n (fun i -> Char.chr ((i * 7 + seed) mod 256))

(* --- basic operations ---------------------------------------------------- *)

let test_create_write_read () =
  Sim.run (fun () ->
      let _, fs = one () in
      let f = Fs.create fs ~dir:Fs.root "hello" in
      let data = Bytes.of_string "hello, frangipani" in
      Fs.write fs f ~off:0 data;
      let got = Fs.read fs f ~off:0 ~len:100 in
      Alcotest.(check string) "roundtrip" (Bytes.to_string data) (Bytes.to_string got);
      let st = Fs.stat fs f in
      Alcotest.(check int) "size" (Bytes.length data) st.Fs.size;
      Alcotest.(check int) "nlink" 1 st.Fs.nlink)

let test_directories () =
  Sim.run (fun () ->
      let _, fs = one () in
      let d = Fs.mkdir fs ~dir:Fs.root "dir" in
      let sub = Fs.mkdir fs ~dir:d "sub" in
      let f = Fs.create fs ~dir:d "file" in
      ignore sub;
      Alcotest.(check int) "lookup" f (Fs.lookup fs ~dir:d "file");
      let names = List.map fst (Fs.readdir fs d) |> List.sort compare in
      Alcotest.(check (list string)) "readdir" [ "file"; "sub" ] names;
      Alcotest.(check int) "root nlink" 3 (Fs.stat fs Fs.root).Fs.nlink;
      Alcotest.(check int) "dir nlink" 3 (Fs.stat fs d).Fs.nlink;
      check_err Errors.Eexist (fun () -> Fs.mkdir fs ~dir:d "sub");
      check_err Errors.Enoent (fun () -> Fs.lookup fs ~dir:d "absent");
      check_err Errors.Enotempty (fun () -> Fs.rmdir fs ~dir:Fs.root "dir");
      check_err Errors.Eisdir (fun () -> Fs.unlink fs ~dir:d "sub");
      check_err Errors.Enotdir (fun () -> Fs.rmdir fs ~dir:d "file");
      Fs.unlink fs ~dir:d "file";
      Fs.rmdir fs ~dir:d "sub";
      Fs.rmdir fs ~dir:Fs.root "dir";
      Alcotest.(check (list string)) "root empty" []
        (List.map fst (Fs.readdir fs Fs.root));
      Alcotest.(check int) "root nlink back" 2 (Fs.stat fs Fs.root).Fs.nlink)

let test_many_entries_extend_dir () =
  Sim.run (fun () ->
      let _, fs = one () in
      let d = Fs.mkdir fs ~dir:Fs.root "big" in
      (* More entries than fit in one block (56 slots). *)
      for i = 0 to 199 do
        ignore (Fs.create fs ~dir:d (Printf.sprintf "f%03d" i))
      done;
      Alcotest.(check int) "200 entries" 200 (List.length (Fs.readdir fs d));
      for i = 0 to 199 do
        ignore (Fs.lookup fs ~dir:d (Printf.sprintf "f%03d" i))
      done;
      (* Remove odd ones; slots are reused. *)
      for i = 0 to 199 do
        if i mod 2 = 1 then Fs.unlink fs ~dir:d (Printf.sprintf "f%03d" i)
      done;
      Alcotest.(check int) "100 left" 100 (List.length (Fs.readdir fs d));
      for i = 0 to 99 do
        ignore (Fs.create fs ~dir:d (Printf.sprintf "g%03d" i))
      done;
      Alcotest.(check int) "200 again" 200 (List.length (Fs.readdir fs d)))

let test_symlink () =
  Sim.run (fun () ->
      let _, fs = one () in
      let _ = Fs.mkdir fs ~dir:Fs.root "a" in
      let f = Path.write_file fs "/a/data" (Bytes.of_string "via symlink") in
      ignore f;
      ignore (Fs.symlink fs ~dir:Fs.root "lnk" ~target:"/a/data");
      ignore (Path.symlink fs "/a/rel" ~target:"data");
      Alcotest.(check string) "abs link" "via symlink"
        (Bytes.to_string (Path.read_file fs "/lnk"));
      Alcotest.(check string) "rel link" "via symlink"
        (Bytes.to_string (Path.read_file fs "/a/rel"));
      Alcotest.(check string) "readlink" "/a/data"
        (Fs.readlink fs (Path.resolve ~follow:false fs "/lnk")))

let test_hard_link () =
  Sim.run (fun () ->
      let _, fs = one () in
      let f = Path.write_file fs "/orig" (Bytes.of_string "shared") in
      Fs.link fs ~dir:Fs.root "alias" ~inum:f;
      Alcotest.(check int) "nlink 2" 2 (Fs.stat fs f).Fs.nlink;
      Fs.unlink fs ~dir:Fs.root "orig";
      Alcotest.(check string) "alias still readable" "shared"
        (Bytes.to_string (Path.read_file fs "/alias"));
      Alcotest.(check int) "nlink 1" 1 (Fs.stat fs f).Fs.nlink;
      Fs.unlink fs ~dir:Fs.root "alias";
      check_err Errors.Estale (fun () -> Fs.stat fs f))

let test_rename () =
  Sim.run (fun () ->
      let _, fs = one () in
      ignore (Fs.mkdir fs ~dir:Fs.root "a");
      ignore (Fs.mkdir fs ~dir:Fs.root "b");
      ignore (Path.write_file fs "/a/x" (Bytes.of_string "one"));
      (* Same-directory rename. *)
      Path.rename fs "/a/x" "/a/y";
      Alcotest.(check bool) "x gone" false (Path.exists fs "/a/x");
      Alcotest.(check string) "y has data" "one"
        (Bytes.to_string (Path.read_file fs "/a/y"));
      (* Cross-directory rename. *)
      Path.rename fs "/a/y" "/b/z";
      Alcotest.(check string) "moved" "one" (Bytes.to_string (Path.read_file fs "/b/z"));
      (* Overwriting rename. *)
      ignore (Path.write_file fs "/b/w" (Bytes.of_string "two"));
      Path.rename fs "/b/w" "/b/z";
      Alcotest.(check string) "overwritten" "two"
        (Bytes.to_string (Path.read_file fs "/b/z"));
      (* Directory move updates parent link counts. *)
      ignore (Fs.mkdir fs ~dir:(Path.resolve fs "/a") "d");
      let a_nlink = (Path.stat fs "/a").Fs.nlink in
      Path.rename fs "/a/d" "/b/d";
      Alcotest.(check int) "src parent nlink" (a_nlink - 1) (Path.stat fs "/a").Fs.nlink;
      (* Cycle prevention at the path layer. *)
      check_err Errors.Einval (fun () -> Path.rename fs "/b" "/b/d/inside"))

let test_large_file () =
  Sim.run (fun () ->
      let _, fs = one () in
      let f = Fs.create fs ~dir:Fs.root "big" in
      (* 200 KB: 64 KB in small blocks + 136 KB in the large block. *)
      let data = bytes_pat 204800 3 in
      Fs.write fs f ~off:0 data;
      let got = Fs.read fs f ~off:0 ~len:204800 in
      Alcotest.(check bool) "content" true (Bytes.equal data got);
      (* Unaligned read crossing the small/large boundary. *)
      let mid = Fs.read fs f ~off:65000 ~len:2000 in
      Alcotest.(check bool) "boundary read" true
        (Bytes.equal mid (Bytes.sub data 65000 2000));
      (* Unaligned overwrite. *)
      Fs.write fs f ~off:65123 (Bytes.make 777 'Z');
      let z = Fs.read fs f ~off:65123 ~len:777 in
      Alcotest.(check string) "overwrite" (String.make 777 'Z') (Bytes.to_string z))

(* Write-back needs no RPC coalescing: [Cache.group_runs] cuts dirty
   blocks into maximal runs inside naturally aligned 64 KB windows,
   and a window is exactly one Petal chunk, so a sync costs one Petal
   write RPC per touched data window. The log is synchronous here, so
   the only other write in the sync is the file's inode sector. *)
let test_write_back_rpc_per_window () =
  Sim.run (fun () ->
      let _, servers =
        setup ~config:{ Ctx.default_config with Ctx.synchronous_log = true } ()
      in
      let fs = List.hd servers in
      let f = Fs.create fs ~dir:Fs.root "windows" in
      let small = Layout.small_area_per_file in
      Fs.write fs f ~off:0 (bytes_pat (small + (320 * 1024)) 4);
      Fs.sync fs;
      (* Unaligned overwrites of the large block, which starts on a
         chunk boundary: large-area bytes [20K+100, 120K+100) touch
         windows 0-1, and [186K, 198K) windows 2-3. *)
      let writes = [ ((20 * 1024) + 100, 100 * 1024); (186 * 1024, 12 * 1024) ] in
      List.iter
        (fun (off, len) -> Fs.write fs f ~off:(small + off) (bytes_pat len off))
        writes;
      let s0 = Fs.petal_stats fs in
      Fs.sync fs;
      let s1 = Fs.petal_stats fs in
      let open Petal.Client in
      Alcotest.(check int) "one write rpc per touched window, plus the inode"
        (4 + 1) (s1.write_rpcs - s0.write_rpcs);
      Fs.drop_caches fs;
      List.iter
        (fun (off, len) ->
          Alcotest.(check bool) "overwrite landed" true
            (Bytes.equal (bytes_pat len off) (Fs.read fs f ~off:(small + off) ~len)))
        writes)

let test_sparse_and_truncate () =
  Sim.run (fun () ->
      let _, fs = one () in
      let f = Fs.create fs ~dir:Fs.root "sparse" in
      Fs.write fs f ~off:10000 (Bytes.of_string "end");
      Alcotest.(check int) "size" 10003 (Fs.stat fs f).Fs.size;
      let hole = Fs.read fs f ~off:0 ~len:100 in
      Alcotest.(check string) "hole zeros" (String.make 100 '\000')
        (Bytes.to_string hole);
      Fs.truncate fs f ~size:5;
      Alcotest.(check int) "truncated" 5 (Fs.stat fs f).Fs.size;
      Fs.write fs f ~off:0 (Bytes.of_string "abcde");
      Fs.truncate fs f ~size:3;
      (* Extending again must read zeros past the old tail. *)
      Fs.truncate fs f ~size:5;
      Alcotest.(check string) "zeros after shrink-grow" "abc\000\000"
        (Bytes.to_string (Fs.read fs f ~off:0 ~len:5)))

(* A name no directory slot can hold is refused before an inode is
   reserved, locked or fetched. *)
let test_bad_name_refused_early () =
  Sim.run (fun () ->
      let _, fs = one () in
      let d = Fs.mkdir fs ~dir:Fs.root "d" in
      ignore (Fs.create fs ~dir:d "ok");
      let reads () = (Fs.petal_stats fs).Petal.Client.reads in
      let before = reads () in
      check_err Errors.Enametoolong (fun () ->
          Fs.create fs ~dir:d (String.make (Layout.max_name + 1) 'n'));
      check_err Errors.Einval (fun () -> Fs.mkdir fs ~dir:d "a/b");
      check_err Errors.Einval (fun () -> Fs.create fs ~dir:d "");
      Alcotest.(check int) "no Petal read" before (reads ());
      ignore (Fs.create fs ~dir:d (String.make Layout.max_name 'n')))

let test_path_helpers () =
  Sim.run (fun () ->
      let _, fs = one () in
      ignore (Path.mkdir_p fs "/x/y/z");
      ignore (Path.write_file fs "/x/y/z/f" (Bytes.of_string "deep"));
      Alcotest.(check string) "deep file" "deep"
        (Bytes.to_string (Path.read_file fs "/x/y/z/f"));
      Alcotest.(check bool) "exists" true (Path.exists fs "/x/y");
      Alcotest.(check bool) "not exists" false (Path.exists fs "/x/q");
      ignore (Path.resolve fs "/x/y/../y/./z"))

(* --- multi-server coherence ----------------------------------------------- *)

let test_coherence_two_servers () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let f = Fs.create a ~dir:Fs.root "shared" in
      Fs.write a f ~off:0 (Bytes.of_string "from A");
      (* B sees it immediately, through lock-mediated coherence. *)
      let f_b = Fs.lookup b ~dir:Fs.root "shared" in
      Alcotest.(check int) "same inum" f f_b;
      Alcotest.(check string) "B reads A's write" "from A"
        (Bytes.to_string (Fs.read b f_b ~off:0 ~len:10));
      (* And back: B overwrites, A observes. *)
      Fs.write b f_b ~off:0 (Bytes.of_string "from B");
      Alcotest.(check string) "A reads B's write" "from B"
        (Bytes.to_string (Fs.read a f ~off:0 ~len:10)))

let test_concurrent_creates_distinct_servers () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:3 () in
      Sim.fork_join
        (fun (si, fs, k) ->
          let name = Printf.sprintf "s%d-f%d" si k in
          ignore (Fs.create fs ~dir:Fs.root name);
          Fs.write fs (Fs.lookup fs ~dir:Fs.root name) ~off:0 (Bytes.of_string name))
        (List.concat
           (List.mapi (fun si fs -> List.init 10 (fun k -> (si, fs, k))) servers));
      let fs = List.hd servers in
      let entries = Fs.readdir fs Fs.root in
      Alcotest.(check int) "30 files" 30 (List.length entries);
      List.iter
        (fun (name, inum) ->
          Alcotest.(check string) ("content " ^ name) name
            (Bytes.to_string (Fs.read fs inum ~off:0 ~len:100)))
        entries)

let test_write_write_coherence () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let f = Fs.create a ~dir:Fs.root "counter" in
      (* Interleaved read-modify-write from two servers; the whole-file
         lock makes each step atomic. *)
      for i = 1 to 10 do
        let fs = if i mod 2 = 0 then a else b in
        let cur = Fs.read fs f ~off:0 ~len:8 in
        let v = if Bytes.length cur < 8 then 0 else Stdext.Codec.get_int cur 0 in
        let nb = Bytes.create 8 in
        Stdext.Codec.put_int nb 0 (v + 1);
        Fs.write fs f ~off:0 nb
      done;
      let final = Fs.read a f ~off:0 ~len:8 in
      Alcotest.(check int) "10 increments" 10 (Stdext.Codec.get_int final 0))

(* §9.4's read/write sharing: a reader's request downgrades the
   writer's lock to R, and the writer's next rewrite upgrades it in
   place, so the writer keeps its cached inode and blocks. Only the
   first cycle may read from Petal at the writer's server. *)
let test_upgrade_keeps_writer_cache () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let w, r = (List.nth servers 0, List.nth servers 1) in
      let f = Fs.create w ~dir:Fs.root "shared" in
      let head = 16 * 1024 in
      Fs.write w f ~off:0 (bytes_pat (4 * head) 0);
      Fs.sync w;
      let reads () = (Fs.petal_stats w).Petal.Client.reads in
      let after_first = ref 0 in
      for cycle = 1 to 5 do
        Alcotest.(check int)
          (Printf.sprintf "reader sees rewrite %d" (cycle - 1))
          (cycle - 1)
          (Char.code (Bytes.get (Fs.read r f ~off:0 ~len:head) 0));
        Fs.write w f ~off:0 (Bytes.make head (Char.chr cycle));
        if cycle = 1 then after_first := reads ()
      done;
      Alcotest.(check int) "no Petal read at the writer after cycle 1" !after_first
        (reads ()))

(* A's background write-behind snapshots its dirty set (including a
   block of [f]) and then blocks in the log flush, held there by a
   delay at the ["wal.group"] site. Meanwhile B takes [f]'s lock: the
   revoke flushes and invalidates A's block, and B writes and fsyncs
   its own bytes. When A's write-behind resumes it must not write its
   stale copy of the block over B's. *)
let test_writeback_skips_revoked_entry () =
  Sim.run (fun () ->
      Faultpoint.reset ();
      Faultpoint.enable ();
      Fun.protect ~finally:Faultpoint.reset @@ fun () ->
      let _, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let f = Fs.create a ~dir:Fs.root "shared" in
      let g = Fs.create a ~dir:Fs.root "bulk" in
      Fs.sync a;
      Fs.write a f ~off:0 (Bytes.make 4096 'A');
      let held = Faultpoint.count "wal.group" + 1 in
      Faultpoint.arm_site "wal.group" ~at:held (Faultpoint.Delay (Sim.sec 5.0));
      (* 2 MB of dirty blocks start the write-behind, whose log flush
         lands and then parks at the armed site. *)
      Fs.write a g ~off:0 (Bytes.make (2 * 1024 * 1024) 'G');
      Sim.sleep (Sim.sec 1.0);
      Fs.write b f ~off:0 (Bytes.make 4096 'B');
      Fs.fsync b f;
      Sim.sleep (Sim.sec 10.0);
      Alcotest.(check bool) "write-behind was held" true
        (Faultpoint.count "wal.group" >= held);
      Alcotest.(check string) "B's bytes survive" (String.make 8 'B')
        (Bytes.to_string (Fs.read a f ~off:0 ~len:8)))

let spawn_create fs ~dir name =
  let iv = Sim.Ivar.create () in
  Sim.spawn (fun () -> Sim.Ivar.fill iv (Fs.create fs ~dir name));
  iv

let distinct l = List.length (List.sort_uniq compare l) = List.length l

(* Sixteen concurrent creates on one server, eight in each of two
   directories. Creates in one directory queue on its lock, but the
   inode-bitmap sector lock covers only each create's bit flip, and
   fresh inodes come eight to a batch fetch, so the sixteen cost less
   than four creates that each find the batch empty — the first create
   after mount is the reference. *)
let test_create_storm () =
  Sim.run (fun () ->
      let _, fs = one () in
      let timed f =
        let t0 = Sim.now () in
        let v = f () in
        (v, Sim.now () - t0)
      in
      let one_inum, single = timed (fun () -> Fs.create fs ~dir:Fs.root "single") in
      let dirs = List.map (fun n -> Fs.mkdir fs ~dir:Fs.root n) [ "d0"; "d1" ] in
      (* Give each directory its block, so no create below grows one. *)
      List.iter
        (fun d ->
          ignore (Fs.create fs ~dir:d "grow");
          Fs.unlink fs ~dir:d "grow")
        dirs;
      Fs.sync fs;
      let inums, storm =
        timed (fun () ->
            List.concat_map
              (fun d -> List.init 8 (fun k -> spawn_create fs ~dir:d (Printf.sprintf "f%d" k)))
              dirs
            |> List.map Sim.Ivar.read)
      in
      Alcotest.(check bool)
        (Printf.sprintf "16 creates in %d ns < 4 x a cold create's %d ns" storm single)
        true (storm < 4 * single);
      Alcotest.(check bool) "distinct inode numbers" true (distinct (one_inum :: inums));
      Fs.sync fs;
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check fs)))

(* Fresh inodes are fetched eight to a Petal read: sixteen creates on a
   warm server read at most two batches' worth of inode sectors. *)
let test_batched_inode_fetch () =
  Sim.run (fun () ->
      let _, fs = one () in
      let d = Fs.mkdir fs ~dir:Fs.root "d" in
      (* Grow the directory for sixteen entries first. *)
      List.iter (fun k -> ignore (Fs.create fs ~dir:d (Printf.sprintf "g%d" k))) (List.init 16 Fun.id);
      List.iter (fun k -> Fs.unlink fs ~dir:d (Printf.sprintf "g%d" k)) (List.init 16 Fun.id);
      Fs.sync fs;
      let reads () = (Fs.petal_stats fs).Petal.Client.reads in
      let lock_msgs () =
        let s = Fs.lease_stats fs in
        (s.Locksvc.Clerk.requests, s.Locksvc.Clerk.request_msgs)
      in
      let before = reads () and msgs_before = lock_msgs () in
      let inums = List.init 16 (fun k -> Fs.create fs ~dir:d (Printf.sprintf "f%d" k)) in
      Alcotest.(check bool)
        (Printf.sprintf "%d Petal reads <= 2" (reads () - before))
        true
        (reads () - before <= 2);
      (* Each refill sends its 8 inode-lock requests in one message. *)
      let (r1, m1), (r0, m0) = (lock_msgs (), msgs_before) in
      Alcotest.(check bool) (Printf.sprintf "%d lock-request messages <= 2" (m1 - m0)) true
        (m1 - m0 <= 2);
      Alcotest.(check int) "8 requests per message" (8 * (m1 - m0)) (r1 - r0);
      Alcotest.(check bool) "distinct inode numbers" true (distinct inums);
      Fs.sync fs;
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check fs)))

(* A batch that starts off a run boundary straddles two lock-id runs:
   its 8 requests go in one message per lock server those runs map to,
   so at most two. The batch under test is the top-up that draining
   the mount's first batch starts. *)
let test_unaligned_inode_batch () =
  Sim.run (fun () ->
      let _, fs = one () in
      let d = Fs.mkdir fs ~dir:Fs.root "d" in
      let run = Locksvc.Types.run_length in
      Alcotest.(check bool) "no top-up in flight" false fs.Ctx.alloc.topping_up;
      (* Point the next scan mid-run, then empty the batch. *)
      let ps = Alloc_state.pool fs.Ctx.alloc Layout.Inode_pool in
      ps.hint <- ps.hint - (ps.hint mod run) + run + (run / 2);
      let stats () =
        let s = Fs.lease_stats fs in
        (s.Locksvc.Clerk.requests, s.Locksvc.Clerk.request_msgs)
      in
      let r0, m0 = stats () in
      List.iter
        (fun k -> ignore (Fs.create fs ~dir:d (Printf.sprintf "pad%d" k)))
        (List.init (Queue.length fs.Ctx.alloc.fresh) Fun.id);
      (* Let the top-up land: the batch is then exactly its inodes. *)
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check bool) "the top-up landed" false fs.Ctx.alloc.topping_up;
      let r1, m1 = stats () in
      let batch = List.of_seq (Queue.to_seq fs.Ctx.alloc.fresh) in
      Alcotest.(check int) "one batch" run (List.length batch);
      Alcotest.(check int) "two runs" 2
        (List.length (List.sort_uniq compare (List.map (fun i -> Inode.lock i / run) batch)));
      Alcotest.(check int) "8 lock requests" run (r1 - r0);
      Alcotest.(check bool) (Printf.sprintf "%d request messages in 1..2" (m1 - m0)) true
        (m1 - m0 >= 1 && m1 - m0 <= 2);
      Fs.sync fs;
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check fs)))

(* The contested inode sits in A's batch. Server B, its next scan
   pointed at A's inode-bitmap sector, drains its own batch; the
   top-up that starts reserves and fetches the same bits — B cannot
   see A's reservations — and B claims the contested one. A's next
   create takes the contested inode first: its claim finds the bit set
   and the create moves on to the next of its batch. *)
let test_lost_reservation () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let da = Fs.mkdir a ~dir:Fs.root "da" in
      let db = Fs.mkdir b ~dir:Fs.root "db" in
      Alcotest.(check bool) "no top-up in flight at B" false b.Ctx.alloc.topping_up;
      let pa = Alloc_state.pool a.Ctx.alloc Layout.Inode_pool in
      let pb = Alloc_state.pool b.Ctx.alloc Layout.Inode_pool in
      let contested = Queue.peek a.Ctx.alloc.fresh in
      pb.sector <- pa.sector;
      pb.hint <- contested mod Layout.bits_per_sector;
      let pads =
        List.init (Queue.length b.Ctx.alloc.fresh) (fun k ->
            Fs.create b ~dir:db (Printf.sprintf "pad%d" k))
      in
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check (option int)) "B's top-up reserved the contested inode" (Some contested)
        (Queue.peek_opt b.Ctx.alloc.fresh);
      let fb = Fs.create b ~dir:db "fb" in
      Alcotest.(check int) "B claimed the contested inode" contested fb;
      Alcotest.(check bool) "still in A's batch" true (Queue.peek a.Ctx.alloc.fresh = contested);
      let fa = Fs.create a ~dir:da "fa" in
      Alcotest.(check bool) "A created another" true (fa <> contested);
      Alcotest.(check bool) "no inode allocated twice" true
        (distinct ([ da; db; fa; fb ] @ pads));
      let sorted l = List.sort compare l in
      let reserved ps = sorted (Hashtbl.fold (fun bit () acc -> bit :: acc) ps.Alloc_state.reserved []) in
      let batch st = sorted (List.of_seq (Queue.to_seq st.Alloc_state.fresh)) in
      Alcotest.(check (list int)) "A's reservations are its batch" (batch a.Ctx.alloc) (reserved pa);
      Alcotest.(check (list int)) "B's reservations are its batch" (batch b.Ctx.alloc) (reserved pb);
      Fs.write a fa ~off:0 (Bytes.of_string "from A");
      Fs.write b fb ~off:0 (Bytes.of_string "from B");
      Fs.sync a;
      Fs.sync b;
      Alcotest.(check string) "A's file" "from A"
        (Bytes.to_string (Fs.read b (Fs.lookup b ~dir:da "fa") ~off:0 ~len:6));
      Alcotest.(check string) "B's file" "from B"
        (Bytes.to_string (Fs.read a (Fs.lookup a ~dir:db "fb") ~off:0 ~len:6));
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check a)))

(* Drain [a]'s batch with creates in [dir] while [holder] holds the
   inode lock of the last of the next [Alloc.batch] bits: the top-up
   the draining starts gathers the others and waits for that one.
   Returns the top-up's first inode (on a fresh file system every bit
   from the rotor on is clear), the lock and the drained inodes. *)
let stall_top_up a ~dir ~holder =
  let pa = Alloc_state.pool a.Ctx.alloc Layout.Inode_pool in
  let first = (Option.get pa.sector * Layout.bits_per_sector) + pa.hint in
  let held = Lockns.inode_lock (first + Alloc.batch - 1) in
  Locksvc.Clerk.acquire holder.Ctx.clerk ~lock:held Locksvc.Types.W;
  let pads =
    List.init (Queue.length a.Ctx.alloc.fresh) (fun k ->
        Fs.create a ~dir (Printf.sprintf "pad%d" k))
  in
  Sim.sleep (Sim.ms 100);
  (first, held, pads)

(* A batch refill gathers its eight inode locks concurrently. While it
   waits for one (the test holds the last of A's next eight at A),
   another server's request for one the refill already holds must not
   wait behind it: the contended revoke sheds the refill's hold. So
   two refills whose batches overlap never wait on each other in a
   cycle. The refill is the top-up that draining A's batch starts. *)
let test_refill_sheds_contended_hold () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let da = Fs.mkdir a ~dir:Fs.root "da" in
      Alcotest.(check bool) "no top-up in flight" false a.Ctx.alloc.topping_up;
      let first, held_by_test, pads = stall_top_up a ~dir:da ~holder:a in
      let contested = Lockns.inode_lock first in
      let got = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          Locksvc.Clerk.acquire b.Ctx.clerk ~lock:contested Locksvc.Types.W;
          Sim.Ivar.fill got ());
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check bool) "B holds a lock of A's refill while it waits" true
        (Sim.Ivar.is_filled got && a.Ctx.alloc.topping_up);
      Locksvc.Clerk.release b.Ctx.clerk ~lock:contested Locksvc.Types.W;
      Locksvc.Clerk.release a.Ctx.clerk ~lock:held_by_test Locksvc.Types.W;
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check bool) "the refill landed" false a.Ctx.alloc.topping_up;
      let fa = Fs.create a ~dir:da "fa" in
      Alcotest.(check int) "A created the first of its batch" first fa;
      Alcotest.(check bool) "no inode allocated twice" true (distinct ((da :: fa :: pads)));
      Fs.write a fa ~off:0 (Bytes.of_string "from A");
      Fs.sync a;
      Alcotest.(check string) "A's file through B" "from A"
        (Bytes.to_string (Fs.read b (Fs.lookup b ~dir:da "fa") ~off:0 ~len:6));
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check a)))

(* Creates further apart than one batch refill: each top-up lands
   before the next create, so no create sends a Petal read or a lock
   request, and every one costs what a cache-hit create costs, while
   three batches' worth of inodes are refilled behind them. *)
let test_refill_off_create_path () =
  Sim.run (fun () ->
      let _, fs = one () in
      let d = Fs.mkdir fs ~dir:Fs.root "d" in
      let n = 3 * Alloc.batch in
      (* Grow the directory for [n] entries first. *)
      List.iter (fun k -> ignore (Fs.create fs ~dir:d (Printf.sprintf "g%d" k))) (List.init n Fun.id);
      List.iter (fun k -> Fs.unlink fs ~dir:d (Printf.sprintf "g%d" k)) (List.init n Fun.id);
      Fs.sync fs;
      Sim.sleep (Sim.sec 1.0);
      let reads () = (Fs.petal_stats fs).Petal.Client.reads in
      let requests () = (Fs.lease_stats fs).Locksvc.Clerk.requests in
      let reads0 = reads () and requests0 = requests () in
      let creates =
        List.init n (fun k ->
            Sim.sleep (Sim.ms 50);
            let r = reads () and q = requests () and t0 = Sim.now () in
            let inum = Fs.create fs ~dir:d (Printf.sprintf "f%d" k) in
            (inum, Sim.now () - t0, reads () - r, requests () - q))
      in
      let _, hit, _, _ = List.hd creates in
      List.iteri
        (fun k (_, dt, r, q) ->
          Alcotest.(check int) (Printf.sprintf "create %d: Petal reads" k) 0 r;
          Alcotest.(check int) (Printf.sprintf "create %d: lock requests" k) 0 q;
          Alcotest.(check int) (Printf.sprintf "create %d: cache-hit latency" k) hit dt)
        creates;
      Alcotest.(check bool)
        (Printf.sprintf "%d lock requests refilled >= 2 batches" (requests () - requests0))
        true
        (requests () - requests0 >= 2 * Alloc.batch);
      Alcotest.(check bool) "Petal reads refilled them" true (reads () - reads0 >= 2);
      Alcotest.(check bool) "distinct inode numbers" true
        (distinct (d :: List.map (fun (i, _, _, _) -> i) creates));
      Fs.sync fs;
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check fs)))

(* A cache drop evicts the fresh batch's inode sectors, so the batch
   goes with them: the next create refills with one read of 8 sectors
   rather than the next creates each missing on their own. *)
let test_drop_caches_gives_back_batch () =
  Sim.run (fun () ->
      let _, fs = one () in
      let d = Fs.mkdir fs ~dir:Fs.root "d" in
      let before = Fs.create fs ~dir:d "before" in
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check bool) "a batch is held" false (Queue.is_empty fs.Ctx.alloc.fresh);
      Fs.sync fs;
      Fs.drop_caches fs;
      let ps = Alloc_state.pool fs.Ctx.alloc Layout.Inode_pool in
      Alcotest.(check bool) "batch given back" true (Queue.is_empty fs.Ctx.alloc.fresh);
      Alcotest.(check int) "no reservation kept" 0 (Hashtbl.length ps.reserved);
      let reads () = (Fs.petal_stats fs).Petal.Client.reads in
      ignore (Fs.create fs ~dir:d "warm");
      let r0 = reads () in
      let after =
        List.init (Alloc.batch - 2) (fun k -> Fs.create fs ~dir:d (Printf.sprintf "f%d" k))
      in
      Alcotest.(check int) "the refill's sectors serve the next creates" 0 (reads () - r0);
      Alcotest.(check bool) "distinct inode numbers" true (distinct (d :: before :: after));
      Fs.sync fs;
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check fs)))

(* A top-up in flight (waiting for an inode lock B holds) is stopped
   by a crash, a lease expiry or an unmount of its server. It ends
   without an exception escaping into the scheduler and without a
   reservation outliving it; a new server whose first scan covers the
   same bits reuses them, and fsck is clean. *)
let test_top_up_stopped how () =
  Sim.run (fun () ->
      let t, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let da = Fs.mkdir a ~dir:Fs.root "da" in
      let first, held, pads = stall_top_up a ~dir:da ~holder:b in
      Fs.sync a;
      Alcotest.(check bool) "A's top-up is in flight" true a.Ctx.alloc.topping_up;
      let a_addr = T.addr_of t a in
      (match how with
      | `Crash -> Fs.crash a
      | `Expire -> Cluster.Net.set_fault_cut t.T.net (fun s d -> s = a_addr || d = a_addr)
      | `Unmount -> Fs.unmount a);
      Locksvc.Clerk.release b.Ctx.clerk ~lock:held Locksvc.Types.W;
      Sim.sleep (Sim.sec 60.0);
      Cluster.Net.clear_fault_cut t.T.net;
      Alcotest.(check bool) "A is stopped" true
        (match how with
        | `Crash -> not (Cluster.Host.is_alive a.Ctx.host)
        | `Expire -> not (Locksvc.Clerk.check_lease_margin a.Ctx.clerk)
        | `Unmount -> a.Ctx.unmounted);
      Alcotest.(check bool) "the top-up ended" false a.Ctx.alloc.topping_up;
      let pa = Alloc_state.pool a.Ctx.alloc Layout.Inode_pool in
      Alcotest.(check (list int)) "no reservation outlives it"
        (List.sort compare (List.of_seq (Queue.to_seq a.Ctx.alloc.fresh)))
        (List.sort compare (Hashtbl.fold (fun bit () acc -> bit :: acc) pa.reserved []));
      (* The restart: a new server, its first scan pointed at the
         bits the stopped top-up had reserved. *)
      let c = T.add_server t () in
      let pc = Alloc_state.pool c.Ctx.alloc Layout.Inode_pool in
      pc.sector <- pa.sector;
      pc.hint <- first mod Layout.bits_per_sector;
      let later = List.init 10 (fun k -> Fs.create c ~dir:da (Printf.sprintf "c%d" k)) in
      Alcotest.(check int) "C reuses the first reserved bit" first (List.hd later);
      Alcotest.(check bool) "distinct inode numbers" true (distinct ((da :: pads) @ later));
      Alcotest.(check int) "A's files survive" (List.length pads + 10)
        (List.length (Fs.readdir c da));
      Fs.sync c;
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check c)))

(* --- failure handling ------------------------------------------------------ *)

let test_crash_recovery_preserves_synced_metadata () =
  Sim.run (fun () ->
      let t, servers = setup ~nservers:2 () in
      ignore t;
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let f = Fs.create a ~dir:Fs.root "precious" in
      Fs.write a f ~off:0 (Bytes.of_string "must survive");
      Fs.fsync a f;
      (* More metadata ops that reach the log but not their home
         locations. *)
      ignore (Fs.create a ~dir:Fs.root "also-there");
      ignore (Fs.mkdir a ~dir:Fs.root "dir1");
      Fs.sync a;
      Fs.crash a;
      (* B's access to locks held by A blocks until A's lease expires
         and recovery replays A's log. *)
      let f_b = Fs.lookup b ~dir:Fs.root "precious" in
      Alcotest.(check string) "file content" "must survive"
        (Bytes.to_string (Fs.read b f_b ~off:0 ~len:100));
      ignore (Fs.lookup b ~dir:Fs.root "also-there");
      ignore (Fs.lookup b ~dir:Fs.root "dir1");
      Alcotest.(check bool) "took at least a lease period" true
        (Sim.now () > Sim.sec 30.0))

(* Every [*_stats] hands out a copy: the ones taken before a crash,
   a recovery and more metadata work keep their values. *)
let test_stats_are_copies () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      ignore (Fs.create a ~dir:Fs.root "before");
      Fs.sync a;
      let net0 = Fs.net_stats b and petal0 = Fs.petal_stats b and wal0 = Fs.wal_stats b
      and lease0 = Fs.lease_stats b and recov0 = Fs.recovery_stats b in
      let counts () =
        [
          ("rpc calls", net0.Cluster.Rpc.calls, (Fs.net_stats b).Cluster.Rpc.calls);
          ("petal writes", petal0.Petal.Client.writes, (Fs.petal_stats b).Petal.Client.writes);
          ("wal flush groups", wal0.Wal.flush_groups, (Fs.wal_stats b).Wal.flush_groups);
          ( "lock requests",
            lease0.Locksvc.Clerk.requests,
            (Fs.lease_stats b).Locksvc.Clerk.requests );
          ("replays", recov0.Fs.replays, (Fs.recovery_stats b).Fs.replays);
        ]
      in
      let before = List.map (fun (what, copy, _) -> (what, copy)) (counts ()) in
      Fs.crash a;
      (* B waits out A's lease on the root's lock and replays A's log. *)
      ignore (Fs.create b ~dir:Fs.root "after");
      Fs.sync b;
      List.iter
        (fun (what, copy, live) ->
          Alcotest.(check int) (what ^ ": copy kept") (List.assoc what before) copy;
          Alcotest.(check bool) (what ^ ": counter moved") true (live > copy))
        (counts ()))

let test_crash_loses_unsynced_data_but_stays_consistent () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      ignore (Fs.create a ~dir:Fs.root "before");
      Fs.sync a;
      (* This one never reaches the log on Petal. *)
      ignore (Fs.create a ~dir:Fs.root "volatile");
      Fs.crash a;
      Sim.sleep (Sim.sec 60.0);
      let names = List.map fst (Fs.readdir b Fs.root) in
      Alcotest.(check bool) "synced file survives" true (List.mem "before" names);
      Alcotest.(check bool) "unsynced file lost" false (List.mem "volatile" names);
      (* The directory is fully usable afterwards. *)
      ignore (Fs.create b ~dir:Fs.root "after");
      Alcotest.(check int) "consistent" 2 (List.length (Fs.readdir b Fs.root)))

let test_restarted_server_rejoins () =
  Sim.run (fun () ->
      let t, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      ignore (Fs.create a ~dir:Fs.root "f1");
      Fs.sync a;
      Fs.crash a;
      Sim.sleep (Sim.sec 60.0);
      ignore (Fs.lookup b ~dir:Fs.root "f1");
      (* A new server machine joins (the paper's restart-with-empty-log). *)
      let c = T.add_server t () in
      ignore (Fs.create c ~dir:Fs.root "f2");
      Alcotest.(check int) "both files" 2 (List.length (Fs.readdir b Fs.root)))

let test_log_wrap_consistency () =
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let d = Fs.mkdir a ~dir:Fs.root "churn" in
      (* Thousands of metadata ops: the 128 KB log must wrap several
         times, exercising reclaim. *)
      for i = 0 to 999 do
        let name = Printf.sprintf "t%d" i in
        ignore (Fs.create a ~dir:d name);
        if i mod 3 = 0 then Fs.unlink a ~dir:d name
      done;
      Fs.sync a;
      Fs.crash a;
      Sim.sleep (Sim.sec 60.0);
      let survivors = Fs.readdir b d in
      let expect = List.length (List.filter (fun i -> i mod 3 <> 0) (List.init 1000 Fun.id)) in
      Alcotest.(check int) "all non-deleted files present" expect
        (List.length survivors))

let test_petal_server_failure_transparent () =
  Sim.run (fun () ->
      let t, servers = setup ~nservers:1 () in
      let fs = List.hd servers in
      let f = Fs.create fs ~dir:Fs.root "resilient" in
      Fs.write fs f ~off:0 (bytes_pat 8192 5);
      Fs.sync fs;
      (* Crash one Petal machine: both a Petal replica and one lock
         server die. The file system keeps working. *)
      Cluster.Host.crash t.T.petal.Petal.Testbed.hosts.(1);
      Sim.sleep (Sim.sec 15.0);
      let got = Fs.read fs f ~off:0 ~len:8192 in
      Alcotest.(check bool) "readable" true (Bytes.equal got (bytes_pat 8192 5));
      Fs.write fs f ~off:0 (Bytes.of_string "still writable");
      ignore (Fs.create fs ~dir:Fs.root "new-during-failure"))

let test_clean_removal_no_lease_wait () =
  (* §7: "Removing a Frangipani server is even easier... preferable
     for the server to flush its dirty data and release its locks
     before halting." After a clean unmount, another server proceeds
     immediately — no 30 s lease expiry, no recovery. *)
  Sim.run (fun () ->
      let _, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let f = Fs.create a ~dir:Fs.root "handoff" in
      Fs.write a f ~off:0 (Bytes.of_string "flushed on unmount");
      Fs.unmount a;
      let t0 = Sim.now () in
      let f_b = Fs.lookup b ~dir:Fs.root "handoff" in
      Alcotest.(check string) "data flushed by unmount" "flushed on unmount"
        (Bytes.to_string (Fs.read b f_b ~off:0 ~len:100));
      Alcotest.(check bool) "no lease wait" true (Sim.now () - t0 < Sim.sec 5.0))

(* --- backup (§8) ------------------------------------------------------------ *)

let test_online_backup () =
  Sim.run (fun () ->
      let t, servers = setup ~nservers:2 () in
      let a = List.hd servers in
      ignore (Path.write_file a "/doc" (Bytes.of_string "version 1"));
      (* Take a consistent online snapshot through the barrier. *)
      let _, brpc = T.fresh_client t "backup" in
      let backup = Backup.connect ~rpc:brpc ~lock_servers:t.T.lock_addrs ~table:"fs0" in
      let vd_live = T.open_vdisk t ~rpc:brpc t.T.vdisk_id in
      let snap_id = Backup.snapshot backup vd_live in
      (* The live system keeps going. *)
      ignore (Path.write_file a "/doc" (Bytes.of_string "version 2"));
      ignore (Path.write_file a "/new" (Bytes.of_string "post-snap"));
      (* Mount the snapshot read-only under its own lock table. *)
      let mh, mrpc = T.fresh_client t "snapmount" in
      ignore mh;
      let vd_snap = T.open_vdisk t ~rpc:mrpc snap_id in
      let snap_fs =
        Fs.mount ~host:mh ~rpc:mrpc ~vd:vd_snap ~lock_servers:t.T.lock_addrs
          ~table:"fs0@snap" ~readonly:true ()
      in
      Alcotest.(check string) "snapshot sees version 1" "version 1"
        (Bytes.to_string (Path.read_file snap_fs "/doc"));
      Alcotest.(check bool) "post-snap file absent in snapshot" false
        (Path.exists snap_fs "/new");
      check_err Errors.Erofs (fun () -> Path.write_file snap_fs "/x" Bytes.empty);
      Alcotest.(check string) "live sees version 2" "version 2"
        (Bytes.to_string (Path.read_file a "/doc")))

(* --- lease expiry / partition ------------------------------------------------ *)

let test_partitioned_server_poisons () =
  Sim.run (fun () ->
      let t, servers = setup ~nservers:2 () in
      let a, b = (List.nth servers 0, List.nth servers 1) in
      let f = Fs.create a ~dir:Fs.root "dirtyfile" in
      Fs.write a f ~off:0 (Bytes.of_string "dirty");
      Fs.sync a;
      Fs.write a f ~off:0 (Bytes.of_string "DIRTY");
      (* Cut only A off: it cannot renew and must expire itself. *)
      let a_addr = T.addr_of t a in
      Cluster.Net.set_fault_cut t.T.net (fun s d -> s = a_addr || d = a_addr);
      Sim.sleep (Sim.sec 60.0);
      (* A had dirty data when the lease lapsed: poisoned until
         unmount (§6). *)
      Alcotest.(check bool) "poisoned" true (Fs.is_poisoned a);
      check_err Errors.Eio (fun () -> Fs.read a f ~off:0 ~len:5);
      Cluster.Net.clear_fault_cut t.T.net;
      (* The lock service recovered A's log, so B reads the last
         synced contents; the unflushed overwrite is lost. *)
      let f_b = Fs.lookup b ~dir:Fs.root "dirtyfile" in
      Alcotest.(check string) "synced data survives" "dirty"
        (Bytes.to_string (Fs.read b f_b ~off:0 ~len:5)))

let () =
  Alcotest.run "frangipani"
    [
      ( "basic",
        [
          Alcotest.test_case "create/write/read" `Quick test_create_write_read;
          Alcotest.test_case "directories" `Quick test_directories;
          Alcotest.test_case "big directory" `Quick test_many_entries_extend_dir;
          Alcotest.test_case "symlinks" `Quick test_symlink;
          Alcotest.test_case "hard links" `Quick test_hard_link;
          Alcotest.test_case "rename" `Quick test_rename;
          Alcotest.test_case "large file" `Quick test_large_file;
          Alcotest.test_case "sparse + truncate" `Quick test_sparse_and_truncate;
          Alcotest.test_case "write-back: one rpc per chunk window" `Quick
            test_write_back_rpc_per_window;
          Alcotest.test_case "path helpers" `Quick test_path_helpers;
          Alcotest.test_case "bad name refused early" `Quick test_bad_name_refused_early;
        ] );
      ( "coherence",
        [
          Alcotest.test_case "two servers" `Quick test_coherence_two_servers;
          Alcotest.test_case "concurrent creates" `Quick
            test_concurrent_creates_distinct_servers;
          Alcotest.test_case "write/write" `Quick test_write_write_coherence;
          Alcotest.test_case "upgrade keeps the writer's cache" `Quick
            test_upgrade_keeps_writer_cache;
          Alcotest.test_case "create storm" `Quick test_create_storm;
          Alcotest.test_case "lost reservation" `Quick test_lost_reservation;
          Alcotest.test_case "batched inode fetch" `Quick test_batched_inode_fetch;
          Alcotest.test_case "unaligned inode batch" `Quick test_unaligned_inode_batch;
          Alcotest.test_case "refill sheds a contended hold" `Quick
            test_refill_sheds_contended_hold;
          Alcotest.test_case "refill off the create path" `Quick test_refill_off_create_path;
          Alcotest.test_case "drop_caches gives back the batch" `Quick
            test_drop_caches_gives_back_batch;
          Alcotest.test_case "top-up stopped by a crash" `Quick (test_top_up_stopped `Crash);
          Alcotest.test_case "top-up stopped by lease expiry" `Quick
            (test_top_up_stopped `Expire);
          Alcotest.test_case "top-up stopped by unmount" `Quick (test_top_up_stopped `Unmount);
          Alcotest.test_case "write-behind skips a revoked block" `Quick
            test_writeback_skips_revoked_entry;
        ] );
      ( "failures",
        [
          Alcotest.test_case "crash recovery (synced)" `Quick
            test_crash_recovery_preserves_synced_metadata;
          Alcotest.test_case "crash loses unsynced only" `Quick
            test_crash_loses_unsynced_data_but_stays_consistent;
          Alcotest.test_case "stats are copies" `Quick test_stats_are_copies;
          Alcotest.test_case "restarted server rejoins" `Quick
            test_restarted_server_rejoins;
          Alcotest.test_case "log wrap" `Quick test_log_wrap_consistency;
          Alcotest.test_case "petal server failure" `Quick
            test_petal_server_failure_transparent;
          Alcotest.test_case "partition poisons" `Quick test_partitioned_server_poisons;
          Alcotest.test_case "clean removal (unmount)" `Quick
            test_clean_removal_no_lease_wait;
        ] );
      ("backup", [ Alcotest.test_case "online snapshot" `Quick test_online_backup ]);
    ]
