(* Stress and rare-path tests: crash during recovery (§6's nested
   recovery), concurrent namespace races across servers (the §5
   two-phase retry), lock-server addition, synchronous-log mode, and
   block-granularity locking correctness. *)

open Simkit
open Frangipani
module T = Workloads.Testbed

let test_crash_during_recovery () =
  (* §6: "This lock is itself covered by a lease so that the lock
     service will start another recovery process should this one
     fail." Kill the first recoverer mid-replay; a third server must
     eventually complete recovery. *)
  Sim.run (fun () ->
      let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
      let a = T.add_server t () in
      let b = T.add_server t () in
      let c = T.add_server t () in
      for i = 0 to 30 do
        ignore (Fs.create a ~dir:Fs.root (Printf.sprintf "f%d" i))
      done;
      Fs.sync a;
      (* Rig B to die the instant the lock service asks it to run
         recovery: the recovery lock's lease then expires and the
         service re-initiates with another clerk. *)
      Locksvc.Clerk.set_callbacks b.Ctx.clerk
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> ())
        ~on_do_recovery:(fun ~dead_lease:_ -> Fs.crash b)
        ~on_expired:(fun () -> ());
      Fs.crash a;
      (* C eventually recovers both logs and can use everything. *)
      let entries = Fs.readdir c Fs.root in
      Alcotest.(check int) "all files recovered" 31 (List.length entries);
      Alcotest.(check bool) "took multiple lease periods" true
        (Sim.now () > Sim.sec 60.0);
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check c)))

let test_concurrent_namespace_races () =
  (* Many servers hammering the same directory with creates, renames
     and unlinks of the same names: the sorted-lock two-phase retry
     protocol must neither deadlock nor corrupt the tree. *)
  Sim.run (fun () ->
      let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
      let servers = Array.init 4 (fun _ -> T.add_server t ()) in
      let d = Fs.mkdir servers.(0) ~dir:Fs.root "arena" in
      Sim.fork_join
        (fun (fs, k) ->
          let name = Printf.sprintf "n%d" (k mod 6) in
          try
            match k mod 4 with
            | 0 -> ignore (Fs.create fs ~dir:d name)
            | 1 -> Fs.unlink fs ~dir:d name
            | 2 -> Fs.rename fs ~sdir:d name ~ddir:d (name ^ "-r")
            | _ -> ignore (Fs.lookup fs ~dir:d name)
          with Errors.Error _ -> () (* races legitimately fail *))
        (List.concat_map
           (fun fs -> List.init 25 (fun k -> (fs, k)))
           (Array.to_list servers));
      (* Whatever happened, the tree must be consistent. *)
      Fs.sync servers.(0);
      Alcotest.(check int) "fsck clean after races" 0
        (List.length (Fsck.check servers.(0)));
      (* Entries must be readable from every server identically. *)
      let views =
        Array.to_list servers
        |> List.map (fun fs -> List.sort compare (List.map fst (Fs.readdir fs d)))
      in
      List.iter
        (fun v -> Alcotest.(check (list string)) "identical views" (List.hd views) v)
        views)

let test_lock_server_addition () =
  Sim.run (fun () ->
      let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
      let fs = T.add_server t () in
      for i = 0 to 9 do
        ignore (Fs.create fs ~dir:Fs.root (Printf.sprintf "f%d" i))
      done;
      (* Bring up a brand-new lock server machine and add it to the
         service; groups are reassigned, state recovered from clerks. *)
      let h = Cluster.Host.create "ls-new" in
      let rpc = Cluster.Rpc.create (Cluster.Net.attach t.T.net h) in
      let peers = t.T.lock_addrs in
      ignore
        (Locksvc.Server.create ~host:h ~rpc
           ~peers:(Array.append peers [| Cluster.Rpc.addr rpc |])
           ~index:(Array.length peers) ~ngroups:16
           ~stable:(Locksvc.Paxos_group.stable ()) ());
      Locksvc.Server.propose_add_server t.T.lock_servers.(0) (Cluster.Rpc.addr rpc);
      Sim.sleep (Sim.sec 10.0);
      (* The file system keeps working through the reassignment. *)
      for i = 10 to 19 do
        ignore (Fs.create fs ~dir:Fs.root (Printf.sprintf "f%d" i))
      done;
      Alcotest.(check int) "20 files" 20 (List.length (Fs.readdir fs Fs.root)))

let test_synchronous_log_durability () =
  (* §4's synchronous-log option: metadata is durable when the call
     returns, even without sync — at a latency cost. *)
  Sim.run (fun () ->
      let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
      let config = { Ctx.default_config with Ctx.synchronous_log = true } in
      let a = T.add_server t ~config () in
      let b = T.add_server t () in
      ignore (Fs.create a ~dir:Fs.root "durable-no-sync");
      (* Crash WITHOUT any sync: the create must survive. *)
      Fs.crash a;
      let names = List.map fst (Fs.readdir b Fs.root) in
      Alcotest.(check bool) "create survived crash without sync" true
        (List.mem "durable-no-sync" names))

let test_block_locks_correctness () =
  (* The finer-granularity ablation must still be coherent: two
     servers writing disjoint blocks of one file concurrently. *)
  Sim.run (fun () ->
      let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
      let config = { Ctx.default_config with Ctx.block_locks = true } in
      let a = T.add_server t ~config () in
      let b = T.add_server t ~config () in
      let f = Fs.create a ~dir:Fs.root "striped" in
      Fs.truncate a f ~size:(64 * 4096);
      Sim.fork_join
        (fun (fs, base, ch) ->
          for k = 0 to 31 do
            Fs.write fs f ~off:((base + (k * 2)) * 4096) (Bytes.make 4096 ch)
          done)
        [ (a, 0, 'A'); (b, 1, 'B') ];
      (* Every even block is A's, every odd block is B's, from both
         servers' viewpoints. *)
      List.iter
        (fun fs ->
          let data = Fs.read fs f ~off:0 ~len:(64 * 4096) in
          for blk = 0 to 63 do
            let expect = if blk mod 2 = 0 then 'A' else 'B' in
            Alcotest.(check char)
              (Printf.sprintf "block %d" blk)
              expect
              (Bytes.get data (blk * 4096))
          done)
        [ a; b ])

let test_multiple_filesystems_one_server () =
  (* §3: "a single Frangipani server can support multiple Frangipani
     file systems on multiple virtual disks". Mount two independent
     file systems from one machine (two lock tables, two vdisks). *)
  Sim.run (fun () ->
      let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
      let fs0 = T.add_server t ~name:"multi" () in
      (* Second virtual disk, formatted and mounted on the SAME host
         through the same endpoint, under its own lock table. *)
      let rpc = T.rpc_of t fs0 in
      let pc = Petal.Testbed.client t.T.petal ~rpc in
      let vid2 = Petal.Client.create_vdisk pc ~nrep:2 in
      let vd2 = Petal.Client.open_vdisk pc vid2 in
      Fs.format vd2;
      let fs1 =
        Fs.mount ~host:(Fs.host fs0) ~rpc ~vd:vd2 ~lock_servers:t.T.lock_addrs
          ~table:"fs1" ()
      in
      ignore (Path.write_file fs0 "/same-name" (Bytes.of_string "on fs0"));
      ignore (Path.write_file fs1 "/same-name" (Bytes.of_string "on fs1"));
      Alcotest.(check string) "fs0 isolated" "on fs0"
        (Bytes.to_string (Path.read_file fs0 "/same-name"));
      Alcotest.(check string) "fs1 isolated" "on fs1"
        (Bytes.to_string (Path.read_file fs1 "/same-name"));
      (* Lock-group reassignment must recover BOTH tables' locks from
         the shared machine (the per-endpoint clerk registry). *)
      Cluster.Host.crash t.T.petal.Petal.Testbed.hosts.(2);
      Sim.sleep (Sim.sec 20.0);
      ignore (Path.write_file fs0 "/after" (Bytes.of_string "a"));
      ignore (Path.write_file fs1 "/after" (Bytes.of_string "b"));
      Alcotest.(check int) "fs0 clean" 0 (List.length (Fsck.check fs0));
      Alcotest.(check int) "fs1 clean" 0 (List.length (Fsck.check fs1)))

let test_deep_tree_and_many_dirs () =
  Sim.run (fun () ->
      let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
      let fs = T.add_server t () in
      (* A 30-deep path and a directory with 500 entries. *)
      let deep = String.concat "/" (List.init 30 (fun i -> Printf.sprintf "d%d" i)) in
      ignore (Path.mkdir_p fs ("/" ^ deep));
      ignore (Path.write_file fs ("/" ^ deep ^ "/leaf") (Bytes.of_string "deep"));
      Alcotest.(check string) "deep leaf" "deep"
        (Bytes.to_string (Path.read_file fs ("/" ^ deep ^ "/leaf")));
      let wide = Fs.mkdir fs ~dir:Fs.root "wide" in
      for i = 0 to 499 do
        ignore (Fs.create fs ~dir:wide (Printf.sprintf "e%03d" i))
      done;
      Alcotest.(check int) "500 entries" 500 (List.length (Fs.readdir fs wide));
      Fs.sync fs;
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check fs)))

let () =
  Alcotest.run "stress"
    [
      ( "stress",
        [
          Alcotest.test_case "crash during recovery" `Quick test_crash_during_recovery;
          Alcotest.test_case "concurrent namespace races" `Quick
            test_concurrent_namespace_races;
          Alcotest.test_case "lock server addition" `Quick test_lock_server_addition;
          Alcotest.test_case "synchronous log durability" `Quick
            test_synchronous_log_durability;
          Alcotest.test_case "block locks correctness" `Quick
            test_block_locks_correctness;
          Alcotest.test_case "deep tree, wide dir" `Quick test_deep_tree_and_many_dirs;
          Alcotest.test_case "multiple filesystems, one server" `Quick
            test_multiple_filesystems_one_server;
        ] );
    ]
