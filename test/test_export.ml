(* The §2.2 client/server configuration: remote untrusted clients
   access the shared file system through a Frangipani server over an
   NFS-like protocol, never touching Petal or the lock service. *)

open Simkit
open Frangipani
module T = Workloads.Testbed

let setup () =
  let t = T.build ~petal_servers:3 ~ndisks:2 ~ngroups:16 () in
  let fs1 = T.add_server t () in
  let fs2 = T.add_server t () in
  (* Export both servers on their own machines; attach one remote
     (untrusted) client machine to each. *)
  Export.serve fs1 (T.rpc_of t fs1);
  Export.serve fs2 (T.rpc_of t fs2);
  let _, crpc1 = T.fresh_client t "client1" in
  let _, crpc2 = T.fresh_client t "client2" in
  let c1 = Export.connect ~rpc:crpc1 ~server:(T.addr_of t fs1) in
  let c2 = Export.connect ~rpc:crpc2 ~server:(T.addr_of t fs2) in
  (t, fs1, fs2, c1, c2)

let test_remote_basic () =
  Sim.run (fun () ->
      let _, _, _, c1, _ = setup () in
      let d = Export.mkdir c1 ~dir:Export.root "remote" in
      let f = Export.create c1 ~dir:d "file" in
      Export.write c1 f ~off:0 (Bytes.of_string "over the wire");
      Alcotest.(check string) "read back" "over the wire"
        (Bytes.to_string (Export.read c1 f ~off:0 ~len:100));
      let st = Export.getattr c1 f in
      Alcotest.(check int) "size" 13 st.Fs.size;
      Export.fsync c1 f;
      let names = List.map fst (Export.readdir c1 d) in
      Alcotest.(check (list string)) "readdir" [ "file" ] names)

let test_remote_errors_transported () =
  Sim.run (fun () ->
      let _, _, _, c1, _ = setup () in
      (try
         ignore (Export.lookup c1 ~dir:Export.root "ghost");
         Alcotest.fail "expected ENOENT"
       with Errors.Error Errors.Enoent -> ());
      ignore (Export.mkdir c1 ~dir:Export.root "d");
      try
        Export.unlink c1 ~dir:Export.root "d";
        Alcotest.fail "expected EISDIR"
      with Errors.Error Errors.Eisdir -> ())

let test_cross_server_coherence_via_protocol () =
  Sim.run (fun () ->
      let _, _, _, c1, c2 = setup () in
      (* Client 1 writes through server 1; client 2, attached to a
         DIFFERENT Frangipani server, observes it — §2.2's point that
         Frangipani-level coherence survives the protocol layer. *)
      let f = Export.create c1 ~dir:Export.root "shared" in
      Export.write c1 f ~off:0 (Bytes.of_string "via server 1");
      let f2 = Export.lookup c2 ~dir:Export.root "shared" in
      Alcotest.(check int) "same inum" f f2;
      Alcotest.(check string) "coherent across servers" "via server 1"
        (Bytes.to_string (Export.read c2 f2 ~off:0 ~len:100));
      Export.write c2 f2 ~off:0 (Bytes.of_string "via server 2");
      Alcotest.(check string) "and back" "via server 2"
        (Bytes.to_string (Export.read c1 f ~off:0 ~len:100));
      Export.rename c2 ~sdir:Export.root "shared" ~ddir:Export.root "renamed";
      Alcotest.(check int) "rename visible" f
        (Export.lookup c1 ~dir:Export.root "renamed"))

let test_server_failover_for_clients () =
  Sim.run (fun () ->
      let _, fs1, _, c1, c2 = setup () in
      let f = Export.create c1 ~dir:Export.root "persistent" in
      Export.write c1 f ~off:0 (Bytes.of_string "keep me");
      Export.fsync c1 f;
      (* Client 1's Frangipani server dies. The client re-attaches to
         the surviving server (the paper suggests IP takeover; we model
         the re-attach directly) and finds its data after recovery. *)
      Fs.crash fs1;
      let f2 = Export.lookup c2 ~dir:Export.root "persistent" in
      Alcotest.(check string) "data after server failover" "keep me"
        (Bytes.to_string (Export.read c2 f2 ~off:0 ~len:100)))

let test_negative_offset_rejected () =
  Sim.run (fun () ->
      let _, fs1, _, c1, _ = setup () in
      let f = Export.create c1 ~dir:Export.root "neg" in
      Export.write c1 f ~off:0 (Bytes.of_string "intact");
      (* A remote client's bad offset is its own error, not the
         server's: it gets EINVAL back and the server keeps serving. *)
      let einval what call =
        match call () with
        | () -> Alcotest.fail (what ^ ": expected EINVAL")
        | exception Errors.Error Errors.Einval -> ()
      in
      einval "read" (fun () -> ignore (Export.read c1 f ~off:(-1) ~len:4));
      einval "write" (fun () -> Export.write c1 f ~off:(-1) (Bytes.of_string "x"));
      Alcotest.(check string) "still serving, file untouched" "intact"
        (Bytes.to_string (Export.read c1 f ~off:0 ~len:100));
      Fs.sync fs1;
      Alcotest.(check int) "fsck clean" 0 (List.length (Fsck.check fs1)))

let () =
  Alcotest.run "export"
    [
      ( "export",
        [
          Alcotest.test_case "remote basics" `Quick test_remote_basic;
          Alcotest.test_case "errors transported" `Quick test_remote_errors_transported;
          Alcotest.test_case "cross-server coherence" `Quick
            test_cross_server_coherence_via_protocol;
          Alcotest.test_case "server failover" `Quick test_server_failover_for_clients;
          Alcotest.test_case "negative offset is EINVAL" `Quick
            test_negative_offset_rejected;
        ] );
    ]
