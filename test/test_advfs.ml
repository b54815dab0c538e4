open Simkit
open Cluster

let mkfs ?nvram () =
  let host = Host.create "advfs-host" in
  (host, Advfs.create ~host ?nvram ())

let test_roundtrip () =
  Sim.run (fun () ->
      let _, fs = mkfs () in
      let f = Advfs.create_file fs ~dir:Advfs.root "f" in
      let data = Bytes.init 100000 (fun i -> Char.chr (i mod 251)) in
      Advfs.write fs f ~off:0 data;
      let got = Advfs.read fs f ~off:0 ~len:100000 in
      Alcotest.(check bool) "roundtrip" true (Bytes.equal data got);
      Advfs.sync fs;
      Advfs.drop_caches fs;
      let got2 = Advfs.read fs f ~off:0 ~len:100000 in
      Alcotest.(check bool) "uncached roundtrip" true (Bytes.equal data got2))

let test_namespace () =
  Sim.run (fun () ->
      let _, fs = mkfs () in
      let d = Advfs.mkdir fs ~dir:Advfs.root "d" in
      let f = Advfs.create_file fs ~dir:d "x" in
      ignore (Advfs.symlink fs ~dir:d "lnk" ~target:"/d/x");
      Alcotest.(check int) "lookup" f (Advfs.lookup fs ~dir:d "x");
      Alcotest.(check string) "readlink" "/d/x"
        (Advfs.readlink fs (Advfs.lookup fs ~dir:d "lnk"));
      Advfs.rename fs ~sdir:d "x" ~ddir:Advfs.root "y";
      Alcotest.(check int) "renamed" f (Advfs.lookup fs ~dir:Advfs.root "y");
      Advfs.link fs ~dir:Advfs.root "y2" ~inum:f;
      Advfs.unlink fs ~dir:Advfs.root "y";
      Alcotest.(check int) "link survives" f (Advfs.lookup fs ~dir:Advfs.root "y2");
      (try
         ignore (Advfs.lookup fs ~dir:Advfs.root "y");
         Alcotest.fail "expected ENOENT"
       with Frangipani.Errors.Error Frangipani.Errors.Enoent -> ()))

let test_truncate () =
  Sim.run (fun () ->
      let _, fs = mkfs () in
      let f = Advfs.create_file fs ~dir:Advfs.root "t" in
      Advfs.write fs f ~off:0 (Bytes.make 10000 'a');
      Advfs.truncate fs f ~size:100;
      Alcotest.(check int) "size" 100 (Advfs.size fs f))

let test_nvram_speeds_fsync () =
  let run nvram =
    Sim.run (fun () ->
        let _, fs = mkfs ~nvram () in
        let t0 = Sim.now () in
        for i = 0 to 20 do
          let f = Advfs.create_file fs ~dir:Advfs.root (Printf.sprintf "f%d" i) in
          Advfs.write fs f ~off:0 (Bytes.make 4096 'z');
          Advfs.fsync fs f
        done;
        Sim.now () - t0)
  in
  let raw = run false and nvr = run true in
  Alcotest.(check bool)
    (Printf.sprintf "NVRAM (%d ns) much faster than raw (%d ns)" nvr raw)
    true
    (nvr * 2 < raw)

let test_striping_parallelism () =
  (* Uncached sequential read should beat a single disk's 6 MB/s
     thanks to striped read-ahead. *)
  Sim.run (fun () ->
      let _, fs = mkfs () in
      let f = Advfs.create_file fs ~dir:Advfs.root "big" in
      let mb = 4 in
      let chunk = Bytes.make 65536 'd' in
      for i = 0 to (mb * 16) - 1 do
        Advfs.write fs f ~off:(i * 65536) chunk
      done;
      Advfs.sync fs;
      Advfs.drop_caches fs;
      let t0 = Sim.now () in
      for i = 0 to (mb * 16) - 1 do
        ignore (Advfs.read fs f ~off:(i * 65536) ~len:65536)
      done;
      let dt = Sim.to_sec (Sim.now () - t0) in
      let mbps = float_of_int mb /. dt in
      Alcotest.(check bool)
        (Printf.sprintf "striped read %.1f MB/s > 6" mbps)
        true (mbps > 6.0))

let () =
  Alcotest.run "advfs"
    [
      ( "advfs",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "namespace" `Quick test_namespace;
          Alcotest.test_case "truncate" `Quick test_truncate;
          Alcotest.test_case "nvram speeds fsync" `Quick test_nvram_speeds_fsync;
          Alcotest.test_case "striping parallelism" `Quick test_striping_parallelism;
        ] );
    ]
