open Simkit
open Cluster

let setup ?(nservers = 4) ?nactive ?(nrep = 2) () =
  let net = Net.create () in
  let tb = Petal.Testbed.build ~net ~nservers ?nactive ~ndisks:3 () in
  let ch = Host.create "client" in
  let rpc = Rpc.create (Net.attach net ch) in
  let c = Petal.Testbed.client tb ~rpc in
  let vid = Petal.Client.create_vdisk c ~nrep in
  let vd = Petal.Client.open_vdisk c vid in
  (net, tb, c, vd)

let bytes_pat n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 256))

let test_roundtrip () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      let data = bytes_pat 4096 1 in
      Petal.Client.write vd ~off:8192 data;
      let got = Petal.Client.read vd ~off:8192 ~len:4096 in
      Alcotest.(check bool) "roundtrip" true (Bytes.equal data got))

let test_sparse_space () =
  Sim.run (fun () ->
      let _, tb, _, vd = setup () in
      (* Write at 100 TB: only the touched chunks commit space. *)
      let off = 100 * (1 lsl 40) in
      Petal.Client.write vd ~off (bytes_pat 512 3);
      let got = Petal.Client.read vd ~off ~len:512 in
      Alcotest.(check bool) "data at 100TB" true (Bytes.equal (bytes_pat 512 3) got);
      let total =
        Array.fold_left
          (fun acc s -> acc + Petal.Server.disk_bytes_allocated s)
          0 tb.Petal.Testbed.servers
      in
      (* one 64 KB chunk, two replicas *)
      Alcotest.(check int) "committed space" (2 * 65536) total)

let test_unwritten_zero () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      let got = Petal.Client.read vd ~off:0 ~len:1024 in
      Alcotest.(check string) "zeros" (String.make 1024 '\000') (Bytes.to_string got))

let test_cross_chunk () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      (* 200 KB spanning 4 chunks, starting mid-chunk. *)
      let data = bytes_pat 204800 7 in
      Petal.Client.write vd ~off:32768 data;
      let got = Petal.Client.read vd ~off:32768 ~len:204800 in
      Alcotest.(check bool) "cross-chunk" true (Bytes.equal data got))

let test_failover_read () =
  Sim.run (fun () ->
      let _, tb, _, vd = setup () in
      let data = bytes_pat 512 9 in
      Petal.Client.write vd ~off:0 data;
      (* With 2-way replication the data must stay readable whichever
         single server is down. *)
      let open Petal.Testbed in
      let n = Array.length tb.hosts in
      for i = 0 to n - 1 do
        Host.crash tb.hosts.(i);
        let got = Petal.Client.read vd ~off:0 ~len:512 in
        Alcotest.(check bool)
          (Printf.sprintf "readable with server %d down" i)
          true (Bytes.equal data got);
        Host.restart tb.hosts.(i)
      done)

let test_unreplicated_unavailable () =
  Sim.run (fun () ->
      let _, tb, _, vd = setup ~nrep:1 () in
      Petal.Client.write vd ~off:0 (bytes_pat 512 1);
      (* Crash all servers: the read must fail, not hang. *)
      Array.iter Host.crash tb.Petal.Testbed.hosts;
      try
        ignore (Petal.Client.read vd ~off:0 ~len:512);
        Alcotest.fail "expected Unavailable"
      with Petal.Protocol.Unavailable _ -> ())

let test_snapshot_cow () =
  Sim.run (fun () ->
      let _, _, c, vd = setup () in
      Petal.Client.write vd ~off:0 (bytes_pat 512 1);
      let snap_id = Petal.Client.snapshot vd in
      let snap = Petal.Client.open_vdisk c snap_id in
      Alcotest.(check bool) "snapshot flagged" true (Petal.Client.is_snapshot snap);
      (* Overwrite the live disk. *)
      Petal.Client.write vd ~off:0 (bytes_pat 512 2);
      let live = Petal.Client.read vd ~off:0 ~len:512 in
      let old = Petal.Client.read snap ~off:0 ~len:512 in
      Alcotest.(check bool) "live sees new" true (Bytes.equal live (bytes_pat 512 2));
      Alcotest.(check bool) "snapshot sees old" true (Bytes.equal old (bytes_pat 512 1));
      (* Snapshots are read-only. *)
      (try
         Petal.Client.write snap ~off:0 (bytes_pat 512 3);
         Alcotest.fail "expected Read_only"
       with Petal.Protocol.Read_only -> ());
      (* Data written after the snapshot is invisible to it. *)
      Petal.Client.write vd ~off:4096 (bytes_pat 512 4);
      let unseen = Petal.Client.read snap ~off:4096 ~len:512 in
      Alcotest.(check string) "post-snapshot write invisible"
        (String.make 512 '\000') (Bytes.to_string unseen))

let test_two_snapshots () =
  Sim.run (fun () ->
      let _, _, c, vd = setup () in
      Petal.Client.write vd ~off:0 (bytes_pat 512 1);
      let s1 = Petal.Client.open_vdisk c (Petal.Client.snapshot vd) in
      Petal.Client.write vd ~off:0 (bytes_pat 512 2);
      let s2 = Petal.Client.open_vdisk c (Petal.Client.snapshot vd) in
      Petal.Client.write vd ~off:0 (bytes_pat 512 3);
      let r1 = Petal.Client.read s1 ~off:0 ~len:512 in
      let r2 = Petal.Client.read s2 ~off:0 ~len:512 in
      let r3 = Petal.Client.read vd ~off:0 ~len:512 in
      Alcotest.(check bool) "s1" true (Bytes.equal r1 (bytes_pat 512 1));
      Alcotest.(check bool) "s2" true (Bytes.equal r2 (bytes_pat 512 2));
      Alcotest.(check bool) "live" true (Bytes.equal r3 (bytes_pat 512 3)))

let test_two_vdisks_isolated () =
  Sim.run (fun () ->
      let net = Net.create () in
      let tb = Petal.Testbed.build ~net ~nservers:3 ~ndisks:2 () in
      let ch = Host.create "client" in
      let rpc = Rpc.create (Net.attach net ch) in
      let c = Petal.Testbed.client tb ~rpc in
      let v1 = Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2) in
      let v2 = Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2) in
      Petal.Client.write v1 ~off:0 (bytes_pat 512 1);
      Petal.Client.write v2 ~off:0 (bytes_pat 512 2);
      Alcotest.(check bool) "v1" true
        (Bytes.equal (Petal.Client.read v1 ~off:0 ~len:512) (bytes_pat 512 1));
      Alcotest.(check bool) "v2" true
        (Bytes.equal (Petal.Client.read v2 ~off:0 ~len:512) (bytes_pat 512 2)))

let test_resync_after_degraded_writes () =
  Sim.run (fun () ->
      let _, tb, _, vd = setup () in
      Petal.Client.write vd ~off:0 (bytes_pat 65536 1);
      (* Take each server down in turn and write through the
         degradation, so both replicas of chunk 0 go stale at some
         point. *)
      let open Petal.Testbed in
      let n = Array.length tb.hosts in
      for i = 0 to n - 1 do
        Cluster.Host.crash tb.hosts.(i);
        Petal.Client.write vd ~off:0 (bytes_pat 65536 (10 + i));
        Cluster.Host.restart tb.hosts.(i)
      done;
      let final = bytes_pat 65536 (10 + n - 1) in
      (* Let anti-entropy repair the lagging replicas. *)
      Sim.sleep (Sim.sec 30.0);
      let pending =
        Array.fold_left (fun acc s -> acc + Petal.Server.degraded_count s) 0 tb.servers
      in
      Alcotest.(check int) "resync drained" 0 pending;
      (* Now EVERY single-failure view must serve the final data. *)
      for i = 0 to n - 1 do
        Cluster.Host.crash tb.hosts.(i);
        let got = Petal.Client.read vd ~off:0 ~len:65536 in
        Alcotest.(check bool)
          (Printf.sprintf "fresh data with server %d down" i)
          true (Bytes.equal got final);
        Cluster.Host.restart tb.hosts.(i)
      done)

(* [op_stats] and [Server.stats] hand out copies: the ones taken
   before degraded writes and their resync keep their values. *)
let test_stats_are_copies () =
  Sim.run (fun () ->
      let _, tb, _, vd = setup () in
      let open Petal.Testbed in
      let pushes stats =
        Array.fold_left (fun acc (s : Petal.Server.stats) -> acc + s.xfer_pushes) 0 stats
      in
      let client0 = Petal.Client.op_stats vd in
      let servers0 = Array.map Petal.Server.stats tb.servers in
      for i = 0 to Array.length tb.hosts - 1 do
        Cluster.Host.crash tb.hosts.(i);
        Petal.Client.write vd ~off:0 (bytes_pat 512 i);
        Cluster.Host.restart tb.hosts.(i)
      done;
      Sim.sleep (Sim.sec 30.0);
      Alcotest.(check int) "client copy kept" 0 client0.Petal.Client.writes;
      Alcotest.(check int) "client counter moved" (Array.length tb.hosts)
        (Petal.Client.op_stats vd).Petal.Client.writes;
      Alcotest.(check int) "server copies kept" 0 (pushes servers0);
      Alcotest.(check bool) "server counters moved" true
        (pushes (Array.map Petal.Server.stats tb.servers) > 0))

let test_write_guard () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      (* Valid timestamp: accepted. *)
      Petal.Client.set_write_guard vd (fun () -> Some (Sim.now () + Sim.sec 10.0));
      Petal.Client.write vd ~off:0 (bytes_pat 512 1);
      (* Expired timestamp: the server must refuse the write. *)
      Petal.Client.set_write_guard vd (fun () -> Some (Sim.now () - 1));
      (try
         Petal.Client.write vd ~off:0 (bytes_pat 512 2);
         Alcotest.fail "expected Stale_write"
       with Petal.Protocol.Stale_write _ -> ());
      Petal.Client.set_write_guard vd (fun () -> None);
      let got = Petal.Client.read vd ~off:0 ~len:512 in
      Alcotest.(check bool) "stale write was ignored" true
        (Bytes.equal got (bytes_pat 512 1)))

let test_crc_damage_repaired_from_replica () =
  (* §4: "If a sector is damaged such that reading it returns a CRC
     error, Petal's built-in replication can ordinarily recover it." *)
  Sim.run (fun () ->
      let _, tb, _, vd = setup () in
      let data = bytes_pat 65536 3 in
      Petal.Client.write vd ~off:0 data;
      let open Petal.Testbed in
      (* Chunk 0's primary is server [(root + 0) mod n]; this is the
         first extent it allocated, so it sits at offset 0 of its
         first disk. Damage a sector of it (a media/CRC error). *)
      let n = Array.length tb.servers in
      let primary = Petal.Client.id vd mod n in
      Blockdev.Disk.damage_sector tb.disks.(primary).(0) 17;
      (* The read still succeeds: the primary detects the CRC error,
         pulls a clean copy from the replica and repairs its medium. *)
      let got = Petal.Client.read vd ~off:0 ~len:65536 in
      Alcotest.(check bool) "repaired read" true (Bytes.equal got data);
      (* The repair is durable: read again with the replica down. *)
      let secondary = (primary + 1) mod n in
      Cluster.Host.crash tb.hosts.(secondary);
      let again = Petal.Client.read vd ~off:0 ~len:65536 in
      Alcotest.(check bool) "primary medium repaired" true (Bytes.equal again data))

(* The media-error path for a partial read away from chunk 0: the
   primary's disk read raises [Bad_sector], the server fetches the
   whole chunk from the replica, serves the requested slice and
   rewrites its own medium. *)
let test_media_error_partial_read () =
  Sim.run (fun () ->
      let _, tb, c, vd = setup () in
      let chunk = 65536 in
      let data = bytes_pat chunk 5 in
      Petal.Client.write vd ~off:chunk data;
      (* A live disk's root is its id. Chunk 1 is the only chunk
         written, so on each owner it is the first extent allocated:
         offset 0 of disk 0. *)
      let primary, _ = Petal.Client.route c ~root:(Petal.Client.id vd) ~chunk:1 in
      let disk = tb.Petal.Testbed.disks.(primary).(0) in
      Blockdev.Disk.damage_sector disk 100;
      let raw_ok () =
        match Blockdev.Disk.read disk ~off:0 ~len:chunk with
        | _ -> true
        | exception Blockdev.Disk.Bad_sector _ -> false
      in
      Alcotest.(check bool) "primary's copy is damaged" false (raw_ok ());
      let within = 99 * 512 in
      let got = Petal.Client.read vd ~off:(chunk + within) ~len:4096 in
      Alcotest.(check bool) "slice read through the replica" true
        (Bytes.equal got (Bytes.sub data within 4096));
      Alcotest.(check int) "served by the primary, no failover" 0
        (Petal.Client.op_stats vd).Petal.Client.failovers;
      Alcotest.(check bool) "medium rewritten" true (raw_ok ()))

let test_trusted_addresses () =
  (* §2.2: "accept requests only from a list of network addresses
     belonging to trusted Frangipani server machines". *)
  Sim.run (fun () ->
      let net = Cluster.Net.create () in
      let tb = Petal.Testbed.build ~net ~nservers:3 ~ndisks:2 () in
      let mk name =
        let h = Host.create name in
        Rpc.create (Net.attach net h)
      in
      let trusted_rpc = mk "trusted" and rogue_rpc = mk "rogue" in
      let trusted = Petal.Testbed.client tb ~rpc:trusted_rpc in
      let rogue = Petal.Testbed.client tb ~rpc:rogue_rpc in
      let vid = Petal.Client.create_vdisk trusted ~nrep:2 in
      let vd = Petal.Client.open_vdisk trusted vid in
      Petal.Client.write vd ~off:0 (bytes_pat 512 1);
      (* Lock the cluster down to the trusted machine only. *)
      Array.iter
        (fun s -> Petal.Server.set_trusted s (Some [ Rpc.addr trusted_rpc ]))
        tb.Petal.Testbed.servers;
      (* The trusted machine still works. *)
      ignore (Petal.Client.read vd ~off:0 ~len:512);
      Petal.Client.write vd ~off:512 (bytes_pat 512 2);
      (* The rogue machine is refused everywhere. *)
      let vd_rogue = Petal.Client.open_vdisk rogue vid in
      (try
         ignore (Petal.Client.read vd_rogue ~off:0 ~len:512);
         Alcotest.fail "rogue read should fail"
       with Failure _ | Petal.Protocol.Unavailable _ -> ());
      (try
         Petal.Client.write vd_rogue ~off:0 (bytes_pat 512 9);
         Alcotest.fail "rogue write should fail"
       with Failure _ | Petal.Protocol.Unavailable _ | Petal.Protocol.Stale_write _ -> ());
      (* The data was not modified by the rogue. *)
      let got = Petal.Client.read vd ~off:0 ~len:512 in
      Alcotest.(check bool) "unmodified" true (Bytes.equal got (bytes_pat 512 1)))

let prop_snapshots_match_model =
  (* Interleave writes and snapshots; every snapshot must forever read
     exactly what the model held at its creation instant. *)
  QCheck.Test.make ~name:"snapshots freeze the model state" ~count:15
    QCheck.(
      pair (int_range 0 100000)
        (list_of_size Gen.(int_range 4 20) (pair (int_range 0 100) bool)))
    (fun (seed, script) ->
      Sim.run ~seed (fun () ->
          let _, _, c, vd = setup ~nservers:3 () in
          let model = Bytes.make (64 * 1024) '\000' in
          let snaps = ref [] in
          List.iteri
            (fun k (sector, snap) ->
              if snap then begin
                let id = Petal.Client.snapshot vd in
                snaps := (Petal.Client.open_vdisk c id, Bytes.copy model) :: !snaps
              end
              else begin
                let off = sector * 512 in
                let data = bytes_pat 512 k in
                Petal.Client.write vd ~off data;
                Bytes.blit data 0 model off 512
              end)
            script;
          List.for_all
            (fun (svd, frozen) ->
              Bytes.equal (Petal.Client.read svd ~off:0 ~len:(64 * 1024)) frozen)
            !snaps
          && Bytes.equal (Petal.Client.read vd ~off:0 ~len:(64 * 1024)) model))

let prop_random_io_matches_model =
  QCheck.Test.make ~name:"random chunk I/O matches a flat model" ~count:20
    QCheck.(
      pair (int_range 0 100000)
        (list_of_size Gen.(int_range 1 25)
           (pair (int_range 0 500) (int_range 1 16))))
    (fun (seed, ops) ->
      Sim.run ~seed (fun () ->
          let _, _, _, vd = setup ~nservers:3 () in
          let model = Bytes.make (512 * 1024) '\000' in
          List.iteri
            (fun k (sector, nsect) ->
              let off = sector * 512 and len = nsect * 512 in
              let data = bytes_pat len (k * 37) in
              Petal.Client.write vd ~off data;
              Bytes.blit data 0 model off len)
            ops;
          List.for_all
            (fun (sector, nsect) ->
              let off = sector * 512 and len = nsect * 512 in
              let got = Petal.Client.read vd ~off ~len in
              Bytes.equal got (Bytes.sub model off len))
            ops))

(* --- scatter-gather concurrency ---------------------------------------- *)

let chunk = Petal.Protocol.chunk_bytes

(* A 3-chunk operation must cost roughly one chunk's round trip, not
   three: the client submits all pieces before waiting. A serial
   client would take ~3x the single-chunk time. *)
let test_multichunk_concurrent () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      let t0 = Sim.now () in
      Petal.Client.write vd ~off:0 (bytes_pat chunk 1);
      let w1 = Sim.now () - t0 in
      let data = bytes_pat (3 * chunk) 2 in
      let t0 = Sim.now () in
      Petal.Client.write vd ~off:(4 * chunk) data;
      let w3 = Sim.now () - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "3-chunk write ~1 RTT (1-chunk %dns, 3-chunk %dns)" w1 w3)
        true
        (w3 < 2 * w1);
      let got = Petal.Client.read vd ~off:(4 * chunk) ~len:(3 * chunk) in
      Alcotest.(check bool) "3-chunk contents" true (Bytes.equal data got);
      let t0 = Sim.now () in
      ignore (Petal.Client.read vd ~off:0 ~len:chunk);
      let r1 = Sim.now () - t0 in
      let t0 = Sim.now () in
      ignore (Petal.Client.read vd ~off:(4 * chunk) ~len:(3 * chunk));
      let r3 = Sim.now () - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "3-chunk read ~1 RTT (1-chunk %dns, 3-chunk %dns)" r1 r3)
        true
        (r3 < 2 * r1))

(* Two writers on one driver overlap: both together cost about one
   write, not two. *)
let test_concurrent_writers_overlap () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      let t0 = Sim.now () in
      Petal.Client.write vd ~off:0 (bytes_pat chunk 3);
      let w1 = Sim.now () - t0 in
      let t0 = Sim.now () in
      Sim.fork_join
        (fun (i, seed) -> Petal.Client.write vd ~off:(i * chunk) (bytes_pat chunk seed))
        [ (8, 4); (16, 5) ];
      let w2 = Sim.now () - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "two concurrent writes overlap (one %dns, both %dns)" w1 w2)
        true
        (w2 < 2 * w1);
      Alcotest.(check bool) "first write landed" true
        (Bytes.equal (bytes_pat chunk 4) (Petal.Client.read vd ~off:(8 * chunk) ~len:chunk));
      Alcotest.(check bool) "second write landed" true
        (Bytes.equal (bytes_pat chunk 5) (Petal.Client.read vd ~off:(16 * chunk) ~len:chunk)))

(* An empty scatter-gather is a no-op: it returns at the same instant
   and sends nothing. *)
let test_empty_runs () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      let s0 = Petal.Client.op_stats vd in
      let t0 = Sim.now () in
      Alcotest.(check int) "no buffers" 0 (List.length (Petal.Client.read_runs vd []));
      Petal.Client.write_runs vd [];
      Alcotest.(check int) "same instant" t0 (Sim.now ());
      let s1 = Petal.Client.op_stats vd in
      let open Petal.Client in
      Alcotest.(check (list int)) "no pieces, no rpcs"
        [ s0.read_pieces; s0.read_rpcs; s0.write_pieces; s0.write_rpcs ]
        [ s1.read_pieces; s1.read_rpcs; s1.write_pieces; s1.write_rpcs ])

(* The first failed piece ends the call: a write spanning a chunk on
   a server that refuses the client and a chunk behind a 500 ms delay
   raises the refusal without waiting for the delayed piece. *)
let test_first_failure_returns () =
  Sim.run (fun () ->
      let net = Net.create () in
      let tb = Petal.Testbed.build ~net ~nservers:2 ~ndisks:3 () in
      let rpc = Rpc.create (Net.attach net (Host.create "client")) in
      let c = Petal.Testbed.client tb ~rpc in
      let vd = Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2) in
      (* With two servers, consecutive chunks alternate primaries. *)
      Petal.Server.set_trusted tb.Petal.Testbed.servers.(0) (Some []);
      let nf = Netfault.create net in
      Netfault.shape nf ~src:(Rpc.addr rpc) ~dst:tb.Petal.Testbed.addrs.(1)
        ~delay:(Sim.ms 500);
      let t0 = Sim.now () in
      (match Petal.Client.write_runs vd [ (0, bytes_pat (2 * chunk) 7) ] with
      | () -> Alcotest.fail "write to an untrusting server succeeded"
      | exception Failure msg ->
        Alcotest.(check string) "refusal surfaces" "petal: unauthorized" msg);
      let dt = Sim.now () - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "returns at the first failure (%dns)" dt)
        true
        (dt < Sim.ms 100))

(* With 2 servers and one down, a 4-chunk write has two pieces whose
   primary is dead. Each pays the 2 s failover timeout — but they must
   pay it concurrently (elapsed ~2 s); a serial client would need over
   4 s. Contents must survive the degraded writes, readable from the
   surviving replica (reads fail over concurrently too). *)
let test_failover_concurrent_pieces () =
  Sim.run (fun () ->
      let _, tb, _, vd = setup ~nservers:2 () in
      let data = bytes_pat (4 * chunk) 11 in
      Host.crash tb.Petal.Testbed.hosts.(0);
      let t0 = Sim.now () in
      Petal.Client.write vd ~off:0 data;
      let w = Sim.now () - t0 in
      Alcotest.(check bool)
        (Printf.sprintf "degraded pieces fail over concurrently (write %dns)" w)
        true
        (w >= Sim.sec 2.0 && w < Sim.sec 3.0);
      let t0 = Sim.now () in
      let got = Petal.Client.read vd ~off:0 ~len:(4 * chunk) in
      let r = Sim.now () - t0 in
      Alcotest.(check bool) "degraded contents" true (Bytes.equal data got);
      (* The write's timeouts marked the dead server suspect, so the
         read goes straight to the replica — no second failover wait. *)
      Alcotest.(check bool)
        (Printf.sprintf "suspected primary skipped (read %dns)" r)
        true
        (r < Sim.sec 1.0);
      let s = Petal.Client.op_stats vd in
      Alcotest.(check bool) "skips counted" true (s.Petal.Client.primary_skips > 0))

let test_suspect_reprobe_heals () =
  (* A cut primary is marked suspect and skipped; once the link heals
     and the probe window opens, routing returns to the primary. *)
  Sim.run (fun () ->
      let net = Net.create () in
      let tb = Petal.Testbed.build ~net ~nservers:2 ~ndisks:3 () in
      let rpc = Rpc.create (Net.attach net (Host.create "client")) in
      let c = Petal.Testbed.client tb ~rpc in
      let vd = Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2) in
      let nf = Netfault.create net in
      let client_addr = Rpc.addr rpc in
      (* Two chunks: with two servers their primaries alternate, so
         one piece is certain to have the cut server as primary. *)
      let data = bytes_pat (2 * chunk) 3 in
      Petal.Client.write vd ~off:0 data;
      let p0 = tb.Petal.Testbed.addrs.(0) in
      Netfault.cut nf client_addr p0;
      Petal.Client.write vd ~off:0 (bytes_pat (2 * chunk) 4);
      let s = Petal.Client.op_stats vd in
      Alcotest.(check bool) "timed out on primary" true
        (s.Petal.Client.failovers > 0);
      (* While suspected, ops skip the primary without paying timeouts. *)
      let t0 = Sim.now () in
      ignore (Petal.Client.read vd ~off:0 ~len:(2 * chunk));
      Alcotest.(check bool) "skip is fast" true (Sim.now () - t0 < Sim.sec 1.0);
      Alcotest.(check bool) "skips counted" true
        ((Petal.Client.op_stats vd).Petal.Client.primary_skips > 0);
      Netfault.heal nf client_addr p0;
      Sim.sleep (Sim.sec 6.0) (* past the probe interval *);
      ignore (Petal.Client.read vd ~off:0 ~len:(2 * chunk));
      Petal.Client.write vd ~off:0 (bytes_pat (2 * chunk) 5);
      Alcotest.(check bool) "probe healed the suspicion" true
        ((Petal.Client.op_stats vd).Petal.Client.probe_heals > 0))

(* --- scatter-gather multi-extent reads ------------------------------------- *)

let test_read_runs_coalesce () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      let data = bytes_pat 65536 11 in
      Petal.Client.write vd ~off:0 data;
      let s0 = Petal.Client.op_stats vd in
      let bufs =
        Petal.Client.read_runs vd [ (0, 32768); (32768, 32768) ]
      in
      (match bufs with
      | [ a; b ] ->
        Alcotest.(check bool) "first extent" true
          (Bytes.equal a (Bytes.sub data 0 32768));
        Alcotest.(check bool) "second extent" true
          (Bytes.equal b (Bytes.sub data 32768 32768))
      | _ -> Alcotest.fail "expected two buffers");
      let s1 = Petal.Client.op_stats vd in
      let open Petal.Client in
      (* Two adjacent extents in one chunk: two pieces, one wire RPC. *)
      Alcotest.(check int) "pieces" 2 (s1.read_pieces - s0.read_pieces);
      Alcotest.(check int) "rpcs" 1 (s1.read_rpcs - s0.read_rpcs);
      Alcotest.(check int) "coalesced" 1 (s1.read_coalesced - s0.read_coalesced))

(* Writes are not coalesced: two adjacent extents in one chunk go
   down as two pieces and two wire RPCs, and both land. *)
let test_write_runs_per_piece () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      let a = bytes_pat 32768 12 and b = bytes_pat 32768 13 in
      let s0 = Petal.Client.op_stats vd in
      Petal.Client.write_runs vd [ (0, a); (32768, b) ];
      let s1 = Petal.Client.op_stats vd in
      let open Petal.Client in
      Alcotest.(check int) "pieces" 2 (s1.write_pieces - s0.write_pieces);
      Alcotest.(check int) "rpcs" 2 (s1.write_rpcs - s0.write_rpcs);
      let back = Petal.Client.read vd ~off:0 ~len:65536 in
      Alcotest.(check bool) "both extents landed" true
        (Bytes.equal (Bytes.sub back 0 32768) a
        && Bytes.equal (Bytes.sub back 32768 32768) b))

let test_read_runs_overlap () =
  Sim.run (fun () ->
      let _, _, _, vd = setup () in
      let cb = Petal.Protocol.chunk_bytes in
      let nchunks = 4 in
      for i = 0 to nchunks - 1 do
        Petal.Client.write vd ~off:(i * cb) (bytes_pat cb (20 + i))
      done;
      let t0 = Sim.now () in
      ignore (Petal.Client.read vd ~off:0 ~len:cb);
      let single = Sim.now () - t0 in
      let t0 = Sim.now () in
      let bufs =
        Petal.Client.read_runs vd (List.init nchunks (fun i -> (i * cb, cb)))
      in
      let batch = Sim.now () - t0 in
      List.iteri
        (fun i b ->
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d" i)
            true
            (Bytes.equal b (bytes_pat cb (20 + i))))
        bufs;
      (* All four distinct-chunk pieces must be in flight together:
         far cheaper than four serial single-chunk reads. *)
      Alcotest.(check bool) "pieces overlap" true (batch < 2 * single))

let test_read_runs_failover_concurrent () =
  Sim.run (fun () ->
      let _, tb, _, vd = setup () in
      let cb = Petal.Protocol.chunk_bytes in
      let nchunks = 6 in
      for i = 0 to nchunks - 1 do
        Petal.Client.write vd ~off:(i * cb) (bytes_pat cb (40 + i))
      done;
      Host.crash tb.Petal.Testbed.hosts.(0);
      let t0 = Sim.now () in
      let bufs =
        Petal.Client.read_runs vd (List.init nchunks (fun i -> (i * cb, cb)))
      in
      let elapsed = Sim.now () - t0 in
      List.iteri
        (fun i b ->
          Alcotest.(check bool)
            (Printf.sprintf "degraded chunk %d" i)
            true
            (Bytes.equal b (bytes_pat cb (40 + i))))
        bufs;
      (* Pieces routed at the dead primary fail over independently;
         their 2 s timeouts overlap rather than accumulate, so one
         slow piece cannot serialise the whole batch. *)
      Alcotest.(check bool) "failovers overlap" true (elapsed < Sim.sec 3.0))

(* --- dynamic reconfiguration ----------------------------------------- *)

(* Wait (bounded) until every server has committed map epoch [e],
   finished any pending transfer, drained its push backlog and freed
   chunks it no longer owns. *)
let wait_reconfigured ?(bound = Sim.sec 120.0) tb e =
  let deadline = Sim.now () + bound in
  let settled () =
    Array.for_all
      (fun s ->
        Petal.Server.current_epoch s = e
        && (not (Petal.Server.pending_transfer s))
        && Petal.Server.degraded_count s = 0
        && Petal.Server.nonowned_chunk_count s = 0)
      tb.Petal.Testbed.servers
  in
  while (not (settled ())) && Sim.now () < deadline do
    Sim.sleep (Sim.ms 500)
  done;
  Alcotest.(check bool) "reconfiguration settled" true (settled ())

let test_add_server_migrates () =
  Sim.run (fun () ->
      let _, tb, c, vd = setup ~nservers:4 ~nactive:3 () in
      let cb = Petal.Protocol.chunk_bytes in
      let nchunks = 12 in
      for i = 0 to nchunks - 1 do
        Petal.Client.write vd ~off:(i * cb) (bytes_pat 4096 (60 + i))
      done;
      Alcotest.(check int) "standby stores nothing" 0
        (Petal.Server.chunk_count tb.Petal.Testbed.servers.(3));
      Petal.Client.add_server c ~idx:3;
      wait_reconfigured tb 1;
      (* The joiner now owns (and stores) its share of the chunks. *)
      Alcotest.(check bool) "joiner holds chunks" true
        (Petal.Server.chunk_count tb.Petal.Testbed.servers.(3) > 0);
      Alcotest.(check (list int)) "map grew" [ 0; 1; 2; 3 ]
        (Petal.Server.current_active tb.Petal.Testbed.servers.(0));
      (* The client still routes under the old map: its next reads hit
         Wrong_epoch, refetch the map, and succeed transparently. *)
      for i = 0 to nchunks - 1 do
        let got = Petal.Client.read vd ~off:(i * cb) ~len:4096 in
        Alcotest.(check bool)
          (Printf.sprintf "chunk %d survives add" i)
          true
          (Bytes.equal got (bytes_pat 4096 (60 + i)))
      done;
      let st = Petal.Client.op_stats vd in
      Alcotest.(check bool) "client refetched map" true (st.map_refreshes >= 1);
      Alcotest.(check bool) "wrong-epoch retries recorded" true
        (st.wrong_epoch_retries >= 1))

(* A read of a never-written chunk stores nothing, so a transfer that
   begins after such reads has no obligation for those chunks: the
   handoff drains without a single push. *)
let test_unwritten_reads_push_nothing () =
  Sim.run (fun () ->
      let _, tb, c, vd = setup ~nservers:4 ~nactive:3 () in
      let cb = Petal.Protocol.chunk_bytes in
      for i = 0 to 11 do
        let got = Petal.Client.read vd ~off:(i * cb) ~len:512 in
        Alcotest.(check string) "unwritten reads zero" (String.make 512 '\000')
          (Bytes.to_string got)
      done;
      Petal.Client.add_server c ~idx:3;
      Sim.sleep (Sim.ms 100);
      Array.iter
        (fun s -> Alcotest.(check int) "no obligation" 0 (Petal.Server.degraded_count s))
        tb.Petal.Testbed.servers;
      wait_reconfigured tb 1;
      Array.iter
        (fun s ->
          Alcotest.(check int) "no chunk stored" 0 (Petal.Server.chunk_count s);
          Alcotest.(check int) "no push" 0 (Petal.Server.stats s).xfer_pushes)
        tb.Petal.Testbed.servers)

let test_remove_server_drains_owner () =
  Sim.run (fun () ->
      let _, tb, c, vd = setup ~nservers:4 () in
      let cb = Petal.Protocol.chunk_bytes in
      let nchunks = 12 in
      for i = 0 to nchunks - 1 do
        Petal.Client.write vd ~off:(i * cb) (bytes_pat 4096 (80 + i))
      done;
      Petal.Client.remove_server c ~idx:1;
      wait_reconfigured tb 1;
      (* The decommissioned owner holds nothing it could serve stale. *)
      Alcotest.(check int) "decommissioned server emptied" 0
        (Petal.Server.chunk_count tb.Petal.Testbed.servers.(1));
      Alcotest.(check (list int)) "map shrank" [ 0; 2; 3 ]
        (Petal.Server.current_active tb.Petal.Testbed.servers.(2));
      for i = 0 to nchunks - 1 do
        let got = Petal.Client.read vd ~off:(i * cb) ~len:4096 in
        Alcotest.(check bool)
          (Printf.sprintf "chunk %d survives remove" i)
          true
          (Bytes.equal got (bytes_pat 4096 (80 + i)))
      done)

let test_reconfig_serialized () =
  Sim.run (fun () ->
      let _, tb, c, vd = setup ~nservers:5 ~nactive:3 () in
      let cb = Petal.Protocol.chunk_bytes in
      for i = 0 to 7 do
        Petal.Client.write vd ~off:(i * cb) (bytes_pat 4096 i)
      done;
      Petal.Client.add_server c ~idx:3;
      (* A different reconfiguration while the first is pending is
         refused; retrying the same one is idempotent. *)
      (match Petal.Client.add_server c ~idx:4 with
      | () -> Alcotest.fail "second reconfig accepted while pending"
      | exception Failure _ -> ());
      Petal.Client.add_server c ~idx:3;
      wait_reconfigured tb 1;
      (* After the cutover the next one goes through. *)
      Petal.Client.add_server c ~idx:4;
      wait_reconfigured tb 2;
      Alcotest.(check (list int)) "both committed in order" [ 0; 1; 2; 3; 4 ]
        (Petal.Server.current_active tb.Petal.Testbed.servers.(4)))

(* The drain-time write freeze: a writer that re-dirties a moving
   chunk on every push round would defer the cutover forever (the
   PR-5 livelock). Past a grace period the old owners refuse its
   writes with [Wrong_epoch]; the client waits and retries, the
   backlog drains, and the transfer commits — bounded, with no error
   ever surfacing to the writer. *)
let test_freeze_bounds_hot_writer () =
  Sim.run (fun () ->
      let _, tb, c, _ = setup ~nservers:4 ~nactive:3 () in
      let vid = Petal.Client.create_vdisk c ~nrep:2 in
      let vd = Petal.Client.open_vdisk c vid in
      let cb = Petal.Protocol.chunk_bytes in
      (* mirror the servers' ring placement to pick a chunk whose
         owner pair provably changes when member 3 activates *)
      let owners act chunk =
        let a = Array.of_list (List.sort compare act) in
        let n = Array.length a in
        let slot = (vid + chunk) mod n in
        List.sort compare [ a.(slot); a.((slot + 1) mod n) ]
      in
      let rec moving ch =
        if owners [ 0; 1; 2 ] ch <> owners [ 0; 1; 2; 3 ] ch then ch
        else moving (ch + 1)
      in
      let off = moving 0 * cb in
      Petal.Client.write vd ~off (bytes_pat 4096 100);
      Petal.Client.add_server c ~idx:3;
      (* Hammer the moving chunk until the cutover commits. Every
         write must succeed — the freeze is invisible to the client. *)
      let deadline = Sim.now () + Sim.sec 90.0 in
      let k = ref 0 in
      while
        Petal.Server.current_active tb.Petal.Testbed.servers.(0)
        <> [ 0; 1; 2; 3 ]
        && Sim.now () < deadline
      do
        Petal.Client.write vd ~off (bytes_pat 4096 (100 + !k));
        incr k;
        Sim.sleep (Sim.ms 50)
      done;
      wait_reconfigured tb 1;
      let sum f =
        Array.fold_left (fun a s -> a + f s) 0 tb.Petal.Testbed.servers
      in
      Alcotest.(check bool) "freeze engaged" true
        (sum (fun s -> (Petal.Server.stats s).freeze_rejects) > 0);
      Alcotest.(check bool) "client waited through the freeze" true
        ((Petal.Client.op_stats vd).Petal.Client.freeze_waits > 0);
      let worst =
        Array.fold_left
          (fun a s -> max a (Petal.Server.stats s).max_cutover)
          0 tb.Petal.Testbed.servers
      in
      Alcotest.(check bool)
        (Printf.sprintf "cutover bounded (%.1fs)" (Sim.to_sec worst))
        true
        (worst > 0 && worst <= Sim.sec 40.0);
      let got = Petal.Client.read vd ~off ~len:4096 in
      Alcotest.(check bool) "last write survived the handoff" true
        (Bytes.equal got (bytes_pat 4096 (100 + !k - 1))))

(* Deleting a snapshot GCs the chunk versions it pinned; a live disk
   is not deletable, and re-deleting is idempotent. *)
let test_delete_vdisk_gc () =
  Sim.run (fun () ->
      let _, tb, c, _ = setup () in
      let vid = Petal.Client.create_vdisk c ~nrep:2 in
      let vd = Petal.Client.open_vdisk c vid in
      let cb = Petal.Protocol.chunk_bytes in
      for i = 0 to 5 do
        Petal.Client.write vd ~off:(i * cb) (bytes_pat 4096 i)
      done;
      let sid = Petal.Client.snapshot vd in
      (* Overwrites CoW fresh versions; the old ones stay pinned. *)
      for i = 0 to 5 do
        Petal.Client.write vd ~off:(i * cb) (bytes_pat 4096 (50 + i))
      done;
      let sum f =
        Array.fold_left (fun a s -> a + f s) 0 tb.Petal.Testbed.servers
      in
      let before = sum Petal.Server.disk_bytes_allocated in
      (match Petal.Client.delete_vdisk c ~id:vid with
      | () -> Alcotest.fail "live vdisk deleted"
      | exception Failure _ -> ());
      Petal.Client.delete_vdisk c ~id:sid;
      Alcotest.(check bool) "pinned versions GCed" true
        (sum (fun s -> (Petal.Server.stats s).snap_gc_chunks) > 0);
      Alcotest.(check bool) "space reclaimed" true
        (sum Petal.Server.disk_bytes_allocated < before);
      (* idempotent: the snapshot is already gone *)
      Petal.Client.delete_vdisk c ~id:sid;
      for i = 0 to 5 do
        let got = Petal.Client.read vd ~off:(i * cb) ~len:4096 in
        Alcotest.(check bool)
          (Printf.sprintf "live chunk %d intact" i)
          true
          (Bytes.equal got (bytes_pat 4096 (50 + i)))
      done)

(* The other half of the snapshot/reconfiguration interlock: bumping
   the CoW epoch mid-transfer would pin versions the handoff stream
   never carries, so snapshot is refused while a transfer is
   pending — and goes through once the cutover commits. *)
let test_snapshot_refused_while_pending () =
  Sim.run (fun () ->
      let _, tb, c, vd = setup ~nservers:4 ~nactive:3 () in
      let cb = Petal.Protocol.chunk_bytes in
      for i = 0 to 47 do
        Petal.Client.write vd ~off:(i * cb) (bytes_pat 1024 i)
      done;
      Petal.Client.add_server c ~idx:3;
      (match Petal.Client.snapshot vd with
      | _ -> Alcotest.fail "snapshot accepted mid-transfer"
      | exception Failure _ -> ());
      wait_reconfigured tb 1;
      let sid = Petal.Client.snapshot vd in
      Alcotest.(check bool) "snapshot accepted after cutover" true (sid > 0))

let test_reconfig_refused_with_snapshot () =
  Sim.run (fun () ->
      let _, _, c, vd = setup ~nservers:4 ~nactive:3 () in
      Petal.Client.write vd ~off:0 (bytes_pat 4096 5);
      ignore (Petal.Client.snapshot vd);
      (* Snapshots pin old chunk versions the handoff stream does not
         carry; reconfiguration must refuse rather than migrate a
         disk that would lose its history. *)
      match Petal.Client.add_server c ~idx:3 with
      | () -> Alcotest.fail "reconfig accepted with a frozen snapshot"
      | exception Failure _ -> ())

let () =
  Alcotest.run "petal"
    [
      ( "data path",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "sparse 2^62 space" `Quick test_sparse_space;
          Alcotest.test_case "unwritten reads zero" `Quick test_unwritten_zero;
          Alcotest.test_case "cross-chunk I/O" `Quick test_cross_chunk;
          Alcotest.test_case "multi-chunk pieces issue concurrently" `Quick
            test_multichunk_concurrent;
          Alcotest.test_case "concurrent writers overlap" `Quick
            test_concurrent_writers_overlap;
          Alcotest.test_case "empty runs are a no-op" `Quick test_empty_runs;
          Alcotest.test_case "first failed piece returns" `Quick
            test_first_failure_returns;
          Alcotest.test_case "multi-extent read coalesces" `Quick
            test_read_runs_coalesce;
          Alcotest.test_case "multi-extent write, rpc per piece" `Quick
            test_write_runs_per_piece;
          Alcotest.test_case "multi-extent pieces overlap" `Quick
            test_read_runs_overlap;
          Alcotest.test_case "multi-extent failover concurrent" `Quick
            test_read_runs_failover_concurrent;
          QCheck_alcotest.to_alcotest prop_random_io_matches_model;
        ] );
      ( "fault tolerance",
        [
          Alcotest.test_case "read failover" `Quick test_failover_read;
          Alcotest.test_case "failover pieces stay concurrent" `Quick
            test_failover_concurrent_pieces;
          Alcotest.test_case "unavailable raises" `Quick test_unreplicated_unavailable;
          Alcotest.test_case "lease write guard" `Quick test_write_guard;
          Alcotest.test_case "resync after degraded writes" `Quick
            test_resync_after_degraded_writes;
          Alcotest.test_case "suspected primary re-probed after heal" `Quick
            test_suspect_reprobe_heals;
          Alcotest.test_case "trusted address list" `Quick test_trusted_addresses;
          Alcotest.test_case "stats are copies" `Quick test_stats_are_copies;
          Alcotest.test_case "CRC damage repaired from replica" `Quick
            test_crc_damage_repaired_from_replica;
          Alcotest.test_case "media error on a partial read" `Quick
            test_media_error_partial_read;
        ] );
      ( "space management",
        [
          Alcotest.test_case "two vdisks isolated" `Quick test_two_vdisks_isolated;
        ] );
      ( "reconfiguration",
        [
          Alcotest.test_case "add server migrates ownership" `Quick
            test_add_server_migrates;
          Alcotest.test_case "unwritten reads push nothing" `Quick
            test_unwritten_reads_push_nothing;
          Alcotest.test_case "remove server drains old owner" `Quick
            test_remove_server_drains_owner;
          Alcotest.test_case "reconfigs serialized, retries idempotent" `Quick
            test_reconfig_serialized;
          Alcotest.test_case "refused while a snapshot exists" `Quick
            test_reconfig_refused_with_snapshot;
          Alcotest.test_case "freeze bounds a hot-chunk writer" `Quick
            test_freeze_bounds_hot_writer;
        ] );
      ( "snapshots",
        [
          Alcotest.test_case "copy-on-write" `Quick test_snapshot_cow;
          Alcotest.test_case "two snapshots" `Quick test_two_snapshots;
          Alcotest.test_case "delete GCs pinned versions" `Quick
            test_delete_vdisk_gc;
          Alcotest.test_case "refused while a transfer is pending" `Quick
            test_snapshot_refused_while_pending;
          QCheck_alcotest.to_alcotest prop_snapshots_match_model;
        ] );
    ]
