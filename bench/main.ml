(* Benchmark harness: regenerates every table and figure of the
   paper's evaluation (§9) on the simulated testbed, plus the
   ablations called out in DESIGN.md.

     dune exec bench/main.exe            -- run everything
     dune exec bench/main.exe -- table1  -- one experiment
     (targets: table1 table2 table3 fig5 fig6 fig7 fig8 fig9 ww
               ablation workloads simbench scale idle)

   Absolute numbers come from the simulator's calibrated constants
   (see EXPERIMENTS.md); what must match the paper is the SHAPE —
   who wins, by what factor, where it saturates. Paper reference
   values are printed alongside.

   Stdout carries only deterministic values (simulated time, counts,
   allocated words), so bench/dune diffs it exactly against
   sim_golden.txt and scale_golden.txt on every `dune runtest`.
   Host-time figures go to stderr. *)

open Simkit
module T = Workloads.Testbed
module V = Workloads.Vfs

let mb = 1024 * 1024

(* The paper's testbed: 7 Petal servers x 9 RZ29s; AdvFS machine has
   8 local RZ29s. *)
let frangipani_vfs ?(nvram = false) ?config () =
  let t = T.build ~petal_servers:7 ~ndisks:9 ~nvram ~disk_capacity:(128 * mb) () in
  (t, V.of_frangipani (T.add_server t ?config ()))

let advfs_vfs ?(nvram = false) () =
  let host = Cluster.Host.create "advfs" in
  V.of_advfs (Advfs.create ~host ~nvram ())

let columns = [ "AdvFS Raw"; "AdvFS NVR"; "Frangipani Raw"; "Frangipani NVR" ]

let four_columns (run : V.t -> 'a) : 'a list =
  [
    Sim.run (fun () -> run (advfs_vfs ()));
    Sim.run (fun () -> run (advfs_vfs ~nvram:true ()));
    Sim.run (fun () -> run (snd (frangipani_vfs ())));
    Sim.run (fun () -> run (snd (frangipani_vfs ~nvram:true ())));
  ]

let hrule = String.make 78 '-'

(* --- Table 1: Modified Andrew Benchmark --------------------------------- *)

let table1 () =
  print_endline hrule;
  print_endline "Table 1: Modified Andrew Benchmark, elapsed seconds per phase";
  print_endline
    "(paper: Frangipani is comparable to AdvFS on this workload; NVRAM\n\
    \ helps the metadata-heavy phases)";
  let results = four_columns (fun v -> Workloads.Andrew.run v ~root_name:"mab") in
  Printf.printf "%-20s %14s %14s %14s %14s\n" "Phase" (List.nth columns 0)
    (List.nth columns 1) (List.nth columns 2) (List.nth columns 3);
  let phases = (List.hd results).Workloads.Andrew.phases in
  List.iteri
    (fun i p ->
      Printf.printf "%-20s %14.2f %14.2f %14.2f %14.2f\n"
        p.Workloads.Andrew.phase
        (List.nth (List.nth results 0).Workloads.Andrew.phases i).Workloads.Andrew.seconds
        (List.nth (List.nth results 1).Workloads.Andrew.phases i).Workloads.Andrew.seconds
        (List.nth (List.nth results 2).Workloads.Andrew.phases i).Workloads.Andrew.seconds
        (List.nth (List.nth results 3).Workloads.Andrew.phases i).Workloads.Andrew.seconds)
    phases;
  Printf.printf "%-20s %14.2f %14.2f %14.2f %14.2f\n" "Total"
    (List.nth results 0).Workloads.Andrew.total
    (List.nth results 1).Workloads.Andrew.total
    (List.nth results 2).Workloads.Andrew.total
    (List.nth results 3).Workloads.Andrew.total

(* --- Table 2: Connectathon-style operations ------------------------------- *)

let table2 () =
  print_endline hrule;
  print_endline "Table 2: basic file-system operations, elapsed seconds";
  print_endline
    "(paper: with write-ahead logging both systems have fast creates;\n\
    \ NVRAM removes most synchronous-write latency)";
  let results = four_columns (fun v -> Workloads.Connectathon.run v ~root_name:"cth") in
  Printf.printf "%-20s %6s %14s %14s %14s %14s\n" "Test" "ops" (List.nth columns 0)
    (List.nth columns 1) (List.nth columns 2) (List.nth columns 3);
  List.iteri
    (fun i row ->
      let cell k = (List.nth (List.nth results k) i).Workloads.Connectathon.seconds in
      Printf.printf "%-20s %6d %14.3f %14.3f %14.3f %14.3f\n"
        row.Workloads.Connectathon.test row.Workloads.Connectathon.ops (cell 0)
        (cell 1) (cell 2) (cell 3))
    (List.hd results)

(* --- Table 3: large-file throughput and CPU utilisation ------------------- *)

let table3 () =
  print_endline hrule;
  print_endline "Table 3: single-machine large-file throughput / CPU utilisation";
  print_endline
    "(paper:           Write MB/s  CPU     Read MB/s  CPU\n\
    \  Frangipani          15.3    42%        10.3    25%\n\
    \  AdvFS               13.3    80%        13.2    50%)";
  let run v =
    let w = Workloads.Largefile.write_seq v ~name:"big" ~mb:16 in
    let r = Workloads.Largefile.read_seq v ~name:"big" in
    (w, r)
  in
  let fw, fr = Sim.run (fun () -> run (snd (frangipani_vfs ()))) in
  let aw, ar = Sim.run (fun () -> run (advfs_vfs ())) in
  let open Workloads.Largefile in
  Printf.printf "%-14s %10s %6s %12s %6s\n" "measured:" "Write MB/s" "CPU" "Read MB/s" "CPU";
  Printf.printf "%-14s %10.1f %5.0f%% %12.1f %5.0f%%\n" "Frangipani" fw.mb_per_s
    (100. *. fw.cpu_utilization) fr.mb_per_s (100. *. fr.cpu_utilization);
  Printf.printf "%-14s %10.1f %5.0f%% %12.1f %5.0f%%\n" "AdvFS" aw.mb_per_s
    (100. *. aw.cpu_utilization) ar.mb_per_s (100. *. ar.cpu_utilization);
  (* The paper's small-read aside: 30 processes reading separate 8 KB
     files reach ~80% of the raw-device small-read limit. *)
  let s = Sim.run (fun () -> Workloads.Largefile.small_reads (snd (frangipani_vfs ())) ~nfiles:30) in
  Printf.printf
    "small files:   30 parallel 8 KB uncached reads: %.1f MB/s (paper: 6.3 MB/s)\n"
    s.mb_per_s

(* --- Figure 5: MAB latency vs number of servers ---------------------------- *)

let fig5 () =
  print_endline hrule;
  print_endline "Figure 5: Modified Andrew Benchmark elapsed time vs #servers";
  print_endline
    "(paper: essentially flat — only +8% from 1 to 6 servers, since the\n\
    \ benchmark exhibits almost no write sharing)";
  Printf.printf "%-8s %12s %12s\n" "servers" "avg sec" "vs 1 server";
  let one = ref 0.0 in
  List.iter
    (fun n ->
      let avg =
        Sim.run (fun () ->
            let t = T.build ~petal_servers:7 ~ndisks:9 () in
            let vfss = List.init n (fun i -> (i, V.of_frangipani (T.add_server t ()))) in
            let totals = ref [] in
            Sim.fork_join
              (fun (i, v) ->
                let r = Workloads.Andrew.run v ~root_name:(Printf.sprintf "mab%d" i) in
                totals := r.Workloads.Andrew.total :: !totals)
              vfss;
            List.fold_left ( +. ) 0.0 !totals /. float_of_int n)
      in
      if n = 1 then one := avg;
      Printf.printf "%-8d %12.2f %+11.1f%%\n" n avg ((avg /. !one -. 1.0) *. 100.0))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

(* --- Figure 6: uncached read scaling ---------------------------------------- *)

let fig6 () =
  print_endline hrule;
  print_endline "Figure 6: aggregate uncached-read throughput vs #servers";
  print_endline "(paper: excellent, near-linear scaling)";
  Printf.printf "%-8s %16s %16s\n" "servers" "aggregate MB/s" "linear would be";
  let nfiles = 8 and fmb = 2 in
  let one = ref 0.0 in
  List.iter
    (fun n ->
      let agg =
        Sim.run (fun () ->
            let t = T.build ~petal_servers:7 ~ndisks:9 ~disk_capacity:(128 * mb) () in
            let vfss = List.init n (fun _ -> V.of_frangipani (T.add_server t ())) in
            (* One server creates the shared set of files. *)
            let v0 = List.hd vfss in
            let chunk = Bytes.make 65536 'r' in
            List.iter
              (fun f ->
                let inum = v0.V.create ~dir:v0.V.root (Printf.sprintf "f%d" f) in
                for k = 0 to (fmb * mb / 65536) - 1 do
                  v0.V.write inum ~off:(k * 65536) chunk
                done)
              (List.init nfiles Fun.id);
            v0.V.sync ();
            List.iter (fun v -> v.V.drop_caches ()) vfss;
            (* Everybody reads the same set of files, staggered. *)
            let t0 = Sim.now () in
            Sim.fork_join
              (fun (i, v) ->
                for fo = 0 to nfiles - 1 do
                  let f = (fo + i) mod nfiles in
                  let inum = v.V.lookup ~dir:v.V.root (Printf.sprintf "f%d" f) in
                  for k = 0 to (fmb * mb / 65536) - 1 do
                    ignore (v.V.read inum ~off:(k * 65536) ~len:65536)
                  done
                done)
              (List.mapi (fun i v -> (i, v)) vfss);
            float_of_int (n * nfiles * fmb) /. Sim.to_sec (Sim.now () - t0))
      in
      if n = 1 then one := agg;
      Printf.printf "%-8d %16.1f %16.1f\n" n agg (!one *. float_of_int n))
    [ 1; 2; 3; 4; 5; 6 ]

(* --- Figure 7: write scaling -------------------------------------------------- *)

let fig7 () =
  print_endline hrule;
  print_endline "Figure 7: aggregate write throughput vs #servers (private files)";
  print_endline
    "(paper: scales until the Petal servers' links saturate; the virtual\n\
    \ disk is replicated, so each write turns into two Petal writes)";
  Printf.printf "%-8s %16s %16s\n" "servers" "aggregate MB/s" "linear would be";
  let fmb = 8 in
  let one = ref 0.0 in
  List.iter
    (fun n ->
      let agg =
        Sim.run (fun () ->
            let t = T.build ~petal_servers:7 ~ndisks:9 ~disk_capacity:(256 * mb) () in
            let vfss = List.init n (fun _ -> V.of_frangipani (T.add_server t ())) in
            let t0 = Sim.now () in
            Sim.fork_join
              (fun (i, v) ->
                let inum = v.V.create ~dir:v.V.root (Printf.sprintf "w%d" i) in
                let chunk = Bytes.make 65536 'w' in
                for k = 0 to (fmb * mb / 65536) - 1 do
                  v.V.write inum ~off:(k * 65536) chunk
                done;
                v.V.sync ())
              (List.mapi (fun i v -> (i, v)) vfss);
            float_of_int (n * fmb) /. Sim.to_sec (Sim.now () - t0))
      in
      if n = 1 then one := agg;
      Printf.printf "%-8d %16.1f %16.1f\n" n agg (!one *. float_of_int n))
    [ 1; 2; 3; 4; 5; 6 ]

(* --- Figures 8/9 and write/write sharing -------------------------------------- *)

let contention_run ~config ~readers ~write_bytes =
  Sim.run (fun () ->
      let t = T.build ~petal_servers:7 ~ndisks:9 () in
      let writer = V.of_frangipani (T.add_server t ~config ()) in
      let rs = List.init readers (fun _ -> V.of_frangipani (T.add_server t ~config ())) in
      Workloads.Contention.readers_vs_writer ~reader_vfss:rs ~writer_vfs:writer
        ~write_bytes ~duration:(Sim.sec 60.0))

let fig8 () =
  print_endline hrule;
  print_endline "Figure 8: reader/writer contention - aggregate read MB/s vs #readers";
  print_endline
    "(paper: with read-ahead the curve flattens around 2 MB/s — revoked\n\
    \ locks waste the prefetched data; disabling read-ahead restores scaling)";
  let base = Frangipani.Ctx.default_config in
  Printf.printf "%-8s %20s %20s\n" "readers" "read-ahead ON MB/s" "read-ahead OFF MB/s";
  List.iter
    (fun n ->
      let on = contention_run ~config:base ~readers:n ~write_bytes:mb in
      let off =
        contention_run
          ~config:{ base with Frangipani.Ctx.read_ahead = 0 }
          ~readers:n ~write_bytes:mb
      in
      Printf.printf "%-8d %20.2f %20.2f\n" n on.Workloads.Contention.read_mb_per_s
        off.Workloads.Contention.read_mb_per_s)
    [ 1; 2; 3; 4; 5; 6 ]

let fig9 () =
  print_endline hrule;
  print_endline "Figure 9: shared-data size vs read throughput (read-ahead off)";
  print_endline
    "(paper: the less data the writer rewrites, the faster it yields the\n\
    \ lock, and the more the readers get through)";
  let config = { Frangipani.Ctx.default_config with Frangipani.Ctx.read_ahead = 0 } in
  Printf.printf "%-8s %14s %14s %14s\n" "readers" "8 KB MB/s" "16 KB MB/s" "64 KB MB/s";
  List.iter
    (fun n ->
      let r sz = (contention_run ~config ~readers:n ~write_bytes:sz).Workloads.Contention.read_mb_per_s in
      Printf.printf "%-8d %14.2f %14.2f %14.2f\n" n (r 8192) (r 16384) (r 65536))
    [ 1; 2; 3; 4; 5; 6 ]

let ww () =
  print_endline hrule;
  print_endline "Write/write sharing (§9.4, third experiment):";
  print_endline
    "(paper: servers writing disjoint regions of one file still serialise\n\
    \ on the whole-file lock, each write forcing a flush at the holder)";
  Printf.printf "%-8s %20s\n" "writers" "aggregate write MB/s";
  List.iter
    (fun n ->
      let thr =
        Sim.run (fun () ->
            let t = T.build ~petal_servers:7 ~ndisks:9 () in
            let ws = List.init n (fun _ -> V.of_frangipani (T.add_server t ())) in
            Workloads.Contention.writers_sharing ~writer_vfss:ws
              ~duration:(Sim.sec 60.0))
      in
      Printf.printf "%-8d %20.2f\n" n thr)
    [ 1; 2; 3; 4; 5; 6 ]

(* --- ablations ------------------------------------------------------------------ *)

let ablation () =
  print_endline hrule;
  print_endline "Ablations of the design choices called out in DESIGN.md";
  (* a) synchronous vs asynchronous logging (§4 option). *)
  let creates ?nvram config =
    Sim.run (fun () ->
        let t = T.build ~petal_servers:7 ~ndisks:9 ?nvram () in
        let v = V.of_frangipani (T.add_server t ~config ()) in
        let t0 = Sim.now () in
        for i = 0 to 99 do
          ignore (v.V.create ~dir:v.V.root (Printf.sprintf "f%d" i))
        done;
        Sim.to_sec (Sim.now () - t0) *. 10.0 (* ms per create *))
  in
  let base = Frangipani.Ctx.default_config in
  let sync = { base with Frangipani.Ctx.synchronous_log = true } in
  Printf.printf "a) metadata logging: async %.2f ms/create, sync %.2f ms/create\n"
    (creates base) (creates sync);
  (* b) synchronous logging with NVRAM at the Petal servers. *)
  Printf.printf "b) sync logging + NVRAM: %.2f ms/create (NVRAM absorbs the latency)\n"
    (creates ~nvram:true sync);
  (* c) replication factor. *)
  let write_thr nrep =
    Sim.run (fun () ->
        let t = T.build ~petal_servers:7 ~ndisks:9 ~nrep ~disk_capacity:(128 * mb) () in
        let v = V.of_frangipani (T.add_server t ()) in
        (Workloads.Largefile.write_seq v ~name:"big" ~mb:16).Workloads.Largefile.mb_per_s)
  in
  Printf.printf "c) replication: 1 copy %.1f MB/s, 2 copies %.1f MB/s write\n"
    (write_thr 1) (write_thr 2);
  (* d) lock granularity under read/write sharing (the paper's
     future-work experiment). *)
  let shared granularity =
    (contention_run
       ~config:{ base with Frangipani.Ctx.block_locks = granularity; read_ahead = 0 }
       ~readers:4 ~write_bytes:65536)
      .Workloads.Contention.read_mb_per_s
  in
  Printf.printf
    "d) 4 readers + writer: whole-file locks %.2f MB/s, block locks %.2f MB/s read\n"
    (shared false) (shared true);
  (* e) read-ahead depth (uncontended). *)
  Printf.printf "e) read-ahead depth vs uncached sequential read:\n";
  List.iter
    (fun depth ->
      let r =
        Sim.run (fun () ->
            let t = T.build ~petal_servers:7 ~ndisks:9 ~disk_capacity:(128 * mb) () in
            let v =
              V.of_frangipani
                (T.add_server t ~config:{ base with Frangipani.Ctx.read_ahead = depth } ())
            in
            ignore (Workloads.Largefile.write_seq v ~name:"big" ~mb:8);
            (Workloads.Largefile.read_seq v ~name:"big").Workloads.Largefile.mb_per_s)
      in
      Printf.printf "   depth %3d blocks: %6.1f MB/s\n" depth r)
    [ 0; 16; 32; 64; 128; 256 ];
  (* f) the §2.2 client/server configuration: what the extra protocol
     hop costs a remote client versus running on the server itself. *)
  let local_t, remote_t =
    Sim.run (fun () ->
        let t = T.build ~petal_servers:7 ~ndisks:9 () in
        let fs = T.add_server t () in
        Frangipani.Export.serve fs (T.rpc_of t fs);
        let _, crpc = T.fresh_client t "remote" in
        let c = Frangipani.Export.connect ~rpc:crpc ~server:(T.addr_of t fs) in
        let chunk = Bytes.make 8192 'x' in
        let bench_local () =
          let t0 = Sim.now () in
          for i = 0 to 49 do
            let f = Frangipani.Fs.create fs ~dir:Frangipani.Fs.root (Printf.sprintf "l%d" i) in
            Frangipani.Fs.write fs f ~off:0 chunk;
            ignore (Frangipani.Fs.read fs f ~off:0 ~len:8192)
          done;
          Sim.to_sec (Sim.now () - t0)
        in
        let bench_remote () =
          let t0 = Sim.now () in
          for i = 0 to 49 do
            let f = Frangipani.Export.create c ~dir:Frangipani.Export.root (Printf.sprintf "r%d" i) in
            Frangipani.Export.write c f ~off:0 chunk;
            ignore (Frangipani.Export.read c f ~off:0 ~len:8192)
          done;
          Sim.to_sec (Sim.now () - t0)
        in
        (bench_local (), bench_remote ()))
  in
  Printf.printf
    "f) §2.2 remote clients: 50 create+write+read cycles, local %.0f ms vs \
     remote %.0f ms (+%.0f%% protocol hop)\n"
    (local_t *. 1000.) (remote_t *. 1000.)
    ((remote_t /. local_t -. 1.0) *. 100.)

(* --- workloads: per-op latency percentiles ------------------------------------------ *)

(* Throughput and per-op latency percentiles of the Frangipani large-file
   path, the paper's small-read aside and raw Petal writes, plus the
   cost of a Petal membership change. Latencies are simulated
   milliseconds; throughput is MB/s of simulated time. *)

let percentile_ms samples p =
  match samples with
  | [] -> 0.0
  | _ ->
    let a = Array.of_list samples in
    Array.sort compare a;
    let n = Array.length a in
    a.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

let ms_of t = Sim.to_sec t *. 1000.0

let workloads () =
  print_endline hrule;
  print_endline "workloads: throughput + latency percentiles per workload";
  (* Printed after the reconf lines, as one table. *)
  let table = ref [] in
  let record name ~bytes ~elapsed lats =
    let thr =
      if elapsed > 0 then float_of_int bytes /. 1e6 /. Sim.to_sec elapsed else 0.0
    in
    table :=
      Printf.sprintf "%-28s %8.3f MB/s %5d ops  p50 %8.3f ms  p99 %8.3f ms\n" name
        thr (List.length lats) (percentile_ms lats 0.5) (percentile_ms lats 0.99)
      :: !table
  in
  (* Frangipani large-file sequential write + read, per-64KB-op latency. *)
  Sim.run (fun () ->
      let t = T.build ~petal_servers:7 ~ndisks:9 ~disk_capacity:(128 * mb) () in
      let fs = T.add_server t () in
      let v = V.of_frangipani fs in
      let unit_b = 65536 in
      let units = 16 * mb / unit_b in
      let data = Bytes.make unit_b 'J' in
      let inum = v.V.create ~dir:v.V.root "jbig" in
      let lats = ref [] in
      let t0 = Sim.now () in
      for i = 0 to units - 1 do
        let s = Sim.now () in
        v.V.write inum ~off:(i * unit_b) data;
        lats := ms_of (Sim.now () - s) :: !lats
      done;
      v.V.sync ();
      record "largefile_write_16mb" ~bytes:(units * unit_b)
        ~elapsed:(Sim.now () - t0) !lats;
      v.V.drop_caches ();
      let lats = ref [] in
      let t0 = Sim.now () in
      for i = 0 to units - 1 do
        let s = Sim.now () in
        ignore (v.V.read inum ~off:(i * unit_b) ~len:unit_b);
        lats := ms_of (Sim.now () - s) :: !lats
      done;
      record "largefile_read_16mb" ~bytes:(units * unit_b)
        ~elapsed:(Sim.now () - t0) !lats);
  (* 30 parallel uncached 8 KB reads (paper §9.2 aside). *)
  Sim.run (fun () ->
      let t = T.build ~petal_servers:7 ~ndisks:9 ~disk_capacity:(128 * mb) () in
      let fs = T.add_server t () in
      let v = V.of_frangipani fs in
      let files =
        List.init 30 (fun i ->
            let inum = v.V.create ~dir:v.V.root (Printf.sprintf "js%d" i) in
            v.V.write inum ~off:0 (Bytes.make 8192 's');
            inum)
      in
      v.V.sync ();
      v.V.drop_caches ();
      let lats = ref [] in
      let t0 = Sim.now () in
      Sim.fork_join
        (fun inum ->
          let s = Sim.now () in
          ignore (v.V.read inum ~off:0 ~len:8192);
          lats := ms_of (Sim.now () - s) :: !lats)
        files;
      record "small_reads_30x8kb" ~bytes:(30 * 8192) ~elapsed:(Sim.now () - t0) !lats);
  (* Raw Petal write latency: one chunk vs a 3-chunk scatter. The
     acceptance check for the async client is the ratio of these two —
     a multi-chunk write should cost ~1 round-trip, not N. The Petal
     servers run with NVRAM (the paper's PrestoServe boards, §9.2):
     writes are acknowledged from non-volatile buffer and the destage
     elevator retires them to disk in sorted, coalesced batches, so
     these rows measure the network/protocol path rather than raw
     platter latency. *)
  let petal_write name ~reps ~len =
    Sim.run (fun () ->
        let net = Cluster.Net.create () in
        let tb = Petal.Testbed.build ~net ~nservers:4 ~ndisks:3 ~nvram:true () in
        let ch = Cluster.Host.create "jclient" in
        let rpc = Cluster.Rpc.create (Cluster.Net.attach net ch) in
        let c = Petal.Testbed.client tb ~rpc in
        let vd = Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2) in
        let data = Bytes.make len 'p' in
        let lats = ref [] in
        let t0 = Sim.now () in
        for i = 0 to reps - 1 do
          let s = Sim.now () in
          Petal.Client.write vd ~off:(i * 4 * Petal.Protocol.chunk_bytes) data;
          lats := ms_of (Sim.now () - s) :: !lats
        done;
        record name ~bytes:(reps * len) ~elapsed:(Sim.now () - t0) !lats)
  in
  petal_write "petal_write_64kb_1chunk" ~reps:20 ~len:Petal.Protocol.chunk_bytes;
  petal_write "petal_write_192kb_3chunks" ~reps:20 ~len:(3 * Petal.Protocol.chunk_bytes);
  (* Reconfiguration drain cost: how long the Paxos-agreed ownership
     handoff takes to stream a settled 8 MB store to a joining (then
     from a leaving) member, and how much data moves. *)
  Sim.run (fun () ->
      let net = Cluster.Net.create () in
      let tb = Petal.Testbed.build ~net ~nservers:5 ~nactive:4 ~ndisks:3 () in
      let ch = Cluster.Host.create "rclient" in
      let rpc = Cluster.Rpc.create (Cluster.Net.attach net ch) in
      let c = Petal.Testbed.client tb ~rpc in
      let vd = Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2) in
      let data = Bytes.make Petal.Protocol.chunk_bytes 'r' in
      for i = 0 to 127 do
        Petal.Client.write vd ~off:(i * Petal.Protocol.chunk_bytes) data
      done;
      let servers = tb.Petal.Testbed.servers in
      let sum f = Array.fold_left (fun acc s -> acc + f s) 0 servers in
      let await_epoch e =
        let rec go n =
          let me, _ = Petal.Client.fetch_map c in
          if me < e && n > 0 then begin
            Sim.sleep (Sim.sec 1.0);
            go (n - 1)
          end
        in
        go 600
      in
      let measure name f =
        let pushed f = sum (fun s -> f (Petal.Server.stats s)) in
        let p0 = pushed (fun s -> s.xfer_pushes) in
        let b0 = pushed (fun s -> s.xfer_bytes) in
        let t0 = Sim.now () in
        f ();
        let secs = Sim.to_sec (Sim.now () - t0) in
        let pushes = pushed (fun s -> s.xfer_pushes) - p0 in
        let bytes = pushed (fun s -> s.xfer_bytes) - b0 in
        Printf.printf "  reconf[%-13s] drain %7.3f s  pushes %5d  bytes %9d\n"
          name secs pushes bytes
      in
      measure "join_standby" (fun () ->
          Petal.Client.add_server c ~idx:4;
          await_epoch 1);
      measure "drain_member" (fun () ->
          Petal.Client.remove_server c ~idx:0;
          await_epoch 2));
  List.iter print_string (List.rev !table)

(* --- simbench: simulation-kernel microbenchmarks ----------------------------------- *)

(* The simkit kernel itself, isolated from the file system: the scale
   experiments live or die on its cost per event. Each workload
   stresses one kernel hot path with a known op count. Stdout gets the
   deterministic cost of an op: minor-heap words allocated, and the
   engine's events and spawns. The host time per op goes to stderr. *)

let sim_row name ops f =
  (* Start each measurement from a compacted heap, so the host time
     does not depend on the garbage earlier experiments left behind. *)
  Gc.compact ();
  let t0 = Sys.time () in
  let w0 = Gc.minor_words () in
  f ();
  let words = Gc.minor_words () -. w0 in
  let dt = Sys.time () -. t0 in
  let st = Sim.stats () in
  Printf.printf "  %-24s %9d ops %10.3f minor words/op  events %8d  spawns %7d\n%!"
    name ops (words /. float_of_int ops) st.Sim.events st.Sim.spawns;
  Printf.eprintf "  %-24s %10.1f ns/op %10.2f Mops/s\n%!" name
    (dt *. 1e9 /. float_of_int ops) (float_of_int ops /. dt /. 1e6)

let simbench () =
  print_endline hrule;
  print_endline
    "simbench: simulation-kernel hot paths (allocation and engine work per op)";
  (* Timer churn: the RPC-timeout pattern — armed, then almost always
     cancelled before firing. *)
  sim_row "timer_churn" 300_000 (fun () ->
      Sim.run (fun () ->
          for i = 1 to 300_000 do
            let t = Sim.Timer.after (Sim.us 100) ignore in
            if i mod 16 <> 0 then Sim.Timer.cancel t;
            if i mod 64 = 0 then Sim.sleep (Sim.us 10)
          done;
          Sim.sleep (Sim.ms 1)));
  (* Mailbox ping-pong: two processes bouncing a token. One op = one
     send + one recv. *)
  sim_row "mailbox_pingpong" 400_000 (fun () ->
      Sim.run (fun () ->
          let a = Sim.Mailbox.create () and b = Sim.Mailbox.create () in
          Sim.spawn (fun () ->
              for _ = 1 to 200_000 do
                let v = Sim.Mailbox.recv a in
                Sim.Mailbox.send b v
              done);
          for i = 1 to 200_000 do
            Sim.Mailbox.send a i;
            ignore (Sim.Mailbox.recv b);
            if i mod 256 = 0 then Sim.sleep (Sim.us 1)
          done));
  (* Resource contention: 16 processes over a 2-server resource. *)
  sim_row "resource_contention" 160_000 (fun () ->
      Sim.run (fun () ->
          let r = Sim.Resource.create ~capacity:2 "bench" in
          Sim.fork_join
            (fun _ ->
              for _ = 1 to 10_000 do
                Sim.Resource.use r (Sim.us 2)
              done)
            (List.init 16 Fun.id)));
  (* Process spawn/teardown: the per-message fiber cost. *)
  sim_row "spawn_churn" 200_000 (fun () ->
      Sim.run (fun () ->
          for i = 1 to 200_000 do
            Sim.spawn (fun () -> Sim.sleep (Sim.us 1));
            if i mod 128 = 0 then Sim.sleep (Sim.us 2)
          done;
          Sim.sleep (Sim.ms 1)));
  (* Full messaging stack: Rpc.call round trips between two hosts. *)
  sim_row "rpc_pingpong" 20_000 (fun () ->
      Sim.run (fun () ->
          let net = Cluster.Net.create () in
          let hs = Cluster.Host.create "srv" in
          let rpcs = Cluster.Rpc.create (Cluster.Net.attach net hs) in
          let hc = Cluster.Host.create "cli" in
          let rpcc = Cluster.Rpc.create (Cluster.Net.attach net hc) in
          Cluster.Rpc.add_handler rpcs (fun ~src:_ _ -> Some (Petal.Protocol.Write_ok, 32));
          let dst = Cluster.Rpc.addr rpcs in
          for _ = 1 to 20_000 do
            match Cluster.Rpc.call rpcc ~dst ~size:64 Petal.Protocol.Map_req with
            | Ok _ -> ()
            | Error `Timeout -> failwith "simbench: rpc timeout"
          done))

(* --- scale: 64/96/128-server cluster experiments ----------------------------------- *)

(* The paper's scaling curves (Figures 6-7) stop at 7 machines; these
   runs push a multi-tenant Zipf workload across 64/96/128 Frangipani
   servers over a proportionally grown Petal. Alongside the
   file-system numbers, stdout records the simulator's own cost as
   deterministic counts: events, spawns and minor-heap words allocated
   per event. Host seconds, events per host second and host seconds
   per simulated second go to stderr. *)

(* Disk reads that joined an identical in-flight read, over every disk
   of a Petal testbed. *)
let merged_reads (tb : Petal.Testbed.t) =
  Array.fold_left
    (Array.fold_left (fun n d -> n + Blockdev.Disk.merged d))
    0 tb.Petal.Testbed.disks

(* Log record bytes the servers appended and log sector bytes they
   wrote to Petal. *)
let wal_bytes fss =
  List.fold_left
    (fun (app, wr) fs ->
      let s = Frangipani.Fs.wal_stats fs in
      (app + s.Frangipani.Wal.appended_bytes, wr + s.Frangipani.Wal.written_bytes))
    (0, 0) fss

(* Lock requests the clerks have sent and the messages that carried
   them: requests made for one lock server in one simulated instant
   share a message (a fresh-inode refill's 8). *)
let lock_reqs fss =
  List.fold_left
    (fun (reqs, msgs) fs ->
      let s = Frangipani.Fs.lease_stats fs in
      (reqs + s.Locksvc.Clerk.requests, msgs + s.Locksvc.Clerk.request_msgs))
    (0, 0) fss

(* Each row also records Petal disk-arm utilisation during the
   workload, (max, mean) over every disk: a placement that piles a
   layout stride onto a few servers shows up as a max near 1 over a
   low mean. *)
let scale_one n =
  (* Start from a compacted heap, as [sim_row] does. *)
  Gc.compact ();
  let host0 = Sys.time () in
  let w0 = Gc.minor_words () in
  let r, st, (du_max, du_mean, du_merged), (reqs, msgs), (wal_app, wal_wr) =
    Sim.run (fun () ->
        let t =
          T.build ~petal_servers:(max 4 (n / 4)) ~ndisks:4
            ~disk_capacity:(512 * mb) ()
        in
        let fss = List.init n (fun _ -> T.add_server t ()) in
        let vfss = List.map V.of_frangipani fss in
        let arms =
          Array.to_list t.T.petal.Petal.Testbed.disks
          |> List.concat_map (fun ds -> Array.to_list (Array.map Blockdev.Disk.arm ds))
        in
        List.iter Sim.Resource.reset_stats arms;
        let m0 = merged_reads t.T.petal and reqs0, msgs0 = lock_reqs fss in
        let app0, wr0 = wal_bytes fss in
        let r = Workloads.Multitenant.run vfss () in
        let reqs1, msgs1 = lock_reqs fss and app1, wr1 = wal_bytes fss in
        let utils = List.map Sim.Resource.utilization arms in
        ( r,
          Sim.stats (),
          ( List.fold_left Float.max 0.0 utils,
            List.fold_left ( +. ) 0.0 utils /. float_of_int (List.length utils),
            merged_reads t.T.petal - m0 ),
          (reqs1 - reqs0, msgs1 - msgs0),
          (app1 - app0, wr1 - wr0) ))
  in
  let words = Gc.minor_words () -. w0 in
  let host_secs = Sys.time () -. host0 in
  let open Workloads.Multitenant in
  Printf.printf
    "  %3d servers: %6d ops %5d files %10.1f ops/s (work %10.1f ops/s) %8.3f MB/s\n\
    \      petal disk util max %.4f mean %.4f merged %d | lock reqs %d in %d msgs \
     (%.3f/msg) | sim %7.3f s (work %7.3f s)\n\
    \      wal appended %.3f MB written %.3f MB\n\
    \      [sim] events %d spawns %d skipped %d heap_len %d minor words %.0f \
     (%.3f/event)\n%!"
    n r.ops r.distinct_files r.ops_per_sec
    (* the same ops over the workload phase alone, without the final sync *)
    (float_of_int r.ops /. r.work_seconds)
    r.mb_per_s du_max du_mean du_merged reqs msgs
    (float_of_int reqs /. float_of_int (max 1 msgs))
    r.seconds r.work_seconds
    (float_of_int wal_app /. 1e6) (float_of_int wal_wr /. 1e6)
    st.Sim.events st.Sim.spawns st.Sim.skipped
    st.Sim.heap_len words
    (words /. float_of_int st.Sim.events);
  Printf.eprintf "  %3d servers: host %6.2f s  %9.0f ev/s  %6.3f host-s/sim-s\n%!" n
    host_secs
    (float_of_int st.Sim.events /. host_secs)
    (host_secs /. r.seconds)

let scale () =
  print_endline hrule;
  print_endline
    "scale: multi-tenant Zipf workload, 64/96/128 Frangipani servers";
  print_endline
    "(beyond the paper's 7-machine testbed; near-linear aggregate scaling\n\
    \ expected while Petal capacity grows proportionally)";
  List.iter scale_one [ 64; 96; 128 ]

(* --- idle: what a mounted cluster costs with nothing to do ------------------------- *)

(* Simulator events per simulated second of an idle cluster: the
   periodic daemons and the messages they send, and nothing else. The
   servers mount, 15 s pass, and the next 60 s are counted. An idle
   cluster's cost should grow with its hosts (file servers plus
   Petal/lock machines), not with their square. Simulated-time
   counts, so deterministic. *)
let idle_one (n, p) =
  let per_sec =
    Sim.run (fun () ->
        let t = T.build ~petal_servers:p ~ndisks:4 ~disk_capacity:(512 * mb) () in
        for _ = 1 to n do
          ignore (T.add_server t ())
        done;
        Sim.sleep (Sim.sec 15.0);
        let e0 = (Sim.stats ()).Sim.events in
        Sim.sleep (Sim.sec 60.0);
        float_of_int ((Sim.stats ()).Sim.events - e0) /. 60.0)
  in
  let per_host = per_sec /. float_of_int (n + p) in
  Printf.printf "  %3d servers over %2d: %8.0f events/sim-s  %6.1f per host\n%!" n p
    per_sec per_host

let idle () =
  print_endline hrule;
  print_endline "idle: events per simulated second of a mounted, idle cluster";
  List.iter idle_one [ (8, 7); (32, 8); (128, 32) ]

(* --- driver -------------------------------------------------------------------------- *)

let experiments =
  [
    ("table1", table1);
    ("table2", table2);
    ("table3", table3);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("ww", ww);
    ("ablation", ablation);
    ("workloads", workloads);
    ("simbench", simbench);
    ("scale", scale);
    ("idle", idle);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  match args with
  | [] -> List.iter (fun (_, f) -> f ()) experiments
  | names ->
    List.iter
      (fun name ->
        match List.assoc_opt name experiments with
        | Some f -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; known: %s\n" name
            (String.concat " " (List.map fst experiments));
          exit 1)
      names
