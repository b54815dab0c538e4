(* Failover: a Frangipani server crashes mid-workload; the lock
   service detects the dead lease, a surviving server replays the
   victim's log, and the shared file system stays consistent —
   entirely without operator intervention (paper §1 property 5, §4,
   §6).

   Run with: dune exec examples/failover.exe *)

open Simkit
open Frangipani
module T = Workloads.Testbed

let () =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some Logs.Info);
  Sim.run (fun () ->
      let t = T.build ~petal_servers:4 ~ndisks:4 () in
      let victim = T.add_server t ~name:"victim" () in
      let survivor = T.add_server t ~name:"survivor" () in

      (* The victim does a burst of work and makes part of it durable. *)
      ignore (Path.mkdir_p victim "/data");
      for i = 0 to 19 do
        ignore
          (Path.write_file victim
             (Printf.sprintf "/data/record-%02d" i)
             (Bytes.of_string (Printf.sprintf "payload %d" i)))
      done;
      Fs.sync victim;
      Printf.printf "[%.1fs] victim wrote 20 files and synced its log\n"
        (Sim.to_sec (Sim.now ()));
      (* ... and some work that never reaches Petal. *)
      ignore (Path.write_file victim "/data/unsynced" (Bytes.of_string "doomed"));

      (* Power failure. Volatile state (cache, log tail, lease) is
         gone; the on-Petal log holds the durable operations. *)
      Fs.crash victim;
      Printf.printf "[%.1fs] victim crashed\n" (Sim.to_sec (Sim.now ()));

      (* The survivor touches a lock the victim held; it blocks until
         the lease expires (30 s) and recovery replays the log, then
         proceeds. No administrator involved. *)
      let t0 = Sim.now () in
      let entries = Fs.readdir survivor (Path.resolve survivor "/data") in
      Printf.printf "[%.1fs] survivor listed /data after %.1fs of recovery wait\n"
        (Sim.to_sec (Sim.now ()))
        (Sim.to_sec (Sim.now () - t0));
      Printf.printf "         %d files survived (unsynced one lost: %b)\n"
        (List.length entries)
        (not (List.mem_assoc "unsynced" entries));
      (* Replay applies each sector's newest diff alone: it covers every
         change since the sector was last written back. *)
      let st = Fs.recovery_stats survivor in
      Printf.printf
        "         replay wrote %d sectors; %d diffs were superseded or on Petal\n"
        st.Fs.diffs_applied st.Fs.diffs_skipped;
      List.iter
        (fun i ->
          let data =
            Path.read_file survivor (Printf.sprintf "/data/record-%02d" i)
          in
          assert (Bytes.to_string data = Printf.sprintf "payload %d" i))
        (List.init 20 Fun.id);
      print_endline "all synced data intact after failover.";

      (* A replacement server joins with a clean log (§7: adding a
         server takes no administrative work). *)
      let fresh = T.add_server t ~name:"replacement" () in
      ignore (Path.write_file fresh "/data/after-failover" (Bytes.of_string "ok"));
      Printf.printf "replacement server wrote /data/after-failover\n";

      (* Also survive a Petal machine failure: data is replicated. *)
      Cluster.Host.crash t.T.petal.Petal.Testbed.hosts.(2);
      Printf.printf "[%.1fs] petal2 crashed; reads fail over to replicas\n"
        (Sim.to_sec (Sim.now ()));
      let check = Path.read_file survivor "/data/record-07" in
      Printf.printf "read through failover: %s\n" (Bytes.to_string check);
      print_endline "failover example finished.")
