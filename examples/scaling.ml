(* Scaling: servers as stackable bricks (paper §1 property 2).

   Adds Frangipani servers one at a time to a running cluster —
   without touching the existing ones — and measures the aggregate
   write throughput as each joins. Throughput grows until the Petal
   servers' links saturate, the behaviour behind Figure 7.

   Run with: dune exec examples/scaling.exe *)

open Simkit
open Frangipani
module T = Workloads.Testbed

let mb = 1024 * 1024

let () =
  Sim.run (fun () ->
      let t = T.build ~petal_servers:7 ~ndisks:9 () in
      Printf.printf "%-8s %-18s %s\n" "servers" "aggregate MB/s" "per-server MB/s";
      let servers = ref [] in
      for n = 1 to 6 do
        (* Add one more brick; nobody else is reconfigured. *)
        servers := T.add_server t ~name:(Printf.sprintf "brick%d" n) () :: !servers;
        let t0 = Sim.now () in
        Sim.fork_join
          (fun (i, fs) ->
            let name = Printf.sprintf "file-%d-%d" n i in
            let inum = Fs.create fs ~dir:Fs.root name in
            let chunk = Bytes.make 65536 'w' in
            for k = 0 to (4 * mb / 65536) - 1 do
              Fs.write fs inum ~off:(k * 65536) chunk
            done;
            Fs.sync fs)
          (List.mapi (fun i fs -> (i, fs)) !servers);
        let secs = Sim.to_sec (Sim.now () - t0) in
        let total_mb = float_of_int (4 * n) in
        Printf.printf "%-8d %-18.1f %.1f\n" n (total_mb /. secs)
          (total_mb /. secs /. float_of_int n)
      done;
      print_endline "scaling example finished.")
