(* frangipani-fsck: demonstrate the metadata consistency checker the
   paper lists as future work (§4).

   Builds a cluster, creates a file tree, injects three kinds of
   damage directly into the on-disk structures (simulating the
   software bugs / double sector loss the paper worries about), then
   runs the checker and repairs the damage.

   Run with: dune exec bin/fsck/fsck.exe *)

open Simkit
open Frangipani
module T = Workloads.Testbed

let () =
  Sim.run (fun () ->
      let t = T.build ~petal_servers:4 ~ndisks:4 () in
      let fs = T.add_server t ~name:"server" () in
      ignore (Path.mkdir_p fs "/proj/src");
      for i = 0 to 9 do
        ignore
          (Path.write_file fs
             (Printf.sprintf "/proj/src/f%d.ml" i)
             (Bytes.make (2048 + (i * 512)) 'c'))
      done;
      ignore (Path.symlink fs "/proj/latest" ~target:"src/f9.ml");
      Fs.sync fs;

      Printf.printf "clean tree: %d findings\n"
        (List.length (Fsck.check fs));

      (* Damage 1: orphan an inode by allocating it without linking. *)
      let orphan = Fs.create fs ~dir:Fs.root "to-be-orphaned" in
      Fs.write fs orphan ~off:0 (Bytes.make 4096 'o');
      Fs.unlink_entry_only_for_test fs ~dir:Fs.root "to-be-orphaned";

      (* Damage 2: break a link count. *)
      let victim = Path.resolve fs "/proj/src/f3.ml" in
      Fs.corrupt_nlink_for_test fs victim 7;
      Fs.sync fs;

      let findings = Fsck.check fs in
      Printf.printf "after damage: %d findings\n" (List.length findings);
      assert (findings <> []);
      List.iter
        (fun f -> Format.printf "  - %a@." Fsck.pp_finding f)
        findings;

      let fixed = Fsck.repair fs findings in
      Printf.printf "repaired %d findings\n" fixed;
      let remaining = Fsck.check fs in
      Printf.printf "after repair: %d findings\n" (List.length remaining);
      assert (remaining = []);
      (* The tree still works. *)
      assert (Bytes.length (Path.read_file fs "/proj/src/f3.ml") > 0);
      print_endline "fsck demo finished.")
