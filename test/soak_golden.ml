(* The soak fingerprint golden: one line per nemesis run, every field
   simulated and deterministic, so `dune runtest` diffs the output
   exactly against soak_golden.txt. It covers every scripted label of
   the three profiles and partition and reconfig seeds 1-10. A change
   meant to move these runs refreshes the file with `dune promote`;
   any other diff is a behaviour change to explain.

   The last line is composed seed 0, cut to 600 simulated seconds on
   16 servers.

   Fields: label, simulated end (ns), acked ops, failed ops, invariant
   violations, then the nemesis counters: cut drops, loss drops,
   delayed messages and schedule events applied, then the invariant
   checks run and the worst hot-chunk cutover (ns). A drop in checks
   means the harness silently checks less; a longer cutover means the
   drain-time write freeze no longer bounds it. *)

module Soak = Workloads.Soak

let line label (o : Soak.outcome) =
  let nf = o.Soak.nf in
  Printf.printf
    "%-24s end %d acked %d failed %d viol %d cut %d loss %d delayed %d events %d \
     checks %d cutover %d\n"
    label o.Soak.end_ns o.Soak.acked o.Soak.failed_ops
    (List.length o.Soak.violations)
    nf.Cluster.Netfault.cut_drops nf.loss_drops nf.delayed nf.events
    o.Soak.checks_run o.Soak.max_cutover_ns

let () =
  let specs =
    List.concat_map
      (fun (_, p) ->
        List.map (fun l -> Soak.Scripted l) (Soak.scripted_labels p)
        @
        if p = Soak.Composed then []
        else List.init 10 (fun n -> Soak.Random (p, n + 1)))
      Soak.profiles
  in
  List.iter (fun spec -> line (Soak.label_of spec) (Soak.run spec)) specs;
  line "random_0_600s_16fs"
    (Soak.run ~duration:(Simkit.Sim.sec 600.0) ~fs_servers:16
       (Soak.Random (Soak.Composed, 0)))
