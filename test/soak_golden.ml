(* The soak fingerprint golden: one line per nemesis run, every field
   simulated and deterministic, so `dune runtest` diffs the output
   exactly against soak_golden.txt. It covers every scripted label of
   the three profiles and partition and reconfig seeds 1-10. A change
   meant to move these runs refreshes the file with `dune promote`;
   any other diff is a behaviour change to explain.

   Fields: label, simulated end (ns), acked ops, failed ops, invariant
   violations, then the nemesis counters: cut drops, loss drops,
   delayed messages and schedule events applied. *)

module Soak = Workloads.Soak

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
  List.iter
    (fun spec ->
      let o = Soak.run spec in
      let nf = o.Soak.nf in
      Printf.printf "%-24s end %d acked %d failed %d viol %d cut %d loss %d delayed %d events %d\n"
        o.Soak.label o.Soak.end_ns o.Soak.acked o.Soak.failed_ops
        (List.length o.Soak.violations)
        nf.Cluster.Netfault.cut_drops nf.loss_drops nf.delayed nf.events)
    specs
