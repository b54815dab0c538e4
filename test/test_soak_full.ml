(* The exhaustive nemesis runs, one profile at a time, each checking
   the full invariant set with a bit-identical replay spot-check:

     partition   11 scripted + 189 seeded schedules (replay every 20th)
     reconfig    12 scripted + 188 seeded schedules (replay every 20th)
     composed    5 scripted + 20 seeds x 1 simulated hour on a
                 32-server cluster (replay every 7th)

   Minutes to tens of minutes of host time, so not part of
   `dune runtest`; the verify workflow runs it with:

     dune exec test/test_soak_full.exe -- --profile partition
     (`--stride S` thins the seeded schedules; for the composed
     profile `--seeds N --hours H` scale the seeded part)

   Any failing label replays bit-identically under
   `dune exec test/debug_soak.exe -- <label> --timeline`. *)

module Soak = Workloads.Soak
module Sim = Simkit.Sim

let () =
  let profile = ref Soak.Composed in
  let stride = ref 1 and seeds = ref 20 and hours = ref 1.0 in
  let () =
    Arg.parse
      [
        ( "--profile",
          Arg.Symbol
            ( List.map fst Soak.profiles,
              fun p -> profile := List.assoc p Soak.profiles ),
          "  nemesis profile to run (default composed)" );
        ("--stride", Arg.Set_int stride, "N  run every Nth seeded schedule (default 1)");
        ("--seeds", Arg.Set_int seeds, "N  composed: seeded schedules to run (default 20)");
        ("--hours", Arg.Set_float hours, "H  composed: simulated hours per seed (default 1)");
      ]
      (fun a -> raise (Arg.Bad a))
      "test_soak_full [--profile P] [--stride N] [--seeds N] [--hours H]"
  in
  let labels = Soak.scripted_labels !profile in
  let composed = !profile = Soak.Composed in
  (* Seeds 1..200-scripted for the sweeps, 0..seeds-1 for the soak. *)
  let first, last, replay_every =
    if composed then (0, !seeds - 1, 7) else (1, 200 - List.length labels, 20)
  in
  let duration = if composed then Some (Sim.sec (3600.0 *. !hours)) else None in
  let run spec = Soak.run ?duration spec in
  let failed = ref 0 and ran = ref 0 in
  let t0 = Sys.time () in
  let one spec =
    let o = run spec in
    incr ran;
    Printf.printf
      "  %-24s %5.2fh acked %5d failed %4d%s epochs %d/%d pushes %5d gc %4d \
       drops %5d retries %4d freeze %4d cutover %5.1fs checks %4d viol %d end %d\n%!"
      o.Soak.label o.Soak.sim_hours o.Soak.acked o.Soak.failed_ops
      (if o.Soak.expired_servers > 0 then " EXPIRED" else "        ")
      o.Soak.committed o.Soak.requested o.Soak.xfer_pushes o.Soak.gc_chunks
      o.Soak.nf.Cluster.Netfault.loss_drops o.Soak.rpc_retries
      o.Soak.freeze_rejects
      (Sim.to_sec o.Soak.max_cutover_ns)
      o.Soak.checks_run
      (List.length o.Soak.violations)
      o.Soak.end_ns;
    (match Soak.failures o with
    | [] -> ()
    | fs ->
      incr failed;
      List.iter (Printf.printf "FAIL (%s): %s\n%!" o.Soak.label) fs);
    (* A run whose failure cannot be reproduced from the printed label
       is worthless, so every Nth one is replayed. *)
    if !ran mod replay_every = 0 && run spec <> o then begin
      incr failed;
      Printf.printf "FAIL (%s): replay not bit-identical\n%!" o.Soak.label
    end
  in
  Printf.printf "nemesis: %d scripted + seeds %d..%d stride %d\n%!"
    (List.length labels) first last !stride;
  List.iter (fun name -> one (Soak.Scripted name)) labels;
  let n = ref first in
  while !n <= last do
    one (Soak.Random (!profile, !n));
    n := !n + !stride
  done;
  Printf.printf "nemesis: %d runs, %d failed, %.0f s host cpu\n%!" !ran !failed
    (Sys.time () -. t0);
  if !failed > 0 then exit 1
