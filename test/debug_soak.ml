(* Replay driver for the nemesis harness: re-runs any schedule
   bit-identically from its label (as a runner prints it) or from a
   profile and seed. It prints the schedule as an OCaml expression
   first, then dumps the counters, the orchestrator timeline, the
   first violated invariant and the full failure list.

     dune exec test/debug_soak.exe -- hot_cutover
     dune exec test/debug_soak.exe -- 17 --duration 1200 --servers 16
     dune exec test/debug_soak.exe -- 3 --timeline
     dune exec test/debug_soak.exe -- 42 --profile reconfig
     dune exec test/debug_soak.exe -- partition_random_42 *)

module Soak = Workloads.Soak
module Sim = Simkit.Sim

let () =
  let duration = ref 0.0 and servers = ref 0 and show_timeline = ref false in
  let profile = ref Soak.Composed and arg = ref None in
  Arg.parse
    [
      ("--duration", Arg.Set_float duration, "S  simulated seconds (random specs; default 3600)");
      ("--servers", Arg.Set_int servers, "N  Frangipani server count override");
      ("--timeline", Arg.Set show_timeline, "  dump the full orchestrator timeline");
      ( "--profile",
        Arg.Symbol
          ( List.map fst Soak.profiles,
            fun p -> profile := List.assoc p Soak.profiles ),
        "  profile of a bare seed (default composed)" );
    ]
    (fun a -> arg := Some a)
    "debug_soak (label | seed) [--profile P] [--duration S] [--servers N] [--timeline]";
  let spec =
    match !arg with
    | Some a -> (
      match int_of_string_opt a with
      | Some n -> Soak.Random (!profile, n)
      | None -> Soak.spec_of_label a)
    | None ->
      prerr_endline "usage: debug_soak (label | seed)";
      exit 2
  in
  let duration = if !duration > 0.0 then Some (Sim.sec !duration) else None in
  Printf.printf "schedule:\n%s\n%!" (Soak.schedule_lit (Soak.schedule_of ?duration spec));
  let o =
    Soak.run ?duration ?fs_servers:(if !servers > 0 then Some !servers else None) spec
  in
  Printf.printf
    "label=%s sim_hours=%.2f acked=%d failed=%d expired=%d crashed=%d\n"
    o.Soak.label o.Soak.sim_hours o.Soak.acked o.Soak.failed_ops
    o.Soak.expired_servers o.Soak.crashed_fs;
  Printf.printf
    "reconf: req=%d com=%d rejected=%d  cutover max=%.1fs (bound %.1fs)\n"
    o.Soak.requested o.Soak.committed o.Soak.reconf_rejected
    (Sim.to_sec o.Soak.max_cutover_ns)
    (Sim.to_sec o.Soak.cutover_bound_ns);
  Printf.printf
    "petal: pushes=%d wrong_epoch=%d refreshes=%d gc=%d final=[%s] expected=[%s]\n"
    o.Soak.xfer_pushes o.Soak.wrong_epoch_rejects o.Soak.map_refreshes
    o.Soak.gc_chunks
    (String.concat ";" (List.map string_of_int o.Soak.final_active))
    (String.concat ";" (List.map string_of_int o.Soak.expected_active));
  Printf.printf "lease: renew_misses=%d rpc_retries=%d\n" o.Soak.renew_misses
    o.Soak.rpc_retries;
  let nf = o.Soak.nf in
  Printf.printf "nemesis: cut_drops=%d loss_drops=%d delayed=%d events=%d\n"
    nf.Cluster.Netfault.cut_drops nf.loss_drops nf.delayed nf.events;
  Printf.printf
    "freeze: rejects=%d waits=%d  raw: errors=%d ok=%b waits=%d hot_writes=%d\n"
    o.Soak.freeze_rejects o.Soak.freeze_waits o.Soak.raw_errors o.Soak.raw_ok
    o.Soak.raw_freeze_waits o.Soak.hot_writes;
  Printf.printf
    "snapshots: ok=%d rejected=%d deleted=%d  pressure_stalls=%d replays=%d\n"
    o.Soak.snapshots_ok o.Soak.snap_rejected o.Soak.snapshots_deleted
    o.Soak.log_pressure_stalls o.Soak.replays;
  Printf.printf
    "ambient: ops=%d failed=%d  checks=%d degraded=%d leftover=%d pending=%b end=%d\n"
    o.Soak.ambient_ops o.Soak.ambient_failed o.Soak.checks_run
    o.Soak.degraded_left o.Soak.leftover_chunks o.Soak.pending_left
    o.Soak.end_ns;
  if !show_timeline then begin
    print_endline "timeline:";
    List.iter
      (fun (at, m) -> Printf.printf "  %8.1fs  %s\n" (Sim.to_sec at) m)
      o.Soak.timeline
  end;
  (match o.Soak.violations with
  | [] -> ()
  | (at, m) :: _ as vs ->
    Printf.printf "first violated invariant (t=%.1fs): %s\n" (Sim.to_sec at) m;
    Printf.printf "violations (%d):\n" (List.length vs);
    List.iter
      (fun (at, m) -> Printf.printf "  %8.1fs  %s\n" (Sim.to_sec at) m)
      vs);
  match Soak.failures o with
  | [] -> print_endline "CLEAN"
  | fs ->
    List.iter (Printf.printf "FAIL: %s\n") fs;
    exit 1
