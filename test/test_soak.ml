(* The quick nemesis subset, per profile: the scripted partition and
   reconfiguration schedules most likely to regress, the scripted
   freeze/interlock scenarios, short seeded rounds, and the
   determinism contract. The exhaustive runs are test_soak_full.exe,
   run from the verify workflow. *)

module Soak = Workloads.Soak
module Sim = Simkit.Sim

let check_clean what (o : Soak.outcome) =
  Alcotest.(check (list string)) what [] (Soak.failures o)

let run_clean label =
  let o = Soak.run (Soak.Scripted label) in
  check_clean label o;
  o

let check_positive what n =
  Alcotest.(check bool) (Printf.sprintf "%s (got %d)" what n) true (n > 0)

(* Same spec, twice: every outcome field — timeline, violations and
   the simulated end time included — must match, or a failing label
   from a full run would be unreproducible in debug_soak. *)
let check_replay ?duration ?fs_servers what spec =
  let o = Soak.run ?duration ?fs_servers spec in
  check_clean what o;
  Alcotest.(check bool) (what ^ " replay is bit-identical") true
    (o = Soak.run ?duration ?fs_servers spec)

let check_seeds profile seeds =
  List.iter
    (fun n ->
      let spec = Soak.Random (profile, n) in
      check_clean (Soak.label_of spec) (Soak.run spec))
    seeds

(* --- partition ----------------------------------------------------------- *)

(* A full isolation that forces the §6 expiry path, a brief one that
   must NOT, the asymmetric cut that makes request retransmission
   dangerous (requests execute, replies vanish), and a replica-set
   split that leaves a resync backlog. *)
let test_partition_scripted () =
  let o = run_clean "isolate_server" in
  Alcotest.(check bool) "45 s isolation expires the lease" true
    (o.Soak.expired_servers > 0);
  check_positive "renewals were missed" o.Soak.renew_misses;
  let o = run_clean "isolate_brief" in
  Alcotest.(check int) "10 s outage stays inside the lease" 0
    o.Soak.expired_servers;
  ignore (run_clean "oneway_from_petal0");
  ignore (run_clean "split_petal")

(* A lossy network exercises the retry path end to end: drops must
   show up in the nemesis counters and retries in the RPC counters,
   and everything still lands. *)
let test_partition_lossy () =
  let o = run_clean "lossy" in
  check_positive "nemesis dropped messages" o.Soak.nf.Cluster.Netfault.loss_drops;
  check_positive "rpc layer retried" o.Soak.rpc_retries

let test_partition_replay () =
  check_replay "flap" (Soak.Scripted "flap");
  check_replay "partition seed 7" (Soak.Random (Soak.Partition, 7))

let test_partition_seeds () = check_seeds Soak.Partition [ 1; 2; 3 ]

(* Seed 26 unmounts a worker whose lease died; the verdict's fresh
   server replays that log before it judges, and the replay counts. *)
let test_partition_fresh_replay () =
  let spec = Soak.Random (Soak.Partition, 26) in
  let o = Soak.run spec in
  check_clean (Soak.label_of spec) o;
  check_positive "the verdict server's replay is counted" o.Soak.replays

(* --- reconfig ------------------------------------------------------------ *)

(* A plain join (did anything move at all? did clients actually
   re-route?), a plain drain-out, serialized back-to-back changes, and
   the partitioned joiner. *)
let test_reconfig_scripted () =
  let o = run_clean "add_plain" in
  check_positive "handoff streamed chunks" o.Soak.xfer_pushes;
  check_positive "client hit Wrong_epoch and refreshed" o.Soak.map_refreshes;
  let o = run_clean "remove_plain" in
  check_positive "decommissioned member was emptied" o.Soak.gc_chunks;
  let o = run_clean "back_to_back" in
  Alcotest.(check int) "three epochs committed" 3 o.Soak.committed;
  ignore (run_clean "add_joiner_partitioned")

(* A transfer source dying mid-stream and the proposing server dying
   inside the management call must both leave the handoff able to
   finish. *)
let test_reconfig_crashes () =
  List.iter
    (fun l -> ignore (run_clean l))
    [ "owner_dies_mid_transfer"; "proposer_dies_mid_add"; "cutover_proposer_dies" ]

let test_reconfig_replay () =
  check_replay "add_then_remove" (Soak.Scripted "add_then_remove");
  check_replay "reconfig seed 5" (Soak.Random (Soak.Reconfig, 5))

let test_reconfig_seeds () = check_seeds Soak.Reconfig [ 1; 2; 3 ]

(* --- composed ------------------------------------------------------------ *)

(* The drain-time write freeze: a sustained hot-chunk writer spans the
   whole handoff, yet the cutover commits within the bound — and the
   writer was provably frozen at least once (otherwise the case shows
   nothing). Bounded cutover is asserted inside [failures]. *)
let test_hot_cutover () =
  let o = run_clean "hot_cutover" in
  check_positive "freeze engaged" o.Soak.freeze_rejects;
  Alcotest.(check bool)
    (Printf.sprintf "cutover %.1fs within 30s bound"
       (Sim.to_sec o.Soak.max_cutover_ns))
    true
    (o.Soak.max_cutover_ns <= Sim.sec 30.0)

(* A writer frozen at handoff drain time must retry invisibly through
   the Wrong_epoch route — no error surfaces, its data lands. *)
let test_freeze_retry () =
  let o = run_clean "freeze_retry" in
  Alcotest.(check int) "no surfaced errors" 0 o.Soak.raw_errors;
  check_positive "rode through the freeze" o.Soak.raw_freeze_waits

(* The §8 snapshot / reconfiguration interlock, in both orders. *)
let test_snapshot_reconf_interlock () =
  ignore (run_clean "snap_during_reconf");
  ignore (run_clean "reconf_during_snap")

(* One full random-style round with everything composed. *)
let test_composed_quick () = ignore (run_clean "composed_quick")

(* A short seeded soak at reduced scale: one 10-minute round on a
   16-server cluster. *)
let test_seeded_round () =
  check_clean "random_1"
    (Soak.run ~duration:(Sim.sec 600.0) ~fs_servers:16
       (Soak.Random (Soak.Composed, 1)))

let test_composed_replay () =
  let o = Soak.run (Soak.Scripted "hot_cutover") in
  Alcotest.(check bool) "scripted replay is bit-identical" true
    (o = Soak.run (Soak.Scripted "hot_cutover"));
  let seeded () =
    Soak.run ~duration:(Sim.sec 600.0) ~fs_servers:16
      (Soak.Random (Soak.Composed, 2))
  in
  Alcotest.(check bool) "seeded replay is bit-identical" true
    (seeded () = seeded ())

(* --- labels -------------------------------------------------------------- *)

(* A scripted label names its profile: every label belongs to exactly
   one profile's list, round-trips through [spec_of_label], and an
   unknown label or a server count below the profile's roles is
   refused up front. *)
let test_label_dispatch () =
  List.iter
    (fun (name, p) ->
      List.iter
        (fun l ->
          let owners =
            List.filter
              (fun (_, q) -> List.mem l (Soak.scripted_labels q))
              Soak.profiles
          in
          Alcotest.(check int) (l ^ " is in one profile") 1 (List.length owners);
          Alcotest.(check bool) (l ^ " dispatches to " ^ name) true
            (Soak.profile_of_label l = p);
          Alcotest.(check bool) (l ^ " round-trips") true
            (Soak.spec_of_label l = Soak.Scripted l))
        (Soak.scripted_labels p);
      let seeded = Soak.Random (p, 17) in
      Alcotest.(check bool) (name ^ " seed round-trips") true
        (Soak.spec_of_label (Soak.label_of seeded) = seeded))
    Soak.profiles;
  let refused what f =
    Alcotest.(check bool) what true
      (match f () with _ -> false | exception Invalid_argument _ -> true)
  in
  refused "unknown label" (fun () -> Soak.run (Soak.Scripted "no_such_label"));
  refused "unknown label in spec_of_label" (fun () ->
      Soak.spec_of_label "no_such_label");
  refused "composed with 4 servers" (fun () ->
      Soak.run ~fs_servers:4 (Soak.Random (Soak.Composed, 1)));
  refused "partition with 0 servers" (fun () ->
      Soak.run ~fs_servers:0 (Soak.Scripted "lossy"))

(* --- schedules as data ----------------------------------------------------- *)

(* Every schedule a spec names is plain data: the same on two calls,
   naming only machines the profile has, its nemesis events in time
   order and every fault cleared before the run's duration. A seeded
   schedule's windows are also sequential: each fault is cleared before
   the next one begins. Checked for every scripted label and seeds
   0-199 of each profile. *)
let test_schedule_data () =
  List.iter
    (fun (_, p) ->
      let petal = Soak.petal_servers p and tracked = (Soak.shape p).Soak.tracked in
      let in_range = function
        | Soak.Petal i -> 0 <= i && i < petal
        | Soak.Tracked i -> 0 <= i && i < tracked
      in
      let nodes = function
        | Soak.Isolate a | Cut_off a -> [ a ]
        | Cut (a, b) | Cut_oneway (a, b) -> [ a; b ]
        | Shape _ | Heal | Clear_shaping | Clear -> []
      in
      let check spec =
        let sc = Soak.schedule_of spec in
        let fail fmt =
          Printf.ksprintf (fun m -> Alcotest.fail (Soak.label_of spec ^ ": " ^ m)) fmt
        in
        if sc <> Soak.schedule_of spec then fail "two calls differ";
        let seeded = match spec with Soak.Random _ -> true | Soak.Scripted _ -> false in
        (* walk the events, tracking whether a cut or a shaping rule is on *)
        let step (cuts, shaped, last) (at, f) =
          if at < last then fail "nemesis out of time order at %d" at;
          if not (List.for_all in_range (nodes f)) then
            fail "%s names a machine out of range" (Soak.fault_lit f);
          match f with
          | Soak.Heal -> (false, shaped, at)
          | Clear_shaping -> (cuts, false, at)
          | Clear -> (false, false, at)
          | _ when seeded && (cuts || shaped || at = last) ->
            fail "%s at %d begins before the previous window ends" (Soak.fault_lit f) at
          | Shape _ -> (cuts, true, at)
          | Isolate _ | Cut_off _ | Cut _ | Cut_oneway _ -> (true, shaped, at)
        in
        let cuts, shaped, last = List.fold_left step (false, false, 0) sc.Soak.nemesis in
        if cuts || shaped || last >= sc.Soak.duration then
          fail "a fault is not cleared before the duration";
        List.iter
          (fun (_, (Soak.Add i | Soak.Remove i)) ->
            if i < 0 || i >= petal then fail "reconfiguration of member %d" i)
          sc.Soak.reconfigs;
        List.iter
          (fun c ->
            if c.Soak.victim < 0 || c.Soak.victim >= petal then
              fail "Petal crash victim %d" c.Soak.victim)
          sc.Soak.petal_crashes
      in
      List.iter (fun l -> check (Soak.Scripted l)) (Soak.scripted_labels p);
      for n = 0 to 199 do
        check (Soak.Random (p, n))
      done)
    Soak.profiles

let () =
  let case name f = Alcotest.test_case name `Quick f in
  Alcotest.run "soak"
    [
      ( "partition",
        [
          case "scripted subset" test_partition_scripted;
          case "lossy network, retries" test_partition_lossy;
          case "deterministic replay" test_partition_replay;
          case "seeded schedules" test_partition_seeds;
          case "verdict replay counted" test_partition_fresh_replay;
        ] );
      ( "reconfig",
        [
          case "scripted subset" test_reconfig_scripted;
          case "crash schedules" test_reconfig_crashes;
          case "deterministic replay" test_reconfig_replay;
          case "seeded schedules" test_reconfig_seeds;
        ] );
      ( "soak",
        [
          case "hot-chunk cutover is bounded" test_hot_cutover;
          case "frozen writer retries invisibly" test_freeze_retry;
          case "snapshot/reconf interlock" test_snapshot_reconf_interlock;
          case "composed quick round" test_composed_quick;
          case "seeded round" test_seeded_round;
          case "deterministic replay" test_composed_replay;
          case "labels dispatch to one profile" test_label_dispatch;
          case "schedules are well-formed data" test_schedule_data;
        ] );
    ]
