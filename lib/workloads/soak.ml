(** Long-horizon soak harness: hours of simulated time on a full-size
    cluster with every fault family composed, and invariants checked
    continuously instead of only at the end.

    One [run] builds a 32-server Frangipani cluster over an 8-member
    Petal cluster (6 active), then lets a seeded orchestrator overlap,
    round after round:

    - the multi-tenant Zipf workload ({!Multitenant}) as ambient
      traffic on a rotating subset of servers, shielded so it degrades
      under faults instead of dying;
    - paced, ledger-acked workloads on a handful of tracked servers;
    - {!Cluster.Netfault} windows (isolation, link cuts, loss, delay);
    - Frangipani server crashes with a bounded-recovery monitor (some
      live server must replay the victim's log within 300 s);
    - Petal server crashes armed at {!Simkit.Faultpoint} sites;
    - Petal add/remove reconfigurations, including one round where a
      hot-chunk writer hammers moving chunks through the whole handoff
      — the soak asserts the cutover still commits within a bound,
      which is exactly what the drain-time write freeze
      ({!Petal.Server}) exists to guarantee;
    - §8 snapshot barriers: taken mid-flight, mounted read-only and
      spot-checked against the acked ledger, then deleted (snapshots
      pin reconfiguration, so the delete also re-enables it);
    - log-pressure phases: bursts of unsynced metadata churn that fill
      the 128 KB WAL and force reclaim stalls.

    Roughly every ten simulated minutes the orchestrator quiesces the
    workloads and runs a checkpoint: backlog drained, no transfer
    pending, no chunk left on a non-owner, no expired-stamp write
    applied, a sample of the acked ledger readable bytes-intact, and
    the volume fsck-clean. Violations are recorded with their
    simulated time ({!Invariants.engine}), so a failing seed reports
    {e when} an invariant first broke — and [debug_soak] replays it
    bit-identically from the label alone.

    Scripted schedules pin down the freeze protocol itself:
    ["hot_cutover"] (bounded cutover under a sustained hot writer),
    ["freeze_retry"] (a frozen raw writer rides through invisibly),
    ["snap_during_reconf"] / ["reconf_during_snap"] (the CoW-epoch vs
    transfer-epoch interlock composes in both orders), and
    ["composed_quick"] (one full random-style round). *)

open Simkit
open Cluster
module Fs = Frangipani.Fs

type spec = Scripted of string | Random of int

type reconf_op = Add of int | Remove of int

type crash_spec = {
  site : string;  (** faultpoint site to arm *)
  at_hit : int;  (** 1-based hit of that site (counted after enable) *)
  victim : int;  (** Petal member index whose host crashes *)
  restart_after : Sim.time;
}

type schedule = {
  duration : Sim.time;  (** workloads stop at this simulated offset *)
  reconfigs : (Sim.time * reconf_op) list;
  nemesis : (Sim.time * string * (Netfault.t -> unit)) list;
  fs_crashes : Sim.time list;  (** k-th entry crashes the k-th victim server *)
  petal_crashes : crash_spec list;
  snapshots : Sim.time list;  (** barrier + ro-mount check + delete *)
  pressure : Sim.time list;  (** WAL log-pressure burst start times *)
  hot : (Sim.time * Sim.time) option;  (** FS hot-chunk writer window *)
  raw_hot : (Sim.time * Sim.time) option;  (** raw-Petal hot writer window *)
  ambient : (Sim.time * int) list;  (** (start, round index) *)
  checkpoints : Sim.time list;
  cutover_bound : Sim.time;  (** max allowed pending->commit latency *)
}

type outcome = {
  label : string;
  sim_hours : float;
  acked : int;
  failed_ops : int;  (** tracked-worker ops that raised and were retried past *)
  expired_servers : int;  (** workers stopped by §6 lease expiry *)
  crashed_fs : int;  (** Frangipani servers crashed by the schedule *)
  requested : int;
  committed : int;
  reconf_rejected : int;  (** proposals refused (pending transfer / snapshot) *)
  snapshots_ok : int;
  snapshots_deleted : int;
  snap_rejected : int;  (** barrier snapshots refused mid-transfer *)
  freeze_rejects : int;  (** server-side drain-time write-freeze rejections *)
  freeze_waits : int;  (** client wait-and-retry rounds riding the freeze *)
  max_cutover_ns : int;  (** worst pending->commit latency observed *)
  cutover_bound_ns : int;
  raw_errors : int;  (** raw hot writer errors surfaced (-1: no raw writer) *)
  raw_ok : bool;  (** raw hot writer's last write read back intact *)
  raw_freeze_waits : int;
  hot_writes : int;
  log_pressure_stalls : int;
  wal_reclaims : int;  (** reclaim rounds (the pressure phases' footprint) *)
  replays : int;  (** recovery replays run cluster-wide *)
  ambient_ops : int;
  ambient_failed : int;  (** shielded ambient ops that failed under faults *)
  checks_run : int;
  violations : (Sim.time * string) list;  (** (when, what) — must be [] *)
  timeline : (Sim.time * string) list;  (** orchestrator event log *)
  lost : string list;
  fsck_findings : string list;
  stale_applied : int;
  degraded_left : int;
  pending_left : bool;
  leftover_chunks : int;
  final_active : int list;
  expected_active : int list;
  nf : Netfault.stats;
  end_ns : int;  (** the determinism fingerprint *)
}

let sweep_config = Invariants.sweep_config

(* Addresses the schedules play with. *)
type roles = { petal : Net.addr array; tracked : Net.addr array }

let s = Sim.sec

(* --- schedules --------------------------------------------------------- *)

(* Provisioned Petal members 0..7; 0..5 start active. *)
let initial_active = [ 0; 1; 2; 3; 4; 5 ]

let expected_active_of sched =
  List.fold_left
    (fun acc (_, op) ->
      match op with
      | Add i -> List.sort_uniq compare (i :: acc)
      | Remove i -> List.filter (( <> ) i) acc)
    initial_active sched.reconfigs

let no_schedule duration =
  {
    duration;
    reconfigs = [];
    nemesis = [];
    fs_crashes = [];
    petal_crashes = [];
    snapshots = [];
    pressure = [];
    hot = None;
    raw_hot = None;
    ambient = [];
    checkpoints = [];
    cutover_bound = s 60.0;
  }

let scripted_schedule name (r : roles) =
  match name with
  | "hot_cutover" ->
    (* A sustained hot-chunk writer spans the whole handoff of [Add 6].
       Without the drain-time freeze its re-marking defers the cutover
       forever; with it the cutover must commit within 30 s. *)
    {
      (no_schedule (s 140.0)) with
      reconfigs = [ (s 15.0, Add 6) ];
      hot = Some (s 8.0, s 68.0);
      ambient = [ (s 4.0, 0) ];
      checkpoints = [ s 110.0 ];
      cutover_bound = s 30.0;
    }
  | "freeze_retry" ->
    (* A raw Petal client hammers a chunk that provably changes owners
       under [Add 6]. The freeze must stay invisible to it: zero
       surfaced errors, its last write intact, and its driver's
       wait-and-retry counter proves it actually hit the freeze. *)
    {
      (no_schedule (s 120.0)) with
      reconfigs = [ (s 15.0, Add 6) ];
      raw_hot = Some (s 8.0, s 58.0);
      checkpoints = [ s 95.0 ];
      cutover_bound = s 40.0;
    }
  | "snap_during_reconf" ->
    (* The §8 barrier fires while the ownership transfer is pending:
       the snapshot must be refused (CoW version epochs cannot be
       grafted onto a moving chunk), then succeed on retry after the
       cutover. The hot writer holds the transfer open past the
       barrier's first attempt. *)
    {
      (no_schedule (s 170.0)) with
      reconfigs = [ (s 15.0, Add 6) ];
      hot = Some (s 8.0, s 55.0);
      snapshots = [ s 16.0 ];
      checkpoints = [ s 140.0 ];
      cutover_bound = s 30.0;
    }
  | "reconf_during_snap" ->
    (* The opposite order: a snapshot exists when [Add 6] is proposed,
       so the reconfiguration is refused until the snapshot is deleted
       — then the retried proposal commits. *)
    {
      (no_schedule (s 170.0)) with
      snapshots = [ s 8.0 ];
      reconfigs = [ (s 12.0, Add 6) ];
      checkpoints = [ s 140.0 ];
      cutover_bound = s 60.0;
    }
  | "composed_quick" ->
    (* One full random-style round in six minutes: ambient Zipf
       traffic, two nemesis windows, a reconfiguration each way, a
       Frangipani crash with its recovery monitor, a Petal faultpoint
       crash, a log-pressure burst and a snapshot, with two quiesce
       checkpoints. *)
    {
      duration = s 380.0;
      reconfigs = [ (s 40.0, Add 6); (s 200.0, Remove 2) ];
      nemesis =
        [
          ( s 50.0,
            "isolate joining petal member 6",
            fun nf -> Netfault.isolate nf r.petal.(6) );
          (s 65.0, "heal", fun nf -> Netfault.heal_all nf);
          (s 215.0, "10% loss", fun nf -> Netfault.shape ~drop:0.10 nf);
          (s 245.0, "clear shaping", fun nf -> Netfault.clear_shaping nf);
        ];
      fs_crashes = [ s 100.0 ];
      petal_crashes =
        [
          { site = "petal.resync_push"; at_hit = 4; victim = 1;
            restart_after = s 10.0 };
        ];
      snapshots = [ s 290.0 ];
      pressure = [ s 218.0 ];
      hot = None;
      raw_hot = None;
      ambient = [ (s 6.0, 0); (s 150.0, 1) ];
      checkpoints = [ s 180.0; s 350.0 ];
      cutover_bound = s 120.0;
    }
  | _ -> invalid_arg ("soak: unknown scripted schedule " ^ name)

let scripted_labels =
  [
    "hot_cutover"; "freeze_retry"; "snap_during_reconf"; "reconf_during_snap";
    "composed_quick";
  ]

(* Seed-generated schedules: the simulated horizon is divided into
   10-minute rounds; each round overlays ambient traffic, 1-2 nemesis
   windows, a probable reconfiguration (one round gets the hot-chunk
   writer on top), a probable server crash, snapshot and log-pressure
   burst, and ends with a quiesce checkpoint. A couple of Petal
   faultpoint crashes are armed for the whole run. *)
let round_len = s 600.0

let random_schedule seed ~duration (r : roles) =
  let rng = Random.State.make [| seed; 0x50ac; 0x5eed |] in
  let rounds = max 1 (duration / round_len) in
  let duration = rounds * round_len in
  let active = ref initial_active and standby = ref [ 6; 7 ] in
  let hot_round = Random.State.int rng rounds in
  let reconfigs = ref []
  and nemesis = ref []
  and fs_crashes = ref []
  and snapshots = ref []
  and pressure = ref []
  and ambient = ref []
  and checkpoints = ref []
  and hot = ref None in
  for round = 0 to rounds - 1 do
    let r0 = round * round_len in
    ambient := (r0 + s 5.0 + Sim.ms (Random.State.int rng 8000), round) :: !ambient;
    (* nemesis windows, sequential within the round's first half *)
    let wt = ref (r0 + s 30.0) in
    for _ = 1 to 1 + Random.State.int rng 2 do
      let start = !wt + Sim.ms (Random.State.int rng 30_000) in
      let dur = s 5.0 + Sim.ms (Random.State.int rng 15_000) in
      let desc, fault, heal =
        match Random.State.int rng 5 with
        | 0 ->
          let i = Random.State.int rng 8 in
          ( Printf.sprintf "isolate petal %d" i,
            (fun nf -> Netfault.isolate nf r.petal.(i)),
            Netfault.heal_all )
        | 1 ->
          let i = Random.State.int rng (Array.length r.tracked) in
          let j = Random.State.int rng 8 in
          ( Printf.sprintf "cut tracked %d <-> petal %d" i j,
            (fun nf -> Netfault.cut nf r.tracked.(i) r.petal.(j)),
            Netfault.heal_all )
        | 2 ->
          let i = Random.State.int rng 8 in
          let j = (i + 1 + Random.State.int rng 7) mod 8 in
          ( Printf.sprintf "cut petal %d <-> petal %d" i j,
            (fun nf -> Netfault.cut nf r.petal.(i) r.petal.(j)),
            Netfault.heal_all )
        | 3 ->
          let drop = 0.04 +. (float_of_int (Random.State.int rng 11) /. 100.0) in
          ( Printf.sprintf "%.0f%% loss" (drop *. 100.0),
            (fun nf -> Netfault.shape ~drop nf),
            Netfault.clear_shaping )
        | _ ->
          let delay = Sim.ms (5 + Random.State.int rng 25) in
          let jitter = Sim.ms (Random.State.int rng 15) in
          ( "delay/jitter",
            (fun nf -> Netfault.shape ~delay ~jitter nf),
            Netfault.clear_shaping )
      in
      nemesis :=
        (start + dur, "heal: " ^ desc, heal) :: (start, desc, fault) :: !nemesis;
      wt := start + dur + s 2.0
    done;
    (* a reconfiguration most rounds; the hot round always gets one *)
    if round = hot_round || Random.State.int rng 3 < 2 then begin
      let at = r0 + s 60.0 + Sim.ms (Random.State.int rng 120_000) in
      let op =
        let can_add = !standby <> [] and can_rm = List.length !active > 4 in
        if can_add && ((not can_rm) || Random.State.bool rng) then begin
          let l = !standby in
          let i = List.nth l (Random.State.int rng (List.length l)) in
          standby := List.filter (( <> ) i) l;
          active := List.sort_uniq compare (i :: !active);
          Add i
        end
        else begin
          let l = !active in
          let i = List.nth l (Random.State.int rng (List.length l)) in
          active := List.filter (( <> ) i) l;
          standby := List.sort_uniq compare (i :: !standby);
          Remove i
        end
      in
      reconfigs := (at, op) :: !reconfigs;
      if round = hot_round then hot := Some (at - s 5.0, at + s 55.0)
    end;
    if Random.State.int rng 2 = 0 then
      fs_crashes := (r0 + s 150.0 + Sim.ms (Random.State.int rng 250_000)) :: !fs_crashes;
    if Random.State.int rng 2 = 0 then
      snapshots := (r0 + s 380.0 + Sim.ms (Random.State.int rng 60_000)) :: !snapshots;
    if Random.State.int rng 2 = 0 then
      pressure := (r0 + s 60.0 + Sim.ms (Random.State.int rng 300_000)) :: !pressure;
    checkpoints := (r0 + s 560.0) :: !checkpoints
  done;
  let petal_crashes =
    let sites =
      [| "petal.resync_push"; "petal.chunk_write"; "petal.mgmt_propose";
         "petal.cutover_propose" |]
    in
    let n = Random.State.int rng 3 in
    List.init n (fun k ->
        { site = sites.((Random.State.int rng 4 + k) mod 4);
          at_hit = 2 + Random.State.int rng 40;
          victim = Random.State.int rng 8;
          restart_after = s 8.0 + Sim.ms (Random.State.int rng 8000) })
  in
  {
    duration;
    reconfigs = List.rev !reconfigs;
    nemesis = List.sort (fun (t1, _, _) (t2, _, _) -> compare t1 t2) !nemesis;
    fs_crashes = List.rev !fs_crashes;
    petal_crashes;
    snapshots = List.rev !snapshots;
    pressure = List.rev !pressure;
    hot = !hot;
    raw_hot = None;
    ambient = List.rev !ambient;
    checkpoints = List.rev !checkpoints;
    (* a transfer can be delayed by a nemesis window or a crashed
       member's restart on top of the drain itself, so the bound is
       looser than the scripted hot case's 30 s *)
    cutover_bound = s 180.0;
  }

(* --- the run ----------------------------------------------------------- *)

let run ?duration ?fs_servers spec =
  let label, sim_seed, nf_seed =
    match spec with
    | Scripted name -> (name, 42, 42)
    | Random n -> (Printf.sprintf "random_%d" n, 3000 + n, n)
  in
  let dur_req =
    match duration with Some d -> d | None -> Sim.sec 3600.0
  in
  let until =
    match spec with
    | Random _ -> dur_req + Sim.sec 3600.0
    | Scripted _ -> Sim.sec 7200.0
  in
  Sim.run ~seed:sim_seed ~until (fun () ->
      Faultpoint.reset ();
      let nfs =
        match fs_servers with
        | Some n -> max 5 n
        | None -> (
          match spec with
          | Random _ -> 32
          | Scripted "composed_quick" -> 8
          | Scripted _ -> 6)
      in
      let t =
        Testbed.build ~petal_servers:8 ~petal_active:6 ~ndisks:2
          ~disk_capacity:(256 * 1024 * 1024) ()
      in
      let servers =
        Array.init nfs (fun i ->
            Testbed.add_server t ~config:sweep_config
              ~name:(Printf.sprintf "soak%02d" i) ())
      in
      let roles =
        { petal = t.petal.Petal.Testbed.addrs;
          tracked = Array.map (Testbed.addr_of t) (Array.sub servers 0 3) }
      in
      let sched =
        match spec with
        | Scripted name -> scripted_schedule name roles
        | Random n -> random_schedule n ~duration:dur_req roles
      in
      let psrv = t.petal.Petal.Testbed.servers in
      let sum f = Invariants.sum f psrv in
      (* Role partition: 3 tracked workers, a few crash victims (also
         paced workers, so a crash always has acked state at stake),
         the rest ambient. *)
      let ntracked = 3 in
      let nvict = max 1 (min 7 (nfs / 4)) in
      let victims = Array.sub servers ntracked nvict in
      let ambient_pool =
        Array.sub servers (ntracked + nvict) (nfs - ntracked - nvict)
      in
      (* shared orchestrator state *)
      let eng = Invariants.engine () in
      let timeline = ref [] in
      let ev fmt =
        Printf.ksprintf
          (fun m -> timeline := (Sim.now (), m) :: !timeline)
          fmt
      in
      let paused = ref false and stop_all = ref false in
      let failed_ops = ref 0 and expired = ref 0 and crashed_fs = ref 0 in
      let aux_done = ref [] in
      let spawn_tracked f =
        let iv = Sim.Ivar.create () in
        aux_done := iv :: !aux_done;
        Sim.spawn (fun () ->
            f ();
            Sim.Ivar.fill iv ())
      in
      let total_replays () =
        Array.fold_left
          (fun acc fs ->
            acc + (try (Fs.recovery_stats fs).Fs.replays with _ -> 0))
          0 servers
      in
      (* nemesis + petal faultpoint crashes *)
      let nf = Netfault.create ~seed:nf_seed t.net in
      Netfault.schedule nf
        (List.map
           (fun (at, desc, fn) ->
             ( at,
               fun nf ->
                 ev "nemesis: %s" desc;
                 fn nf ))
           sched.nemesis
        @ [ (sched.duration, Netfault.clear) ]);
      List.iter
        (fun c ->
          Faultpoint.arm_site c.site ~at:c.at_hit
            (Faultpoint.Crash
               (fun _site ->
                 let h = t.petal.Petal.Testbed.hosts.(c.victim) in
                 if Host.is_alive h then begin
                   ev "petal member %d crashed (faultpoint %s)" c.victim c.site;
                   Host.crash h;
                   ignore
                     (Sim.Timer.after c.restart_after (fun () ->
                          ev "petal member %d restarted" c.victim;
                          Host.restart h))
                 end)))
        sched.petal_crashes;
      Faultpoint.enable ();
      (* --- tracked + victim workers --------------------------------- *)
      let nworkers = ntracked + nvict in
      let wservers = Array.sub servers 0 nworkers in
      let ledgers = Array.init nworkers (fun _ -> Invariants.ledger ()) in
      let hot_led = Invariants.ledger () in
      let all_ledgers () = hot_led :: Array.to_list ledgers in
      let idle = Array.make nworkers false in
      let wdone = Array.init nworkers (fun _ -> Sim.Ivar.create ()) in
      Array.iteri
        (fun i fs ->
          let dname = Printf.sprintf "w%d" i in
          let led = ledgers.(i) in
          let pace = if i < ntracked then s 2.0 else s 3.0 in
          Sim.spawn (fun () ->
              let dir = try Fs.mkdir fs ~dir:Fs.root dname with _ -> -1 in
              let seq = ref 0 and stopped = ref false in
              while not (!stop_all || !stopped) do
                if !paused then begin
                  idle.(i) <- true;
                  Sim.sleep (Sim.ms 500)
                end
                else begin
                  idle.(i) <- false;
                  (try
                     let k = !seq in
                     incr seq;
                     if k mod 9 = 5 then (
                       match Invariants.pop_latest led with
                       | Some (path, _) ->
                         Fs.unlink fs ~dir
                           (List.nth path (List.length path - 1));
                         Fs.sync fs
                       | None -> ());
                     let name = Printf.sprintf "f%05d" k in
                     let f = Fs.create fs ~dir name in
                     let data =
                       Invariants.bytes_pat
                         (512 * (1 + (k mod 4)))
                         ((i * 1000) + k)
                     in
                     Fs.write fs f ~off:0 data;
                     let final =
                       if k mod 5 = 2 then begin
                         Fs.rename fs ~sdir:dir name ~ddir:dir (name ^ ".r");
                         name ^ ".r"
                       end
                       else name
                     in
                     Fs.sync fs;
                     Invariants.ack led ~path:[ dname; final ] data
                   with ex -> (
                     incr failed_ops;
                     match Invariants.classify fs ex with
                     | Invariants.Expired ->
                       incr expired;
                       stopped := true;
                       ev "worker %d stopped: lease expired" i
                     | Invariants.Failed -> ()
                     | exception _ ->
                       stopped := true;
                       ev "worker %d stopped: unexpected error" i));
                  if not (Host.is_alive (Fs.host fs)) then stopped := true;
                  if not !stopped then Sim.sleep pace
                end
              done;
              idle.(i) <- true;
              Sim.Ivar.fill wdone.(i) ()))
        wservers;
      (* --- ambient multi-tenant rounds ------------------------------ *)
      let amb_ops = ref 0 and amb_failed = ref 0 in
      let amb_busy = ref false in
      let amb_done = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          List.iter
            (fun (at, ridx) ->
              if Sim.now () < at then Sim.sleep (at - Sim.now ());
              while !paused do
                Sim.sleep (s 1.0)
              done;
              if not !stop_all then begin
                amb_busy := true;
                let live =
                  Array.to_list ambient_pool
                  |> List.filter (fun fs ->
                         Host.is_alive (Fs.host fs)
                         && not (Fs.is_poisoned fs))
                in
                let n = List.length live in
                let take = min 7 n in
                let start = if n = 0 then 0 else ridx * take mod n in
                let picked =
                  List.filteri
                    (fun j _ -> (j - start + n) mod n < take)
                    live
                in
                if picked <> [] then begin
                  ev "ambient round %d on %d servers" ridx
                    (List.length picked);
                  (* Every picked server runs the round under one shared
                     per-round directory: the first mkdir wins, the rest
                     resolve it by lookup, so the tenants exercise
                     cross-server directory sharing without colliding
                     with earlier rounds. The setup uses the raw vfs —
                     [amb_failed] counts only real workload ops. *)
                  let vfss =
                    List.mapi
                      (fun j fs ->
                        let raw = Vfs.of_frangipani fs in
                        let name = Printf.sprintf "amb%d" ridx in
                        let root =
                          match raw.Vfs.mkdir ~dir:raw.Vfs.root name with
                          | inum -> inum
                          | exception _ -> (
                            try raw.Vfs.lookup ~dir:raw.Vfs.root name
                            with _ -> (
                              try
                                raw.Vfs.mkdir ~dir:raw.Vfs.root
                                  (Printf.sprintf "amb%d_s%d" ridx j)
                              with _ -> raw.Vfs.root))
                        in
                        let sh = Invariants.shield ~failed:amb_failed raw in
                        { sh with Vfs.root })
                      picked
                  in
                  let r =
                    Multitenant.run vfss ~users_per_server:4 ~ops_per_user:12
                      ~namespace:64 ~think:(Sim.ms 20) ()
                  in
                  amb_ops := !amb_ops + r.Multitenant.ops
                end;
                amb_busy := false
              end)
            sched.ambient;
          Sim.Ivar.fill amb_done ());
      (* --- reconfiguration driver ----------------------------------- *)
      let _, drv_rpc = Testbed.fresh_client t "soak-drv" in
      let pc = Petal.Testbed.client t.petal ~rpc:drv_rpc in
      let requested = ref 0
      and committed = ref 0
      and reconf_rejected = ref 0 in
      let reconf_done = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          List.iteri
            (fun idx (at, op) ->
              if Sim.now () < at then Sim.sleep (at - Sim.now ());
              incr requested;
              ev "reconfiguration %d proposed: %s" (idx + 1)
                (match op with
                | Add i -> Printf.sprintf "add %d" i
                | Remove i -> Printf.sprintf "remove %d" i);
              let propose () =
                match op with
                | Add i -> Petal.Client.add_server pc ~idx:i
                | Remove i -> Petal.Client.remove_server pc ~idx:i
              in
              let rec attempt n =
                match propose () with
                | () -> true
                | exception Failure _ when n > 0 ->
                  (* refused: a transfer is pending or a snapshot pins
                     the current map — retry until it clears *)
                  incr reconf_rejected;
                  Sim.sleep (s 2.0);
                  attempt (n - 1)
                | exception Petal.Protocol.Unavailable _ when n > 0 ->
                  Sim.sleep (s 2.0);
                  attempt (n - 1)
                | exception _ -> false
              in
              if attempt 200 then begin
                let want = idx + 1 in
                let rec await n =
                  match Petal.Client.fetch_map pc with
                  | ep, _ ->
                    committed := max !committed ep;
                    if ep < want && n > 0 then begin
                      Sim.sleep (s 2.0);
                      await (n - 1)
                    end
                  | exception _ ->
                    if n > 0 then begin
                      Sim.sleep (s 2.0);
                      await (n - 1)
                    end
                in
                await 240;
                ev "reconfiguration %d committed (map epoch %d)" (idx + 1)
                  !committed
              end
              else ev "reconfiguration %d abandoned" (idx + 1))
            sched.reconfigs;
          Sim.Ivar.fill reconf_done ());
      (* --- snapshot barriers ---------------------------------------- *)
      let snap_ok = ref 0 and snap_rej = ref 0 and snap_del = ref 0 in
      let snap_done = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          (if sched.snapshots <> [] then begin
             let _, brpc = Testbed.fresh_client t "soak-backup" in
             let bk =
               Frangipani.Backup.connect ~rpc:brpc
                 ~lock_servers:t.lock_addrs ~table:"fs0"
             in
             let vd_live = Testbed.open_vdisk t ~rpc:brpc t.vdisk_id in
             List.iter
               (fun at ->
                 if Sim.now () < at then Sim.sleep (at - Sim.now ());
                 (* sample the ledger before the barrier: everything
                    acked by now must be inside the snapshot (skip the
                    newest entries, the only ones a worker may still
                    unlink) *)
                 let pre =
                   List.concat_map
                     (fun l -> Invariants.recent l ~skip:12 ~n:3)
                     (all_ledgers ())
                 in
                 let rec attempt n =
                   match Frangipani.Backup.snapshot bk vd_live with
                   | id -> Some id
                   | exception Failure _ when n > 0 ->
                     incr snap_rej;
                     ev "snapshot refused (transfer pending), retrying";
                     Sim.sleep (s 2.0);
                     attempt (n - 1)
                   | exception Petal.Protocol.Unavailable _ when n > 0 ->
                     Sim.sleep (s 2.0);
                     attempt (n - 1)
                   | exception _ -> None
                 in
                 match attempt 150 with
                 | None ->
                   Invariants.check eng false
                     "snapshot barrier exhausted its retries"
                 | Some id ->
                   incr snap_ok;
                   ev "snapshot taken: vdisk %d" id;
                   (try
                      let mh, mrpc =
                        Testbed.fresh_client t
                          (Printf.sprintf "soak-snapm%d" id)
                      in
                      let vd_snap = Testbed.open_vdisk t ~rpc:mrpc id in
                      let sfs =
                        Fs.mount ~host:mh ~rpc:mrpc ~vd:vd_snap
                          ~lock_servers:t.lock_addrs
                          ~table:(Printf.sprintf "fs0@snap%d" id)
                          ~readonly:true ()
                      in
                      let missing = Invariants.verify_entries pre sfs in
                      Invariants.check eng (missing = [])
                        (Printf.sprintf
                           "snapshot %d misses pre-barrier acked data: %s" id
                           (String.concat "; " missing));
                      Fs.unmount sfs
                    with _ ->
                      Invariants.check eng false
                        (Printf.sprintf
                           "snapshot %d could not be mounted and checked" id));
                   Sim.sleep (s 20.0);
                   let rec del n =
                     match Petal.Client.delete_vdisk pc ~id with
                     | () ->
                       incr snap_del;
                       ev "snapshot %d deleted" id
                     | exception (Failure _ | Petal.Protocol.Unavailable _)
                       when n > 0 ->
                       Sim.sleep (s 2.0);
                       del (n - 1)
                     | exception _ ->
                       Invariants.check eng false
                         (Printf.sprintf "snapshot %d delete failed" id)
                   in
                   del 90)
               sched.snapshots
           end);
          Sim.Ivar.fill snap_done ());
      (* --- Frangipani crashes + bounded-recovery monitor ------------- *)
      List.iteri
        (fun k at ->
          spawn_tracked (fun () ->
              if Sim.now () < at then Sim.sleep (at - Sim.now ());
              if (not !stop_all) && k < Array.length victims then begin
                let vfs = victims.(k) in
                if Host.is_alive (Fs.host vfs) then begin
                  let before = total_replays () in
                  ev "fs server w%d crashed" (ntracked + k);
                  incr crashed_fs;
                  Fs.crash vfs;
                  (* some live server must replay the victim's log *)
                  let rec wait n =
                    if total_replays () > before then
                      ev "recovery replay observed for w%d" (ntracked + k)
                    else if n = 0 then
                      Invariants.check eng false
                        (Printf.sprintf
                           "w%d's log not replayed within 300 s of its crash"
                           (ntracked + k))
                    else begin
                      Sim.sleep (s 10.0);
                      wait (n - 1)
                    end
                  in
                  wait 30
                end
              end))
        sched.fs_crashes;
      (* --- WAL log-pressure bursts ----------------------------------- *)
      List.iteri
        (fun pi at ->
          spawn_tracked (fun () ->
              if Sim.now () < at then Sim.sleep (at - Sim.now ());
              let fs = servers.(2) in
              if
                (not !stop_all)
                && Host.is_alive (Fs.host fs)
                && not (Fs.is_poisoned fs)
              then begin
                ev "log-pressure burst %d" pi;
                try
                  let dir =
                    match Fs.lookup fs ~dir:Fs.root "press" with
                    | d -> d
                    | exception _ -> Fs.mkdir fs ~dir:Fs.root "press"
                  in
                  for j = 0 to 399 do
                    (try
                       let name = Printf.sprintf "p%d_%d" pi j in
                       let f = Fs.create fs ~dir name in
                       Fs.write fs f ~off:0 (Invariants.bytes_pat 2048 j);
                       if j mod 3 <> 0 then Fs.unlink fs ~dir name
                     with _ -> incr failed_ops);
                    if j mod 16 = 15 then Sim.sleep (Sim.ms 5)
                  done
                with _ -> ()
              end))
        sched.pressure;
      (* --- the FS-level hot-chunk writer ----------------------------- *)
      let hot_writes = ref 0 in
      (match sched.hot with
      | None -> ()
      | Some (hstart, hstop) ->
        spawn_tracked (fun () ->
            if Sim.now () < hstart then Sim.sleep (hstart - Sim.now ());
            let fs = servers.(1) in
            let cb = Petal.Protocol.chunk_bytes in
            try
              let dir = Fs.mkdir fs ~dir:Fs.root "hotd" in
              let f = Fs.create fs ~dir "hot" in
              (* preallocate 16 chunks' worth so the rotating writes
                 touch many chunks: under any ring change at least one
                 of them moves, so the writer provably collides with
                 the handoff *)
              Fs.write fs f ~off:0 (Invariants.bytes_pat (16 * cb) 7);
              Fs.sync fs;
              ev "hot-chunk writer started";
              let k = ref 0 in
              while
                Sim.now () < hstop
                && (not !stop_all)
                && Host.is_alive (Fs.host fs)
                && not (Fs.is_poisoned fs)
              do
                (try
                   Fs.write fs f
                     ~off:(!k mod 16 * cb)
                     (Invariants.bytes_pat 4096 (100 + !k));
                   Fs.sync fs;
                   incr hot_writes
                 with _ -> incr failed_ops);
                incr k;
                Sim.sleep (Sim.ms 40)
              done;
              ev "hot-chunk writer stopped after %d writes" !hot_writes;
              (* one acked write after the window: the post-freeze,
                 post-cutover write path must work and survive *)
              let rec final n =
                match
                  let g =
                    match Fs.lookup fs ~dir "hotfinal" with
                    | g -> g
                    | exception _ -> Fs.create fs ~dir "hotfinal"
                  in
                  let data = Invariants.bytes_pat 2048 9 in
                  Fs.write fs g ~off:0 data;
                  Fs.sync fs;
                  Invariants.ack hot_led ~path:[ "hotd"; "hotfinal" ] data
                with
                | () -> ()
                | exception _ when n > 0 ->
                  Sim.sleep (s 2.0);
                  final (n - 1)
                | exception _ -> ()
              in
              final 10
            with _ -> ev "hot-chunk writer failed to start"));
      (* --- the raw-Petal hot writer (freeze_retry) ------------------- *)
      let raw_errors = ref (-1)
      and raw_ok = ref true
      and raw_waits = ref 0 in
      (match sched.raw_hot with
      | None -> ()
      | Some (rstart, rstop) ->
        spawn_tracked (fun () ->
            if Sim.now () < rstart then Sim.sleep (rstart - Sim.now ());
            raw_errors := 0;
            let _, rrpc = Testbed.fresh_client t "soak-raw" in
            let rawc = Petal.Testbed.client t.petal ~rpc:rrpc in
            let aux_id = Petal.Client.create_vdisk rawc ~nrep:2 in
            let vd = Petal.Client.open_vdisk rawc aux_id in
            let cb = Petal.Protocol.chunk_bytes in
            (* mirror the servers' ring placement to pick a chunk whose
               owner pair provably changes when member 6 activates (the
               schedule's [Add 6]) — a non-moving chunk would never be
               frozen and the case would assert nothing *)
            let owners act chunk =
              List.sort compare
                (Petal.Protocol.owners
                   (Array.of_list (List.sort compare act))
                   ~nrep:2 ~root:aux_id ~chunk)
            in
            let rec moving c =
              if owners initial_active c <> owners (initial_active @ [ 6 ]) c
              then c
              else moving (c + 1)
            in
            let off = moving 0 * cb in
            ev "raw hot writer started on aux vdisk %d" aux_id;
            let k = ref 0 and last = ref (-1) in
            while Sim.now () < rstop && not !stop_all do
              (try
                 Petal.Client.write vd ~off
                   (Invariants.bytes_pat 4096 (200 + !k));
                 last := !k
               with _ -> incr raw_errors);
              incr k;
              Sim.sleep (Sim.ms 20)
            done;
            (* the freeze must have been invisible: no surfaced error,
               and the last write's bytes are what a read returns *)
            (try
               let got = Petal.Client.read vd ~off ~len:4096 in
               raw_ok :=
                 !last >= 0
                 && Bytes.equal got (Invariants.bytes_pat 4096 (200 + !last))
             with _ -> raw_ok := false);
            raw_waits :=
              (Petal.Client.op_stats vd).Petal.Client.freeze_waits;
            ev "raw hot writer: %d writes, %d errors, %d freeze waits" !k
              !raw_errors !raw_waits));
      (* --- quiesce checkpoints --------------------------------------- *)
      let ck_done = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          List.iteri
            (fun ci at ->
              if Sim.now () < at then Sim.sleep (at - Sim.now ());
              if not !stop_all then begin
                ev "checkpoint %d: quiescing" ci;
                paused := true;
                let rec wait_idle n =
                  if Array.for_all (fun b -> b) idle || n = 0 then ()
                  else begin
                    Sim.sleep (Sim.ms 500);
                    wait_idle (n - 1)
                  end
                in
                wait_idle 720;
                let rec wait_amb n =
                  if (not !amb_busy) || n = 0 then ()
                  else begin
                    Sim.sleep (s 1.0);
                    wait_amb (n - 1)
                  end
                in
                wait_amb 180;
                Array.iter
                  (fun fs ->
                    if Host.is_alive (Fs.host fs) && not (Fs.is_poisoned fs)
                    then try Fs.sync fs with _ -> ())
                  servers;
                let degraded = Invariants.drain_backlog ~rounds:12 psrv in
                let pending_left, leftover =
                  Invariants.settle_transfers ~rounds:8 psrv
                in
                Invariants.check eng (degraded = 0)
                  (Printf.sprintf
                     "checkpoint %d: push backlog not drained (%d left)" ci
                     degraded);
                Invariants.check eng (not pending_left)
                  (Printf.sprintf "checkpoint %d: a transfer is still pending"
                     ci);
                Invariants.check eng (leftover = 0)
                  (Printf.sprintf
                     "checkpoint %d: %d chunks left on non-owning members" ci
                     leftover);
                Invariants.check eng
                  (sum Petal.Server.stale_applied_count = 0)
                  (Printf.sprintf
                     "checkpoint %d: an expired-stamp write was applied" ci);
                let checker =
                  Array.to_list servers
                  |> List.find_opt (fun fs ->
                         Host.is_alive (Fs.host fs)
                         && not (Fs.is_poisoned fs))
                in
                (match checker with
                | None ->
                  ev "checkpoint %d: no healthy server to verify through" ci
                | Some fs ->
                  let missing =
                    List.concat_map
                      (fun l ->
                        Invariants.verify_entries
                          (Invariants.recent l ~skip:0 ~n:80)
                          fs)
                      (all_ledgers ())
                  in
                  Invariants.check eng (missing = [])
                    (Printf.sprintf "checkpoint %d: acked data lost: %s" ci
                       (String.concat "; " missing));
                  let findings = Invariants.fsck fs in
                  Invariants.check eng (findings = [])
                    (Printf.sprintf "checkpoint %d: fsck: %s" ci
                       (String.concat "; " findings)));
                paused := false;
                ev "checkpoint %d: done (%d checks so far, %d violations)" ci
                  (Invariants.checks_run eng)
                  (List.length (Invariants.violations eng))
              end)
            sched.checkpoints;
          Sim.Ivar.fill ck_done ());
      (* --- run out the clock, settle, final verdict ------------------ *)
      if Sim.now () < sched.duration then
        Sim.sleep (sched.duration - Sim.now ());
      stop_all := true;
      Array.iter Sim.Ivar.read wdone;
      Sim.Ivar.read amb_done;
      Sim.Ivar.read reconf_done;
      Sim.Ivar.read snap_done;
      Sim.Ivar.read ck_done;
      List.iter Sim.Ivar.read !aux_done;
      Sim.sleep (s 60.0);
      let degraded_left = Invariants.drain_backlog psrv in
      let pending_left, leftover_chunks = Invariants.settle_transfers psrv in
      (* one post-run acked write through a surviving tracked server *)
      (try
         let fs = servers.(0) in
         if Host.is_alive (Fs.host fs) && not (Fs.is_poisoned fs) then begin
           let dir = Fs.lookup fs ~dir:Fs.root "w0" in
           let f = Fs.create fs ~dir "post" in
           let data = Invariants.bytes_pat 768 99 in
           Fs.write fs f ~off:0 data;
           Fs.sync fs;
           Invariants.ack ledgers.(0) ~path:[ "w0"; "post" ] data
         end
       with _ -> ());
      let final_active =
        match Petal.Client.fetch_map pc with
        | _, act -> act
        | exception _ -> []
      in
      (* the full-ledger verify and fsck go through a fresh server, so
         they also prove a newcomer converges on the final map *)
      let c = Testbed.add_server t ~name:"soak-fresh" () in
      let lost =
        List.concat_map (fun l -> Invariants.verify l c) (all_ledgers ())
      in
      let fsck_findings = Invariants.fsck c in
      let freeze_waits =
        Array.fold_left
          (fun acc fs ->
            acc
            + (Petal.Client.op_stats fs.Frangipani.Ctx.vd)
                .Petal.Client.freeze_waits)
          0 servers
        + !raw_waits
      in
      {
        label;
        sim_hours = Sim.to_sec (Sim.now ()) /. 3600.0;
        acked =
          List.fold_left
            (fun acc l -> acc + Invariants.acked_count l)
            0 (all_ledgers ());
        failed_ops = !failed_ops;
        expired_servers = !expired;
        crashed_fs = !crashed_fs;
        requested = !requested;
        committed = !committed;
        reconf_rejected = !reconf_rejected;
        snapshots_ok = !snap_ok;
        snapshots_deleted = !snap_del;
        snap_rejected = !snap_rej;
        freeze_rejects = sum Petal.Server.freeze_reject_count;
        freeze_waits;
        max_cutover_ns =
          Array.fold_left
            (fun acc srv -> max acc (Petal.Server.max_cutover_time srv))
            0 psrv;
        cutover_bound_ns = sched.cutover_bound;
        raw_errors = !raw_errors;
        raw_ok = !raw_ok;
        raw_freeze_waits = !raw_waits;
        hot_writes = !hot_writes;
        log_pressure_stalls =
          Array.fold_left
            (fun acc fs ->
              acc
              + (try (Fs.wal_stats fs).Frangipani.Wal.log_pressure_stalls
                 with _ -> 0))
            0 servers;
        wal_reclaims =
          Array.fold_left
            (fun acc fs ->
              acc
              + (try (Fs.wal_stats fs).Frangipani.Wal.reclaim_rounds
                 with _ -> 0))
            0 servers;
        replays = total_replays ();
        ambient_ops = !amb_ops;
        ambient_failed = !amb_failed;
        checks_run = Invariants.checks_run eng;
        violations = Invariants.violations eng;
        timeline = List.rev !timeline;
        lost;
        fsck_findings;
        stale_applied = sum Petal.Server.stale_applied_count;
        degraded_left;
        pending_left;
        leftover_chunks;
        final_active;
        expected_active = expected_active_of sched;
        nf = Netfault.stats nf;
        end_ns = Sim.now ();
      })

(** What an outcome violates; [] = every invariant held. The scripted
    labels add their scenario-specific teeth, so [debug_soak] reports
    them too. *)
let failures o =
  let bad cond msg acc = if cond then msg :: acc else acc in
  let set l = String.concat "," (List.map string_of_int l) in
  let generic =
    []
    |> bad (o.violations <> [])
         (Printf.sprintf "%d invariant violations (first at t=%.1fs: %s)"
            (List.length o.violations)
            (match o.violations with
            | (at, _) :: _ -> Sim.to_sec at
            | [] -> 0.0)
            (match o.violations with (_, m) :: _ -> m | [] -> ""))
    |> bad (o.lost <> [])
         (Printf.sprintf "acked ops lost: %s" (String.concat "; " o.lost))
    |> bad (o.fsck_findings <> [])
         (Printf.sprintf "fsck: %s" (String.concat "; " o.fsck_findings))
    |> bad (o.committed <> o.requested)
         (Printf.sprintf "reconfigurations requested %d but committed %d"
            o.requested o.committed)
    |> bad (o.final_active <> o.expected_active)
         (Printf.sprintf "final map {%s} but expected {%s}"
            (set o.final_active) (set o.expected_active))
    |> bad o.pending_left "a transfer never committed"
    |> bad (o.degraded_left <> 0)
         (Printf.sprintf "push backlog not drained: %d" o.degraded_left)
    |> bad (o.leftover_chunks <> 0)
         (Printf.sprintf "chunks left on non-owning members: %d"
            o.leftover_chunks)
    |> bad (o.stale_applied <> 0)
         (Printf.sprintf "expired-stamp writes applied: %d" o.stale_applied)
    |> bad
         (o.committed > 0 && o.max_cutover_ns > o.cutover_bound_ns)
         (Printf.sprintf "cutover took %.1f s (bound %.1f s)"
            (Sim.to_sec o.max_cutover_ns)
            (Sim.to_sec o.cutover_bound_ns))
    |> bad (o.snapshots_ok <> o.snapshots_deleted)
         (Printf.sprintf "%d snapshots taken but %d deleted" o.snapshots_ok
            o.snapshots_deleted)
    |> bad (o.acked = 0) "no op was ever acked"
  in
  let scenario =
    match o.label with
    | "hot_cutover" ->
      []
      |> bad (o.hot_writes = 0) "hot writer never wrote"
      |> bad
           (o.freeze_rejects = 0)
           "freeze never engaged: the hot writer was never rejected"
    | "freeze_retry" ->
      []
      |> bad (o.raw_errors <> 0)
           (Printf.sprintf "raw writer surfaced %d errors through the freeze"
              o.raw_errors)
      |> bad (not o.raw_ok) "raw writer's last write did not read back intact"
      |> bad (o.raw_freeze_waits = 0)
           "raw writer never hit the freeze (case asserts nothing)"
    | "snap_during_reconf" ->
      []
      |> bad (o.snap_rejected = 0)
           "snapshot was never refused mid-transfer (case asserts nothing)"
      |> bad (o.snapshots_ok <> 1) "snapshot retry never succeeded"
    | "reconf_during_snap" ->
      []
      |> bad (o.reconf_rejected = 0)
           "reconfiguration was never refused under the snapshot"
      |> bad (o.snapshots_deleted <> 1) "snapshot was never deleted"
    | "composed_quick" ->
      [] |> bad (o.crashed_fs <> 1) "the scheduled server crash never ran"
    | _ -> []
  in
  List.rev (scenario @ generic)
