(** The nemesis harness: one interpreter that runs a fault schedule
    against live paced workloads and checks the §5–§7 guarantees, under
    three profiles.

    - {b Partition}: one Frangipani server over three Petal/lock
      machines runs 40 paced ops while {!Cluster.Netfault} isolates it,
      splits the Petal replica set, flaps links, drops or delays
      messages, or cuts single directions of single links. The §6
      lease hazard lives here: a lapsed-stamp write must never reach a
      disk, and a server whose lease died has its log replayed.
    - {b Reconfig}: the same worker while Petal members are added and
      removed mid-flight (five provisioned, three active), composed
      with nemesis windows and {!Simkit.Faultpoint} crashes of a
      transfer source, a proposer or a cutover proposer.
    - {b Composed}: hours of simulated time on a 32-server cluster over
      eight Petal members (six active), overlapping every family
      round after round:
      - the multi-tenant Zipf workload ({!Multitenant}) as ambient
        traffic on a rotating subset of servers, shielded so it
        degrades under faults instead of dying;
      - paced, ledger-acked workloads on a handful of tracked servers;
      - netfault windows (isolation, link cuts, loss, delay);
      - Frangipani server crashes with a bounded-recovery monitor (some
        live server must replay the victim's log within 300 s);
      - Petal server crashes armed at faultpoint sites;
      - Petal add/remove reconfigurations, including one round where a
        hot-chunk writer hammers moving chunks through the whole
        handoff — the cutover must still commit within a bound, which
        is exactly what the drain-time write freeze ({!Petal.Server})
        exists to guarantee;
      - §8 snapshot barriers: taken mid-flight, mounted read-only and
        spot-checked against the acked ledger, then deleted (snapshots
        pin reconfiguration, so the delete also re-enables it);
      - log-pressure phases: bursts of unsynced metadata churn that
        fill the 128 KB WAL and force reclaim stalls.

      Roughly every ten simulated minutes the workloads quiesce for a
      checkpoint: backlog drained, no transfer pending, no chunk left
      on a non-owner, no expired-stamp write applied, a sample of the
      acked ledger readable bytes-intact, and the volume fsck-clean.

    Every run ends with the same verdict: after everything heals the
    Petal backlog drains, pending transfers commit, the GC empties
    non-owners, a post-run write lands, and a fresh server must read
    every acked op bytes-intact from an fsck-clean volume under the
    expected member set. Violations are recorded with their simulated
    time ({!Invariants.engine}), so a failing run reports {e when} an
    invariant first broke.

    A scripted label names its schedule and its profile; a seeded run
    names a profile and a seed. Simulation RNG, nemesis PRNG and
    generator are all seeded, so a run replays bit-identically from
    its label alone ([debug_soak]). *)

open Simkit
open Cluster
module Fs = Frangipani.Fs

type profile = Partition | Reconfig | Composed
type spec = Scripted of string | Random of profile * int

type reconf_op = Add of int | Remove of int

type crash_spec = {
  site : string;  (** faultpoint site to arm *)
  at_hit : int;  (** 1-based hit of that site (counted after enable) *)
  victim : int;  (** Petal member index whose host crashes *)
  restart_after : Sim.time;
}

(* A machine a fault names, by its role: Petal member i (which also
   runs lock server i, Figure 2) or tracked worker i. *)
type node = Petal of int | Tracked of int

(** A nemesis fault, as data; {!apply} maps it onto {!Netfault}. *)
type fault =
  | Isolate of node  (** cut off from every other machine *)
  | Cut_off of node  (** cut off from the other Petal/lock machines *)
  | Cut of node * node  (** both directions of one link *)
  | Cut_oneway of node * node  (** only the first node's traffic to the second *)
  | Shape of { drop : float; delay : Sim.time; jitter : Sim.time }
      (** every message: drop probability, extra delay, uniform jitter *)
  | Heal  (** remove every cut *)
  | Clear_shaping
  | Clear  (** heal and clear shaping: the no-fault state *)

type schedule = {
  duration : Sim.time;
      (** the nemesis is cleared, and workloads without an op budget
          stop, at this simulated offset *)
  reconfigs : (Sim.time * reconf_op) list;
  nemesis : (Sim.time * fault) list;
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
  failed_ops : int;  (** worker ops that raised and were retried past *)
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
  renew_misses : int;  (** lease renewals the workers' clerks missed *)
  rpc_retries : int;  (** RPC retransmissions by the workers *)
  map_refreshes : int;  (** ownership-map refetches by the workers' Petal drivers *)
  xfer_pushes : int;  (** transfer/resync chunk pushes, cluster-wide *)
  wrong_epoch_rejects : int;  (** data requests refused for a stale map *)
  gc_chunks : int;  (** chunks freed off non-owners after cutover *)
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

(* The addresses behind the roles a fault names. *)
type roles = { petal : Net.addr array; tracked : Net.addr array }

let s = Sim.sec

let addr (r : roles) = function Petal i -> r.petal.(i) | Tracked i -> r.tracked.(i)

let apply (r : roles) nf = function
  | Isolate n -> Netfault.isolate nf (addr r n)
  | Cut_off n ->
    let a = addr r n in
    Netfault.partition nf [ a ] (List.filter (( <> ) a) (Array.to_list r.petal))
  | Cut (a, b) -> Netfault.cut nf (addr r a) (addr r b)
  | Cut_oneway (a, b) -> Netfault.cut ~oneway:true nf (addr r a) (addr r b)
  | Shape { drop; delay; jitter } -> Netfault.shape ~drop ~delay ~jitter nf
  | Heal -> Netfault.heal_all nf
  | Clear_shaping -> Netfault.clear_shaping nf
  | Clear -> Netfault.clear nf

(* --- printing ------------------------------------------------------------ *)

(* Faults and schedules print as OCaml expressions, so a timeline line
   or a printed schedule pastes back into a test. *)

let time_lit t =
  if t <> 0 && t mod Sim.ms 1 = 0 then Printf.sprintf "Sim.ms %d" (t / Sim.ms 1)
  else string_of_int t

(* The shortest decimal that reads back as the same float. *)
let float_lit f =
  let rec go p =
    let l = Printf.sprintf "%.*g" p f in
    if p >= 17 || float_of_string l = f then l else go (p + 1)
  in
  let l = go 1 in
  if String.exists (fun c -> c = '.' || c = 'e') l then l else l ^ "."

let node_lit = function
  | Petal i -> Printf.sprintf "Petal %d" i
  | Tracked i -> Printf.sprintf "Tracked %d" i

let fault_lit = function
  | Isolate n -> Printf.sprintf "Isolate (%s)" (node_lit n)
  | Cut_off n -> Printf.sprintf "Cut_off (%s)" (node_lit n)
  | Cut (a, b) -> Printf.sprintf "Cut (%s, %s)" (node_lit a) (node_lit b)
  | Cut_oneway (a, b) -> Printf.sprintf "Cut_oneway (%s, %s)" (node_lit a) (node_lit b)
  | Shape { drop; delay; jitter } ->
    Printf.sprintf "Shape { drop = %s; delay = %s; jitter = %s }" (float_lit drop)
      (time_lit delay) (time_lit jitter)
  | Heal -> "Heal"
  | Clear_shaping -> "Clear_shaping"
  | Clear -> "Clear"

let schedule_lit sc =
  let list f = function
    | [] -> "[]"
    | l -> "[\n      " ^ String.concat ";\n      " (List.map f l) ^ " ]"
  in
  let at f (t, x) = Printf.sprintf "(%s, %s)" (time_lit t) (f x) in
  let window = function
    | None -> "None"
    | Some (a, b) -> Printf.sprintf "Some (%s, %s)" (time_lit a) (time_lit b)
  in
  let op = function Add i -> Printf.sprintf "Add %d" i | Remove i -> Printf.sprintf "Remove %d" i in
  let crash c =
    Printf.sprintf "{ site = %S; at_hit = %d; victim = %d; restart_after = %s }" c.site
      c.at_hit c.victim (time_lit c.restart_after)
  in
  String.concat ";\n"
    [
      "{ duration = " ^ time_lit sc.duration;
      "  reconfigs = " ^ list (at op) sc.reconfigs;
      "  nemesis = " ^ list (at fault_lit) sc.nemesis;
      "  fs_crashes = " ^ list time_lit sc.fs_crashes;
      "  petal_crashes = " ^ list crash sc.petal_crashes;
      "  snapshots = " ^ list time_lit sc.snapshots;
      "  pressure = " ^ list time_lit sc.pressure;
      "  hot = " ^ window sc.hot;
      "  raw_hot = " ^ window sc.raw_hot;
      "  ambient = " ^ list (at string_of_int) sc.ambient;
      "  checkpoints = " ^ list time_lit sc.checkpoints;
      "  cutover_bound = " ^ time_lit sc.cutover_bound ^ " }";
    ]

(* --- profiles ----------------------------------------------------------- *)

(* What a profile fixes besides its schedules. Servers 0..tracked-1 run
   the tracked workers, the next [victims nfs] the crash victims (also
   paced workers, so a crash always has acked state at stake); the rest
   are the ambient pool. *)
type shape = {
  min_servers : int;  (** Frangipani servers the role split needs *)
  tracked : int;
  victims : int -> int;
  pace : Sim.time;  (** a tracked worker's op period; victims take 3 s *)
  budget : int option;  (** ops per worker; [None]: until the duration *)
  settle : Sim.time;  (** quiet time between the workloads and the verdict *)
  unmount : bool;
      (** unmount the workers before the verdict; if a lease died, the
          fresh server awaits the dead log's replay before judging *)
  seed_base : int;  (** seeded runs simulate with [seed_base + n] *)
}

let sweep_shape seed_base =
  { min_servers = 1; tracked = 1; victims = (fun _ -> 0); pace = s 1.0;
    budget = Some 40; settle = s 90.0; unmount = true; seed_base }

let shape = function
  | Partition -> sweep_shape 1000
  | Reconfig -> sweep_shape 2000
  | Composed ->
    { min_servers = 5; tracked = 3; victims = (fun n -> max 1 (min 7 (n / 4)));
      pace = s 2.0; budget = None; settle = s 60.0; unmount = false;
      seed_base = 3000 }

(* Petal members provisioned (the [Petal i] a schedule may name), and
   the ones active at the start. *)
let petal_servers = function Partition -> 3 | Reconfig -> 5 | Composed -> 8

let initial_active = function
  | Partition | Reconfig -> [ 0; 1; 2 ]
  | Composed -> [ 0; 1; 2; 3; 4; 5 ]

let build_testbed p =
  let petal_servers = petal_servers p
  and petal_active = List.length (initial_active p) in
  match p with
  | Partition | Reconfig ->
    Testbed.build ~petal_servers ~petal_active ~ndisks:2 ~ngroups:16 ()
  | Composed ->
    Testbed.build ~petal_servers ~petal_active ~ndisks:2
      ~disk_capacity:(256 * 1024 * 1024) ()

(* --- schedules --------------------------------------------------------- *)

let expected_active_of profile sched =
  List.fold_left
    (fun acc (_, op) ->
      match op with
      | Add i -> List.sort_uniq compare (i :: acc)
      | Remove i -> List.filter (( <> ) i) acc)
    (initial_active profile) sched.reconfigs

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

let shaping ?(drop = 0.0) ?(delay = 0) ?(jitter = 0) () = Shape { drop; delay; jitter }

(* Partition: the workload begins at 0 and takes >= 40 s, so windows in
   [2 s, 60 s] overlap live traffic; the nemesis is cleared at 75 s. *)
let partition_scripted =
  let w0 = Tracked 0 and p0 = Petal 0 in
  let windows nemesis = { (no_schedule (s 75.0)) with nemesis } in
  let flap =
    List.concat
      (List.init 6 (fun i ->
           let t0 = s (5.0 +. (6.0 *. float_of_int i)) in
           [ (t0, Cut_off w0); (t0 + s 3.0, Heal) ]))
  in
  [
    (* The worker loses everything for 45 s: renewals fail, the lease
       expires, the clerk poisons; recovery replays the dead log. *)
    ("isolate_server", windows [ (s 5.0, Cut_off w0); (s 50.0, Heal) ]);
    (* 10 s outage, well inside the lease: ops stall and resume. *)
    ("isolate_brief", windows [ (s 5.0, Cut_off w0); (s 15.0, Heal) ]);
    (* Replica set split: petal0 cannot reach its successor, so
       forwarded writes degrade and resync must drain after heal. *)
    ("split_petal", windows [ (s 3.0, Cut_off p0); (s 40.0, Heal) ]);
    (* The worker loses one service machine: piece failover + suspect
       pinning on the Petal side, lock groups owned by petal0 stall
       until heal, renewals keep succeeding via the other two. *)
    ("client_petal0", windows [ (s 3.0, Cut (w0, p0)); (s 45.0, Heal) ]);
    ("isolate_petal0", windows [ (s 3.0, Isolate p0); (s 45.0, Heal) ]);
    (* Asymmetric: the worker's datagrams to petal0 vanish, replies
       and grants still flow. *)
    ("oneway_to_petal0", windows [ (s 3.0, Cut_oneway (w0, p0)); (s 45.0, Heal) ]);
    (* Asymmetric the other way: petal0 executes requests but its
       replies are lost — retries must not double-apply. *)
    ("oneway_from_petal0", windows [ (s 3.0, Cut_oneway (p0, w0)); (s 45.0, Heal) ]);
    (* Six 3 s outages, 3 s apart: renewal backoff and request
       retransmission recover each time, no expiry. *)
    ("flap", windows flap);
    (* 15% of every message dropped for 48 s: retry with backoff
       carries renewals and RPCs through. *)
    ("lossy", windows [ (s 2.0, shaping ~drop:0.15 ()); (s 50.0, Clear_shaping) ]);
    (* +30 ms / ±20 ms on every message: everything succeeds, later. *)
    ( "slow",
      windows
        [ (s 2.0, shaping ~delay:(Sim.ms 30) ~jitter:(Sim.ms 20) ());
          (s 50.0, Clear_shaping) ] );
    (* A lossy network and a dead link at the same time. *)
    ( "lossy_cut",
      windows
        [ (s 2.0, shaping ~drop:0.10 ()); (s 4.0, Cut (w0, p0)); (s 40.0, Heal);
          (s 48.0, Clear_shaping) ] );
  ]

(* Reconfig: members 0,1,2 start active, 3 and 4 are standbys.
   Reconfigurations in [4 s, 36 s] and fault windows in [2 s, 45 s]
   overlap live traffic; the nemesis is cleared at 65 s. *)
let reconfig_scripted =
  let sched ?(nemesis = []) ?crash reconfigs =
    { (no_schedule (s 65.0)) with
      reconfigs; nemesis; petal_crashes = Option.to_list crash }
  in
  let isolate t i = [ (s t, Isolate (Petal i)) ] and heal t = [ (s t, Heal) ] in
  let crash site at_hit victim restart =
    { site; at_hit; victim; restart_after = s restart }
  in
  [
    (* One standby joins on a healthy network: background stream,
       atomic cutover, clients re-route via [Wrong_epoch]. *)
    ("add_plain", sched [ (s 6.0, Add 3) ]);
    (* One member drains out; its whole store must migrate and then
       be garbage-collected off it. *)
    ("remove_plain", sched [ (s 6.0, Remove 0) ]);
    ("add_then_remove", sched [ (s 5.0, Add 3); (s 30.0, Remove 1) ]);
    (* Three changes in a row: the cluster must serialize them. *)
    ("back_to_back", sched [ (s 4.0, Add 3); (s 18.0, Add 4); (s 34.0, Remove 0) ]);
    (* The joining member is partitioned from everyone mid-transfer:
       pushes to it fail (sources stay degraded), the cutover is held
       back until the heal, then the handoff completes. *)
    ( "add_joiner_partitioned",
      sched [ (s 5.0, Add 3) ] ~nemesis:(isolate 8.0 3 @ heal 28.0) );
    (* The member is already unreachable when it is proposed. *)
    ( "add_joiner_dark_start",
      sched [ (s 6.0, Add 3) ] ~nemesis:(isolate 2.0 3 @ heal 24.0) );
    (* 12% of every message dropped while a member drains out. *)
    ( "remove_under_loss",
      sched [ (s 6.0, Remove 2) ]
        ~nemesis:[ (s 2.0, shaping ~drop:0.12 ()); (s 40.0, Clear_shaping) ] );
    ( "add_under_delay",
      sched [ (s 6.0, Add 4) ]
        ~nemesis:
          [ (s 2.0, shaping ~delay:(Sim.ms 25) ~jitter:(Sim.ms 15) ());
            (s 40.0, Clear_shaping) ] );
    (* An old owner flaps three times while the handoff streams. *)
    ( "flap_during_add",
      sched [ (s 5.0, Add 3) ]
        ~nemesis:
          (List.concat
             (List.init 3 (fun i ->
                  let t0 = 7.0 +. (6.0 *. float_of_int i) in
                  isolate t0 0 @ heal (t0 +. 3.0)))) );
    (* A transfer source crashes between pushes; the other old owner
       carries the handoff, the victim restarts and catches up. *)
    ( "owner_dies_mid_transfer",
      sched [ (s 5.0, Add 3) ] ~crash:(crash "petal.resync_push" 3 0 12.0) );
    (* The server handling the management RPC crashes after receiving
       it but before proposing: the client times out and re-issues
       through the next member (idempotent at apply). *)
    ( "proposer_dies_mid_add",
      sched [ (s 5.0, Add 3) ] ~crash:(crash "petal.mgmt_propose" 1 0 10.0) );
    (* A member crashes at the instant the drained transfer is first
       proposed for cutover; every member polls independently, so a
       survivor's duplicate proposal commits it. *)
    ( "cutover_proposer_dies",
      sched [ (s 5.0, Add 3) ] ~crash:(crash "petal.cutover_propose" 1 1 10.0) );
  ]

let composed_scripted =
  [
    (* A sustained hot-chunk writer spans the whole handoff of [Add 6].
       Without the drain-time freeze its re-marking defers the cutover
       forever; with it the cutover must commit within 30 s. *)
    ( "hot_cutover",
      {
        (no_schedule (s 140.0)) with
        reconfigs = [ (s 15.0, Add 6) ];
        hot = Some (s 8.0, s 68.0);
        ambient = [ (s 4.0, 0) ];
        checkpoints = [ s 110.0 ];
        cutover_bound = s 30.0;
      } );
    (* A raw Petal client hammers a chunk that provably changes owners
       under [Add 6]. The freeze must stay invisible to it: zero
       surfaced errors, its last write intact, and its driver's
       wait-and-retry counter proves it actually hit the freeze. *)
    ( "freeze_retry",
      {
        (no_schedule (s 120.0)) with
        reconfigs = [ (s 15.0, Add 6) ];
        raw_hot = Some (s 8.0, s 58.0);
        checkpoints = [ s 95.0 ];
        cutover_bound = s 40.0;
      } );
    (* The §8 barrier fires while the ownership transfer is pending:
       the snapshot must be refused (CoW version epochs cannot be
       grafted onto a moving chunk), then succeed on retry after the
       cutover. The hot writer holds the transfer open past the
       barrier's first attempt. *)
    ( "snap_during_reconf",
      {
        (no_schedule (s 170.0)) with
        reconfigs = [ (s 15.0, Add 6) ];
        hot = Some (s 8.0, s 55.0);
        snapshots = [ s 16.0 ];
        checkpoints = [ s 140.0 ];
        cutover_bound = s 30.0;
      } );
    (* The opposite order: a snapshot exists when [Add 6] is proposed,
       so the reconfiguration is refused until the snapshot is deleted
       — then the retried proposal commits. *)
    ( "reconf_during_snap",
      {
        (no_schedule (s 170.0)) with
        snapshots = [ s 8.0 ];
        reconfigs = [ (s 12.0, Add 6) ];
        checkpoints = [ s 140.0 ];
        cutover_bound = s 60.0;
      } );
    (* One full random-style round in six minutes: ambient Zipf
       traffic, two nemesis windows, a reconfiguration each way, a
       Frangipani crash with its recovery monitor, a Petal faultpoint
       crash, a log-pressure burst and a snapshot, with two quiesce
       checkpoints. *)
    ( "composed_quick",
      {
        duration = s 380.0;
        reconfigs = [ (s 40.0, Add 6); (s 200.0, Remove 2) ];
        nemesis =
          [ (s 50.0, Isolate (Petal 6)); (s 65.0, Heal);
            (s 215.0, shaping ~drop:0.10 ()); (s 245.0, Clear_shaping) ];
        fs_crashes = [ s 100.0 ];
        petal_crashes =
          [ { site = "petal.resync_push"; at_hit = 4; victim = 1;
              restart_after = s 10.0 } ];
        snapshots = [ s 290.0 ];
        pressure = [ s 218.0 ];
        hot = None;
        raw_hot = None;
        ambient = [ (s 6.0, 0); (s 150.0, 1) ];
        checkpoints = [ s 180.0; s 350.0 ];
        cutover_bound = s 120.0;
      } );
  ]

let scripted = function
  | Partition -> partition_scripted
  | Reconfig -> reconfig_scripted
  | Composed -> composed_scripted

let scripted_labels p = List.map fst (scripted p)

(* The profiles by name, as the runner and replay driver take them. *)
let profiles =
  [ ("partition", Partition); ("reconfig", Reconfig); ("composed", Composed) ]

let profile_of_label name =
  match List.find_opt (fun (_, p) -> List.mem_assoc name (scripted p)) profiles with
  | Some (_, p) -> p
  | None -> invalid_arg ("soak: unknown scripted schedule " ^ name)

let profile_of = function
  | Scripted name -> profile_of_label name
  | Random (p, _) -> p

let seeded_prefix = function
  | Partition -> "partition_random_"
  | Reconfig -> "reconfig_random_"
  | Composed -> "random_"

let label_of = function
  | Scripted name -> name
  | Random (p, n) -> seeded_prefix p ^ string_of_int n

(* The inverse of [label_of]: what [debug_soak] replays from a label a
   runner printed. *)
let spec_of_label l =
  let seeded p =
    let pre = seeded_prefix p in
    let np = String.length pre in
    if String.starts_with ~prefix:pre l then
      int_of_string_opt (String.sub l np (String.length l - np))
      |> Option.map (fun n -> Random (p, n))
    else None
  in
  match List.find_map (fun (_, p) -> seeded p) profiles with
  | Some spec -> spec
  | None ->
    ignore (profile_of_label l);
    Scripted l

(* --- seeded schedules ---------------------------------------------------- *)

(* Every draw below happens in a fixed order, so a seed names one
   schedule; reordering two draws changes every seeded run. *)

let draw rng span = Sim.ms (Random.State.int rng (span / Sim.ms 1))

(* Fault families: each draws its own parameters. Two that build the
   same fault stay apart when their draws differ: [cut_tracked] draws
   a worker index, [cut_w0] does not. *)
let member n rng = Petal (Random.State.int rng n)
let isolate_w0 _ = Cut_off (Tracked 0)
let cut_w0 n rng = Cut (Tracked 0, member n rng)

let oneway_w0 n rng =
  let p = member n rng in
  if Random.State.bool rng then Cut_oneway (Tracked 0, p) else Cut_oneway (p, Tracked 0)

let split_member n rng = Cut_off (member n rng)
let isolate_member n rng = Isolate (member n rng)

let cut_members n rng =
  let i = Random.State.int rng n in
  let j = (i + 1 + Random.State.int rng (n - 1)) mod n in
  Cut (Petal i, Petal j)

let cut_tracked ~tracked n rng =
  let i = Random.State.int rng tracked in
  Cut (Tracked i, member n rng)

let loss ~base ~steps rng =
  shaping ~drop:(base +. (float_of_int (Random.State.int rng steps) /. 100.0)) ()

let slow ~delay ~jitter rng =
  let delay = Sim.ms (5 + Random.State.int rng delay) in
  let jitter = Sim.ms (Random.State.int rng jitter) in
  shaping ~delay ~jitter ()

(* Each profile's seeded windows draw one family from its menu. *)
let menu p =
  let n = petal_servers p in
  match p with
  | Partition ->
    [ isolate_w0; cut_w0 n; oneway_w0 n; split_member n; loss ~base:0.05 ~steps:15;
      slow ~delay:40 ~jitter:20 ]
  | Reconfig ->
    [ isolate_member n; cut_w0 n; cut_members n; loss ~base:0.05 ~steps:12;
      slow ~delay:30 ~jitter:15 ]
  | Composed ->
    [ isolate_member n; cut_tracked ~tracked:(shape p).tracked n; cut_members n;
      loss ~base:0.04 ~steps:11; slow ~delay:25 ~jitter:15 ]

(* [count] sequential fault windows from [from]: each starts up to
   [lead] after the previous one's end plus [gap], lasts [min_dur] plus
   up to [dur], runs one fault drawn from [menu] and ends in a full
   clear. Returns the events in time order and where the last gap
   ends. *)
let windows rng ~count ~from ~lead ~min_dur ~dur ~gap menu =
  let rec go k t acc =
    if k = 0 then (List.rev acc, t)
    else
      let start = t + draw rng lead in
      let len = min_dur + draw rng dur in
      let family = List.nth menu (Random.State.int rng (List.length menu)) in
      let fault = family rng in
      go (k - 1) (start + len + gap) ((start + len, Clear) :: (start, fault) :: acc)
  in
  go count from []

(* One Petal crash at a seeded faultpoint hit, restarted 8-16 s later.
   [rotate] shifts the drawn site. *)
let draw_crash rng ~rotate ~first_hit ~hits ~members =
  let restart_after = s 8.0 + draw rng (s 8.0) in
  let victim = Random.State.int rng members in
  let at_hit = first_hit + Random.State.int rng hits in
  let sites =
    [| "petal.resync_push"; "petal.chunk_write"; "petal.mgmt_propose";
       "petal.cutover_propose" |]
  in
  let nsites = Array.length sites in
  let site = sites.((Random.State.int rng nsites + rotate) mod nsites) in
  { site; at_hit; victim; restart_after }

(* Draw one membership change: add a random standby, or remove a random
   active member while more than [keep] are active. *)
let draw_change rng ~keep active standby =
  let move from into =
    let i = List.nth !from (Random.State.int rng (List.length !from)) in
    from := List.filter (( <> ) i) !from;
    into := List.sort_uniq compare (i :: !into);
    i
  in
  let can_add = !standby <> [] and can_rm = List.length !active > keep in
  if can_add && ((not can_rm) || Random.State.bool rng) then Add (move standby active)
  else Remove (move active standby)

(* Partition seeds: 2-4 sequential fault windows. *)
let partition_random seed =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let count = 2 + Random.State.int rng 3 in
  let nemesis, t =
    windows rng ~count ~from:(s 2.0) ~lead:(s 4.0) ~min_dur:(s 3.0) ~dur:(s 27.0)
      ~gap:(Sim.ms 500) (menu Partition)
  in
  { (no_schedule (t + s 10.0)) with nemesis }

(* Reconfig seeds: 1-2 membership changes spaced far enough apart to
   serialize naturally, 0-2 nemesis windows, and a fifty-fifty chance
   of one crash at a seeded faultpoint hit. *)
let reconfig_random seed =
  let rng = Random.State.make [| seed; 0xc0f; 0x5eed |] in
  let active = ref [ 0; 1; 2 ] and standby = ref [ 3; 4 ] in
  let reconfigs = ref [] in
  let t = ref (s 4.0) in
  for _ = 1 to 1 + Random.State.int rng 2 do
    let at = !t + draw rng (s 6.0) in
    reconfigs := (at, draw_change rng ~keep:2 active standby) :: !reconfigs;
    t := at + s 14.0 + draw rng (s 8.0)
  done;
  let count = Random.State.int rng 3 in
  let nemesis, _ =
    windows rng ~count ~from:(s 3.0) ~lead:(s 5.0) ~min_dur:(s 3.0) ~dur:(s 15.0)
      ~gap:(s 1.0) (menu Reconfig)
  in
  let petal_crashes =
    if Random.State.int rng 2 = 0 then []
    else [ draw_crash rng ~rotate:0 ~first_hit:1 ~hits:6 ~members:5 ]
  in
  { (no_schedule (s 65.0)) with reconfigs = List.rev !reconfigs; nemesis; petal_crashes }

(* Composed seeds: the simulated horizon is divided into 10-minute
   rounds; each round overlays ambient traffic, 1-2 nemesis windows, a
   probable reconfiguration (one round gets the hot-chunk writer on
   top), a probable server crash, snapshot and log-pressure burst, and
   ends with a quiesce checkpoint. A couple of Petal faultpoint
   crashes are armed for the whole run. *)
let round_len = s 600.0

let composed_random seed ~duration =
  let rng = Random.State.make [| seed; 0x50ac; 0x5eed |] in
  let rounds = max 1 (duration / round_len) in
  let duration = rounds * round_len in
  let active = ref (initial_active Composed) and standby = ref [ 6; 7 ] in
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
    ambient := (r0 + s 5.0 + draw rng (s 8.0), round) :: !ambient;
    (* nemesis windows, sequential within the round's first half *)
    let count = 1 + Random.State.int rng 2 in
    let evs, _ =
      windows rng ~count ~from:(r0 + s 30.0) ~lead:(s 30.0) ~min_dur:(s 5.0)
        ~dur:(s 15.0) ~gap:(s 2.0) (menu Composed)
    in
    nemesis := List.rev_append evs !nemesis;
    (* a reconfiguration most rounds; the hot round always gets one *)
    if round = hot_round || Random.State.int rng 3 < 2 then begin
      let at = r0 + s 60.0 + draw rng (s 120.0) in
      reconfigs := (at, draw_change rng ~keep:4 active standby) :: !reconfigs;
      if round = hot_round then hot := Some (at - s 5.0, at + s 55.0)
    end;
    if Random.State.int rng 2 = 0 then
      fs_crashes := (r0 + s 150.0 + draw rng (s 250.0)) :: !fs_crashes;
    if Random.State.int rng 2 = 0 then
      snapshots := (r0 + s 380.0 + draw rng (s 60.0)) :: !snapshots;
    if Random.State.int rng 2 = 0 then
      pressure := (r0 + s 60.0 + draw rng (s 300.0)) :: !pressure;
    checkpoints := (r0 + s 560.0) :: !checkpoints
  done;
  let petal_crashes =
    List.init (Random.State.int rng 3) (fun k ->
        draw_crash rng ~rotate:k ~first_hit:2 ~hits:40 ~members:(petal_servers Composed))
  in
  {
    duration;
    reconfigs = List.rev !reconfigs;
    nemesis = List.rev !nemesis;
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

(** What [spec] runs. [duration] (default one hour) is a composed
    seed's horizon. *)
let schedule_of ?(duration = s 3600.0) spec =
  match spec with
  | Scripted name -> List.assoc name (scripted (profile_of_label name))
  | Random (Partition, n) -> partition_random n
  | Random (Reconfig, n) -> reconfig_random n
  | Random (Composed, n) -> composed_random n ~duration

(* --- the interpreter ---------------------------------------------------- *)

(* What the interpreter's fibers coordinate through, and the counters
   the verdict reads. *)
type world = {
  t : Testbed.t;
  servers : Fs.t array;
  workers : Fs.t array;  (** servers 0..n-1: tracked workers, then victims *)
  psrv : Petal.Server.t array;
  eng : Invariants.engine;
  ledgers : Invariants.ledger array;  (** one per worker *)
  hot_led : Invariants.ledger;
  idle : bool array;  (** per worker: parked by a checkpoint, or stopped *)
  expired : bool array;  (** per worker: stopped by §6 lease expiry *)
  mutable timeline : (Sim.time * string) list;
  mutable paused : bool;
  mutable stop_all : bool;
  mutable fibers : unit Sim.Ivar.t list;  (** what the verdict waits for *)
  mutable failed_ops : int;
  mutable crashed_fs : int;
  mutable requested : int;
  mutable committed : int;
  mutable reconf_rejected : int;
  mutable snap_ok : int;
  mutable snap_rej : int;
  mutable snap_del : int;
  mutable amb_busy : bool;
  mutable amb_ops : int;
  amb_failed : int ref;
  mutable hot_writes : int;
  mutable raw_errors : int;
  mutable raw_ok : bool;
  mutable raw_waits : int;
}

let ev w fmt =
  Printf.ksprintf (fun m -> w.timeline <- (Sim.now (), m) :: w.timeline) fmt

let spawn_fiber w f =
  let iv = Sim.Ivar.create () in
  w.fibers <- iv :: w.fibers;
  Sim.spawn (fun () ->
      f ();
      Sim.Ivar.fill iv ())

let sleep_until at = if Sim.now () < at then Sim.sleep (at - Sim.now ())

(* Call [f] until it returns, retrying up to [tries] times, [every]
   apart, while [retryable] accepts what it raised; [None] once it
   gives up. *)
let rec retry ~tries ~every ~retryable f =
  match f () with
  | v -> Some v
  | exception ex when tries > 0 && retryable ex ->
    Sim.sleep every;
    retry ~tries:(tries - 1) ~every ~retryable f
  | exception _ -> None

(* Test [cond] until it holds, up to [tries] more times, [every] apart. *)
let rec poll ~tries ~every cond =
  cond () || (tries > 0 && (Sim.sleep every; poll ~tries:(tries - 1) ~every cond))

let refused = function Failure _ | Petal.Protocol.Unavailable _ -> true | _ -> false
let all_ledgers w = w.hot_led :: Array.to_list w.ledgers
let healthy fs = Host.is_alive (Fs.host fs) && not (Fs.is_poisoned fs)

let sum_fs f servers =
  Array.fold_left (fun acc fs -> acc + (try f fs with _ -> 0)) 0 servers

let total_replays w = sum_fs (fun fs -> (Fs.recovery_stats fs).Fs.replays) w.servers

(* The nemesis and the Petal faultpoint crashes. *)
let start_faults w sched roles ~seed =
  let nf = Netfault.create ~seed w.t.net in
  Netfault.schedule nf
    (List.map
       (fun (at, f) ->
         ( at,
           fun nf ->
             ev w "nemesis: %s" (fault_lit f);
             apply roles nf f ))
       (sched.nemesis @ [ (sched.duration, Clear) ]));
  List.iter
    (fun c ->
      Faultpoint.arm_site c.site ~at:c.at_hit
        (Faultpoint.Crash
           (fun _site ->
             let h = w.t.petal.Petal.Testbed.hosts.(c.victim) in
             if Host.is_alive h then begin
               ev w "petal member %d crashed (faultpoint %s)" c.victim c.site;
               Host.crash h;
               ignore
                 (Sim.Timer.after c.restart_after (fun () ->
                      ev w "petal member %d restarted" c.victim;
                      Host.restart h))
             end)))
    sched.petal_crashes;
  Faultpoint.enable ();
  nf

(* The paced ledger workers: each op (now and then an unlink of the
   newest acked file, then create + write, sometimes a rename, then
   sync) is acked only once its sync returns. *)
let start_workers w (sh : shape) =
  Array.iteri
    (fun i fs ->
      let dname = Printf.sprintf "w%d" i in
      let led = w.ledgers.(i) in
      let pace = if i < sh.tracked then sh.pace else s 3.0 in
      let finished k =
        match sh.budget with Some n -> k >= n | None -> w.stop_all
      in
      spawn_fiber w (fun () ->
          let dir = try Fs.mkdir fs ~dir:Fs.root dname with _ -> -1 in
          let seq = ref 0 and stopped = ref false in
          while not (finished !seq || !stopped) do
            if w.paused then begin
              w.idle.(i) <- true;
              Sim.sleep (Sim.ms 500)
            end
            else begin
              w.idle.(i) <- false;
              (try
                 let k = !seq in
                 incr seq;
                 (* A poisoned server fails every op before it touches
                    anything: withdrawing the newest acked file for an
                    unlink that cannot run would only drop it from the
                    ledger's checks. *)
                 if k mod 9 = 5 && not (Fs.is_poisoned fs) then (
                   match Invariants.pop_latest led with
                   | Some (path, _) ->
                     Fs.unlink fs ~dir (List.nth path (List.length path - 1));
                     Fs.sync fs
                   | None -> ());
                 let name = Printf.sprintf "f%05d" k in
                 let f = Fs.create fs ~dir name in
                 let data =
                   Invariants.bytes_pat (512 * (1 + (k mod 4))) ((i * 1000) + k)
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
                 w.failed_ops <- w.failed_ops + 1;
                 match Invariants.classify fs ex with
                 | Invariants.Expired ->
                   w.expired.(i) <- true;
                   stopped := true;
                   ev w "worker %d stopped: lease expired" i
                 | Invariants.Failed -> ()
                 | exception _ ->
                   stopped := true;
                   ev w "worker %d stopped: unexpected error" i;
                   Invariants.check w.eng false
                     (Printf.sprintf "worker %d stopped on an unclassified error: %s"
                        i (Printexc.to_string ex))));
              if not (Host.is_alive (Fs.host fs)) then stopped := true;
              if not !stopped then Sim.sleep pace
            end
          done;
          w.idle.(i) <- true))
    w.workers

(* Ambient multi-tenant rounds on a rotating subset of the pool. *)
let start_ambient w sched pool =
  spawn_fiber w (fun () ->
      List.iter
        (fun (at, ridx) ->
          sleep_until at;
          while w.paused do
            Sim.sleep (s 1.0)
          done;
          if not w.stop_all then begin
            w.amb_busy <- true;
            let live = List.filter healthy (Array.to_list pool) in
            let n = List.length live in
            let take = min 7 n in
            let start = if n = 0 then 0 else ridx * take mod n in
            let picked =
              List.filteri (fun j _ -> (j - start + n) mod n < take) live
            in
            if picked <> [] then begin
              ev w "ambient round %d on %d servers" ridx (List.length picked);
              (* Every picked server runs the round under one shared
                 per-round directory: the first mkdir wins, the rest
                 resolve it by lookup, so the tenants exercise
                 cross-server directory sharing without colliding with
                 earlier rounds. The setup uses the raw vfs —
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
                    let sh = Invariants.shield ~failed:w.amb_failed raw in
                    { sh with Vfs.root })
                  picked
              in
              let r =
                Multitenant.run vfss ~users_per_server:4 ~ops_per_user:12
                  ~namespace:64 ~think:(Sim.ms 20) ()
              in
              w.amb_ops <- w.amb_ops + r.Multitenant.ops
            end;
            w.amb_busy <- false
          end)
        sched.ambient)

(* The reconfiguration driver: its own machine, talking straight to
   the Petal cluster. Each change is proposed at its time; a proposal
   refused because a transfer is pending or a snapshot pins the map
   (or lost to the nemesis) is retried every 2 s. *)
let start_reconfig w sched =
  let _, drv_rpc = Testbed.fresh_client w.t "soak-drv" in
  let pc = Petal.Testbed.client w.t.petal ~rpc:drv_rpc in
  spawn_fiber w (fun () ->
      List.iteri
        (fun idx (at, op) ->
          sleep_until at;
          w.requested <- w.requested + 1;
          ev w "reconfiguration %d proposed: %s" (idx + 1)
            (match op with
            | Add i -> Printf.sprintf "add %d" i
            | Remove i -> Printf.sprintf "remove %d" i);
          let proposed =
            retry ~tries:200 ~every:(s 2.0)
              ~retryable:(function
                | Failure _ ->
                  w.reconf_rejected <- w.reconf_rejected + 1;
                  true
                | ex -> refused ex)
              (fun () ->
                match op with
                | Add i -> Petal.Client.add_server pc ~idx:i
                | Remove i -> Petal.Client.remove_server pc ~idx:i)
          in
          if proposed <> None then begin
            (* Poll until this change's epoch commits. If the next
               change falls due first, it is proposed while this
               handoff is pending and refused until it commits. *)
            let want = idx + 1 in
            let next_at =
              match List.nth_opt sched.reconfigs want with
              | Some (t, _) -> t
              | None -> max_int
            in
            let rec await n =
              let ep =
                match Petal.Client.fetch_map pc with
                | ep, _ -> ep
                | exception _ -> -1
              in
              w.committed <- max w.committed ep;
              if ep >= want || n = 0 then true
              else if Sim.now () + s 2.0 > next_at then false
              else begin
                Sim.sleep (s 2.0);
                await (n - 1)
              end
            in
            if await 240 then
              ev w "reconfiguration %d committed (map epoch %d)" (idx + 1)
                w.committed
          end
          else ev w "reconfiguration %d abandoned" (idx + 1))
        sched.reconfigs);
  pc

(* §8 snapshot barriers: take, mount read-only, spot-check the ledger
   sampled before the barrier, delete. *)
let start_snapshots w sched pc =
  spawn_fiber w (fun () ->
      if sched.snapshots <> [] then begin
        let t = w.t in
        let _, brpc = Testbed.fresh_client t "soak-backup" in
        let bk =
          Frangipani.Backup.connect ~rpc:brpc ~lock_servers:t.lock_addrs
            ~table:"fs0"
        in
        let vd_live = Testbed.open_vdisk t ~rpc:brpc t.vdisk_id in
        List.iter
          (fun at ->
            sleep_until at;
            (* everything acked by now must be inside the snapshot (skip
               the newest entries, the only ones a worker may still
               unlink) *)
            let pre =
              List.concat_map
                (fun l -> Invariants.recent l ~skip:12 ~n:3)
                (all_ledgers w)
            in
            let taken =
              retry ~tries:150 ~every:(s 2.0)
                ~retryable:(function
                  | Failure _ ->
                    w.snap_rej <- w.snap_rej + 1;
                    ev w "snapshot refused (transfer pending), retrying";
                    true
                  | ex -> refused ex)
                (fun () -> Frangipani.Backup.snapshot bk vd_live)
            in
            match taken with
            | None ->
              Invariants.check w.eng false "snapshot barrier exhausted its retries"
            | Some id ->
              w.snap_ok <- w.snap_ok + 1;
              ev w "snapshot taken: vdisk %d" id;
              (try
                 let mh, mrpc =
                   Testbed.fresh_client t (Printf.sprintf "soak-snapm%d" id)
                 in
                 let vd_snap = Testbed.open_vdisk t ~rpc:mrpc id in
                 let sfs =
                   Fs.mount ~host:mh ~rpc:mrpc ~vd:vd_snap
                     ~lock_servers:t.lock_addrs
                     ~table:(Printf.sprintf "fs0@snap%d" id)
                     ~readonly:true ()
                 in
                 let missing = Invariants.verify_entries pre sfs in
                 Invariants.check w.eng (missing = [])
                   (Printf.sprintf "snapshot %d misses pre-barrier acked data: %s"
                      id (String.concat "; " missing));
                 Fs.unmount sfs
               with _ ->
                 Invariants.check w.eng false
                   (Printf.sprintf "snapshot %d could not be mounted and checked" id));
              Sim.sleep (s 20.0);
              match
                retry ~tries:90 ~every:(s 2.0) ~retryable:refused (fun () ->
                    Petal.Client.delete_vdisk pc ~id)
              with
              | Some () ->
                w.snap_del <- w.snap_del + 1;
                ev w "snapshot %d deleted" id
              | None ->
                Invariants.check w.eng false
                  (Printf.sprintf "snapshot %d delete failed" id))
          sched.snapshots
      end)

(* Frangipani crashes, each with a bounded-recovery monitor: some live
   server must replay the victim's log within 300 s. *)
let start_fs_crashes w sched (sh : shape) =
  let nvict = Array.length w.workers - sh.tracked in
  List.iteri
    (fun k at ->
      spawn_fiber w (fun () ->
          sleep_until at;
          let wk = sh.tracked + k in
          if (not w.stop_all) && k < nvict then begin
            let vfs = w.workers.(wk) in
            if Host.is_alive (Fs.host vfs) then begin
              let before = total_replays w in
              ev w "fs server w%d crashed" wk;
              w.crashed_fs <- w.crashed_fs + 1;
              Fs.crash vfs;
              if poll ~tries:30 ~every:(s 10.0) (fun () -> total_replays w > before)
              then ev w "recovery replay observed for w%d" wk
              else
                Invariants.check w.eng false
                  (Printf.sprintf "w%d's log not replayed within 300 s of its crash" wk)
            end
          end))
    sched.fs_crashes

(* WAL log-pressure bursts: unsynced create/write/unlink churn. *)
let start_pressure w sched =
  List.iteri
    (fun pi at ->
      spawn_fiber w (fun () ->
          sleep_until at;
          let fs = w.servers.(2) in
          if (not w.stop_all) && healthy fs then begin
            ev w "log-pressure burst %d" pi;
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
                 with _ -> w.failed_ops <- w.failed_ops + 1);
                if j mod 16 = 15 then Sim.sleep (Sim.ms 5)
              done
            with _ -> ()
          end))
    sched.pressure

(* The FS-level hot-chunk writer. *)
let start_hot w (hstart, hstop) =
  spawn_fiber w (fun () ->
      sleep_until hstart;
      let fs = w.servers.(1) in
      let cb = Petal.Protocol.chunk_bytes in
      try
        let dir = Fs.mkdir fs ~dir:Fs.root "hotd" in
        let f = Fs.create fs ~dir "hot" in
        (* preallocate 16 chunks' worth so the rotating writes touch
           many chunks: under any ring change at least one of them
           moves, so the writer provably collides with the handoff *)
        Fs.write fs f ~off:0 (Invariants.bytes_pat (16 * cb) 7);
        Fs.sync fs;
        ev w "hot-chunk writer started";
        let k = ref 0 in
        while Sim.now () < hstop && (not w.stop_all) && healthy fs do
          (try
             Fs.write fs f ~off:(!k mod 16 * cb) (Invariants.bytes_pat 4096 (100 + !k));
             Fs.sync fs;
             w.hot_writes <- w.hot_writes + 1
           with _ -> w.failed_ops <- w.failed_ops + 1);
          incr k;
          Sim.sleep (Sim.ms 40)
        done;
        ev w "hot-chunk writer stopped after %d writes" w.hot_writes;
        (* one acked write after the window: the post-freeze,
           post-cutover write path must work and survive *)
        ignore
          (retry ~tries:10 ~every:(s 2.0)
             ~retryable:(fun _ -> true)
             (fun () ->
               let g =
                 match Fs.lookup fs ~dir "hotfinal" with
                 | g -> g
                 | exception _ -> Fs.create fs ~dir "hotfinal"
               in
               let data = Invariants.bytes_pat 2048 9 in
               Fs.write fs g ~off:0 data;
               Fs.sync fs;
               Invariants.ack w.hot_led ~path:[ "hotd"; "hotfinal" ] data))
      with _ -> ev w "hot-chunk writer failed to start")

(* The raw-Petal hot writer (freeze_retry). *)
let start_raw_hot w (rstart, rstop) =
  spawn_fiber w (fun () ->
      sleep_until rstart;
      w.raw_errors <- 0;
      let _, rrpc = Testbed.fresh_client w.t "soak-raw" in
      let rawc = Petal.Testbed.client w.t.petal ~rpc:rrpc in
      let aux_id = Petal.Client.create_vdisk rawc ~nrep:2 in
      let vd = Petal.Client.open_vdisk rawc aux_id in
      let cb = Petal.Protocol.chunk_bytes in
      (* mirror the servers' ring placement to pick a chunk whose owner
         pair provably changes when member 6 activates (the schedule's
         [Add 6]) — a non-moving chunk would never be frozen and the
         case would assert nothing *)
      let owners act chunk =
        List.sort compare
          (Petal.Protocol.owners
             (Array.of_list (List.sort compare act))
             ~nrep:2 ~root:aux_id ~chunk)
      in
      let before = initial_active Composed in
      let rec moving c =
        if owners before c <> owners (before @ [ 6 ]) c then c else moving (c + 1)
      in
      let off = moving 0 * cb in
      ev w "raw hot writer started on aux vdisk %d" aux_id;
      let k = ref 0 and last = ref (-1) in
      while Sim.now () < rstop && not w.stop_all do
        (try
           Petal.Client.write vd ~off (Invariants.bytes_pat 4096 (200 + !k));
           last := !k
         with _ -> w.raw_errors <- w.raw_errors + 1);
        incr k;
        Sim.sleep (Sim.ms 20)
      done;
      (* the freeze must have been invisible: no surfaced error, and
         the last write's bytes are what a read returns *)
      (try
         let got = Petal.Client.read vd ~off ~len:4096 in
         w.raw_ok <-
           !last >= 0 && Bytes.equal got (Invariants.bytes_pat 4096 (200 + !last))
       with _ -> w.raw_ok <- false);
      w.raw_waits <- (Petal.Client.op_stats vd).Petal.Client.freeze_waits;
      ev w "raw hot writer: %d writes, %d errors, %d freeze waits" !k w.raw_errors
        w.raw_waits)

(* --- checkpoints and the verdict --------------------------------------- *)

(* Quiesce checkpoints: park the workers and the ambient round, sync,
   then check the cluster-wide invariants mid-run. *)
let start_checkpoints w sched =
  let check = Invariants.check w.eng in
  spawn_fiber w (fun () ->
      List.iteri
        (fun ci at ->
          sleep_until at;
          if not w.stop_all then begin
            ev w "checkpoint %d: quiescing" ci;
            w.paused <- true;
            ignore
              (poll ~tries:720 ~every:(Sim.ms 500) (fun () -> Array.for_all Fun.id w.idle));
            ignore (poll ~tries:180 ~every:(s 1.0) (fun () -> not w.amb_busy));
            Array.iter
              (fun fs -> if healthy fs then try Fs.sync fs with _ -> ())
              w.servers;
            let degraded = Invariants.drain_backlog ~rounds:12 w.psrv in
            let pending_left, leftover =
              Invariants.settle_transfers ~rounds:8 w.psrv
            in
            check (degraded = 0)
              (Printf.sprintf "checkpoint %d: push backlog not drained (%d left)"
                 ci degraded);
            check (not pending_left)
              (Printf.sprintf "checkpoint %d: a transfer is still pending" ci);
            check (leftover = 0)
              (Printf.sprintf "checkpoint %d: %d chunks left on non-owning members"
                 ci leftover);
            check
              (Invariants.sum (fun p -> (Petal.Server.stats p).stale_applied) w.psrv = 0)
              (Printf.sprintf "checkpoint %d: an expired-stamp write was applied" ci);
            (match List.find_opt healthy (Array.to_list w.servers) with
            | None -> ev w "checkpoint %d: no healthy server to verify through" ci
            | Some fs ->
              let missing =
                List.concat_map
                  (fun l ->
                    Invariants.verify_entries (Invariants.recent l ~skip:0 ~n:80) fs)
                  (all_ledgers w)
              in
              check (missing = [])
                (Printf.sprintf "checkpoint %d: acked data lost: %s" ci
                   (String.concat "; " missing));
              let findings = Invariants.fsck fs in
              check (findings = [])
                (Printf.sprintf "checkpoint %d: fsck: %s" ci
                   (String.concat "; " findings)));
            w.paused <- false;
            ev w "checkpoint %d: done (%d checks so far, %d violations)" ci
              (Invariants.checks_run w.eng)
              (List.length (Invariants.violations w.eng))
          end)
        sched.checkpoints)

(* Run out the clock, let everything settle, and judge the run through
   a fresh server. *)
let verdict w (sh : shape) sched ~profile ~label ~pc ~nf =
  sleep_until sched.duration;
  w.stop_all <- true;
  List.iter Sim.Ivar.read (List.rev w.fibers);
  Sim.sleep sh.settle;
  let degraded_left = Invariants.drain_backlog w.psrv in
  let pending_left, leftover_chunks = Invariants.settle_transfers w.psrv in
  (* One post-run acked write through the first worker. Its cached
     routing map predates any committed cutover, so this op also
     exercises the client's [Wrong_epoch] refresh-and-retry path, and
     the final verify proves a post-cutover write lands on the new
     owners. *)
  (try
     let fs = w.servers.(0) in
     if healthy fs then begin
       let dir = Fs.lookup fs ~dir:Fs.root "w0" in
       let f = Fs.create fs ~dir "post" in
       let data = Invariants.bytes_pat 768 99 in
       Fs.write fs f ~off:0 data;
       Fs.sync fs;
       Invariants.ack w.ledgers.(0) ~path:[ "w0"; "post" ] data
     end
   with _ -> ());
  let final_active =
    match Petal.Client.fetch_map pc with _, act -> act | exception _ -> []
  in
  let worker_sum f = sum_fs f w.workers in
  let renew_misses =
    worker_sum (fun fs -> (Fs.lease_stats fs).Locksvc.Clerk.renew_misses)
  in
  let rpc_retries = worker_sum (fun fs -> (Fs.net_stats fs).Rpc.retries) in
  let map_refreshes =
    worker_sum (fun fs ->
        (Petal.Client.op_stats fs.Frangipani.Ctx.vd).Petal.Client.map_refreshes)
  in
  let unclean =
    sh.unmount
    && Array.exists Fun.id
         (Array.mapi
            (fun i fs ->
              match Fs.unmount fs with
              | () -> w.expired.(i)
              | exception _ -> true)
            w.workers)
  in
  (* The full-ledger verify and fsck go through a fresh server, so
     they also prove a newcomer converges on the final map. If a
     worker's lease died, its log is replayed by the next live clerk
     with the table open — which is this one, just now: wait for the
     lock service's nag to reach it and the replay to finish. *)
  let c = Testbed.add_server w.t ~name:"soak-fresh" () in
  if unclean then Invariants.await_replay c;
  let lost = List.concat_map (fun l -> Invariants.verify l c) (all_ledgers w) in
  let fsck_findings = Invariants.fsck c in
  let pstats = Array.map Petal.Server.stats w.psrv in
  let sum f = Array.fold_left (fun acc (p : Petal.Server.stats) -> acc + f p) 0 pstats in
  {
    label;
    sim_hours = Sim.to_sec (Sim.now ()) /. 3600.0;
    acked =
      List.fold_left (fun acc l -> acc + Invariants.acked_count l) 0 (all_ledgers w);
    failed_ops = w.failed_ops;
    expired_servers = Array.fold_left (fun n e -> if e then n + 1 else n) 0 w.expired;
    crashed_fs = w.crashed_fs;
    requested = w.requested;
    committed = w.committed;
    reconf_rejected = w.reconf_rejected;
    snapshots_ok = w.snap_ok;
    snapshots_deleted = w.snap_del;
    snap_rejected = w.snap_rej;
    freeze_rejects = sum (fun p -> p.freeze_rejects);
    freeze_waits =
      sum_fs
        (fun fs ->
          (Petal.Client.op_stats fs.Frangipani.Ctx.vd).Petal.Client.freeze_waits)
        w.servers
      + w.raw_waits;
    max_cutover_ns =
      Array.fold_left (fun acc (p : Petal.Server.stats) -> max acc p.max_cutover) 0 pstats;
    cutover_bound_ns = sched.cutover_bound;
    raw_errors = w.raw_errors;
    raw_ok = w.raw_ok;
    raw_freeze_waits = w.raw_waits;
    hot_writes = w.hot_writes;
    log_pressure_stalls =
      sum_fs (fun fs -> (Fs.wal_stats fs).Frangipani.Wal.log_pressure_stalls) w.servers;
    wal_reclaims =
      sum_fs (fun fs -> (Fs.wal_stats fs).Frangipani.Wal.reclaim_rounds) w.servers;
    replays = total_replays w + (Fs.recovery_stats c).Fs.replays;
    ambient_ops = w.amb_ops;
    ambient_failed = !(w.amb_failed);
    renew_misses;
    rpc_retries;
    map_refreshes;
    xfer_pushes = sum (fun p -> p.xfer_pushes);
    wrong_epoch_rejects = sum (fun p -> p.wrong_epoch_rejects);
    gc_chunks = sum (fun p -> p.gc_chunks);
    checks_run = Invariants.checks_run w.eng;
    violations = Invariants.violations w.eng;
    timeline = List.rev w.timeline;
    lost;
    fsck_findings;
    stale_applied = sum (fun p -> p.stale_applied);
    degraded_left;
    pending_left;
    leftover_chunks;
    final_active;
    expected_active = expected_active_of profile sched;
    nf = Netfault.stats nf;
    end_ns = Sim.now ();
  }

(** One complete simulation of [spec]. [duration] (default one hour)
    is a composed seed's horizon; [fs_servers] overrides the profile's
    Frangipani server count and raises [Invalid_argument] below what
    its roles need, as does an unknown scripted label. *)
let run ?duration ?fs_servers spec =
  let profile = profile_of spec in
  let sh = shape profile in
  let label = label_of spec in
  let sim_seed, nf_seed =
    match spec with Scripted _ -> (42, 42) | Random (_, n) -> (sh.seed_base + n, n)
  in
  let nfs =
    match (fs_servers, spec) with
    | Some n, _ -> n
    | None, Random (Composed, _) -> 32
    | None, Scripted "composed_quick" -> 8
    | None, _ -> if profile = Composed then 6 else 1
  in
  if nfs < sh.min_servers then
    invalid_arg
      (Printf.sprintf "Soak.run: %s needs at least %d Frangipani servers, got %d"
         label sh.min_servers nfs);
  let duration = Option.value duration ~default:(s 3600.0) in
  Sim.run ~seed:sim_seed ~until:(duration + s 3600.0) (fun () ->
      Faultpoint.reset ();
      let t = build_testbed profile in
      let servers =
        Array.init nfs (fun i ->
            Testbed.add_server t ~config:Invariants.sweep_config
              ~name:(Printf.sprintf "soak%02d" i) ())
      in
      let nworkers = sh.tracked + sh.victims nfs in
      let roles =
        { petal = t.petal.Petal.Testbed.addrs;
          tracked = Array.map (Testbed.addr_of t) (Array.sub servers 0 sh.tracked) }
      in
      let sched = schedule_of ~duration spec in
      let w =
        {
          t;
          servers;
          workers = Array.sub servers 0 nworkers;
          psrv = t.petal.Petal.Testbed.servers;
          eng = Invariants.engine ();
          ledgers = Array.init nworkers (fun _ -> Invariants.ledger ());
          hot_led = Invariants.ledger ();
          idle = Array.make nworkers false;
          expired = Array.make nworkers false;
          timeline = [];
          paused = false;
          stop_all = false;
          fibers = [];
          failed_ops = 0;
          crashed_fs = 0;
          requested = 0;
          committed = 0;
          reconf_rejected = 0;
          snap_ok = 0;
          snap_rej = 0;
          snap_del = 0;
          amb_busy = false;
          amb_ops = 0;
          amb_failed = ref 0;
          hot_writes = 0;
          raw_errors = -1;
          raw_ok = true;
          raw_waits = 0;
        }
      in
      let nf = start_faults w sched roles ~seed:nf_seed in
      start_workers w sh;
      start_ambient w sched (Array.sub servers nworkers (nfs - nworkers));
      let pc = start_reconfig w sched in
      start_snapshots w sched pc;
      start_fs_crashes w sched sh;
      start_pressure w sched;
      Option.iter (start_hot w) sched.hot;
      Option.iter (start_raw_hot w) sched.raw_hot;
      start_checkpoints w sched;
      verdict w sh sched ~profile ~label ~pc ~nf)

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
