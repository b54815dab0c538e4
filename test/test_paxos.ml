open Simkit
open Cluster

module P = Paxos.Make (struct
  type t = string
end)

type cluster = {
  net : Net.t;
  hosts : Host.t array;
  rpcs : Rpc.t array;
  replicas : P.t array;
  logs : string list ref array; (* applied commands per replica, reversed *)
}

let mkcluster ?(n = 3) () =
  let net = Net.create () in
  let hosts = Array.init n (fun i -> Host.create (Printf.sprintf "ls%d" i)) in
  let rpcs = Array.map (fun h -> Rpc.create (Net.attach net h)) hosts in
  let peers = Array.to_list (Array.map Rpc.addr rpcs) in
  let logs = Array.init n (fun _ -> ref []) in
  let replicas =
    Array.init n (fun i ->
        P.create ~rpc:rpcs.(i) ~group:1 ~peers ~id:i ~stable:(P.stable ())
          ~apply:(fun _slot cmd -> logs.(i) := cmd :: !(logs.(i))))
  in
  { net; hosts; rpcs; replicas; logs }

let applied c i = List.rev !(c.logs.(i))

let is_prefix a b =
  let rec go a b =
    match (a, b) with
    | [], _ -> true
    | _, [] -> false
    | x :: a', y :: b' -> x = y && go a' b'
  in
  go a b

let consistent c =
  let n = Array.length c.replicas in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let a = applied c i and b = applied c j in
      if not (is_prefix a b || is_prefix b a) then ok := false
    done
  done;
  !ok

let test_single_proposer () =
  Sim.run (fun () ->
      let c = mkcluster () in
      let s1 = P.propose c.replicas.(0) "alpha" in
      let s2 = P.propose c.replicas.(0) "beta" in
      Alcotest.(check bool) "slots increase" true (s2 > s1);
      Sim.sleep (Sim.sec 2.0);
      Alcotest.(check (list string)) "replica0" [ "alpha"; "beta" ] (applied c 0);
      Alcotest.(check (list string)) "replica1" [ "alpha"; "beta" ] (applied c 1);
      Alcotest.(check (list string)) "replica2" [ "alpha"; "beta" ] (applied c 2))

let test_concurrent_proposers () =
  Sim.run (fun () ->
      let c = mkcluster () in
      Sim.fork_join
        (fun (i, k) -> ignore (P.propose c.replicas.(i) (Printf.sprintf "c%d.%d" i k)))
        [ (0, 0); (0, 1); (1, 0); (1, 1); (2, 0); (2, 1) ];
      Sim.sleep (Sim.sec 2.0);
      List.iter
        (fun i ->
          Alcotest.(check int)
            (Printf.sprintf "replica %d applied all" i)
            6
            (List.length (applied c i)))
        [ 0; 1; 2 ];
      Alcotest.(check bool) "logs agree" true (consistent c);
      (* No duplicates. *)
      let l = applied c 0 in
      Alcotest.(check int) "distinct" (List.length l)
        (List.length (List.sort_uniq compare l)))

let test_minority_crash () =
  Sim.run (fun () ->
      let c = mkcluster () in
      ignore (P.propose c.replicas.(0) "one");
      Host.crash c.hosts.(2);
      ignore (P.propose c.replicas.(0) "two");
      ignore (P.propose c.replicas.(1) "three");
      Sim.sleep (Sim.sec 2.0);
      Alcotest.(check (list string)) "majority progresses"
        [ "one"; "two"; "three" ] (applied c 0);
      Alcotest.(check bool) "logs agree" true (consistent c))

let test_partition_heals () =
  Sim.run (fun () ->
      let net = Net.create () in
      let hosts = Array.init 3 (fun i -> Host.create (Printf.sprintf "ls%d" i)) in
      let ports = Array.map (fun h -> Net.attach net h) hosts in
      let rpcs = Array.map Rpc.create ports in
      let peers = Array.to_list (Array.map Rpc.addr rpcs) in
      let logs = Array.init 3 (fun _ -> ref []) in
      let replicas =
        Array.init 3 (fun i ->
            P.create ~rpc:rpcs.(i) ~group:1 ~peers ~id:i ~stable:(P.stable ())
              ~apply:(fun _ cmd -> logs.(i) := cmd :: !(logs.(i))))
      in
      (* Cut replica 2 off. *)
      let a2 = Rpc.addr rpcs.(2) in
      Net.set_fault_cut net (fun s d -> s = a2 || d = a2);
      ignore (P.propose replicas.(0) "during-partition");
      Alcotest.(check (list string)) "isolated learns nothing" [] (List.rev !(logs.(2)));
      Net.clear_fault_cut net;
      Sim.sleep (Sim.sec 2.0);
      Alcotest.(check (list string)) "catch-up after heal" [ "during-partition" ]
        (List.rev !(logs.(2))))

let test_five_replicas_two_crashes () =
  Sim.run (fun () ->
      let c = mkcluster ~n:5 () in
      ignore (P.propose c.replicas.(0) "a");
      Host.crash c.hosts.(3);
      Host.crash c.hosts.(4);
      ignore (P.propose c.replicas.(1) "b");
      ignore (P.propose c.replicas.(2) "c");
      Sim.sleep (Sim.sec 2.0);
      Alcotest.(check (list string)) "3-of-5 progresses" [ "a"; "b"; "c" ] (applied c 0);
      Alcotest.(check bool) "agree" true (consistent c))

let prop_safety_random_schedules =
  QCheck.Test.make ~name:"paxos safety under random proposers" ~count:15
    QCheck.(pair (int_range 0 10000) (int_range 2 8))
    (fun (seed, nprop) ->
      Sim.run ~seed (fun () ->
          let c = mkcluster () in
          Sim.fork_join
            (fun k ->
              Sim.sleep (Sim.random_int (Sim.ms 200));
              let who = Sim.random_int 3 in
              ignore (P.propose c.replicas.(who) (Printf.sprintf "p%d" k)))
            (List.init nprop Fun.id);
          Sim.sleep (Sim.sec 2.0);
          consistent c
          && List.length (applied c 0) = nprop
          && applied c 0 = applied c 1
          && applied c 1 = applied c 2))

(* --- nemesis schedules: seeded faults inside the Paxos traffic ------- *)

(* Drive [per] proposals from each of [proposers] concurrently (each
   proposer issues its commands in order) and return the sim time at
   which the last proposal was decided. *)
let duel c ~proposers ~per =
  Sim.fork_join
    (fun i ->
      for k = 0 to per - 1 do
        ignore (P.propose c.replicas.(i) (Printf.sprintf "n%d.%d" i k))
      done)
    proposers;
  Sim.now ()

let check_converged c ~n ~ncmds =
  List.iter
    (fun i ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d applied all" i)
        ncmds
        (List.length (applied c i)))
    (List.init n Fun.id);
  Alcotest.(check bool) "one decided sequence" true (consistent c);
  Alcotest.(check bool) "all logs equal" true
    (List.for_all (fun i -> applied c i = applied c 0) (List.init n Fun.id));
  let l = applied c 0 in
  Alcotest.(check int) "no duplicates" (List.length l)
    (List.length (List.sort_uniq compare l))

(* Duelling proposers through a 25%-loss network: prepares and
   accepts vanish at random, so ballots collide and get re-fought —
   yet the cluster must converge to a single decided sequence, and
   must do so within a liveness bound of simulated time. *)
let test_nemesis_lossy_duel () =
  Sim.run ~seed:1105 (fun () ->
      let c = mkcluster () in
      let nf = Netfault.create ~seed:7 c.net in
      Netfault.shape ~drop:0.25 nf;
      let t0 = Sim.now () in
      let decided_at = duel c ~proposers:[ 0; 1 ] ~per:5 in
      Netfault.clear nf;
      Sim.sleep (Sim.sec 5.0) (* catch-up daemons sync the laggard *);
      check_converged c ~n:3 ~ncmds:10;
      Alcotest.(check bool) "liveness bound (120 s sim)" true
        (decided_at - t0 < Sim.sec 120.0);
      (* The loss actually contested ballots: some proposal needed a
         higher round than the uncontested minimum. *)
      Alcotest.(check bool) "ballots were fought over" true
        (P.round c.replicas.(0) + P.round c.replicas.(1) > 10);
      let nfst = Netfault.stats nf in
      Alcotest.(check bool) "nemesis dropped traffic" true (nfst.loss_drops > 0))

(* Leader flaps: the current proposer is repeatedly isolated for a
   beat and healed while both it and a rival keep proposing. Every
   flap forces the duel to migrate to whichever side still has a
   majority; decisions must survive each flap and the logs converge
   once the flapping stops. *)
let test_nemesis_leader_flaps () =
  Sim.run ~seed:2210 (fun () ->
      let c = mkcluster () in
      let nf = Netfault.create ~seed:13 c.net in
      let a i = Rpc.addr c.rpcs.(i) in
      let flap victim at =
        [ (at, fun nf -> Netfault.isolate nf (a victim));
          (at + Sim.ms 1500, fun nf -> Netfault.heal_all nf) ]
      in
      Netfault.schedule nf
        (List.concat
           [ flap 0 (Sim.ms 200);
             flap 1 (Sim.sec 4.0);
             flap 0 (Sim.sec 8.0);
             flap 1 (Sim.sec 12.0) ]);
      let t0 = Sim.now () in
      let decided_at = duel c ~proposers:[ 0; 1 ] ~per:4 in
      Sim.sleep (Sim.sec 20.0) (* outlive the schedule, let catch-up run *);
      check_converged c ~n:3 ~ncmds:8;
      Alcotest.(check bool) "liveness bound (120 s sim)" true
        (decided_at - t0 < Sim.sec 120.0))

(* Delay/jitter shaping reorders messages (late promises, stale
   accepts) without losing them; and the whole nemesis run must be
   bit-identically replayable from its seeds. *)
let test_nemesis_delay_replay () =
  let run () =
    let result = ref ([], 0) in
    Sim.run ~seed:3311 (fun () ->
        let c = mkcluster () in
        let nf = Netfault.create ~seed:23 c.net in
        Netfault.shape ~delay:(Sim.ms 40) ~jitter:(Sim.ms 80) ~drop:0.10 nf;
        let _ = duel c ~proposers:[ 0; 1; 2 ] ~per:3 in
        Netfault.clear nf;
        Sim.sleep (Sim.sec 5.0);
        check_converged c ~n:3 ~ncmds:9;
        result := (applied c 0, Sim.now ()));
    !result
  in
  let log1, end1 = run () in
  let log2, end2 = run () in
  Alcotest.(check (list string)) "same decided sequence on replay" log1 log2;
  Alcotest.(check int) "same end time on replay" end1 end2

let () =
  Alcotest.run "paxos"
    [
      ( "paxos",
        [
          Alcotest.test_case "single proposer" `Quick test_single_proposer;
          Alcotest.test_case "concurrent proposers" `Quick test_concurrent_proposers;
          Alcotest.test_case "minority crash" `Quick test_minority_crash;
          Alcotest.test_case "partition heals" `Quick test_partition_heals;
          Alcotest.test_case "5 replicas, 2 crashes" `Quick test_five_replicas_two_crashes;
          QCheck_alcotest.to_alcotest prop_safety_random_schedules;
        ] );
      ( "nemesis",
        [
          Alcotest.test_case "duelling proposers, 25% loss" `Quick
            test_nemesis_lossy_duel;
          Alcotest.test_case "leader flaps converge" `Quick
            test_nemesis_leader_flaps;
          Alcotest.test_case "delay shaping, bit-identical replay" `Quick
            test_nemesis_delay_replay;
        ] );
    ]
