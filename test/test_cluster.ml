open Simkit
open Cluster

type Net.payload += Ping of int | Pong of int | Note of string

let mkpair () =
  let net = Net.create () in
  let ha = Host.create "a" and hb = Host.create "b" in
  let pa = Net.attach net ha and pb = Net.attach net hb in
  (net, ha, hb, pa, pb)

let test_send_recv () =
  Sim.run (fun () ->
      let _, _, _, pa, pb = mkpair () in
      Net.send pa ~dst:(Net.addr pb) ~size:100 (Ping 7);
      let src, m = Net.recv pb in
      Alcotest.(check int) "src" (Net.addr pa) src;
      match m with
      | Ping 7 -> ()
      | _ -> Alcotest.fail "wrong payload")

let test_link_occupancy () =
  (* Two 1 MB messages on a 155 Mbit/s link: the second waits for the
     first, so total delivery time is >= 2 * 1MB*8/155e6 s ~ 103 ms. *)
  let t =
    Sim.run (fun () ->
        let _, _, _, pa, pb = mkpair () in
        let mb = 1_000_000 in
        Net.send pa ~dst:(Net.addr pb) ~size:mb (Ping 1);
        Net.send pa ~dst:(Net.addr pb) ~size:mb (Ping 2);
        ignore (Net.recv pb);
        ignore (Net.recv pb);
        Sim.now ())
  in
  Alcotest.(check bool) "serialised on tx link" true (t >= Sim.ms 103)

let test_crash_drops () =
  Sim.run (fun () ->
      let _, _, hb, pa, pb = mkpair () in
      Host.crash hb;
      Net.send pa ~dst:(Net.addr pb) ~size:10 (Ping 1);
      Sim.sleep (Sim.sec 1.0);
      (* A receiver spawned after restart must see nothing. *)
      Host.restart hb;
      let got = ref false in
      Sim.spawn (fun () ->
          ignore (Net.recv pb);
          got := true);
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check bool) "dropped while crashed" false !got)

let test_partition () =
  Sim.run (fun () ->
      let net, _, _, pa, pb = mkpair () in
      Net.set_fault_cut net (fun _ _ -> true);
      Net.send pa ~dst:(Net.addr pb) ~size:10 (Ping 1);
      Sim.sleep (Sim.sec 0.5);
      Net.clear_fault_cut net;
      Net.send pa ~dst:(Net.addr pb) ~size:10 (Ping 2);
      let _, m = Net.recv pb in
      match m with
      | Ping 2 -> ()
      | _ -> Alcotest.fail "partitioned message should have been dropped")

let test_partition_midflight () =
  (* Documented Net semantics: cuts act at the delivery instant, so a
     cut installed while a message is on the wire still drops it. *)
  Sim.run (fun () ->
      let net, _, _, pa, pb = mkpair () in
      let nf = Netfault.create net in
      Net.send pa ~dst:(Net.addr pb) ~size:1_000_000 (Ping 1);
      (* The megabyte is in flight now; cut before it can land. *)
      Netfault.cut nf (Net.addr pa) (Net.addr pb);
      Sim.sleep (Sim.sec 1.0);
      Netfault.heal nf (Net.addr pa) (Net.addr pb);
      Net.send pa ~dst:(Net.addr pb) ~size:10 (Ping 2);
      (match Net.recv pb with
      | _, Ping 2 -> ()
      | _ -> Alcotest.fail "mid-flight message should have been dropped");
      Alcotest.(check int) "cut drop counted" 1 (Netfault.stats nf).Netfault.cut_drops)

let test_netfault_oneway () =
  Sim.run (fun () ->
      let net, _, _, pa, pb = mkpair () in
      let nf = Netfault.create net in
      Netfault.cut ~oneway:true nf (Net.addr pa) (Net.addr pb);
      Net.send pa ~dst:(Net.addr pb) ~size:10 (Ping 1);
      Net.send pb ~dst:(Net.addr pa) ~size:10 (Ping 2);
      (match Net.recv pa with
      | _, Ping 2 -> ()
      | _ -> Alcotest.fail "reverse direction must still deliver");
      Sim.sleep (Sim.sec 0.5);
      let got = ref false in
      Sim.spawn (fun () ->
          ignore (Net.recv pb);
          got := true);
      Sim.sleep (Sim.sec 0.5);
      Alcotest.(check bool) "forward direction cut" false !got)

let test_netfault_loss_deterministic () =
  let experiment () =
    Sim.run ~seed:5 (fun () ->
        let net, _, _, pa, pb = mkpair () in
        let nf = Netfault.create ~seed:9 net in
        Netfault.shape ~drop:0.5 nf;
        let got = ref [] in
        Sim.spawn (fun () ->
            while true do
              match Net.recv pb with
              | _, Ping n -> got := n :: !got
              | _ -> ()
            done);
        for i = 1 to 100 do
          Net.send pa ~dst:(Net.addr pb) ~size:10 (Ping i);
          Sim.sleep (Sim.ms 5)
        done;
        Sim.sleep (Sim.sec 1.0);
        (!got, (Netfault.stats nf).Netfault.loss_drops))
  in
  let got, drops = experiment () in
  let got', drops' = experiment () in
  Alcotest.(check bool) "some loss" true (drops > 0 && drops < 100);
  Alcotest.(check (list int)) "same survivors" got got';
  Alcotest.(check int) "same drops" drops drops'

let test_netfault_delay () =
  Sim.run (fun () ->
      let net, _, _, pa, pb = mkpair () in
      let nf = Netfault.create net in
      Netfault.shape ~delay:(Sim.ms 50) nf;
      let t0 = Sim.now () in
      Net.send pa ~dst:(Net.addr pb) ~size:10 (Ping 1);
      ignore (Net.recv pb);
      Alcotest.(check bool) "delayed >= 50 ms" true (Sim.now () - t0 >= Sim.ms 50);
      Alcotest.(check bool) "delay counted" true
        ((Netfault.stats nf).Netfault.delayed >= 1))

let test_rpc_roundtrip () =
  Sim.run (fun () ->
      let _, _, _, pa, pb = mkpair () in
      let ca = Rpc.create pa and cb = Rpc.create pb in
      Rpc.add_handler cb (fun ~src:_ body ->
          match body with
          | Ping n -> Some (Pong (n * 2), 8)
          | _ -> None);
      match Rpc.call ca ~dst:(Rpc.addr cb) ~size:8 (Ping 21) with
      | Ok (Pong 42) -> ()
      | Ok _ -> Alcotest.fail "wrong reply"
      | Error `Timeout -> Alcotest.fail "unexpected timeout")

let test_rpc_timeout_on_crash () =
  Sim.run (fun () ->
      let _, _, hb, pa, pb = mkpair () in
      let ca = Rpc.create pa in
      let cb = Rpc.create pb in
      Rpc.add_handler cb (fun ~src:_ _ -> Some (Pong 0, 8));
      Host.crash hb;
      let t0 = Sim.now () in
      (match Rpc.call ca ~dst:(Rpc.addr cb) ~timeout:(Sim.ms 200) ~size:8 (Ping 1) with
      | Error `Timeout -> ()
      | Ok _ -> Alcotest.fail "expected timeout");
      Alcotest.(check bool) "timed out at deadline" true (Sim.now () - t0 >= Sim.ms 200))

let test_rpc_concurrent_handlers () =
  (* A slow handler must not block a fast one. *)
  Sim.run (fun () ->
      let _, _, _, pa, pb = mkpair () in
      let ca = Rpc.create pa and cb = Rpc.create pb in
      Rpc.add_handler cb (fun ~src:_ body ->
          match body with
          | Ping 1 ->
            Sim.sleep (Sim.ms 100);
            Some (Pong 1, 8)
          | Ping 2 -> Some (Pong 2, 8)
          | _ -> None);
      let done2 = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          match Rpc.call ca ~dst:(Rpc.addr cb) ~size:8 (Ping 2) with
          | Ok (Pong 2) -> Sim.Ivar.fill done2 (Sim.now ())
          | _ -> Alcotest.fail "fast call failed");
      let t0 = Sim.now () in
      (match Rpc.call ca ~dst:(Rpc.addr cb) ~size:8 (Ping 1) with
      | Ok (Pong 1) -> ()
      | _ -> Alcotest.fail "slow call failed");
      let t_fast = Sim.Ivar.read done2 in
      Alcotest.(check bool) "fast finished before slow" true (t_fast - t0 < Sim.ms 100))

let test_oneway_subscribe () =
  Sim.run (fun () ->
      let _, _, _, pa, pb = mkpair () in
      let _ca = Rpc.create pa and cb = Rpc.create pb in
      let got = ref [] in
      Rpc.on_oneway cb (fun ~src:_ body ->
          match body with
          | Note s -> got := s :: !got
          | _ -> ());
      Rpc.oneway (Rpc.create pa) ~dst:(Rpc.addr cb) ~size:10 (Note "hb");
      Sim.sleep (Sim.ms 10);
      Alcotest.(check (list string)) "received" [ "hb" ] !got)

let test_call_retry_through_fault () =
  (* Replies are cut one-way for a while: every retransmission that
     arrives runs the (idempotent) handler again, and the call succeeds
     once the cut heals. *)
  Sim.run (fun () ->
      let net, _, _, pa, pb = mkpair () in
      let nf = Netfault.create net in
      let ca = Rpc.create pa and cb = Rpc.create pb in
      let executed = ref 0 in
      Rpc.add_handler cb (fun ~src:_ body ->
          match body with
          | Ping n ->
            incr executed;
            Some (Pong (n + 1), 8)
          | _ -> None);
      (* Lose the replies (b -> a) for the first three attempts. *)
      Netfault.cut ~oneway:true nf (Net.addr pb) (Net.addr pa);
      Sim.spawn (fun () ->
          Sim.sleep (Sim.ms 700);
          Netfault.heal nf (Net.addr pb) (Net.addr pa));
      (match
         Rpc.call_retry ca ~dst:(Rpc.addr cb) ~timeout:(Sim.ms 200)
           ~attempts:8 ~backoff:(Sim.ms 50) ~size:8 (Ping 1)
       with
      | Ok (Pong 2) -> ()
      | Ok _ -> Alcotest.fail "wrong reply"
      | Error `Timeout -> Alcotest.fail "retry should recover after heal");
      Alcotest.(check bool) "handler re-ran" true (!executed > 1);
      Alcotest.(check bool) "retried" true ((Rpc.stats ca).Rpc.retries >= 2))

(* [stats] hands out copies: one taken before some traffic keeps its
   values while the live counters move on. *)
let test_stats_are_copies () =
  Sim.run (fun () ->
      let net, _, _, pa, pb = mkpair () in
      let nf = Netfault.create net in
      let ca = Rpc.create pa and cb = Rpc.create pb in
      Rpc.add_handler cb (fun ~src:_ _ -> Some (Pong 0, 8));
      let rpc0 = Rpc.stats ca and nf0 = Netfault.stats nf in
      Netfault.cut nf (Net.addr pa) (Net.addr pb);
      ignore (Rpc.call ca ~dst:(Rpc.addr cb) ~timeout:(Sim.ms 200) ~size:8 (Ping 1));
      let rpc1 = Rpc.stats ca and nf1 = Netfault.stats nf in
      let calls_timeouts (s : Rpc.stats) = (s.calls, s.timeouts) in
      Alcotest.(check (pair int int)) "rpc copy kept" (0, 0) (calls_timeouts rpc0);
      Alcotest.(check (pair int int)) "rpc counters moved" (1, 1) (calls_timeouts rpc1);
      Alcotest.(check int) "netfault copy kept" 0 nf0.Netfault.cut_drops;
      Alcotest.(check int) "netfault counter moved" 1 nf1.Netfault.cut_drops)

let test_host_incarnation_guard () =
  Sim.run (fun () ->
      let h = Host.create "x" in
      let inc = Host.incarnation h in
      Alcotest.(check bool) "guard alive" true (Host.guard h inc);
      Host.crash h;
      Alcotest.(check bool) "guard crashed" false (Host.guard h inc);
      Host.restart h;
      Alcotest.(check bool) "guard stale" false (Host.guard h inc);
      Alcotest.(check bool) "guard new inc" true (Host.guard h (Host.incarnation h)))

let test_crash_hooks_run () =
  Sim.run (fun () ->
      let h = Host.create "x" in
      let ran = ref 0 in
      Host.on_crash h (fun () -> incr ran);
      Host.on_crash h (fun () -> incr ran);
      Host.crash h;
      Host.crash h;
      Alcotest.(check int) "hooks run once" 2 !ran)

let test_cpu_utilization () =
  let u =
    Sim.run (fun () ->
        let h = Host.create "x" in
        Host.consume h (Sim.ms 25);
        Sim.sleep (Sim.ms 75);
        Sim.Resource.utilization (Host.cpu h))
  in
  Alcotest.(check (float 0.01)) "25%" 0.25 u

let () =
  Alcotest.run "cluster"
    [
      ( "net",
        [
          Alcotest.test_case "send/recv" `Quick test_send_recv;
          Alcotest.test_case "link occupancy" `Quick test_link_occupancy;
          Alcotest.test_case "crash drops" `Quick test_crash_drops;
          Alcotest.test_case "partition" `Quick test_partition;
        ] );
      ( "netfault",
        [
          Alcotest.test_case "mid-flight cut drops" `Quick test_partition_midflight;
          Alcotest.test_case "one-way cut" `Quick test_netfault_oneway;
          Alcotest.test_case "seeded loss replays" `Quick
            test_netfault_loss_deterministic;
          Alcotest.test_case "delay shaping" `Quick test_netfault_delay;
          Alcotest.test_case "call_retry through fault" `Quick
            test_call_retry_through_fault;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "roundtrip" `Quick test_rpc_roundtrip;
          Alcotest.test_case "timeout on crash" `Quick test_rpc_timeout_on_crash;
          Alcotest.test_case "concurrent handlers" `Quick test_rpc_concurrent_handlers;
          Alcotest.test_case "oneway subscribe" `Quick test_oneway_subscribe;
          Alcotest.test_case "stats are copies" `Quick test_stats_are_copies;
        ] );
      ( "host",
        [
          Alcotest.test_case "incarnation guard" `Quick test_host_incarnation_guard;
          Alcotest.test_case "crash hooks" `Quick test_crash_hooks_run;
          Alcotest.test_case "cpu utilization" `Quick test_cpu_utilization;
        ] );
    ]
