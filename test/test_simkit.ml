open Simkit

let check_time = Alcotest.(check int)

let test_sleep_ordering () =
  let trace = ref [] in
  let record tag = trace := (tag, Sim.now ()) :: !trace in
  let () =
    Sim.run (fun () ->
        Sim.spawn (fun () ->
            Sim.sleep (Sim.ms 5);
            record "b");
        Sim.spawn (fun () ->
            Sim.sleep (Sim.ms 2);
            record "a");
        Sim.sleep (Sim.ms 10);
        record "main")
  in
  match List.rev !trace with
  | [ ("a", ta); ("b", tb); ("main", tm) ] ->
    check_time "a at 2ms" (Sim.ms 2) ta;
    check_time "b at 5ms" (Sim.ms 5) tb;
    check_time "main at 10ms" (Sim.ms 10) tm
  | _ -> Alcotest.fail "wrong trace"

let test_run_result () =
  let v = Sim.run (fun () -> Sim.sleep 100; 42) in
  Alcotest.(check int) "result" 42 v

let test_same_instant_fifo () =
  let order = ref [] in
  Sim.run (fun () ->
      for i = 1 to 5 do
        Sim.spawn (fun () -> order := i :: !order)
      done;
      Sim.sleep 1);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !order)

let test_ivar () =
  let sum =
    Sim.run (fun () ->
        let iv = Sim.Ivar.create () in
        let acc = ref 0 in
        let done_ = Sim.Ivar.create () in
        for _ = 1 to 3 do
          Sim.spawn (fun () ->
              acc := !acc + Sim.Ivar.read iv;
              if !acc = 21 then Sim.Ivar.fill done_ ())
        done;
        Sim.spawn (fun () ->
            Sim.sleep (Sim.us 7);
            Sim.Ivar.fill iv 7);
        Sim.Ivar.read done_;
        !acc)
  in
  Alcotest.(check int) "three readers woken" 21 sum

let test_ivar_double_fill () =
  Sim.run (fun () ->
      let iv = Sim.Ivar.create () in
      Sim.Ivar.fill iv 1;
      Alcotest.check_raises "double fill" (Invalid_argument "Ivar.fill: already filled")
        (fun () -> Sim.Ivar.fill iv 2))

let test_mailbox_fifo () =
  let got =
    Sim.run (fun () ->
        let mb = Sim.Mailbox.create () in
        Sim.spawn (fun () ->
            for i = 1 to 4 do
              Sim.sleep (Sim.us 1);
              Sim.Mailbox.send mb i
            done);
        List.init 4 (fun _ -> Sim.Mailbox.recv mb))
  in
  Alcotest.(check (list int)) "fifo order" [ 1; 2; 3; 4 ] got

let test_mailbox_blocked_receivers () =
  let got =
    Sim.run (fun () ->
        let mb = Sim.Mailbox.create () in
        let out = ref [] in
        for i = 1 to 3 do
          Sim.spawn (fun () ->
              let v = Sim.Mailbox.recv mb in
              out := (i, v) :: !out)
        done;
        Sim.sleep (Sim.us 1);
        List.iter (Sim.Mailbox.send mb) [ 10; 20; 30 ];
        Sim.sleep (Sim.us 1);
        List.rev !out)
  in
  Alcotest.(check (list (pair int int)))
    "receivers served in fifo order"
    [ (1, 10); (2, 20); (3, 30) ]
    got

let test_resource_serialises () =
  let finish =
    Sim.run (fun () ->
        let r = Sim.Resource.create "disk" in
        let finished = ref [] in
        Sim.fork_join
          (fun i ->
            Sim.Resource.use r (Sim.ms 10);
            finished := (i, Sim.now ()) :: !finished)
          [ 1; 2; 3 ];
        List.rev !finished)
  in
  Alcotest.(check (list (pair int int)))
    "fifo, 10ms apart"
    [ (1, Sim.ms 10); (2, Sim.ms 20); (3, Sim.ms 30) ]
    finish

let test_resource_capacity2 () =
  let t_end =
    Sim.run (fun () ->
        let r = Sim.Resource.create ~capacity:2 "cpu" in
        Sim.fork_join (fun _ -> Sim.Resource.use r (Sim.ms 10)) [ 1; 2; 3; 4 ];
        Sim.now ())
  in
  check_time "4 jobs on 2 servers" (Sim.ms 20) t_end

let test_resource_utilization () =
  let u =
    Sim.run (fun () ->
        let r = Sim.Resource.create "link" in
        Sim.Resource.use r (Sim.ms 30);
        Sim.sleep (Sim.ms 30);
        Sim.Resource.utilization r)
  in
  Alcotest.(check (float 0.001)) "50% busy" 0.5 u

let test_deadlock_detected () =
  Alcotest.check_raises "deadlock"
    (Sim.Deadlock "Sim.run: main process blocked forever")
    (fun () -> Sim.run (fun () -> ignore (Sim.Ivar.read (Sim.Ivar.create ()))))

let test_until () =
  Alcotest.check_raises "timed out" Sim.Timed_out (fun () ->
      Sim.run ~until:(Sim.ms 1) (fun () -> Sim.sleep (Sim.ms 2)))

let test_timer_cancel () =
  let fired =
    Sim.run (fun () ->
        let fired = ref false in
        let t = Sim.Timer.after (Sim.ms 5) (fun () -> fired := true) in
        Sim.sleep (Sim.ms 1);
        Sim.Timer.cancel t;
        Sim.sleep (Sim.ms 10);
        !fired)
  in
  Alcotest.(check bool) "cancelled timer must not fire" false fired

let test_timer_fires () =
  let at =
    Sim.run (fun () ->
        let at = ref 0 in
        let iv = Sim.Ivar.create () in
        ignore (Sim.Timer.after (Sim.ms 5) (fun () -> at := Sim.now (); Sim.Ivar.fill iv ()));
        Sim.Ivar.read iv;
        !at)
  in
  check_time "fires at 5ms" (Sim.ms 5) at

let test_condition_broadcast () =
  let n =
    Sim.run (fun () ->
        let c = Sim.Condition.create () in
        let woken = ref 0 in
        for _ = 1 to 5 do
          Sim.spawn (fun () ->
              Sim.Condition.wait c;
              incr woken)
        done;
        Sim.sleep (Sim.us 1);
        Sim.Condition.broadcast c;
        Sim.sleep (Sim.us 1);
        !woken)
  in
  Alcotest.(check int) "all woken" 5 n

let test_determinism () =
  let observe () =
    Sim.run ~seed:7 (fun () ->
        let xs = ref [] in
        for _ = 1 to 5 do
          xs := Sim.random_int 1000 :: !xs;
          Sim.sleep (Sim.random_int 100)
        done;
        (!xs, Sim.now ()))
  in
  let a = observe () and b = observe () in
  Alcotest.(check (pair (list int) int)) "same seed, same run" a b

(* Heap (at, seq) tie-break: events landing on the same instant —
   whatever mix of primitives scheduled them — run in scheduling
   order, and events at different instants run in time order even
   when inserted shuffled. The expected order is an independent
   stable sort of the insertion list by time. *)
let test_heap_tiebreak () =
  let times =
    (* Deliberately adversarial insertion order with many duplicates. *)
    [ 5; 1; 5; 0; 9; 1; 5; 0; 3; 9; 0; 1; 2; 7; 3; 5; 2; 0; 9; 4 ]
  in
  let expected =
    List.stable_sort
      (fun (a, _) (b, _) -> compare a b)
      (List.mapi (fun i t -> (t, i)) times)
  in
  let got = ref [] in
  Sim.run (fun () ->
      List.iteri (fun i t -> Sim.at (Sim.ms t) (fun () -> got := (t, i) :: !got)) times;
      Sim.sleep (Sim.ms 20));
  Alcotest.(check (list (pair int int)))
    "stable (at, seq) order" expected (List.rev !got)

let test_at_clamps_past () =
  let fired_at =
    Sim.run (fun () ->
        Sim.sleep (Sim.ms 5);
        let fired_at = ref (-1) in
        Sim.at (Sim.ms 1) (fun () -> fired_at := Sim.now ());
        Sim.sleep (Sim.ms 1);
        !fired_at)
  in
  check_time "past deadline fires now, not in the past" (Sim.ms 5) fired_at

let test_stats_counters () =
  let st =
    Sim.run (fun () ->
        for _ = 1 to 10 do
          Sim.spawn (fun () -> Sim.sleep (Sim.ms 1))
        done;
        (* Cancelled timers are discarded lazily: they must show up in
           [skipped], not [events], and must drain from the heap. *)
        let ts = List.init 7 (fun _ -> Sim.Timer.after (Sim.ms 2) ignore) in
        List.iter Sim.Timer.cancel ts;
        Sim.sleep (Sim.ms 5);
        Sim.stats ())
  in
  Alcotest.(check bool) "events counted" true (st.Sim.events > 0);
  Alcotest.(check int) "spawns counted" 10 st.Sim.spawns;
  Alcotest.(check int) "cancelled timers skipped" 7 st.Sim.skipped;
  Alcotest.(check int) "heap drained" 0 st.Sim.heap_len;
  (* After the run, stats must still be readable (the final snapshot). *)
  let post = Sim.stats () in
  Alcotest.(check int) "post-run snapshot" st.Sim.events post.Sim.events

(* [fork_join] on [] neither spawns nor yields; on n elements it
   spawns n children in list order and resumes the caller when the
   slowest one finishes. *)
let test_fork_join () =
  Sim.run (fun () ->
      Sim.sleep (Sim.ms 5);
      let before = Sim.stats () in
      Sim.fork_join (fun _ -> Alcotest.fail "child of []") [];
      let after = Sim.stats () in
      check_time "[] returns at the same instant" (Sim.ms 5) (Sim.now ());
      Alcotest.(check int) "[] spawns nothing" before.Sim.spawns after.Sim.spawns;
      Alcotest.(check int) "[] runs no event" before.Sim.events after.Sim.events;
      let started = ref [] in
      Sim.fork_join
        (fun d ->
          started := d :: !started;
          Sim.sleep (Sim.ms d))
        [ 30; 10; 20 ];
      Alcotest.(check int) "one spawn per element" (before.Sim.spawns + 3)
        (Sim.stats ()).Sim.spawns;
      Alcotest.(check (list int)) "children start in list order" [ 30; 10; 20 ]
        (List.rev !started);
      check_time "returns when the slowest child finishes" (Sim.ms 35) (Sim.now ()))

(* The timer fire path must be a real process: a callback that blocks
   (sleeps, waits on an ivar) must not wedge the engine. *)
let test_timer_fire_can_block () =
  let v =
    Sim.run (fun () ->
        let iv = Sim.Ivar.create () in
        ignore
          (Sim.Timer.after (Sim.ms 1) (fun () ->
               Sim.sleep (Sim.ms 3);
               Sim.Ivar.fill iv (Sim.now ())));
        Sim.Ivar.read iv)
  in
  check_time "timer body slept" (Sim.ms 4) v

let test_timer_is_pending () =
  Sim.run (fun () ->
      let t = Sim.Timer.after (Sim.ms 5) ignore in
      Alcotest.(check bool) "armed" true (Sim.Timer.is_pending t);
      Sim.Timer.cancel t;
      Alcotest.(check bool) "cancelled" false (Sim.Timer.is_pending t);
      let t2 = Sim.Timer.after (Sim.ms 1) ignore in
      Sim.sleep (Sim.ms 2);
      Alcotest.(check bool) "fired" false (Sim.Timer.is_pending t2))

(* acquire_cb: synchronous grant on a free resource; FIFO handover on
   a contended one — and it composes with blocking acquirers. *)
let test_acquire_cb () =
  let order =
    Sim.run (fun () ->
        let r = Sim.Resource.create "r" in
        let order = ref [] in
        let sync = ref false in
        Sim.Resource.acquire_cb r (fun () -> sync := true);
        Alcotest.(check bool) "free resource grants synchronously" true !sync;
        (* Holder releases at 3ms; two callback waiters and one
           blocking waiter queue up behind it in that order. *)
        Sim.spawn (fun () ->
            Sim.sleep (Sim.ms 3);
            Sim.Resource.release r);
        Sim.Resource.acquire_cb r (fun () ->
            order := ("cb1", Sim.now ()) :: !order;
            Sim.Resource.release r);
        Sim.Resource.acquire_cb r (fun () ->
            order := ("cb2", Sim.now ()) :: !order;
            Sim.Resource.release r);
        Sim.Resource.acquire r;
        order := ("blk", Sim.now ()) :: !order;
        Sim.Resource.release r;
        List.rev !order)
  in
  Alcotest.(check (list (pair string int)))
    "fifo handover at release instant"
    [ ("cb1", Sim.ms 3); ("cb2", Sim.ms 3); ("blk", Sim.ms 3) ]
    order

(* reserve: FIFO pipe timing — each reservation starts when the
   previous one finishes, and busy time accrues for utilization. *)
let test_reserve_fifo () =
  Sim.run (fun () ->
      let r = Sim.Resource.create "link" in
      let f1 = Sim.Resource.reserve r (Sim.ms 10) in
      let f2 = Sim.Resource.reserve r (Sim.ms 5) in
      check_time "first from now" (Sim.ms 10) f1;
      check_time "second queued behind first" (Sim.ms 15) f2;
      Sim.sleep (Sim.ms 20);
      let f3 = Sim.Resource.reserve r (Sim.ms 1) in
      check_time "idle gap skipped: third from now" (Sim.ms 21) f3;
      Sim.sleep (Sim.ms 11);
      Alcotest.(check (float 0.01))
        "16ms busy of 31ms elapsed"
        (16. /. 31.)
        (Sim.Resource.utilization r))

(* Fairness under sustained contention: three loopers re-acquiring a
   unit resource are granted strictly round-robin — nobody starves,
   nobody barges. *)
let test_resource_fairness () =
  let grants =
    Sim.run (fun () ->
        let r = Sim.Resource.create "r" in
        let grants = ref [] in
        Sim.fork_join
          (fun i ->
            for _ = 1 to 3 do
              Sim.Resource.acquire r;
              grants := i :: !grants;
              Sim.sleep (Sim.ms 1);
              Sim.Resource.release r
            done)
          [ 1; 2; 3 ];
        List.rev !grants)
  in
  Alcotest.(check (list int))
    "strict round-robin" [ 1; 2; 3; 1; 2; 3; 1; 2; 3 ] grants

(* Mailbox FIFO across several same-instant senders: delivery order
   is exactly send-call order, interleaved with queued receivers. *)
let test_mailbox_multi_sender_fifo () =
  let got =
    Sim.run (fun () ->
        let mb = Sim.Mailbox.create () in
        for s = 1 to 3 do
          Sim.spawn (fun () ->
              for k = 1 to 2 do
                Sim.Mailbox.send mb ((10 * s) + k)
              done)
        done;
        List.init 6 (fun _ -> Sim.Mailbox.recv mb))
  in
  Alcotest.(check (list int))
    "send-call order" [ 11; 12; 21; 22; 31; 32 ] got

let prop_resource_never_over_capacity =
  QCheck.Test.make ~name:"resource never exceeds capacity" ~count:50
    QCheck.(pair (int_range 1 4) (list_of_size Gen.(int_range 1 30) (int_range 0 1000)))
    (fun (cap, durations) ->
      let max_seen = ref 0 in
      Sim.run (fun () ->
          let r = Sim.Resource.create ~capacity:cap "r" in
          let active = ref 0 in
          Sim.fork_join
            (fun d ->
              Sim.sleep (Sim.random_int 50);
              Sim.Resource.acquire r;
              incr active;
              if !active > !max_seen then max_seen := !active;
              Sim.sleep d;
              decr active;
              Sim.Resource.release r)
            durations);
      !max_seen <= cap)

let () =
  Alcotest.run "simkit"
    [
      ( "engine",
        [
          Alcotest.test_case "sleep ordering" `Quick test_sleep_ordering;
          Alcotest.test_case "run result" `Quick test_run_result;
          Alcotest.test_case "same-instant fifo" `Quick test_same_instant_fifo;
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "until horizon" `Quick test_until;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "heap tie-break" `Quick test_heap_tiebreak;
          Alcotest.test_case "at clamps past" `Quick test_at_clamps_past;
          Alcotest.test_case "stats counters" `Quick test_stats_counters;
          Alcotest.test_case "fork_join" `Quick test_fork_join;
        ] );
      ( "ivar",
        [
          Alcotest.test_case "broadcast read" `Quick test_ivar;
          Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill;
        ] );
      ( "mailbox",
        [
          Alcotest.test_case "fifo messages" `Quick test_mailbox_fifo;
          Alcotest.test_case "fifo receivers" `Quick test_mailbox_blocked_receivers;
          Alcotest.test_case "multi-sender fifo" `Quick test_mailbox_multi_sender_fifo;
        ] );
      ( "resource",
        [
          Alcotest.test_case "serialises" `Quick test_resource_serialises;
          Alcotest.test_case "capacity 2" `Quick test_resource_capacity2;
          Alcotest.test_case "utilization" `Quick test_resource_utilization;
          Alcotest.test_case "acquire_cb" `Quick test_acquire_cb;
          Alcotest.test_case "reserve fifo" `Quick test_reserve_fifo;
          Alcotest.test_case "fairness" `Quick test_resource_fairness;
          QCheck_alcotest.to_alcotest prop_resource_never_over_capacity;
        ] );
      ( "timer",
        [
          Alcotest.test_case "cancel" `Quick test_timer_cancel;
          Alcotest.test_case "fires" `Quick test_timer_fires;
          Alcotest.test_case "fire can block" `Quick test_timer_fire_can_block;
          Alcotest.test_case "is_pending" `Quick test_timer_is_pending;
        ] );
      ( "condition",
        [ Alcotest.test_case "broadcast" `Quick test_condition_broadcast ] );
    ]
