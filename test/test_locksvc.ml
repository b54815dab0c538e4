open Simkit
open Cluster
open Locksvc

let mode = Alcotest.testable (fun fmt (m : Types.mode) ->
    Format.pp_print_string fmt (match m with Types.R -> "R" | Types.W -> "W"))
    ( = )

type bed = {
  net : Net.t;
  shosts : Host.t array;
  lsrv : Server.t array;
  saddrs : Net.addr array;
}

let mkservice ?(nservers = 3) ?(ngroups = 16) () =
  let net = Net.create () in
  let shosts = Array.init nservers (fun i -> Host.create (Printf.sprintf "ls%d" i)) in
  let rpcs = Array.map (fun h -> Rpc.create (Net.attach net h)) shosts in
  let saddrs = Array.map Rpc.addr rpcs in
  let lsrv =
    Array.init nservers (fun i ->
        Server.create ~host:shosts.(i) ~rpc:rpcs.(i) ~peers:saddrs ~index:i ~ngroups
          ~stable:(Paxos_group.stable ()) ())
  in
  { net; shosts; lsrv; saddrs }

let mkclerk_rpc bed name =
  let h = Host.create name in
  let rpc = Rpc.create (Net.attach bed.net h) in
  (h, rpc, Clerk.create ~rpc ~servers:bed.saddrs ~table:"fs0" ())

let mkclerk bed name =
  let h, _, c = mkclerk_rpc bed name in
  (h, c)

let test_acquire_release_sticky () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, c = mkclerk bed "f0" in
      Clerk.acquire c ~lock:7 Types.W;
      Alcotest.(check (option mode)) "held W" (Some Types.W) (Clerk.holds c ~lock:7);
      Clerk.release c ~lock:7 Types.W;
      (* Sticky: still cached after release. *)
      Alcotest.(check (option mode)) "sticky" (Some Types.W) (Clerk.holds c ~lock:7);
      (* Re-acquire must be instantaneous (no server round trip). *)
      let t0 = Sim.now () in
      Clerk.acquire c ~lock:7 Types.W;
      Alcotest.(check int) "local re-acquire" t0 (Sim.now ());
      Clerk.release c ~lock:7 Types.W)

let test_conflict_revokes () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, c1 = mkclerk bed "f1" in
      let _, c2 = mkclerk bed "f2" in
      let flushed = ref false in
      Clerk.set_callbacks c1
        ~on_revoke:(fun ~lock ~to_read ->
          if lock = 9 && not to_read then flushed := true)
        ~on_do_recovery:(fun ~dead_lease:_ -> ())
        ~on_expired:(fun () -> ());
      Clerk.acquire c1 ~lock:9 Types.W;
      Clerk.release c1 ~lock:9 Types.W;
      (* c2 wants the same lock: c1 must be revoked (flush ran), then
         c2 granted. *)
      Clerk.acquire c2 ~lock:9 Types.W;
      Alcotest.(check bool) "flush callback ran" true !flushed;
      Alcotest.(check (option mode)) "c1 dropped" None (Clerk.holds c1 ~lock:9);
      Alcotest.(check (option mode)) "c2 holds" (Some Types.W) (Clerk.holds c2 ~lock:9))

let test_read_sharing () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, c1 = mkclerk bed "f1" in
      let _, c2 = mkclerk bed "f2" in
      Clerk.acquire c1 ~lock:3 Types.R;
      Clerk.acquire c2 ~lock:3 Types.R;
      Alcotest.(check (option mode)) "c1 R" (Some Types.R) (Clerk.holds c1 ~lock:3);
      Alcotest.(check (option mode)) "c2 R" (Some Types.R) (Clerk.holds c2 ~lock:3))

let test_downgrade () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, cw = mkclerk bed "w" in
      let _, cr = mkclerk bed "r" in
      let downgraded = ref false in
      Clerk.set_callbacks cw
        ~on_revoke:(fun ~lock:_ ~to_read -> if to_read then downgraded := true)
        ~on_do_recovery:(fun ~dead_lease:_ -> ())
        ~on_expired:(fun () -> ());
      Clerk.acquire cw ~lock:5 Types.W;
      Clerk.release cw ~lock:5 Types.W;
      (* A reader forces only a downgrade: writer keeps R. *)
      Clerk.acquire cr ~lock:5 Types.R;
      Alcotest.(check bool) "downgrade callback" true !downgraded;
      Alcotest.(check (option mode)) "writer downgraded" (Some Types.R)
        (Clerk.holds cw ~lock:5);
      Alcotest.(check (option mode)) "reader holds" (Some Types.R)
        (Clerk.holds cr ~lock:5))

let test_local_mrsw () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, c = mkclerk bed "f" in
      Clerk.acquire c ~lock:1 Types.W;
      (* A second local writer must wait for the first. *)
      let second_done = ref (-1) in
      Sim.spawn (fun () ->
          Clerk.acquire c ~lock:1 Types.W;
          second_done := Sim.now ();
          Clerk.release c ~lock:1 Types.W);
      Sim.sleep (Sim.ms 50);
      Alcotest.(check int) "second writer blocked" (-1) !second_done;
      Clerk.release c ~lock:1 Types.W;
      Sim.sleep (Sim.ms 1);
      Alcotest.(check bool) "second writer ran" true (!second_done >= 0))

let test_sole_reader_upgrades () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, c = mkclerk bed "f" in
      let revoked = ref false in
      Clerk.set_callbacks c
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> revoked := true)
        ~on_do_recovery:(fun ~dead_lease:_ -> ())
        ~on_expired:(fun () -> ());
      Clerk.acquire c ~lock:2 Types.R;
      Clerk.release c ~lock:2 Types.R;
      (* W after cached R: one request, and the R is kept meanwhile. *)
      Clerk.acquire c ~lock:2 Types.W;
      Alcotest.(check (option mode)) "upgraded" (Some Types.W) (Clerk.holds c ~lock:2);
      Alcotest.(check bool) "cache kept" false !revoked;
      Clerk.release c ~lock:2 Types.W)

(* --- upgrade in place ------------------------------------------------------ *)

(* A clerk that records every revoke its machine receives (lock,
   to_mode) and every [on_revoke] it runs (lock, to_read, time). *)
let watched_clerk bed name =
  let _, rpc, c = mkclerk_rpc bed name in
  let revokes = ref [] and ran = ref [] in
  Rpc.on_oneway rpc (fun ~src:_ -> function
    | Types.L_revoke { lock; to_mode; _ } -> revokes := (lock, to_mode) :: !revokes
    | _ -> ());
  Clerk.set_callbacks c
    ~on_revoke:(fun ~lock ~to_read -> ran := (lock, to_read, Sim.now ()) :: !ran)
    ~on_do_recovery:(fun ~dead_lease:_ -> ())
    ~on_expired:(fun () -> ());
  (c, revokes, ran)

let test_upgrade_revokes_only_others () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let a, a_revokes, a_ran = watched_clerk bed "a" in
      let b, b_revokes, _ = watched_clerk bed "b" in
      let x = 6 in
      List.iter
        (fun c ->
          Clerk.acquire c ~lock:x Types.R;
          Clerk.release c ~lock:x Types.R)
        [ a; b ];
      Clerk.acquire a ~lock:x Types.W;
      Alcotest.(check (list (pair int (option mode)))) "B revoked to None"
        [ (x, None) ] !b_revokes;
      Alcotest.(check int) "A got no revoke" 0 (List.length !a_revokes);
      Alcotest.(check int) "A's on_revoke never ran" 0 (List.length !a_ran);
      Alcotest.(check (option mode)) "A holds W" (Some Types.W) (Clerk.holds a ~lock:x);
      Alcotest.(check (option mode)) "B dropped" None (Clerk.holds b ~lock:x);
      Clerk.release a ~lock:x Types.W)

(* Two readers upgrade at the same instant. The server grants its
   queue's head once the other holder gives way, and a clerk complies
   with a revoke while its own upgrade waits, so both get W in turn
   without the retransmit timer. *)
let test_simultaneous_upgrades () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let a, _, _ = watched_clerk bed "a" in
      let b, _, _ = watched_clerk bed "b" in
      let x = 6 in
      List.iter
        (fun c ->
          Clerk.acquire c ~lock:x Types.R;
          Clerk.release c ~lock:x Types.R)
        [ a; b ];
      let t0 = Sim.now () in
      let got = ref [] in
      Sim.fork_join
        (fun (name, c) ->
          Clerk.acquire c ~lock:x Types.W;
          got := (name, Sim.now ()) :: !got;
          Sim.sleep (Sim.ms 10);
          Clerk.release c ~lock:x Types.W)
        [ ("a", a); ("b", b) ];
      Alcotest.(check int) "both got W" 2 (List.length !got);
      List.iter
        (fun (name, at) ->
          Alcotest.(check bool) (name ^ " well under 2 s") true (at - t0 < Sim.ms 200))
        !got;
      let holders =
        List.filter (fun c -> Clerk.holds c ~lock:x = Some Types.W) [ a; b ]
      in
      Alcotest.(check int) "one W holder at the end" 1 (List.length holders))

(* C asks for W first; A, holding R with a local reader, asks for W
   just after (before C's revoke reaches it), so A's upgrade queues
   behind C's request. A must still give up R and invalidate before C
   is granted, and get W after C. *)
let test_upgrade_behind_writer () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let a, a_revokes, a_ran = watched_clerk bed "a" in
      let c, _, _ = watched_clerk bed "c" in
      let x = 6 in
      Clerk.acquire a ~lock:x Types.R;
      let c_at = ref None and a_at = ref None in
      Sim.spawn (fun () ->
          Clerk.acquire c ~lock:x Types.W;
          c_at := Some (Sim.now ());
          Sim.sleep (Sim.ms 10);
          Clerk.release c ~lock:x Types.W);
      Sim.sleep (Sim.us 10);
      Sim.spawn (fun () ->
          Clerk.acquire a ~lock:x Types.W;
          a_at := Some (Sim.now ());
          Clerk.release a ~lock:x Types.W);
      Sim.sleep (Sim.ms 50);
      Alcotest.(check (list (pair int (option mode)))) "A revoked to None"
        [ (x, None) ] !a_revokes;
      Alcotest.(check (option int)) "C waits for A's reader" None !c_at;
      Clerk.release a ~lock:x Types.R;
      Sim.sleep (Sim.ms 500);
      let invalidated_at =
        match !a_ran with
        | [ (l, false, at) ] when l = x -> at
        | _ -> Alcotest.fail "A ran no single invalidating revoke"
      in
      (match (!c_at, !a_at) with
      | Some c_at, Some a_at ->
        Alcotest.(check bool) "A invalidated before C got W" true (invalidated_at <= c_at);
        Alcotest.(check bool) "A got W after C" true (a_at > c_at)
      | _ -> Alcotest.fail "a writer never got the lock");
      Alcotest.(check (option mode)) "A holds W" (Some Types.W) (Clerk.holds a ~lock:x))

let test_lease_expiry_triggers_recovery () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let h1, c1 = mkclerk bed "victim" in
      let _, c2 = mkclerk bed "survivor" in
      let recovered = Sim.Ivar.create () in
      Clerk.set_callbacks c2
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> ())
        ~on_do_recovery:(fun ~dead_lease ->
          (* The recovery demon seizes the victim's lock (its "log"). *)
          Clerk.acquire_for_recovery c2 ~lock:100;
          Clerk.release c2 ~lock:100 Types.W;
          if not (Sim.Ivar.is_filled recovered) then Sim.Ivar.fill recovered dead_lease)
        ~on_expired:(fun () -> ());
      Clerk.acquire c1 ~lock:100 Types.W;
      let victim_lease = Clerk.lease c1 in
      Host.crash h1;
      let dead = Sim.Ivar.read recovered in
      Alcotest.(check int) "recovered the victim's lease" victim_lease dead;
      (* After recovery the victim's locks are released: c2 can take
         lock 100 normally. *)
      Clerk.acquire c2 ~lock:100 Types.W;
      Alcotest.(check (option mode)) "survivor holds" (Some Types.W)
        (Clerk.holds c2 ~lock:100))

(* One dead lease costs one [Remove_clerk]: every lock server nags a
   survivor to replay the dead log, but the survivor reports the
   finished replay only to the server whose request started it, so the
   Paxos log applies one removal, not one per lock server. *)
let test_one_removal_per_dead_lease () =
  Sim.run (fun () ->
      let bed = mkservice ~nservers:3 () in
      let h1, c1 = mkclerk bed "victim" in
      let _, c2 = mkclerk bed "survivor" in
      let replays = ref 0 in
      Clerk.set_callbacks c2
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> ())
        ~on_do_recovery:(fun ~dead_lease:_ ->
          (* a replay takes a while: the other servers' nags land inside it *)
          incr replays;
          Sim.sleep (Sim.sec 1.0))
        ~on_expired:(fun () -> ());
      Clerk.acquire c1 ~lock:100 Types.W;
      let victim = Clerk.lease c1 in
      Host.crash h1;
      Sim.sleep (Sim.sec 120.0);
      Alcotest.(check int) "one replay" 1 !replays;
      Array.iteri
        (fun i srv ->
          let removals =
            List.filter
              (function Types.Remove_clerk { lease; _ } -> lease = victim | _ -> false)
              (Server.applied srv)
          in
          Alcotest.(check int)
            (Printf.sprintf "lock server %d applied one removal" i)
            1 (List.length removals))
        bed.lsrv;
      Clerk.acquire c2 ~lock:100 Types.W;
      Alcotest.(check (option mode)) "victim's lock freed" (Some Types.W)
        (Clerk.holds c2 ~lock:100))

let test_partitioned_clerk_expires () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, c = mkclerk bed "isolated" in
      let expired = ref false in
      Clerk.set_callbacks c
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> ())
        ~on_do_recovery:(fun ~dead_lease:_ -> ())
        ~on_expired:(fun () -> expired := true);
      Clerk.acquire c ~lock:4 Types.W;
      Clerk.release c ~lock:4 Types.W;
      (* Cut the clerk's host off from everything: it was attached
         4th (after 3 servers), so its address is 3. *)
      Net.set_fault_cut bed.net (fun s d -> s = 3 || d = 3);
      Sim.sleep (Sim.sec 45.0);
      Alcotest.(check bool) "clerk expired itself" true !expired;
      Alcotest.(check bool) "locks discarded" true (Clerk.holds c ~lock:4 = None);
      (try
         Clerk.acquire c ~lock:4 Types.W;
         Alcotest.fail "expected Lease_expired"
       with Types.Lease_expired -> ()))

let test_renewal_drops_until_expiry () =
  (* Nemesis flavour of the partition test: every renewal is dropped
     by the fault layer until the lease lapses; the clerk must notice
     the misses, expire, and after a heal a fresh clerk proceeds. *)
  Sim.run (fun () ->
      let bed = mkservice () in
      let nf = Netfault.create bed.net in
      let h, c = mkclerk bed "nemesed" in
      ignore h;
      let expired = ref false in
      Clerk.set_callbacks c
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> ())
        ~on_do_recovery:(fun ~dead_lease:_ -> ())
        ~on_expired:(fun () -> expired := true);
      Clerk.acquire c ~lock:11 Types.W;
      Clerk.release c ~lock:11 Types.W;
      Netfault.isolate nf 3 (* the clerk: attached after the 3 servers *);
      Sim.sleep (Sim.sec 45.0);
      Alcotest.(check bool) "expired under sustained drops" true !expired;
      let s = Clerk.stats c in
      Alcotest.(check bool) "renewal misses counted" true
        (s.Clerk.renew_misses > 0);
      Netfault.heal_all nf;
      let _, c2 = mkclerk bed "fresh" in
      Clerk.acquire c2 ~lock:11 Types.W;
      Alcotest.(check (option mode)) "fresh clerk acquires after heal"
        (Some Types.W) (Clerk.holds c2 ~lock:11))

(* A clerk whose lease expired is unmounted before any other clerk
   has the table open. Its close must not retire the lease: the next
   clerk to open the table is asked to recover it. *)
let test_expired_close_keeps_recovery () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let nf = Netfault.create bed.net in
      let _, victim = mkclerk bed "victim" in
      Clerk.acquire victim ~lock:31 Types.W;
      let victim_lease = Clerk.lease victim in
      Netfault.isolate nf 3 (* the victim: attached after the 3 servers *);
      Sim.sleep (Sim.sec 45.0);
      Netfault.heal_all nf;
      Clerk.close victim;
      let _, later = mkclerk bed "later" in
      let asked = ref None in
      Clerk.set_callbacks later
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> ())
        ~on_do_recovery:(fun ~dead_lease ->
          Clerk.acquire_for_recovery later ~lock:31;
          Clerk.release later ~lock:31 Types.W;
          if !asked = None then asked := Some dead_lease)
        ~on_expired:(fun () -> ());
      Sim.sleep (Sim.sec 25.0);
      Alcotest.(check (option int)) "the later clerk recovers the victim"
        (Some victim_lease) !asked;
      Clerk.acquire later ~lock:31 Types.W;
      Alcotest.(check (option mode)) "victim's lock free after recovery"
        (Some Types.W) (Clerk.holds later ~lock:31))

(* A clerk cut off from one lock server keeps renewing through the
   others, and those servers pass its renewals on in their heartbeats:
   the cut server must not expire a lease the service as a whole is
   still renewing, nor ask anyone to recover it. *)
let test_cut_clerk_keeps_lease () =
  Sim.run (fun () ->
      let bed = mkservice ~nservers:3 () in
      let nf = Netfault.create bed.net in
      let _, holder = mkclerk bed "holder" in
      let _, witness = mkclerk bed "witness" in
      let holder_expired = ref false and nagged = ref 0 in
      Clerk.set_callbacks holder
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> ())
        ~on_do_recovery:(fun ~dead_lease:_ -> ())
        ~on_expired:(fun () -> holder_expired := true);
      Clerk.set_callbacks witness
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> ())
        ~on_do_recovery:(fun ~dead_lease:_ -> incr nagged)
        ~on_expired:(fun () -> ());
      Clerk.acquire holder ~lock:21 Types.W;
      Clerk.acquire witness ~lock:22 Types.W;
      (* The holder was attached 4th, after the 3 servers: address 3. *)
      Netfault.cut nf 3 bed.saddrs.(0);
      Sim.sleep (Sim.sec 120.0);
      Alcotest.(check bool) "holder not expired" false !holder_expired;
      Alcotest.(check (option mode)) "holder still holds" (Some Types.W)
        (Clerk.holds holder ~lock:21);
      Alcotest.(check bool) "holder's lease margin" true (Clerk.check_lease_margin holder);
      Alcotest.(check int) "witness never asked to recover" 0 !nagged;
      Netfault.heal_all nf;
      Clerk.release holder ~lock:21 Types.W;
      Clerk.release witness ~lock:22 Types.W)

(* The revoke to a holder is lost. The server re-sends it on a later
   2 s tick, so the waiter is granted a few ticks after the heal
   rather than never. The waiter's own retransmitted requests, which
   would also prompt a re-send, are dropped once its first request is
   in. *)
let test_lost_revoke_resent () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, holder = mkclerk bed "holder" in
      let _, waiter = mkclerk bed "waiter" in
      let revoked = ref 0 in
      Clerk.set_callbacks holder
        ~on_revoke:(fun ~lock:_ ~to_read:_ -> incr revoked)
        ~on_do_recovery:(fun ~dead_lease:_ -> ())
        ~on_expired:(fun () -> ());
      Clerk.acquire holder ~lock:13 Types.W;
      Clerk.release holder ~lock:13 Types.W;
      (* Holder and waiter were attached after the 3 servers. *)
      let holder_addr = 3 and waiter_addr = 4 in
      let to_holder = ref true and from_waiter = ref false and dropped = ref 0 in
      Net.set_fault_cut bed.net (fun s d ->
          let cut =
            (!to_holder && d = holder_addr && Array.mem s bed.saddrs)
            || (!from_waiter && s = waiter_addr && Array.mem d bed.saddrs)
          in
          if cut && d = holder_addr then incr dropped;
          cut);
      let granted = ref None in
      Sim.spawn (fun () ->
          Clerk.acquire waiter ~lock:13 Types.W;
          granted := Some (Sim.now ()));
      Sim.sleep (Sim.ms 50);
      from_waiter := true;
      Sim.sleep (Sim.ms 950);
      to_holder := false;
      let healed = Sim.now () in
      Alcotest.(check bool) "revoke dropped" true (!dropped > 0 && !revoked = 0);
      Alcotest.(check (option int)) "not granted while cut" None !granted;
      Sim.sleep (Sim.sec 8.0);
      Net.clear_fault_cut bed.net;
      Alcotest.(check int) "holder revoked once" 1 !revoked;
      match !granted with
      | Some t ->
        Alcotest.(check bool) "granted within 3 ticks of the heal" true
          (t - healed <= Sim.sec 6.0)
      | None -> Alcotest.fail "waiter never granted")

let test_lock_server_crash_reassignment () =
  Sim.run (fun () ->
      let bed = mkservice ~nservers:3 () in
      let _, c1 = mkclerk bed "f1" in
      let _, c2 = mkclerk bed "f2" in
      (* Hold a bunch of locks so some live on the server we crash. *)
      for l = 0 to 19 do
        Clerk.acquire c1 ~lock:l Types.W;
        Clerk.release c1 ~lock:l Types.W
      done;
      Host.crash bed.shosts.(2);
      (* Membership change + group reassignment takes a few heartbeats. *)
      Sim.sleep (Sim.sec 20.0);
      (* All locks must still be revocable and transferable. *)
      for l = 0 to 19 do
        Clerk.acquire c2 ~lock:l Types.W;
        Alcotest.(check (option mode))
          (Printf.sprintf "lock %d transferred" l)
          (Some Types.W) (Clerk.holds c2 ~lock:l);
        Clerk.release c2 ~lock:l Types.W
      done)

let test_fairness_batched_readers () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, cw = mkclerk bed "w" in
      let _, cr1 = mkclerk bed "r1" in
      let _, cr2 = mkclerk bed "r2" in
      Clerk.acquire cw ~lock:6 Types.W;
      let granted = ref [] in
      let reader name c =
        Sim.spawn (fun () ->
            Clerk.acquire c ~lock:6 Types.R;
            granted := (name, Sim.now ()) :: !granted)
      in
      reader "r1" cr1;
      reader "r2" cr2;
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check (list string)) "no grant while writer active" []
        (List.map fst !granted);
      Clerk.release cw ~lock:6 Types.W;
      Sim.sleep (Sim.sec 5.0);
      (* Both readers granted, and both in the same revoke round. *)
      match List.sort compare !granted with
      | [ ("r1", t1); ("r2", t2) ] ->
        Alcotest.(check bool) "batched" true (abs (t1 - t2) < Sim.ms 200)
      | g -> Alcotest.fail (Printf.sprintf "got %d grants" (List.length g)))

(* --- coalesced requests and grants ---------------------------------------- *)

(* A fresh-inode refill acquires an aligned run of 8 lock ids at once:
   the run maps to one lock server, and the 8 requests and the 8
   grants each travel as one message. *)
let test_run_one_message_each_way () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, rpc, c = mkclerk_rpc bed "f" in
      let me = Rpc.addr rpc in
      (* Clear of the clerk's 1 s housekeeping ticks. *)
      Sim.sleep (Sim.ms 500);
      let to_srv = ref 0 and from_srv = ref 0 in
      Net.set_netem bed.net (fun s d _ ->
          if s = me && Array.mem d bed.saddrs then incr to_srv;
          if d = me && Array.mem s bed.saddrs then incr from_srv;
          Net.Deliver);
      let base = 0x1_0000_0000 + (8 * Types.run_length) in
      Sim.fork_join
        (fun k -> Clerk.acquire c ~lock:(base + k) Types.W)
        (List.init Types.run_length Fun.id);
      Net.clear_netem bed.net;
      Alcotest.(check int) "one request message" 1 !to_srv;
      Alcotest.(check int) "one grant message" 1 !from_srv;
      let s = Clerk.stats c in
      Alcotest.(check (pair int int)) "requests / messages" (8, 1)
        (s.Clerk.requests, s.Clerk.request_msgs))

(* The server grants A and, in the same instant, revokes the lock from
   A for the waiting B. The grant is queued in A's outbox, so the
   revoke must not leave first: A would ignore a revoke for a lock it
   has not been granted yet, and B would wait out the 2 s pump retry. *)
let test_revoke_never_overtakes_grant () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, holder = mkclerk bed "holder" in
      let _, a = mkclerk bed "a" in
      let _, b = mkclerk bed "b" in
      let x = 9 in
      Clerk.acquire holder ~lock:x Types.W;
      let got c =
        let at = ref None in
        Sim.spawn (fun () ->
            Clerk.acquire c ~lock:x Types.W;
            at := Some (Sim.now ());
            Clerk.release c ~lock:x Types.W);
        at
      in
      let a_at = got a in
      Sim.sleep (Sim.ms 1);
      let b_at = got b in
      Sim.sleep (Sim.ms 50);
      (* Both wait on the holder; its release makes the server grant A
         and revoke A for B in one pump. *)
      let t0 = Sim.now () in
      Clerk.release holder ~lock:x Types.W;
      Sim.sleep (Sim.ms 500);
      let quick what = function
        | Some t -> Alcotest.(check bool) (what ^ " well under 2 s") true (t - t0 < Sim.ms 200)
        | None -> Alcotest.fail (what ^ " never got the lock")
      in
      quick "A" !a_at;
      quick "B after A" !b_at;
      Alcotest.(check bool) "B after A" true (Option.get !b_at >= Option.get !a_at))

(* The mirror case: a release leaves after the requests queued before
   it. A's revoke callback starts two acquires and yields twice, which
   queues their requests while the outbox flush is still pending; the
   release that follows must carry them out first. *)
let test_release_never_overtakes_request () =
  Sim.run (fun () ->
      let bed = mkservice () in
      let _, rpc, a = mkclerk_rpc bed "a" in
      let _, b = mkclerk bed "b" in
      (* Locks 0..2 share one run, hence one server. *)
      let y = 2 in
      Clerk.set_callbacks a
        ~on_revoke:(fun ~lock ~to_read:_ ->
          if lock = y then begin
            List.iter
              (fun l ->
                Sim.spawn (fun () ->
                    Clerk.acquire a ~lock:l Types.W;
                    Clerk.release a ~lock:l Types.W))
              [ 0; 1 ];
            Sim.sleep 0;
            Sim.sleep 0
          end)
        ~on_do_recovery:(fun ~dead_lease:_ -> ())
        ~on_expired:(fun () -> ());
      Clerk.acquire a ~lock:y Types.W;
      Clerk.release a ~lock:y Types.W;
      Sim.sleep (Sim.ms 500);
      (* Sizes of A's messages to the lock servers, in send order. *)
      let sizes = ref [] in
      Net.set_netem bed.net (fun s d size ->
          if s = Rpc.addr rpc && Array.mem d bed.saddrs then sizes := size :: !sizes;
          Net.Deliver);
      Clerk.acquire b ~lock:y Types.W;
      Sim.sleep (Sim.ms 10);
      Net.clear_netem bed.net;
      Alcotest.(check (list int)) "two requests, then the release"
        [ Types.batch_size 2; Types.msg ] (List.rev !sizes))

let prop_no_conflicting_holders =
  QCheck.Test.make ~name:"never two conflicting global holders" ~count:10
    QCheck.(int_range 0 10000)
    (fun seed ->
      Sim.run ~seed (fun () ->
          let bed = mkservice () in
          let clerks =
            Array.init 4 (fun i -> snd (mkclerk bed (Printf.sprintf "f%d" i)))
          in
          let violation = ref false in
          let check_invariant lock =
            let holders =
              Array.to_list clerks
              |> List.filter_map (fun c -> Clerk.holds c ~lock)
            in
            let writers = List.length (List.filter (( = ) Types.W) holders) in
            if writers > 1 || (writers = 1 && List.length holders > 1) then
              violation := true
          in
          Sim.fork_join
            (fun k ->
              Sim.sleep (Sim.random_int (Sim.sec 2.0));
              let c = clerks.(k mod 4) in
              let lock = Sim.random_int 3 in
              let m = if Sim.random_int 2 = 0 then Types.R else Types.W in
              Clerk.acquire c ~lock m;
              check_invariant lock;
              Sim.sleep (Sim.random_int (Sim.ms 100));
              check_invariant lock;
              Clerk.release c ~lock m)
            (List.init 12 Fun.id);
          not !violation))

let () =
  Alcotest.run "locksvc"
    [
      ( "basic",
        [
          Alcotest.test_case "acquire/release sticky" `Quick test_acquire_release_sticky;
          Alcotest.test_case "conflict revokes" `Quick test_conflict_revokes;
          Alcotest.test_case "read sharing" `Quick test_read_sharing;
          Alcotest.test_case "downgrade" `Quick test_downgrade;
          Alcotest.test_case "local MRSW" `Quick test_local_mrsw;
          Alcotest.test_case "sole reader upgrades in place" `Quick
            test_sole_reader_upgrades;
          Alcotest.test_case "fair batched readers" `Quick test_fairness_batched_readers;
        ] );
      ( "upgrade",
        [
          Alcotest.test_case "revokes only the other readers" `Quick
            test_upgrade_revokes_only_others;
          Alcotest.test_case "simultaneous upgrades" `Quick test_simultaneous_upgrades;
          Alcotest.test_case "upgrade queued behind a writer" `Quick
            test_upgrade_behind_writer;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "run of 8: one message each way" `Quick
            test_run_one_message_each_way;
          Alcotest.test_case "revoke never overtakes grant" `Quick
            test_revoke_never_overtakes_grant;
          Alcotest.test_case "release never overtakes request" `Quick
            test_release_never_overtakes_request;
        ] );
      ( "failures",
        [
          Alcotest.test_case "lease expiry -> recovery" `Quick
            test_lease_expiry_triggers_recovery;
          Alcotest.test_case "one removal per dead lease" `Quick
            test_one_removal_per_dead_lease;
          Alcotest.test_case "partitioned clerk expires" `Quick
            test_partitioned_clerk_expires;
          Alcotest.test_case "renewals dropped until expiry" `Quick
            test_renewal_drops_until_expiry;
          Alcotest.test_case "lock server crash reassigns" `Quick
            test_lock_server_crash_reassignment;
          Alcotest.test_case "expired close leaves recovery" `Quick
            test_expired_close_keeps_recovery;
          Alcotest.test_case "cut clerk keeps its lease" `Quick
            test_cut_clerk_keeps_lease;
          Alcotest.test_case "lost revoke re-sent" `Quick test_lost_revoke_resent;
        ] );
      ("safety", [ QCheck_alcotest.to_alcotest prop_no_conflicting_holders ]);
    ]
