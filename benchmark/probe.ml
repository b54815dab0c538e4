(* The traced run's probe host and counter sampler. Probes run on two
   extra machines: a 4 KB [Petal.Client.read] and an uncontended lock
   acquire every [fast] of simulated time, and a revoke probe — one
   clerk takes a fresh lock, a second clerk then acquires it and must
   wait for the revoke — every [slow]. Lock probes use their own
   ["probe"] table, so they never contend with the file system. *)

open Simkit
module T = Workloads.Testbed
module Clerk = Locksvc.Clerk

let fast = Sim.ms 20
let slow = Sim.ms 50

(* Probe reads go to a 1 MB region inside the superblock area, past
   the superblock, which the file system never touches; it is written
   once at set-up so every probe reads committed data. *)
let region = Frangipani.Layout.tb / 2
let region_bytes = 1024 * 1024
let io = 4096

type t = {
  vd : Petal.Client.vdisk;
  a : Clerk.t;
  b : Clerk.t;
  rng : Random.State.t;
  read : Record.Vec.t;
  acquire : Record.Vec.t;
  revoke : Record.Vec.t;
  mutable failures : int;
  mutable stop : bool;
}

let create tb ~seed =
  let _, rpc_a = T.fresh_client tb "probe-a" in
  let _, rpc_b = T.fresh_client tb "probe-b" in
  let vd = T.open_vdisk tb ~rpc:rpc_a tb.T.vdisk_id in
  Petal.Client.write vd ~off:region (Bytes.make region_bytes 'p');
  let clerk rpc = Clerk.create ~rpc ~servers:tb.T.lock_addrs ~table:"probe" () in
  {
    vd;
    a = clerk rpc_a;
    b = clerk rpc_b;
    rng = Random.State.make [| seed; 0x9e37 |];
    read = Record.Vec.create ();
    acquire = Record.Vec.create ();
    revoke = Record.Vec.create ();
    failures = 0;
    stop = false;
  }

(* Time [f] as a probe span. *)
let timed (r : Record.t) ~name ~layer ~host vec f =
  let id = Record.fresh_id r and t0 = Sim.now () in
  f ();
  Record.Vec.push vec (Sim.now () - t0);
  Record.add_span r ~id ~name ~layer ~host ~start_ns:t0 ~parent:(-1)

(* Start probe [f k] every [period], each in its own process so a slow
   probe never delays the next; a raising probe is counted, not fatal. *)
let every t period f =
  let k = ref 0 in
  Sim.spawn (fun () ->
      while not t.stop do
        Sim.sleep period;
        if not t.stop then begin
          incr k;
          let k = !k in
          Sim.spawn (fun () -> try f k with _ -> t.failures <- t.failures + 1)
        end
      done)

let start t (r : Record.t) =
  let w = Locksvc.Types.W in
  every t fast (fun _ ->
      let off = region + (Random.State.int t.rng (region_bytes / io) * io) in
      timed r ~name:"probe_read" ~layer:"petal" ~host:"probe-a" t.read (fun () ->
          ignore (Petal.Client.read t.vd ~off ~len:io)));
  every t fast (fun k ->
      let lock = 1_000_000 + k in
      timed r ~name:"probe_acquire" ~layer:"locksvc" ~host:"probe-a" t.acquire (fun () ->
          Clerk.acquire t.a ~lock w);
      Clerk.release t.a ~lock w);
  every t slow (fun k ->
      let lock = 2_000_000 + k in
      Clerk.acquire t.a ~lock w;
      Clerk.release t.a ~lock w;
      timed r ~name:"probe_revoke" ~layer:"locksvc" ~host:"probe-b" t.revoke (fun () ->
          Clerk.acquire t.b ~lock w);
      Clerk.release t.b ~lock w)

let stop t = t.stop <- true

let snapshot (w : Workload.run) res =
  Json.Obj
    [
      ("type", Json.Str "snapshot");
      ("t_ns", Json.Num (float_of_int (Sim.now ())));
      ("counters", Counters.to_json (Counters.take w) res);
    ]

(* Counter snapshots at the start and then once per simulated second
   until [stopped]; the caller adds the final one. *)
let sample_every_second (w : Workload.run) res ~stopped =
  let snaps = ref [ snapshot w res ] in
  Sim.spawn (fun () ->
      while not !stopped do
        Sim.sleep (Sim.sec 1.0);
        if not !stopped then snaps := snapshot w res :: !snaps
      done);
  snaps
