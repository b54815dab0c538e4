(** Deterministic crash-point sweep harness.

    One [run] is one complete simulation: a two-server Frangipani
    cluster runs a fixed metadata-heavy workload on server [a] with
    {!Simkit.Faultpoint} sites enabled at every durability boundary
    (disk and NVRAM writes, Petal chunk mutations, WAL append/commit,
    cache write-back, recovery replay). A counting run ([crash_at =
    0]) tallies how many times the faultpoints fire; an armed run
    crashes [a] at exactly the k-th hit, waits out the lease, lets
    the surviving server [b] recover the dead log, and checks the
    §4/§6 guarantees:

    - the file system is fsck-clean,
    - data synced before the faults were enabled survives,
    - replaying the dead log a second time is a byte-level no-op.

    Because the simulation is seeded and the faultpoint schedule is
    part of it, the k-th hit of an armed run is the same program
    point as the k-th hit of the counting run — sweeping k over
    [1..N] crashes the server at every durability boundary the
    workload crosses. *)

open Simkit
module Fs = Frangipani.Fs

type outcome = {
  crash_at : int;  (** 0 = counting run (no crash) *)
  total_hits : int;  (** faultpoint hits up to workload end / crash+recovery *)
  sites : (string * int) list;  (** per-site hit counts *)
  crashed : bool;
  fsck_findings : string list;  (** pretty-printed; [] = clean *)
  survivor_ok : bool;  (** synced checkpoint data readable from the peer *)
  replay_idempotent : bool;  (** second replay left the disk image unchanged *)
  recoveries : int;  (** replays the peer ran (before our manual one) *)
  diffs_applied : int;
  torn_tails : int;  (** replays that found a torn log tail *)
}

(* Files made durable (synced) before any fault can fire: whatever
   the crash point, these must survive. *)
let checkpoint_spec = [ ("alpha", 3000, 11); ("beta", 9000, 12); ("gamma", 300, 13) ]

let write_checkpoint fs =
  let ck = Fs.mkdir fs ~dir:Fs.root "ck" in
  List.iter
    (fun (name, size, seed) ->
      let f = Fs.create fs ~dir:ck name in
      Fs.write fs f ~off:0 (Invariants.bytes_pat size seed))
    checkpoint_spec;
  Fs.sync fs

(* The churn phase: a fixed mix of creates, writes, renames, unlinks,
   truncates and fsyncs. With [synchronous_log] every metadata op is
   a group commit, so this crosses well over 50 durability
   boundaries. Must be deterministic — the sweep relies on hit k
   meaning the same instant in every run. *)
let churn fs =
  let d = Fs.mkdir fs ~dir:Fs.root "churn" in
  let live = ref [] in
  for i = 0 to 11 do
    let name = Printf.sprintf "f%02d" i in
    let f = Fs.create fs ~dir:d name in
    Fs.write fs f ~off:0 (Invariants.bytes_pat (512 * (1 + (i mod 5))) i);
    live := name :: !live;
    (match i mod 4 with
    | 1 ->
      Fs.rename fs ~sdir:d name ~ddir:d (name ^ ".r");
      live := (name ^ ".r") :: List.tl !live
    | 3 -> (
      match List.rev !live with
      | oldest :: _ ->
        Fs.unlink fs ~dir:d oldest;
        live := List.filter (fun x -> x <> oldest) !live
      | [] -> ())
    | _ -> ());
    if i mod 5 = 2 then Fs.fsync fs f;
    if i mod 6 = 4 then Fs.truncate fs f ~size:100
  done;
  Fs.sync fs

let snapshot_sectors vd addrs =
  List.map
    (fun addr -> Petal.Client.read vd ~off:addr ~len:Frangipani.Layout.sector)
    addrs

let run ?(crash_at = 0) ?(nvram = false) () =
  Sim.run ~until:(Sim.sec 3600.0) (fun () ->
      Faultpoint.reset ();
      let t = Testbed.build ~petal_servers:3 ~ndisks:2 ~nvram ~ngroups:16 () in
      let a =
        Testbed.add_server t ~config:Invariants.sweep_config ~name:"sweep-a" ()
      in
      let b = Testbed.add_server t ~name:"sweep-b" () in
      write_checkpoint a;
      let crashed = Sim.Ivar.create () in
      if crash_at > 0 then
        Faultpoint.arm ~at:crash_at
          (Faultpoint.Crash
             (fun _site ->
               Cluster.Host.crash (Fs.host a);
               Sim.Ivar.fill crashed ()));
      Faultpoint.enable ();
      let wl_done = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          (try churn a with
          | Cluster.Host.Crashed _ | Locksvc.Types.Lease_expired
          | Frangipani.Errors.Error _ | Petal.Protocol.Unavailable _
          -> ());
          Sim.Ivar.fill wl_done ());
      if crash_at = 0 then begin
        (* Counting run: no crash; the workload must leave a clean,
           intact file system, and its hit total bounds the sweep. *)
        Sim.Ivar.read wl_done;
        let survivor_ok =
          List.for_all
            (fun (name, size, seed) ->
              let ck = Fs.lookup a ~dir:Fs.root "ck" in
              let f = Fs.lookup a ~dir:ck name in
              Bytes.equal
                (Fs.read a f ~off:0 ~len:size)
                (Invariants.bytes_pat size seed))
            checkpoint_spec
        in
        {
          crash_at;
          total_hits = Faultpoint.total ();
          sites = Faultpoint.counts ();
          crashed = false;
          fsck_findings = Invariants.fsck a;
          survivor_ok;
          replay_idempotent = true;
          recoveries = 0;
          diffs_applied = 0;
          torn_tails = 0;
        }
      end
      else begin
        Sim.Ivar.read crashed;
        (* Lease expiry (30 s) plus nag retries: by now the lock
           service has had [b] replay the dead log. *)
        Sim.sleep (Sim.sec 90.0);
        let stats = Fs.recovery_stats b in
        (* Replay-idempotence: run the dead server's log once more
           from [b] by hand and require the disk image over every
           sector the log addresses to be byte-identical. *)
        let slot = Fs.log_slot a in
        let vd = b.Frangipani.Ctx.vd in
        let report = Frangipani.Wal.scan_report vd ~slot in
        let addrs =
          List.sort_uniq compare
            (List.map
               (fun (d : Frangipani.Wal.diff) -> d.addr)
               report.Frangipani.Wal.diffs)
        in
        let before = snapshot_sectors vd addrs in
        Frangipani.Recovery.run b ~dead_lease:slot;
        let after = snapshot_sectors vd addrs in
        let replay_idempotent = List.for_all2 Bytes.equal before after in
        let survivor_ok =
          try
            let ck = Fs.lookup b ~dir:Fs.root "ck" in
            List.for_all
              (fun (name, size, seed) ->
                let f = Fs.lookup b ~dir:ck name in
                Bytes.equal
                  (Fs.read b f ~off:0 ~len:size)
                  (Invariants.bytes_pat size seed))
              checkpoint_spec
          with _ -> false
        in
        {
          crash_at;
          total_hits = Faultpoint.total ();
          sites = Faultpoint.counts ();
          crashed = true;
          fsck_findings = Invariants.fsck b;
          survivor_ok;
          replay_idempotent;
          recoveries = stats.Fs.replays;
          diffs_applied = stats.Fs.diffs_applied;
          torn_tails = stats.Fs.torn_tails;
        }
      end)

(** What an outcome violates; [] = all invariants held. *)
let failures o =
  let bad cond msg acc = if cond then msg :: acc else acc in
  []
  |> bad (o.fsck_findings <> [])
       (Printf.sprintf "fsck: %s" (String.concat "; " o.fsck_findings))
  |> bad (not o.survivor_ok) "synced checkpoint data lost"
  |> bad (not o.replay_idempotent) "second replay changed the disk image"
  |> bad (o.crash_at > 0 && not o.crashed) "crash point never fired"
  |> bad (o.crash_at > 0 && o.recoveries < 1) "no recovery replay happened"
  |> List.rev
