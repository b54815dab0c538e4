(** The shared invariant engine of the fault-injection harnesses.

    {!Crashsweep} and the three {!Soak} profiles (partition,
    reconfiguration, composed) all argue the same §5–§7 guarantees
    from different fault families; this module holds the common teeth
    so every harness checks them the same way:

    - the {e acked-ops-survive} ledger: an operation whose op +
      [Fs.sync] both returned must be readable, bytes intact, from a
      fresh server after everything heals;
    - the settle loops: drain Petal's degraded/push backlog, wait out
      pending transfers and the post-cutover GC, await a log replay on
      a fresh server after an unclean unmount;
    - the §6 freshness probe (no lapsed-stamp write ever applied);
    - the fsck wrapper;
    - a counting check engine that timestamps every violation, so a
      long soak can report {e when} an invariant first broke and
      {!Soak}'s replay driver can dump it. *)

open Simkit
module Fs = Frangipani.Fs

let bytes_pat n seed = Bytes.init n (fun i -> Char.chr ((i * 7 + seed) land 0xff))

(* Synchronous logging makes "op returned" mean "op is in the log",
   which is what the acked ledger asserts survives. *)
let sweep_config = { Frangipani.Ctx.default_config with synchronous_log = true }

let pp_findings fs = List.map (Format.asprintf "%a" Frangipani.Fsck.pp_finding) fs

let fsck fs = pp_findings (Frangipani.Fsck.check fs)

let sum f servers = Array.fold_left (fun acc s -> acc + f s) 0 servers

(* --- the check engine -------------------------------------------------- *)

(** Counts every invariant evaluation and records each violation with
    the simulated time it was observed. *)
type engine = {
  mutable checks : int;
  mutable viols : (int * string) list;  (* newest first *)
}

let engine () = { checks = 0; viols = [] }

let check e cond msg =
  e.checks <- e.checks + 1;
  if not cond then e.viols <- (Sim.now (), msg) :: e.viols

let checks_run e = e.checks
let violations e = List.rev e.viols
let first_violation e = match List.rev e.viols with v :: _ -> Some v | [] -> None

(* --- the acked-ops ledger ---------------------------------------------- *)

(** Operations the workload saw acked (op + sync both returned), each
    a root-relative path and the exact bytes that must survive. *)
type ledger = {
  mutable entries : (string list * bytes) list;  (* newest first *)
  mutable count : int;
}

let ledger () = { entries = []; count = 0 }

let ack l ~path data =
  l.entries <- (path, data) :: l.entries;
  l.count <- l.count + 1

(* Withdraw the most recently acked entry (the workers unlink it next,
   and the ledger never asserts absence). *)
let pop_latest l =
  match l.entries with
  | [] -> None
  | e :: rest ->
    l.entries <- rest;
    l.count <- l.count - 1;
    Some e

let acked_count l = l.count

let resolve fs path =
  List.fold_left (fun dir name -> Fs.lookup fs ~dir name) Fs.root path

let verify_entries entries fs =
  List.filter_map
    (fun (path, data) ->
      let name = String.concat "/" path in
      match Fs.read fs (resolve fs path) ~off:0 ~len:(Bytes.length data) with
      | got -> if Bytes.equal got data then None else Some (name ^ ": corrupt")
      | exception _ -> Some (name ^ ": missing"))
    entries

(* Every acked entry, read back through [fs]: the list of entries that
   are missing or corrupt ([] = the ledger invariant holds). Oldest
   first, so a failure report reads chronologically. *)
let verify l fs = verify_entries (List.rev l.entries) fs

(* A stable sample of the ledger: skip the [skip] newest entries (the
   only ones a workload may still unlink or rename) and return up to
   [n] of the next-newest. The soak's mid-flight spot checks — a
   quiesce checkpoint, a snapshot mount — verify these without paying
   for a full-ledger sweep, and without racing the workload's own
   pop-and-unlink moves. *)
let recent l ~skip ~n =
  let rec go sk nn = function
    | [] -> []
    | _ :: tl when sk > 0 -> go (sk - 1) nn tl
    | _ when nn = 0 -> []
    | e :: tl -> e :: go 0 (nn - 1) tl
  in
  go skip n l.entries

(* --- workload-exception classification --------------------------------- *)

(** How a workload op failed: the server's lease died (poisoned — the
    worker must stop), or a transient fault the worker rides out. *)
type op_error = Expired | Failed

let classify fs = function
  | Locksvc.Types.Lease_expired -> Expired
  | Frangipani.Errors.Error _ | Petal.Protocol.Unavailable _
  | Petal.Protocol.Stale_write _ | Cluster.Host.Crashed _ | Failure _ ->
    if Fs.is_poisoned fs then Expired else Failed
  | ex -> raise ex

(* A {!Vfs.t} whose every operation swallows workload failures
   (counting them in [failed]) instead of raising: ambient background
   traffic under an active nemesis must degrade, not kill the run.
   Failed creates/lookups return inum [-1]; later ops on it fail and
   are swallowed in turn. *)
let shield ?(failed = ref 0) (v : Vfs.t) =
  let swallow0 dflt f = try f () with _ -> incr failed; dflt in
  let swallow f = swallow0 () f in
  {
    v with
    Vfs.create = (fun ~dir name -> swallow0 (-1) (fun () -> v.Vfs.create ~dir name));
    mkdir = (fun ~dir name -> swallow0 (-1) (fun () -> v.Vfs.mkdir ~dir name));
    symlink =
      (fun ~dir name ~target ->
        swallow0 (-1) (fun () -> v.Vfs.symlink ~dir name ~target));
    lookup = (fun ~dir name -> swallow0 (-1) (fun () -> v.Vfs.lookup ~dir name));
    readdir = (fun d -> swallow0 [] (fun () -> v.Vfs.readdir d));
    readlink = (fun i -> swallow0 "" (fun () -> v.Vfs.readlink i));
    link = (fun ~dir name ~inum -> swallow (fun () -> v.Vfs.link ~dir name ~inum));
    unlink = (fun ~dir name -> swallow (fun () -> v.Vfs.unlink ~dir name));
    rmdir = (fun ~dir name -> swallow (fun () -> v.Vfs.rmdir ~dir name));
    rename =
      (fun ~sdir sname ~ddir dname ->
        swallow (fun () -> v.Vfs.rename ~sdir sname ~ddir dname));
    read =
      (fun i ~off ~len -> swallow0 (Bytes.create 0) (fun () -> v.Vfs.read i ~off ~len));
    write = (fun i ~off data -> swallow (fun () -> v.Vfs.write i ~off data));
    truncate = (fun i ~size -> swallow (fun () -> v.Vfs.truncate i ~size));
    size = (fun i -> swallow0 0 (fun () -> v.Vfs.size i));
    fsync = (fun i -> swallow (fun () -> v.Vfs.fsync i));
    sync = (fun () -> swallow (fun () -> v.Vfs.sync ()));
    drop_caches = (fun () -> swallow (fun () -> v.Vfs.drop_caches ()));
  }

(* --- settle loops ------------------------------------------------------- *)

(* Wait for Petal's degraded/push backlog to drain cluster-wide;
   returns what is left after [rounds] 5 s polls (0 = converged, the
   replica-convergence invariant). *)
let drain_backlog ?(rounds = 24) servers =
  let degraded () = sum Petal.Server.degraded_count servers in
  let rec go n =
    if degraded () = 0 || n = 0 then degraded ()
    else begin
      Sim.sleep (Sim.sec 5.0);
      go (n - 1)
    end
  in
  go rounds

(* Wait out any still-pending transfer and the post-cutover GC of
   chunks on non-owners; returns (pending_left, leftover_chunks) —
   (false, 0) is the reconfiguration-settles invariant. *)
let settle_transfers ?(rounds = 24) servers =
  let pending_any () = Array.exists Petal.Server.pending_transfer servers in
  let leftover () = sum Petal.Server.nonowned_chunk_count servers in
  let rec go n =
    if (pending_any () || leftover () > 0) && n > 0 then begin
      Sim.sleep (Sim.sec 5.0);
      go (n - 1)
    end
  in
  go rounds;
  (pending_any (), leftover ())

(* After an unclean unmount, wait until a fresh server [fs] has
   replayed the dead server's log (the lock service's nag has to
   reach it first), then give the replay time to finish. *)
let await_replay ?(rounds = 36) fs =
  let rec go n =
    if n > 0 && (Fs.recovery_stats fs).Fs.replays = 0 then begin
      Sim.sleep (Sim.sec 5.0);
      go (n - 1)
    end
  in
  go rounds;
  Sim.sleep (Sim.sec 30.0)
