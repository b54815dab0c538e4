(** Wire protocol and shared definitions of the distributed lock
    service (paper §6, the third — fully distributed — design).

    Locks live in tables named by ASCII strings (one table per file
    system) and are named by integers within a table. Locks are
    partitioned into {!ngroups} lock groups by aligned runs of
    {!run_length} ids: the ids of one run share a group, and the runs
    hash over the groups. Group [g] is served by the [g mod n]-th of
    the [n] live lock servers, a deterministic rule every party
    derives from the Paxos-replicated server list. §6 assigns locks
    to servers "by group, not individually" and leaves the mapping
    open.

    Clerks and lock servers communicate through asynchronous
    [request] / [grant] / [revoke] / [release] messages, as in the
    paper; opens and membership changes go through Paxos. Requests
    and grants pass through a per-peer {!Outbox}: those made for one
    peer in one simulated instant leave as one [L_requests] or
    [L_grants] message. Every other message to that peer flushes its
    outbox first, so a revoke never overtakes a grant and a release
    never overtakes a request. *)

open Cluster

type mode = R | W

let mode_geq a b = match (a, b) with W, _ -> true | R, R -> true | R, W -> false

let default_ngroups = 100

(* Timing constants (paper values). *)
let lease_period = Simkit.Sim.sec 30.0
let renew_interval = Simkit.Sim.sec 10.0
let lease_margin = Simkit.Sim.sec 15.0
let idle_discard = Simkit.Sim.sec 3600.0 (* sticky locks dropped after 1 h idle *)

(** Replicated global state commands: the "small amount of global
    state information that does not change often" (§6). *)
type cmd =
  | Add_clerk of { table : string; addr : Net.addr }
  | Remove_clerk of { table : string; lease : int }
  | Add_server of { addr : Net.addr }
  | Remove_server of { addr : Net.addr }

type Net.payload +=
  (* clerk <-> server RPCs *)
  | L_open of { table : string }
  | L_opened of { lease : int; servers : Net.addr list; ngroups : int }
  | L_close of { table : string; lease : int }
  | L_closed
  | L_renew of { lease : int }
  | L_renewed
  | L_sync
  | L_synced of { servers : Net.addr list }
  (* asynchronous lock traffic *)
  | L_requests of {
      table : string;
      lease : int;
      reqs : (int * mode * bool) list;  (** lock, mode, for_recovery *)
    }  (** one or more lock requests for one server, in order *)
  | L_grants of { grants : (string * int * mode) list }
      (** one or more grants (table, lock, mode) for one clerk
          machine, in order *)
  | L_revoke of { table : string; lock : int; to_mode : mode option }
      (** [to_mode = Some R]: downgrade; [None]: release. *)
  | L_release of { table : string; lease : int; lock : int; to_mode : mode option }
  (* failure handling *)
  | L_do_recovery of { table : string; dead_lease : int }
  | L_recovered of { table : string; dead_lease : int }
  | L_get_state of { table : string; group : int }
  | L_state of { held : (string * int * mode) list }
  | S_heartbeat of { renewed : (int * Simkit.Sim.time) list }
      (** server -> server every 2 s: alive, and these leases renewed
          here since the last heartbeat, each at the instant given;
          the receiver moves its lease clock up to it, never back. A
          lock server cut from a clerk must not expire a lease the
          clerk still renews through its peers: the lock service is
          one logical service (§6). *)
  | L_err of string

let msg = 64 (* nominal size of the small lock-protocol messages *)

(* Size of an [L_requests] / [L_grants] message carrying [n] items:
   a lone item costs the nominal [msg], each item of a batch 16 bytes
   more. *)
let batch_size n = if n = 1 then msg else msg + (16 * n)

(* Lock ids are grouped in aligned runs of [run_length]: ids [8k] to
   [8k + 7] share a lock group, hence a lock server. [Alloc.batch] is
   defined as this constant, so a fresh-inode batch of 8 consecutive
   inode numbers starting at a multiple of 8 costs one request and one
   grant message. A batch that starts off a boundary, or skips bits
   (set by another server, root inode 0, a short sector tail),
   spreads over two or more runs and costs one message each way per
   lock server those runs map to. *)
let run_length = 8

let group_of ~ngroups ~table ~lock = Hashtbl.hash (table, lock / run_length) mod ngroups

(* Group [g] is served by the [g mod n]-th of the [n] live lock
   servers; [None] while there are none. *)
let group_owner servers g =
  match servers with
  | [] -> None
  | _ -> Some (List.nth servers (g mod List.length servers))

let owner_of ~servers ~ngroups ~table ~lock =
  group_owner servers (group_of ~ngroups ~table ~lock)

exception Lease_expired
(** Raised by clerk operations after the clerk's lease has lapsed
    (network partition from the lock service); the file system must
    be unmounted to clear the condition (paper §6). *)
