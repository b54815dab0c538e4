(** The state of one Frangipani server (one mount of one file
    system), threaded through every operation. *)

open Simkit

(** The Unix update-demon period (§4). *)
let sync_interval = Sim.sec 30.0

(* FS-layer copy cost and fixed per-call overhead, calibrated to
   Table 3. *)
let cpu_ns_per_byte = 22
let cpu_per_op = Sim.us 40

type config = {
  synchronous_log : bool;  (** flush the log on every metadata op (§4 option) *)
  read_ahead : int;
      (** cap of the ramped read-ahead window, in 4 KB blocks; 0
          disables read-ahead *)
  block_locks : bool;  (** finer-granularity locking ablation (§2.3) *)
}

let default_config =
  {
    synchronous_log = false;
    (* Up to 1 MB of sequential prefetch, submitted as one batched
       scatter-gather fetch that overlaps the foreground read. The
       window ramps up to this cap along a sequential run
       ({!read_ahead_window}); at the cap it covers the
       bandwidth-delay product of a client link to a loaded Petal. *)
    read_ahead = 256;
    block_locks = false;
  }

(** This server's recovery-demon counters (replays of other servers'
    logs); {!Fs.recovery_stats} hands out copies. *)
type recovery_stats = {
  mutable replays : int;  (** recovery replays started on this server *)
  mutable diffs_applied : int;  (** diffs whose version won (written) *)
  mutable diffs_skipped : int;
      (** diffs superseded by a newer one of their sector, or already on
          disk (version check) *)
  mutable torn_tails : int;  (** replays whose log ended in a torn record *)
}

type t = {
  host : Cluster.Host.t;
  config : config;
  rpc : Cluster.Rpc.t;  (** the machine's RPC endpoint, for counters *)
  vd : Petal.Client.vdisk;
  clerk : Locksvc.Clerk.t;
  cache : Cache.t;
  wal : Wal.t;
  slot : int;  (** private log slot, [lease mod 256] (§7) *)
  alloc : Alloc_state.t;
  readonly : bool;
  mutable poisoned : bool;
      (** lease expired with dirty data: all operations fail until
          unmount (§6) *)
  mutable unmounted : bool;
  recovery : recovery_stats;
  read_ahead_next : (int, int * int) Hashtbl.t;
      (** inum -> (predicted next offset, bytes read sequentially up
          to it); the offset is -1 after an invalidating revoke *)
  shed_holds : (int, (bool ref * Locksvc.Types.mode) list) Hashtbl.t;
      (** lock -> discretionary holds on it (in-flight prefetches in R,
          fresh-inode batch refills in W) with their shed flags — what
          a contended revoke sheds *)
}

let usable t = not (t.poisoned || t.unmounted)

let check_usable t = if not (usable t) then Errors.fail Errors.Eio

let charge_op t = Cluster.Host.consume t.host cpu_per_op

let charge_bytes t n =
  if n > 0 then Cluster.Host.consume t.host (n * cpu_ns_per_byte)

(* --- read-ahead bookkeeping --------------------------------------------- *)

(* The sequential-access predictor must not grow with the number of
   files ever read: entries are dropped when their inode is destroyed
   or truncated to zero, and a table that reaches the cap is emptied
   (losing an entry only costs one missed prefetch window). *)
let read_ahead_table_cap = 512

(* Record a read of [len] bytes at [off] and return the prefetch depth
   past it, in blocks. Only a sequential read prefetches: one that
   starts where the previous one ended, or at the head of a file not
   read here before (the UFS heuristic); a read after an invalidating
   revoke never counts. The depth ramps with the run, the bytes read
   sequentially before this read: a quarter of the cap plus the run, up
   to the cap. A cold reader's first window is small, so its next read
   does not queue behind a full-depth fetch; a long stream keeps the
   whole cap in flight. A read that is not sequential, or starts at
   offset 0, restarts the run. *)
let read_ahead_window t ~inum ~off ~len =
  let run =
    match Hashtbl.find_opt t.read_ahead_next inum with
    | Some (next, run) when off = next -> Some run
    | Some _ -> None
    | None -> if off = 0 then Some 0 else None
  in
  if
    Hashtbl.length t.read_ahead_next >= read_ahead_table_cap
    && not (Hashtbl.mem t.read_ahead_next inum)
  then Hashtbl.reset t.read_ahead_next;
  Hashtbl.replace t.read_ahead_next inum
    (off + len, match run with Some run when off > 0 -> run + len | _ -> 0);
  match run with
  | Some run ->
    let cap = t.config.read_ahead in
    min cap ((cap / 4) + (run / Layout.block))
  | None -> 0

let forget_read_ahead t inum = Hashtbl.remove t.read_ahead_next inum

(* An invalidating revoke discarded the file's cache, and with it any
   window a prefetch brought in: the next read predicts nothing (no
   read starts at a negative offset), so only a second read in a row,
   with no revoke between, prefetches again. A file with no entry was
   never read here and keeps the offset-0 rule. *)
let disarm_read_ahead t inum =
  if Hashtbl.mem t.read_ahead_next inum then
    Hashtbl.replace t.read_ahead_next inum (-1, 0)

(* Registry of discretionary holds, keyed by lock: an in-flight
   prefetch's inherited R hold, a fresh-inode batch refill's W holds.
   A contended revoke sheds every hold under the lock ([holds_shed])
   and sets its flag; the holder takes its own entry back when done
   ([hold_take]) — whoever gets the entry out of the table does the
   lock release, so it happens exactly once. *)
let hold_register t ~lock mode c =
  Hashtbl.replace t.shed_holds lock
    ((c, mode) :: Option.value ~default:[] (Hashtbl.find_opt t.shed_holds lock))

let hold_take t ~lock c =
  match Hashtbl.find_opt t.shed_holds lock with
  | Some hs when List.exists (fun (x, _) -> x == c) hs ->
    (match List.filter (fun (x, _) -> not (x == c)) hs with
    | [] -> Hashtbl.remove t.shed_holds lock
    | rest -> Hashtbl.replace t.shed_holds lock rest);
    true
  | Some _ | None -> false

let holds_shed t ~lock =
  match Hashtbl.find_opt t.shed_holds lock with
  | None -> []
  | Some hs ->
    Hashtbl.remove t.shed_holds lock;
    hs

(** The data lock covering a given data block of a file: the whole
    file's lock normally, a per-block lock in the ablation mode. *)
let data_lock t ~inum ~addr =
  if t.config.block_locks then Lockns.block_lock addr else Lockns.inode_lock inum
