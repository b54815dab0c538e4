open Simkit
open Cluster
open Protocol
module P = Paxos_group.P

type vinfo = {
  root : int;
  mutable epoch : int;
  frozen : int option; (* Some e: snapshot frozen at epoch e (read-only) *)
  nrep : int;
}

(* One stored version of a chunk: the extent written during [epoch]. *)
type version = { epoch : int; loc : int * int (* disk index, offset *) }

(* A reconfiguration in flight: the Paxos log has agreed on a new
   active set, the old map is still authoritative for data traffic,
   and owners are streaming the affected chunks to their future
   owners. [target_epoch] is the map epoch [Complete_transfer] will
   commit. *)
type pending = { target : int array; target_epoch : int }

type stats = {
  mutable stale_applied : int;
  mutable wrong_epoch_rejects : int;
  mutable freeze_rejects : int;
  mutable max_cutover : Sim.time;
  mutable xfer_pushes : int;
  mutable xfer_bytes : int;
  mutable gc_chunks : int;
  mutable snap_gc_chunks : int;
}

type t = {
  host : Host.t;
  rpc : Rpc.t;
  members : Net.addr array;
      (* the fixed provisioned-member set (all Paxos peers); which of
         them serve data is the dynamic [active] map below *)
  index : int;
  disks : Blockdev.Storage.t array;
  (* (vdisk root, chunk index) -> versions, newest first *)
  chunks : (int * int, version list ref) Hashtbl.t;
  (* Serializes mutations of one chunk: writing a fresh extent blocks
     on raw-disk I/O between reading the version list and installing
     the new head, so two concurrent writes to the same chunk would
     each otherwise build a base missing the other's data and the
     loser's bytes would silently read back as zeros. *)
  wlocks : (int * int, Sim.Resource.t) Hashtbl.t;
  vdisks : (int, vinfo) Hashtbl.t;
  mutable next_id : int;
  slot_ids : (int, int) Hashtbl.t; (* paxos slot -> id assigned by apply *)
  paxos : P.t;
  next_off : int array; (* per-disk allocation frontier *)
  free : int list ref array; (* per-disk extent free lists *)
  mutable alloc_rr : int;
  mutable allocated : int;
  (* --- dynamic ownership map (replicated via the Paxos log) --------- *)
  mutable active : int array; (* sorted member indexes serving data *)
  mutable mepoch : int; (* committed map epoch *)
  mutable pending : pending option;
  (* When this server's apply installed [pending]. Drives the
     drain-time write freeze: past a grace period, client mutations of
     chunks whose owner set actually changes are rejected with
     [Wrong_epoch] (the client waits and retries), so the push backlog
     can only shrink and a relentless hot-chunk writer can no longer
     re-mark its chunk forever and defer the cutover. Also the base of
     the per-cutover latency the soak bounds. *)
  mutable pending_since : Sim.time;
  (* Byte ranges within chunks whose replica on [peer] is known stale
     (a degraded write happened while it was unreachable); the resync
     daemon pushes them when the peer comes back. Ranges, not whole
     chunks: after an asymmetric fault BOTH replicas can hold writes
     the other missed (primary took forwarded-write failures while
     the secondary took solo writes), and a whole-chunk push in
     either direction would overwrite the peer's newer bytes. Pushing
     only what the peer provably missed makes resync converge to the
     union of the surviving writes.

     Reconfiguration reuses this machinery wholesale: starting a
     transfer marks every affected chunk degraded toward its future
     owner, and writes accepted under the old map while the transfer
     is pending mark their byte range the same way — so the ordinary
     resync daemon is also the ownership-handoff stream, and "the
     transfer has drained" is exactly "the degraded backlog is
     empty". *)
  (* Each range carries the time its bytes were written, so a push
     can tell the receiver how fresh its copy is (see [Repl_req]).
     The whole entry also carries the generation of its latest mark:
     a push reads the chunk bytes, then blocks on disk and network,
     and a write landing in that window re-marks a range the push
     already read stale bytes for — the generation check stops the
     push completion from clearing it (see the resync daemon). *)
  degraded :
    (Net.addr, (int * int, (int * int * int) list * int) Hashtbl.t) Hashtbl.t;
  mutable mark_gen : int;
  (* §2.2's NFS-level security measure: when set, data and management
     requests are accepted only from these addresses (the trusted
     Frangipani server machines) and from Petal peers. *)
  mutable trusted : (Net.addr, unit) Hashtbl.t option;
  st : stats;
}

let host t = t.host
let index t = t.index
let stats t = { t.st with stale_applied = t.st.stale_applied }
let current_epoch t = t.mepoch
let current_active t = Array.to_list t.active
let pending_transfer t = t.pending <> None

let set_trusted t addrs =
  match addrs with
  | None -> t.trusted <- None
  | Some l ->
    let h = Hashtbl.create 8 in
    List.iter (fun a -> Hashtbl.replace h a ()) l;
    Array.iter (fun a -> Hashtbl.replace h a ()) t.members;
    t.trusted <- Some h

let authorized t src =
  match t.trusted with None -> true | Some h -> Hashtbl.mem h src

let degraded_set t peer =
  match Hashtbl.find_opt t.degraded peer with
  | Some set -> set
  | None ->
    let set = Hashtbl.create 16 in
    Hashtbl.replace t.degraded peer set;
    set

(* Stamped interval lists: sorted disjoint [a, b) segments, each
   carrying the write time of the bytes it covers. *)

(* Remove from [segs] the parts of [a, b) still stamped [<= upto];
   sub-ranges re-marked with a newer stamp survive. Used when a push
   completes but the entry was re-marked mid-flight: the pushed bytes
   are good for every sub-range whose stamp the push saw, and stale
   for any a concurrent write stamped afterwards. [~upto:max_int]
   removes [a, b) outright. *)
let seg_clear segs (a, b) ~upto =
  List.concat_map
    (fun (x, y, st) ->
      if y <= a || b <= x || st > upto then [ (x, y, st) ]
      else
        (if x < a then [ (x, a, st) ] else [])
        @ if b < y then [ (b, y, st) ] else [])
    segs

(* A new mark takes over whatever part of older segments it
   overlaps. *)
let seg_add (a, b, s) segs =
  let rec ins = function
    | (x, y, st) :: rest when x < a -> (x, y, st) :: ins rest
    | rest -> (a, b, s) :: rest
  in
  ins (seg_clear segs (a, b) ~upto:max_int)

(* Remove [a, b) from a plain range. *)
let range_sub (x, y) (a, b) =
  if y <= a || b <= x then [ (x, y) ]
  else (if x < a then [ (x, a) ] else []) @ if b < y then [ (b, y) ] else []

let mark_degraded t ~peer ~root ~chunk ~within ~len ~stamp =
  let set = degraded_set t peer in
  let cur =
    match Hashtbl.find_opt set (root, chunk) with
    | Some (segs, _) -> segs
    | None -> []
  in
  t.mark_gen <- t.mark_gen + 1;
  Hashtbl.replace set (root, chunk)
    (seg_add (within, within + len, stamp) cur, t.mark_gen)

let degraded_count t =
  Hashtbl.fold (fun _ set acc -> acc + Hashtbl.length set) t.degraded 0

(* The chunks some peer's backlog still names: the store keeps them
   until their ranges are pushed. *)
let backlog_chunks t =
  let referenced = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _ set -> Hashtbl.iter (fun k _ -> Hashtbl.replace referenced k ()) set)
    t.degraded;
  referenced

(* Debug tracing for sweep forensics; enabled via PETAL_TRACE=1. *)
let tracing = Sys.getenv_opt "PETAL_TRACE" <> None

let needle = Sys.getenv_opt "PETAL_TRACE_NEEDLE"

let data_has_needle ?(boff = 0) ?len data =
  match needle with
  | None -> false
  | Some n ->
    let nl = String.length n in
    let dl = boff + (match len with Some l -> l | None -> Bytes.length data - boff) in
    let rec at i =
      if i + nl > dl then false
      else if String.equal (Bytes.sub_string data i nl) n then true
      else at (i + 1)
    in
    at boff

let trace fmt =
  if tracing then Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr (fmt ^^ "\n%!")

let chunk_count t = Hashtbl.fold (fun _ vl acc -> acc + List.length !vl) t.chunks 0

let disk_bytes_allocated t = t.allocated

(* --- ownership map ---------------------------------------------------- *)

let nrep_of_root t root =
  Hashtbl.fold
    (fun _ (v : vinfo) acc -> if v.root = root then max acc v.nrep else acc)
    t.vdisks 1

let is_owner t ~root ~chunk ~nrep =
  List.mem t.index (owners t.active ~nrep ~root ~chunk)

(* The peer this server forwards replicated writes to: the other
   owner of the chunk under the committed map. *)
let replica_of t ~root ~chunk ~nrep =
  match owners t.active ~nrep ~root ~chunk with
  | [ a; b ] -> Some (if a = t.index then b else a)
  | _ -> None

(* While a transfer is pending, a mutation accepted under the old map
   must also reach the chunk's future owners: mark the byte range
   degraded toward every new owner that is not already an old owner,
   so the resync stream carries the delta. *)
let mark_transfer_delta t ~root ~chunk ~within ~len ~stamp =
  match t.pending with
  | None -> ()
  | Some p ->
    let nrep = nrep_of_root t root in
    let old_owners = owners t.active ~nrep ~root ~chunk in
    if List.mem t.index old_owners then
      List.iter
        (fun o ->
          if (not (List.mem o old_owners)) && o <> t.index then
            mark_degraded t ~peer:t.members.(o) ~root ~chunk ~within ~len ~stamp)
        (owners p.target ~nrep ~root ~chunk)

(* --- virtual-disk table maintenance (Paxos apply) ------------------- *)

let sorted_add active idx =
  Array.of_list (List.sort_uniq compare (idx :: Array.to_list active))

let sorted_remove active idx =
  Array.of_list (List.filter (fun i -> i <> idx) (Array.to_list active))

let any_frozen t =
  Hashtbl.fold (fun _ (v : vinfo) acc -> acc || v.frozen <> None) t.vdisks false

let free_extent t (d, off) =
  t.free.(d) := off :: !(t.free.(d));
  t.allocated <- t.allocated - chunk_bytes

(* Forget a stored chunk this server must not serve: free every
   version's extent and count it in [gc_chunks]. [why] tags the trace
   line. *)
let drop_chunk t ~why key vl =
  trace "t=%d %s %s root=%d chunk=%d" (Sim.now ()) why (Host.name t.host)
    (fst key) (snd key);
  List.iter (fun v -> free_extent t v.loc) !vl;
  Hashtbl.remove t.chunks key;
  t.st.gc_chunks <- t.st.gc_chunks + 1

(* A member outside the active set serves no traffic, so every chunk
   it still holds is a stale leftover from a previous tenure: its
   owners may have overwritten it since this member left, and a copy
   overwritten elsewhere is as stale as a freed one. Purge them when a
   transfer begins, before any push can arrive: once the new map
   makes this member an owner again, a leftover the GC had not freed
   yet would otherwise be served as live data. Skips chunks its own
   degraded sets still reference (conservative; an inactive member
   should have none). *)
let purge_stale_store t =
  let referenced = backlog_chunks t in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.chunks [] in
  List.iter
    (fun key ->
      if not (Hashtbl.mem referenced key) then
        drop_chunk t ~why:"PURGE" key (Hashtbl.find t.chunks key))
    (List.sort compare keys)

(* Open a transfer toward [target] and enumerate the obligations this
   server holds: every stored chunk it owns under the old map is
   marked (whole) degraded toward each of its future owners. Both old
   owners enumerate — duplicate pushes are idempotent and the
   redundancy keeps the transfer moving when one source crashes
   mid-stream. Pure table marking (no I/O), so it runs inline in the
   Paxos apply and a crash cannot leave the obligation half-recorded
   and forgotten. *)
let begin_transfer t target =
  t.pending <- Some { target; target_epoch = t.mepoch + 1 };
  t.pending_since <- Sim.now ();
  if not (Array.exists (( = ) t.index) t.active) then purge_stale_store t;
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.chunks [] in
  List.iter
    (fun (root, chunk) ->
      (* Stamp 0: the write times of a stored chunk's bytes are
         unknown, so the base copy must claim the lowest freshness —
         overstating would let it clobber a newer solo write at the
         receiver. Any real delta beats it; a stale base at the
         receiver is later corrected by the repair chain re-marking
         with true stamps. *)
      mark_transfer_delta t ~root ~chunk ~within:0 ~len:chunk_bytes ~stamp:0)
    (List.sort compare keys)

(* Apply a membership change toward [target]. [reached]: the map
   already is the goal state, so a duplicate proposal after a proposer
   crash must read as success. A retry of the pending reconfiguration
   succeeds, any other is refused while one is pending, and a new one
   opens a transfer only when [allowed]. *)
let reconfigure t ~target ~reached ~allowed =
  match t.pending with
  | None when reached -> true
  | Some p -> p.target = target
  | None ->
    if allowed then begin_transfer t target;
    allowed

(* A backlog entry can outlive its purpose: a failed forward recorded
   toward a member a later reconfiguration removed, or a handoff delta
   toward a chunk whose owners have since moved again. Such a peer now
   rejects the push forever (it fails [peer_push_ok] on the receiving
   side), which would wedge the drain — and with it any pending
   cutover. Drop entries whose peer is not an owner of the chunk under
   either the committed map or the pending target. Also run at
   cutover, where it drops the entries toward the old owners: their
   data migrated through the live ones. *)
let gc_stale_backlog t =
  Hashtbl.iter
    (fun peer set ->
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) set [] in
      List.iter
        (fun (root, chunk) ->
          let nrep = nrep_of_root t root in
          let has os = List.exists (fun o -> t.members.(o) = peer) os in
          let wanted =
            has (owners t.active ~nrep ~root ~chunk)
            ||
            match t.pending with
            | Some p -> has (owners p.target ~nrep ~root ~chunk)
            | None -> false
          in
          if not wanted then Hashtbl.remove set (root, chunk))
        (List.sort compare keys))
    t.degraded

(* Free the chunk versions of [root] that no remaining snapshot pins:
   a version survives iff it is the live head or the one some
   remaining snapshot's frozen epoch selects (the newest version at or
   below it — the [select_version] rule). Runs when a snapshot disk is
   deleted; never touches the head, so it cannot race a live write. *)
let gc_unpinned_versions t ~root =
  let pins =
    Hashtbl.fold
      (fun _ (v : vinfo) acc ->
        if v.root = root then
          match v.frozen with Some e -> e :: acc | None -> acc
        else acc)
      t.vdisks []
  in
  let keys =
    Hashtbl.fold
      (fun (r, c) _ acc -> if r = root then (r, c) :: acc else acc)
      t.chunks []
  in
  List.iter
    (fun key ->
      match Hashtbl.find_opt t.chunks key with
      | None -> ()
      | Some vl ->
        let is_head v = match !vl with h :: _ -> h == v | [] -> false in
        let keep v =
          is_head v
          || List.exists
               (fun e ->
                 match List.find_opt (fun v' -> v'.epoch <= e) !vl with
                 | Some v' -> v' == v
                 | None -> false)
               pins
        in
        let kept, dead = List.partition keep !vl in
        List.iter (fun v -> free_extent t v.loc) dead;
        t.st.snap_gc_chunks <- t.st.snap_gc_chunks + List.length dead;
        match kept with
        | [] -> Hashtbl.remove t.chunks key
        | kept -> vl := kept)
    (List.sort compare keys)

let apply t slot cmd =
  match cmd with
  | Create_vdisk { nrep } ->
    let id = t.next_id in
    t.next_id <- t.next_id + 1;
    Hashtbl.replace t.vdisks id { root = id; epoch = 0; frozen = None; nrep };
    Hashtbl.replace t.slot_ids slot id
  | Snapshot { src } -> (
    match Hashtbl.find_opt t.vdisks src with
    | None -> Hashtbl.replace t.slot_ids slot (-1)
    | Some _ when t.pending <> None ->
      (* The handoff stream carries only head-version bytes: bumping
         the CoW epoch mid-transfer would pin versions the new owners
         never receive, stranding the snapshot on the old owners. The
         client retries once the cutover commits. *)
      Hashtbl.replace t.slot_ids slot (-1)
    | Some v ->
      let id = t.next_id in
      t.next_id <- t.next_id + 1;
      Hashtbl.replace t.vdisks id
        { root = v.root; epoch = v.epoch; frozen = Some v.epoch; nrep = v.nrep };
      v.epoch <- v.epoch + 1;
      Hashtbl.replace t.slot_ids slot id)
  | Delete_vdisk { id } -> (
    match Hashtbl.find_opt t.vdisks id with
    | None -> Hashtbl.replace t.slot_ids slot 0 (* already gone: idempotent *)
    | Some { frozen = None; _ } ->
      Hashtbl.replace t.slot_ids slot (-1) (* live disks are not deletable *)
    | Some _ when t.pending <> None ->
      (* Version GC must not race the handoff enumeration. *)
      Hashtbl.replace t.slot_ids slot (-1)
    | Some v ->
      Hashtbl.remove t.vdisks id;
      gc_unpinned_versions t ~root:v.root;
      Hashtbl.replace t.slot_ids slot 0)
  | Add_server { idx } ->
    let ok =
      reconfigure t ~target:(sorted_add t.active idx)
        ~reached:(Array.exists (( = ) idx) t.active)
        ~allowed:
          (idx >= 0
          && idx < Array.length t.members
          && not (any_frozen t)
          (* snapshots pin old chunk versions the range-based transfer
             stream does not carry; reconfiguration is refused while
             any exist (see DESIGN.md) *))
    in
    Hashtbl.replace t.slot_ids slot (if ok then 0 else -1)
  | Remove_server { idx } ->
    let target = sorted_remove t.active idx in
    let ok =
      reconfigure t ~target
        ~reached:(not (Array.exists (( = ) idx) t.active))
        ~allowed:(Array.length target >= 2 && not (any_frozen t))
    in
    Hashtbl.replace t.slot_ids slot (if ok then 0 else -1)
  | Complete_transfer { target } ->
    (match t.pending with
    | Some p when p.target_epoch = target ->
      trace "t=%d CUTOVER %s epoch=%d" (Sim.now ()) (Host.name t.host) target;
      let lat = Sim.now () - t.pending_since in
      if lat > t.st.max_cutover then t.st.max_cutover <- lat;
      t.active <- p.target;
      t.mepoch <- target;
      t.pending <- None;
      gc_stale_backlog t
    | Some _ | None -> () (* duplicate or late proposal: no-op *));
    Hashtbl.replace t.slot_ids slot 0

(* --- physical extent allocation -------------------------------------- *)

let allocate t =
  let d = t.alloc_rr mod Array.length t.disks in
  t.alloc_rr <- t.alloc_rr + 1;
  t.allocated <- t.allocated + chunk_bytes;
  match !(t.free.(d)) with
  | off :: rest ->
    t.free.(d) := rest;
    (d, off)
  | [] ->
    let off = t.next_off.(d) in
    if off + chunk_bytes > t.disks.(d).Blockdev.Storage.capacity then
      failwith (Host.name t.host ^ ": petal server out of disk space");
    t.next_off.(d) <- off + chunk_bytes;
    (d, off)

(* --- chunk I/O -------------------------------------------------------- *)

let versions t key =
  match Hashtbl.find_opt t.chunks key with
  | Some vl -> vl
  | None ->
    let vl = ref [] in
    Hashtbl.replace t.chunks key vl;
    vl

let with_chunk_lock t key f =
  let lock =
    match Hashtbl.find_opt t.wlocks key with
    | Some l -> l
    | None ->
      let l = Sim.Resource.create ~capacity:1 "petal.chunk" in
      Hashtbl.replace t.wlocks key l;
      l
  in
  Sim.Resource.acquire lock;
  Fun.protect ~finally:(fun () -> Sim.Resource.release lock) f

let select_version vl sel =
  match sel with
  | Current -> ( match vl with v :: _ -> Some v | [] -> None)
  | At e -> List.find_opt (fun v -> v.epoch <= e) vl

exception Damaged
(* A media error (CRC) under this chunk: the caller falls back to the
   replica and triggers repair (§4: "Petal's built-in replication can
   ordinarily recover it"). *)

(* A read never inserts into the chunk table: an empty entry would be
   enumerated as a transfer obligation by [begin_transfer]. *)
let read_chunk t ~root ~chunk ~within ~len ~sel =
  let vl = match Hashtbl.find_opt t.chunks (root, chunk) with Some vl -> !vl | None -> [] in
  match select_version vl sel with
  | None -> Bytes.make len '\000'
  | Some { loc = d, off; _ } -> (
    try t.disks.(d).Blockdev.Storage.read ~off:(off + within) ~len
    with Blockdev.Disk.Bad_sector _ -> raise Damaged)

(* Overwrite the damaged extent with a clean copy (repairs the medium
   in our disk model, as a real remap-and-rewrite would). *)
let repair_chunk t ~root ~chunk ~data =
  with_chunk_lock t (root, chunk) @@ fun () ->
  match Hashtbl.find_opt t.chunks (root, chunk) with
  | Some { contents = { loc = d, off; _ } :: _ } when Bytes.length data = chunk_bytes ->
    t.disks.(d).Blockdev.Storage.write ~off data
  | _ -> ()

(* §6's proposed fix for the lease-expiry hazard: reject any write
   whose lease-derived expiration timestamp has already passed. *)
let expired expires = match expires with Some e -> Sim.now () > e | None -> false

exception Expired_stamp
(* Raised when a mutation's §6 stamp lapsed while it waited for the
   chunk lock; the handler turns it into the same rejection as an
   arrival-time check. *)

(* Record a freshly written extent: replace a same-epoch entry (a
   stale copy being repaired by resync); otherwise insert keeping the
   list sorted newest-first — a resync push may arrive with an older
   epoch than our head if a snapshot happened while the peer was
   down. *)
let place_version t vl ~epoch ~ext =
  let fresh = { epoch; loc = ext } in
  let rec place = function
    | v :: rest when v.epoch > epoch -> v :: place rest
    | v :: rest when v.epoch = epoch ->
      free_extent t v.loc;
      fresh :: rest
    | rest -> fresh :: rest
  in
  vl := place !vl

(* Write the [data[doff, doff+dlen)] slice into the chunk under epoch
   tag [epoch], copying an older extent first if a snapshot pinned it
   (copy-on-write). [data] is typically a shared RPC payload — sliced,
   never copied, and never mutated (the zero-copy ownership rule). *)
let write_chunk t ~root ~chunk ~within ~data ~doff ~dlen ~epoch ~expires =
  Faultpoint.hit "petal.chunk_write";
  with_chunk_lock t (root, chunk) @@ fun () ->
  trace "t=%d W %s root=%d chunk=%d w=%d len=%d hit=%b" (Sim.now ())
    (Host.name t.host) root chunk within dlen
    (data_has_needle ~boff:doff ~len:dlen data);
  (* Re-check the stamp once the chunk lock is held: queueing behind
     another mutation takes (simulated) time, and a stamp that lapsed
     in the queue must not reach the disk either. *)
  if expired expires then raise Expired_stamp;
  (* The copy-on-write base read below can block on the raw disk, so
     the stamp is audited once more at the actual disk-write instant;
     a hit here is a §6 invariant violation the lease margin is sized
     to prevent, and the partition sweep asserts it stays 0. *)
  let audit_stamp () =
    if expired expires then t.st.stale_applied <- t.st.stale_applied + 1
  in
  let vl = versions t (root, chunk) in
  let whole = dlen = chunk_bytes && within = 0 in
  match !vl with
  | { epoch = e; loc = d, off } :: _ when e = epoch ->
    audit_stamp ();
    t.disks.(d).Blockdev.Storage.write_sub ~off:(off + within) data ~boff:doff
      ~len:dlen
  | current ->
    (* Fresh extent needed: older epoch, or nothing stored yet. *)
    if whole then begin
      let d, off = allocate t in
      audit_stamp ();
      (* Whole-chunk write: the payload slice goes straight to storage
         (the store copies, or aliases an immutable payload). *)
      t.disks.(d).Blockdev.Storage.write_sub ~off data ~boff:doff ~len:dlen;
      place_version t vl ~epoch ~ext:(d, off)
    end
    else begin
      let base =
        match select_version current Current with
        | Some { loc = d, off; _ } -> t.disks.(d).Blockdev.Storage.read ~off ~len:chunk_bytes
        | None -> Bytes.make chunk_bytes '\000'
      in
      Bytes.blit data doff base within dlen;
      let d, off = allocate t in
      audit_stamp ();
      (* [base] is freshly built and never touched again: transfer
         ownership so an NVRAM front need not copy it. *)
      t.disks.(d).Blockdev.Storage.write_own ~off base;
      place_version t vl ~epoch ~ext:(d, off)
    end

(* --- replication ------------------------------------------------------ *)

let forward_write t ~root ~chunk ~within ~data ~doff ~dlen ~epoch ~expires
    ~stamp =
  match replica_of t ~root ~chunk ~nrep:(nrep_of_root t root) with
  | None -> ()
  | Some ri -> (
    let peer = t.members.(ri) in
    match
      Rpc.call t.rpc ~dst:peer ~timeout:(Sim.ms 500)
        ~size:(write_req_size dlen)
        (Repl_req { root; chunk; within; data; doff; dlen; epoch; expires; stamp })
    with
    | Ok Write_ok -> ()
    | Ok _ | Error `Timeout ->
      (* Degraded: the replica is unreachable; the write is single-copy
         until the resync daemon repairs it. Marked with the write's
         own stamp, not the (later) failure time: the repair push must
         not claim to be fresher than the bytes it carries. *)
      Logs.debug (fun m -> m "%s: replica write degraded" (Host.name t.host));
      mark_degraded t ~peer ~root ~chunk ~within ~len:dlen ~stamp)

(* Push the byte ranges of a degraded chunk the lagging replica
   missed; returns true when every range is acknowledged. A chunk with
   nothing stored here pushes nothing and its entry just clears: every
   mutation that marked it failed before writing, so the peer's copy is
   no older than ours. *)
let push_chunk t ~peer ~root ~chunk ~ranges =
  Faultpoint.hit "petal.resync_push";
  match Hashtbl.find_opt t.chunks (root, chunk) with
  | None | Some { contents = [] } -> true
  | Some { contents = { epoch; loc = d, off } :: _ } ->
    List.for_all
      (fun (a, b, s) ->
        let data = t.disks.(d).Blockdev.Storage.read ~off:(off + a) ~len:(b - a) in
        trace "t=%d P %s->%d root=%d chunk=%d [%d,%d) s=%d hit=%b" (Sim.now ())
          (Host.name t.host) peer root chunk a b s (data_has_needle data);
        match
          Rpc.call t.rpc ~dst:peer ~timeout:(Sim.ms 500)
            ~size:(write_req_size (b - a))
            (Repl_req { root; chunk; within = a; data; doff = 0;
                        dlen = b - a; epoch; expires = None; stamp = s })
        with
        | Ok Write_ok ->
          t.st.xfer_pushes <- t.st.xfer_pushes + 1;
          t.st.xfer_bytes <- t.st.xfer_bytes + (b - a);
          true
        | Ok _ | Error `Timeout -> false)
      ranges

(* Free the extents of chunks this server no longer owns under the
   committed map (the data migrated through the handoff stream), so a
   decommissioned or demoted server ends up holding nothing it could
   serve stale. Skipped while a transfer is pending (during one, the
   old map is authoritative and we may BE a future owner receiving
   data) and for chunks with unsent degraded ranges (late writes
   accepted just before cutover still have to reach the new owner). *)
let gc_nonowned t =
  if t.pending = None then begin
    let referenced = backlog_chunks t in
    let victims =
      Hashtbl.fold
        (fun (root, chunk) _ acc ->
          if
            (not (Hashtbl.mem referenced (root, chunk)))
            && not (is_owner t ~root ~chunk ~nrep:(nrep_of_root t root))
          then (root, chunk) :: acc
          else acc)
        t.chunks []
    in
    List.iter
      (fun key ->
        with_chunk_lock t key @@ fun () ->
        (* Re-check under the lock: a reconfig may have started (or
           ownership returned) while we were freeing earlier chunks. *)
        let root, chunk = key in
        if t.pending = None && not (is_owner t ~root ~chunk ~nrep:(nrep_of_root t root))
        then
          Option.iter (drop_chunk t ~why:"GC" key) (Hashtbl.find_opt t.chunks key))
      (List.sort compare victims)
  end

let nonowned_chunk_count t =
  Hashtbl.fold
    (fun (root, chunk) _ acc ->
      if is_owner t ~root ~chunk ~nrep:(nrep_of_root t root) then acc else acc + 1)
    t.chunks 0

let resync_daemon t () =
  let rec loop () =
    Sim.sleep (Sim.sec 2.0);
    if Host.is_alive t.host then begin
      gc_stale_backlog t;
      if degraded_count t > 0 then begin
        (* The per-tick push budget rises while a transfer is pending:
           an ownership handoff marks every affected chunk at once and
           should drain in seconds of simulated time, not minutes. *)
        let budget = if t.pending = None then 16 else 64 in
        (* Snapshot the peer set: pushes block on the network, and a
           concurrent failed forward may add a brand-new peer entry
           mid-iteration. *)
        let peers = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.degraded [] in
        List.iter
          (fun (peer, set) ->
            let chunks = Hashtbl.fold (fun k v acc -> (k, v) :: acc) set [] in
            List.iteri
              (fun i ((root, chunk), (ranges, gen0)) ->
                if i < budget then begin
                  match push_chunk t ~peer ~root ~chunk ~ranges with
                  | true -> (
                    (* A write may have landed between the push
                       reading the bytes and the ack, re-marking part
                       of what we sent — the bytes we sent for that
                       part were already stale. If the generation is
                       untouched nothing moved: clear the pushed
                       ranges outright. Otherwise clear only the
                       sub-ranges whose stamp is still the one we
                       pushed; anything stamped newer stays for the
                       next tick. *)
                    match Hashtbl.find_opt set (root, chunk) with
                    | None -> ()
                    | Some (cur, gen) -> (
                      match
                        List.fold_left
                          (fun acc (a, b, s) ->
                            seg_clear acc (a, b)
                              ~upto:(if gen = gen0 then max_int else s))
                          cur ranges
                      with
                      | [] -> Hashtbl.remove set (root, chunk)
                      | left -> Hashtbl.replace set (root, chunk) (left, gen)))
                  | false -> ()
                  | exception Host.Crashed _ -> ()
                end)
              chunks)
          peers
      end;
      gc_nonowned t
    end;
    loop ()
  in
  loop ()

(* Cutover daemon: while this server knows of a pending transfer, it
   polls every involved member's drain status; once all of them
   report the same map epoch, the same pending transfer and an empty
   push backlog, it proposes [Complete_transfer]. Every server polls
   independently — whoever sees global drain first wins the Paxos
   race and the others' proposals apply as no-ops — so the cutover
   needs no distinguished coordinator and survives any proposer
   dying mid-handoff. An unreachable member simply delays the
   cutover until the nemesis heals or the host restarts; committing
   without its report could strand chunks it alone had marked. *)
let cutover_daemon t () =
  let rec loop () =
    Sim.sleep (Sim.ms 900);
    (match t.pending with
    | Some p when Host.is_alive t.host -> (
      let involved =
        List.sort_uniq compare (Array.to_list t.active @ Array.to_list p.target)
      in
      let probe i =
        if i = t.index then
          t.mepoch = p.target_epoch - 1 && t.pending <> None && degraded_count t = 0
        else
          match
            Rpc.call t.rpc ~dst:t.members.(i) ~timeout:(Sim.ms 400) ~size:small
              Xfer_status_req
          with
          | Ok (Xfer_status { mepoch; pending; backlog }) ->
            mepoch = p.target_epoch - 1 && pending && backlog = 0
          | Ok _ | Error `Timeout -> false
      in
      match List.for_all probe involved with
      | true ->
        if t.pending <> None then begin
          (* The faultpoint may crash this very host; the propose then
             raises from this daemon and must not abort the run. *)
          try
            Faultpoint.hit "petal.cutover_propose";
            ignore
              (P.propose t.paxos (Complete_transfer { target = p.target_epoch }))
          with Host.Crashed _ -> ()
        end
      | false -> ()
      | exception Host.Crashed _ -> ())
    | _ -> ());
    loop ()
  in
  loop ()

(* --- RPC handlers ------------------------------------------------------ *)

let vdisk t root =
  match Hashtbl.find_opt t.vdisks root with
  | Some v -> v
  | None -> failwith "petal: unknown virtual disk"

let reject_stale = Some (Perr "expired lease timestamp", small)

(* The map guard on every client data request: the client's routing
   epoch must match the committed map AND this server must actually
   own the chunk under it (the second check catches clients whose map
   is somehow current but whose routing is not). While a transfer is
   pending the old map stays authoritative, so traffic is undisturbed
   until the cutover instant. *)
let reject_wrong_epoch t =
  t.st.wrong_epoch_rejects <- t.st.wrong_epoch_rejects + 1;
  Some (Wrong_epoch { mepoch = t.mepoch }, small)

let map_ok t ~mepoch ~root ~chunk =
  mepoch = t.mepoch && is_owner t ~root ~chunk ~nrep:(nrep_of_root t root)

(* --- drain-time write freeze ------------------------------------------ *)

(* How long a pending transfer relies on write lulls before the freeze
   engages. Generous enough that an ordinary handoff (which drains in
   a few resync ticks) never freezes anybody; short enough to bound
   cutover latency under a relentless hot-chunk writer. *)
let freeze_grace = Sim.sec 8.0

let chunk_moving t (p : pending) ~root ~chunk =
  let nrep = nrep_of_root t root in
  List.sort compare (owners t.active ~nrep ~root ~chunk)
  <> List.sort compare (owners p.target ~nrep ~root ~chunk)

(* A client mutation of a chunk whose owner set actually changes is
   refused once the transfer has been pending past the grace period:
   every accepted write re-marks its byte range degraded toward the
   future owners ([mark_transfer_delta]), so without the freeze a
   sustained writer refills the push backlog every resync tick and the
   cutover daemon never observes global drain. Frozen writers get
   [Wrong_epoch] and wait-and-retry at the client; peer pushes
   ([Repl_req]) are never frozen — they ARE the drain. *)
let freeze_blocks t ~root ~chunk =
  match t.pending with
  | None -> false
  | Some p ->
    Sim.now () - t.pending_since >= freeze_grace
    && chunk_moving t p ~root ~chunk

let reject_frozen t =
  t.st.freeze_rejects <- t.st.freeze_rejects + 1;
  Some (Wrong_epoch { mepoch = t.mepoch }, small)

(* Peer pushes are accepted only by a member that owns the chunk
   under the committed map or will own it under the pending transfer.
   The reject matters for a lagging joiner that has not yet applied
   [Add_server]: its begin-transfer purge must run before it stores
   anything, so a push arriving early is refused and the source
   (which treats any non-ok reply as a failed push) simply retries a
   tick later. It also stops a push long-delayed in the network from
   resurrecting data on a member the map has since moved past. *)
let peer_push_ok t ~root ~chunk =
  let nrep = nrep_of_root t root in
  is_owner t ~root ~chunk ~nrep
  ||
  match t.pending with
  | Some p -> List.mem t.index (owners p.target ~nrep ~root ~chunk)
  | None -> false

let handler t ~src body =
  match body with
  | (Read_req _ | Write_req _ | Repl_req _ | Mgmt_req _)
    when not (authorized t src) ->
    Some (Perr "unauthorized", small)
  | Read_req { root; chunk; mepoch; _ } when not (map_ok t ~mepoch ~root ~chunk) ->
    reject_wrong_epoch t
  | Read_req { root; chunk; within; len; sel; mepoch = _ } -> (
    match read_chunk t ~root ~chunk ~within ~len ~sel with
    | data -> Some (Read_ok data, read_ok_size len)
    | exception Damaged ->
      (* Ask the replica for a clean whole-chunk copy, repair our
         medium, and serve the read. *)
      let v = vdisk t root in
      match replica_of t ~root ~chunk ~nrep:v.nrep with
      | Some ri -> (
        match
          Rpc.call t.rpc ~dst:t.members.(ri) ~timeout:(Sim.ms 500)
            ~size:read_req_size
            (Read_req { root; chunk; within = 0; len = chunk_bytes; sel;
                        mepoch = t.mepoch })
        with
        | Ok (Read_ok clean) ->
          Logs.info (fun m ->
              m "%s: repaired damaged chunk (%d,%d) from replica"
                (Host.name t.host) root chunk);
          repair_chunk t ~root ~chunk ~data:clean;
          Some (Read_ok (Bytes.sub clean within len), read_ok_size len)
        | Ok _ | Error `Timeout -> Some (Perr "media error", small)
      )
      | None -> Some (Perr "media error", small))
  | Write_req { root; chunk; mepoch; _ } when not (map_ok t ~mepoch ~root ~chunk) ->
    reject_wrong_epoch t
  | Write_req { root; chunk; _ } when freeze_blocks t ~root ~chunk ->
    reject_frozen t
  | Write_req { expires; _ } when expired expires -> reject_stale
  | Write_req { root; chunk; within; data; doff; dlen; solo; expires; mepoch = _ }
    -> (
    let v = vdisk t root in
    let epoch = v.epoch in
    (* The write's freshness stamp, captured before any mutation or
       blocking: every degraded mark and replica forward this write
       spawns must carry the time the bytes were written, not the
       (possibly much later) time a forward failed. *)
    let wstamp = Sim.now () in
    (* Transfer deltas are marked both before and after the mutation:
       a transfer that begins while this write is in flight would
       otherwise miss it on both sides — [begin_transfer] enumerates
       the chunk table before the write inserts into it, and a single
       pre-write mark still sees no pending transfer. *)
    mark_transfer_delta t ~root ~chunk ~within ~len:dlen ~stamp:wstamp;
    (if solo && v.nrep > 1 then begin
       (* Degraded client write: we are the replica; the primary
          missed this update and must be repaired when it returns. *)
       match replica_of t ~root ~chunk ~nrep:v.nrep with
       | Some pi when t.members.(pi) <> Rpc.addr t.rpc ->
         mark_degraded t ~peer:t.members.(pi) ~root ~chunk ~within
           ~len:dlen ~stamp:wstamp
       | Some _ | None -> ()
     end);
    match
      if (not solo) && v.nrep > 1 then begin
        (* Apply locally and forward to the replica in parallel. *)
        let fwd = Sim.Ivar.create () in
        Sim.spawn (fun () ->
            (* The forwarder runs as its own scheduled process: if the
               host dies mid-write (faultpoint or nemesis) the raise
               would escape the scheduler, so contain it here. Fill the
               ivar regardless — the handler's own raise, not ours,
               reports the crash. *)
            (try
               forward_write t ~root ~chunk ~within ~data ~doff ~dlen ~epoch
                 ~expires ~stamp:wstamp
             with Host.Crashed _ -> ());
            Sim.Ivar.fill fwd ());
        write_chunk t ~root ~chunk ~within ~data ~doff ~dlen ~epoch ~expires;
        Sim.Ivar.read fwd
      end
      else write_chunk t ~root ~chunk ~within ~data ~doff ~dlen ~epoch ~expires
    with
    | () ->
      mark_transfer_delta t ~root ~chunk ~within ~len:dlen ~stamp:wstamp;
      Some (Write_ok, small)
    | exception Expired_stamp -> reject_stale)
  | Repl_req { root; chunk; _ } when not (peer_push_ok t ~root ~chunk) ->
    reject_wrong_epoch t
  | Repl_req { expires; _ } when expired expires -> reject_stale
  | Repl_req { root; chunk; within; data; doff; dlen; epoch; expires; stamp }
    -> (
    (* Peer traffic (forwarded writes, resync and handoff pushes)
       bypasses the epoch equality check: during a transfer it
       legitimately targets future owners the committed map does not
       list yet — but only current-or-future owners (peer_push_ok).
       Deltas are marked before and after, as on the client path.

       Freshness guard: where our OWN backlog toward the sender
       records a write at least as new as the pushed bytes, our copy
       supersedes theirs — both sides accepted solo writes to the
       range during disjoint failure windows, and ours came later.
       Skip those sub-ranges (the sender gets our bytes when the
       counter-entry drains) but still ack, so the sender clears its
       now-obsolete entry instead of re-pushing stale data forever. *)
    let skips =
      match Hashtbl.find_opt t.degraded src with
      | None -> []
      | Some set -> (
        match Hashtbl.find_opt set (root, chunk) with
        | None -> []
        | Some (segs, _) ->
          let lo = within and hi = within + dlen in
          List.filter_map
            (fun (a, b, s) ->
              if s >= stamp && a < hi && lo < b then
                Some (max a lo, min b hi)
              else None)
            segs)
    in
    let applies =
      List.fold_left
        (fun acc skip -> List.concat_map (fun r -> range_sub r skip) acc)
        [ (within, within + dlen) ]
        skips
    in
    match
      List.iter
        (fun (a, b) ->
          mark_transfer_delta t ~root ~chunk ~within:a ~len:(b - a) ~stamp;
          (* Sub-range apply re-slices the shared payload — offset
             arithmetic instead of a Bytes.sub per surviving range. *)
          write_chunk t ~root ~chunk ~within:a ~data
            ~doff:(doff + (a - within)) ~dlen:(b - a) ~epoch ~expires;
          mark_transfer_delta t ~root ~chunk ~within:a ~len:(b - a) ~stamp)
        applies
    with
    | () -> Some (Write_ok, small)
    | exception Expired_stamp -> reject_stale)
  | Mgmt_req cmd ->
    Faultpoint.hit "petal.mgmt_propose";
    let slot = P.propose t.paxos cmd in
    while P.applied_up_to t.paxos <= slot do
      Sim.sleep (Sim.ms 1)
    done;
    let id = Hashtbl.find t.slot_ids slot in
    if id < 0 then Some (Perr "rejected by apply", small)
    else Some (Mgmt_ok id, small)
  | Vdisk_info_req id -> (
    match Hashtbl.find_opt t.vdisks id with
    | Some v -> Some (Vdisk_info { root = v.root; nrep = v.nrep; frozen = v.frozen }, small)
    | None -> Some (Perr "unknown vdisk", small))
  | Map_req ->
    Some (Map { mepoch = t.mepoch; active = Array.to_list t.active }, small)
  | Xfer_status_req ->
    Some
      ( Xfer_status
          { mepoch = t.mepoch;
            pending = t.pending <> None;
            backlog = degraded_count t },
        small )
  | _ -> None

let create ~host ~rpc ~peers ~index ~disks ~stable ?active () =
  let active =
    match active with
    | Some l -> Array.of_list (List.sort_uniq compare l)
    | None -> Array.init (Array.length peers) Fun.id
  in
  let rec t =
    lazy
      {
        host;
        rpc;
        members = peers;
        index;
        disks;
        chunks = Hashtbl.create 4096;
        wlocks = Hashtbl.create 4096;
        degraded = Hashtbl.create 4;
        mark_gen = 0;
        trusted = None;
        vdisks = Hashtbl.create 8;
        next_id = 1;
        slot_ids = Hashtbl.create 16;
        paxos =
          P.create ~rpc ~group:0x9e7a1 ~peers:(Array.to_list peers) ~id:index
            ~stable
            ~apply:(fun slot cmd -> apply (Lazy.force t) slot cmd);
        next_off = Array.map (fun _ -> 0) disks;
        free = Array.map (fun _ -> ref []) disks;
        alloc_rr = 0;
        allocated = 0;
        active;
        mepoch = 0;
        pending = None;
        pending_since = 0;
        st =
          {
            stale_applied = 0;
            wrong_epoch_rejects = 0;
            freeze_rejects = 0;
            max_cutover = 0;
            xfer_pushes = 0;
            xfer_bytes = 0;
            gc_chunks = 0;
            snap_gc_chunks = 0;
          };
      }
  in
  let t = Lazy.force t in
  Rpc.add_handler rpc (handler t);
  Sim.spawn ~name:(Host.name host ^ ".resync") (resync_daemon t);
  Sim.spawn ~name:(Host.name host ^ ".cutover") (cutover_daemon t);
  t
