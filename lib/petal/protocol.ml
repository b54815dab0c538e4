(** Wire protocol and shared constants of the Petal virtual-disk
    service.

    Virtual addresses are OCaml ints, so the paper's 2{^64}-byte
    address space becomes 2{^62} here; all other constants (64 KB
    commit granularity, 512 B sectors) are the paper's. *)

open Cluster

let chunk_bytes = 65536
(** Physical space is committed in 64 KB chunks. *)

let sector_bytes = 512

(* --- chunk placement ---------------------------------------------------- *)

(* The one placement rule, shared by client routing, server ownership
   checks and the reconfiguration handoff. Chunk [c] of the disk
   rooted at [r] has its primary at ring slot [ring_slot ~root:r
   ~chunk:c n] of the sorted active array and its replica at the next
   slot. Consecutive chunks stay on consecutive slots within a group
   of [group_chunks] (16 MB), so a sequential stream stripes
   round-robin over the servers; each group is rotated by a hash of
   its index, so strides that cross groups — Frangipani's 4 GB log
   spacing, 1 TB large blocks, 0.5 TB bitmap regions, the 252-chunk
   data span of a small-data bitmap sector — do not alias onto a few servers when they share a
   factor with [n]. Each term is reduced mod [n] before the sum so
   the sum cannot overflow. *)
let group_chunks = 256

let mix g =
  let x = g * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xBF58476D1CE4E5B in
  (x lxor (x lsr 32)) land max_int

let ring_slot ~root ~chunk n =
  ((root mod n) + (chunk mod n) + (mix (chunk / group_chunks) mod n)) mod n

(* The owners of a chunk under an active set, primary first. *)
let owners active ~nrep ~root ~chunk =
  let n = Array.length active in
  if n = 0 then []
  else begin
    let s = ring_slot ~root ~chunk n in
    if nrep > 1 && n > 1 then [ active.(s); active.((s + 1) mod n) ]
    else [ active.(s) ]
  end

(** Which epoch of a chunk a read refers to: the live disk or a
    snapshot frozen at a given epoch. *)
type epoch_sel = Current | At of int

(** Management commands agreed on via Paxos; applying them in log
    order keeps every server's virtual-disk table identical — and,
    since PR 5, the cluster's chunk-ownership map as well.

    Membership reconfiguration is a two-phase handoff: [Add_server] /
    [Remove_server] open a {e pending transfer} towards a target
    active set (the old map stays authoritative for all data traffic
    while owners stream the affected chunks to their future owners in
    the background), and [Complete_transfer] — proposed only once
    every obligated server reports a drained transfer backlog —
    atomically cuts the cluster over to the new map and bumps the map
    epoch. [target] names the map epoch the transfer would commit, so
    duplicate proposals (every server polls for drain and may race to
    propose) are idempotent. *)
type mgmt_cmd =
  | Create_vdisk of { nrep : int }
  | Snapshot of { src : int }
      (** Freeze [src]'s current epoch. Refused while a transfer is
          pending: the handoff stream carries only head-version bytes,
          so an epoch bump mid-transfer would strand the newly pinned
          versions on the old owners. *)
  | Delete_vdisk of { id : int }
      (** Drop a snapshot disk and free the chunk versions only it
          pinned. Live disks are not deletable; refused while a
          transfer is pending (version GC must not race the handoff
          enumeration). Deleting the last snapshot re-enables
          reconfiguration (which {!Add_server} refuses while any
          snapshot exists). *)
  | Add_server of { idx : int }
      (** Begin activating standby member [idx] (index into the fixed
          provisioned-member array shared by all servers). *)
  | Remove_server of { idx : int }  (** Begin decommissioning member [idx]. *)
  | Complete_transfer of { target : int }
      (** Commit the pending transfer whose target map epoch is
          [target]; a no-op for any other value. *)

type Net.payload +=
  | Read_req of {
      root : int;
      chunk : int;
      within : int;
      len : int;
      sel : epoch_sel;
      mepoch : int;
          (** The map epoch the client routed this request under; a
              server whose committed map differs rejects with
              {!Wrong_epoch} instead of serving possibly-migrated
              data. *)
    }
  | Read_ok of bytes
  | Write_req of {
      root : int;
      chunk : int;
      within : int;
      data : bytes;
      doff : int;
      dlen : int;
          (** The bytes written are [data\[doff, doff+dlen)]: a client
              splitting one large buffer across chunks sends slices of
              the same underlying [bytes] instead of copying each
              piece. The buffer is immutable once sent (the zero-copy
              ownership rule), so sharing is safe. *)
      solo : bool;  (** Degraded-mode write: do not forward to the replica. *)
      mepoch : int;  (** Routing map epoch, as in {!Read_req}. *)
      expires : int option;
          (** §6's proposed guard: the writer's lease expiry (minus
              margin); the server ignores the write if it arrives
              later than this instant. *)
    }
  | Repl_req of {
      root : int;
      chunk : int;
      within : int;
      data : bytes;
      doff : int;
      dlen : int;  (** Slice convention as in {!Write_req}. *)
      epoch : int;
      expires : int option;
      stamp : int;
          (** Time the carried bytes were originally written. A
              replica that itself accepted a NEWER solo write to an
              overlapping range must not let this older copy clobber
              it (each byte range has a single serialized writer — the
              FS lock holder — so write time totally orders copies). *)
    }
  | Write_ok
  | Mgmt_req of mgmt_cmd
  | Mgmt_ok of int  (** The id assigned to the new (or snapshot) virtual disk. *)
  | Vdisk_info_req of int
  | Vdisk_info of { root : int; nrep : int; frozen : int option }
  | Map_req
  | Map of { mepoch : int; active : int list }
      (** The committed ownership map: the epoch and the sorted member
          indexes currently serving data. *)
  | Xfer_status_req
  | Xfer_status of { mepoch : int; pending : bool; backlog : int }
      (** Reconfiguration drain probe: the server's committed map
          epoch, whether it knows of a pending transfer, and how many
          chunk entries its push backlog still holds. *)
  | Wrong_epoch of { mepoch : int }
      (** Data request rejected: the client's routing map epoch does
          not match the server's committed map (or the server is not
          an owner of the addressed chunk under it). Carries the
          server's epoch so the client knows whether to refetch or
          just wait out apply lag. *)
  | Perr of string

(* Message-size accounting (bytes of simulated wire traffic). *)
let hdr = 64
let read_req_size = hdr
let read_ok_size len = hdr + len
let write_req_size len = hdr + len
let small = 32

exception Unavailable of string
(** No replica of the addressed data is reachable. *)

exception Read_only
(** Write attempted on a snapshot. *)

exception Stale_write of string
(** A Petal server refused a write whose lease-derived expiration
    timestamp had passed (the §6 hazard guard). *)
