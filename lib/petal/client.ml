open Simkit
open Cluster
open Protocol

(* [write_seconds], [read_seconds] and [write_rpcs] are derived when
   {!op_stats} takes its copy; the live record leaves them at zero. *)
type stats = {
  mutable writes : int;
  write_seconds : float;
  mutable reads : int;
  read_seconds : float;
  mutable read_pieces : int;
  mutable read_rpcs : int;
  mutable read_coalesced : int;
  mutable write_pieces : int;
  write_rpcs : int;
  mutable failovers : int;
  mutable primary_skips : int;
  mutable probe_heals : int;
  mutable map_refreshes : int;
  mutable wrong_epoch_retries : int;
  mutable freeze_waits : int;
}

type t = {
  rpc : Rpc.t;
  servers : Net.addr array;
      (* the fixed provisioned-member set; which members serve data is
         the Paxos-agreed [active] map below *)
  inflight : Sim.Resource.t;
      (* bounds outstanding chunk pieces: submission blocks here, so
         backpressure lives at the driver, not in every caller *)
  mutable write_guard : unit -> int option;
      (* expiration timestamp attached to every write (§6 fix) *)
  (* The ownership map this client routes under. Every data request
     carries [mepoch]; a server whose committed map differs answers
     [Wrong_epoch] and the client refetches the map (via [call_retry])
     and retries — so a stale client converges instead of surfacing
     spurious replica loss to the cache layer. *)
  mutable active : int array;
  mutable mepoch : int;
  st : stats;
  mutable write_ns : int;
  mutable read_ns : int;
  (* Servers whose last piece RPC timed out, mapped to the time of
     their next probe: until then pieces go straight to the other
     replica instead of re-paying the timeout, and after a successful
     probe the primary is used again (heal detection — failover is
     not pinned forever). *)
  suspects : (int, Sim.time) Hashtbl.t;
}

type vdisk = {
  c : t;
  vid : int;
  root : int;
  nrep : int;
  frozen : int option;
}

(* The paper keeps "several megabytes" of write-behind in flight
   (§4); 64 pieces of up to 64 KB each is 4 MB. *)
let max_inflight_pieces = 64

(* The per-replica timeout must comfortably exceed a queued raw-disk
   write burst; failover latency is dominated by it, so it trades
   responsiveness against spurious degradation. *)
let timeout = Sim.sec 2.0

let connect ~rpc ~servers ?active () =
  let active =
    match active with
    | Some l -> Array.of_list (List.sort_uniq compare l)
    | None -> Array.init (Array.length servers) Fun.id
  in
  { rpc; servers;
    inflight = Sim.Resource.create ~capacity:max_inflight_pieces "petal.inflight";
    write_guard = (fun () -> None);
    active; mepoch = 0;
    st =
      { writes = 0; write_seconds = 0.0; reads = 0; read_seconds = 0.0;
        read_pieces = 0; read_rpcs = 0; read_coalesced = 0;
        write_pieces = 0; write_rpcs = 0; failovers = 0; primary_skips = 0;
        probe_heals = 0; map_refreshes = 0; wrong_epoch_retries = 0;
        freeze_waits = 0 };
    write_ns = 0; read_ns = 0;
    suspects = Hashtbl.create 4 }

(* How long a timed-out server is skipped before a piece probes it
   again. Short enough that a healed partition stops costing the
   replica detour within seconds, long enough that a dead server
   costs one timeout per window instead of one per piece. *)
let probe_interval = Sim.sec 5.0

let set_write_guard v f = v.c.write_guard <- f

let op_stats v =
  let c = v.c in
  { c.st with
    write_seconds = float_of_int c.write_ns /. 1e9;
    read_seconds = float_of_int c.read_ns /. 1e9;
    write_rpcs = c.st.write_pieces }

(* Placement is [Protocol.ring_slot], the rule the servers check
   ownership with: the primary is the active member at that slot, the
   replica the next one. Both sides compute it from the same
   Paxos-agreed map, keyed by [mepoch]. *)
let primary_of t ~root ~chunk =
  let n = Array.length t.active in
  t.active.(ring_slot ~root ~chunk n)

let secondary_of t ~root ~chunk =
  let n = Array.length t.active in
  t.active.((ring_slot ~root ~chunk n + 1) mod n)

let route t ~root ~chunk = (primary_of t ~root ~chunk, secondary_of t ~root ~chunk)

(* Poll order for control-plane requests (map fetch, management,
   open): active members first — they are alive with high probability
   — then the standbys, which also participate in the Paxos group. *)
let poll_order t =
  Array.to_list t.active
  @ List.filter
      (fun i -> not (Array.exists (( = ) i) t.active))
      (List.init (Array.length t.servers) Fun.id)

(* Refetch the ownership map after a [Wrong_epoch] reject. Uses
   [call_retry] (retransmission; a map read is idempotent) so a single
   lossy link does not turn a map refresh into a spurious failure;
   tries every member because during a reconfiguration some servers
   lag the Paxos apply. Keeps the old map if nobody offers a newer one
   — the caller's retry will then fail visibly rather than loop. *)
let refresh_map t =
  t.st.map_refreshes <- t.st.map_refreshes + 1;
  let rec go = function
    | [] -> ()
    | i :: rest -> (
      match
        Rpc.call_retry t.rpc ~dst:t.servers.(i) ~timeout:(Sim.ms 400)
          ~attempts:2 ~size:small Map_req
      with
      | Ok (Map { mepoch; active }) when mepoch > t.mepoch ->
        t.mepoch <- mepoch;
        t.active <- Array.of_list active
      | Ok (Map _) -> go rest (* not newer: maybe a lagging server *)
      | Ok _ | Error `Timeout -> go rest)
  in
  go (poll_order t)

let fetch_map t =
  refresh_map t;
  (t.mepoch, Array.to_list t.active)

(* A scatter-gather operation: every chunk piece is submitted up
   front (bounded by the in-flight pool), then a waiter process per
   piece drives its own primary→secondary failover, so a slow or dead
   replica never stalls sibling pieces. [outcome] fills once, with the
   first failure or when the last piece lands. *)
type gather = { outcome : (unit, exn) result Sim.Ivar.t; mutable remaining : int }

let gather_fill g r =
  if not (Sim.Ivar.is_filled g.outcome) then Sim.Ivar.fill g.outcome r

let gather_piece_done g =
  g.remaining <- g.remaining - 1;
  if g.remaining = 0 then gather_fill g (Ok ())

(* A suspected server is skipped (no timeout paid) until its probe
   window opens; the first piece after that retries it for real. *)
let skip_primary t pi =
  match Hashtbl.find_opt t.suspects pi with
  | Some until -> Sim.now () < until
  | None -> false

let note_primary_timeout t pi =
  t.st.failovers <- t.st.failovers + 1;
  Hashtbl.replace t.suspects pi (Sim.now () + probe_interval)

let note_primary_ok t pi =
  if Hashtbl.mem t.suspects pi then begin
    t.st.probe_heals <- t.st.probe_heals + 1;
    Hashtbl.remove t.suspects pi
  end

(* How many map-refresh rounds a piece tolerates before giving up.
   One round suffices for a plain stale map; a couple more ride out
   the window where servers apply the cutover at slightly different
   instants. *)
let max_map_rounds = 4

(* How many wait-and-retry rounds a piece tolerates against a server
   that is NOT ahead of the client's map. That happens for seconds at
   most under plain apply lag, but for much longer under the
   drain-time write freeze of a pending reconfiguration — the server
   rejects mutations of a moving chunk until the handoff drains and
   the cutover commits. 120 rounds of 250 ms (30 s of simulated time)
   comfortably covers the freeze window; the freeze exists precisely
   so that window is bounded. *)
let max_wait_rounds = 120

(* Submit one piece: fire the first RPC from the submitting process
   (so submission order is preserved and backpressure is felt there),
   then hand completion to a fresh process. [on_reply] interprets the
   server's answer, raising to fail the whole operation. The primary
   is skipped while suspected (a recent timeout) and re-probed once
   its window opens, so a healed link resumes primary routing instead
   of pinning failover.

   [req_of] is re-evaluated on every attempt so retries carry the
   client's {e current} map epoch: a [Wrong_epoch] reject triggers a
   map refresh and a re-route against the new owners (bounded by
   [max_map_rounds]), which is how a client rides through a
   reconfiguration cutover without surfacing replica loss. *)
let submit_piece t g ~root ~chunk ~nrep ~size ~req_of ~on_reply =
  Sim.Resource.acquire t.inflight;
  let pi = primary_of t ~root ~chunk in
  let to_secondary = nrep > 1 && skip_primary t pi in
  if to_secondary then t.st.primary_skips <- t.st.primary_skips + 1;
  let first =
    try
      if to_secondary then
        Rpc.call_async t.rpc ~dst:t.servers.(secondary_of t ~root ~chunk)
          ~timeout ~size (req_of ~solo:true)
      else
        Rpc.call_async t.rpc ~dst:t.servers.(pi) ~timeout ~size
          (req_of ~solo:false)
    with ex ->
      Sim.Resource.release t.inflight;
      raise ex
  in
  (* The failover step, shared by the first attempt's completion and
     every re-routed attempt: the primary, noting whether it answered,
     and the replica if there is one. *)
  let call_primary pi =
    match
      Rpc.call t.rpc ~dst:t.servers.(pi) ~timeout ~size
        (req_of ~solo:false)
    with
    | Ok r ->
      note_primary_ok t pi;
      Some r
    | Error `Timeout ->
      note_primary_timeout t pi;
      None
  in
  let call_replica () =
    if nrep > 1 then
      match
        Rpc.call t.rpc ~dst:t.servers.(secondary_of t ~root ~chunk)
          ~timeout ~size (req_of ~solo:true)
      with
      | Ok r -> Some r
      | Error `Timeout -> None
    else None
  in
  (* One routed attempt against the current map: primary first, then
     the replica. *)
  let routed_attempt () =
    match call_primary (primary_of t ~root ~chunk) with
    | None -> call_replica ()
    | r -> r
  in
  let rec resolve mrounds wrounds reply =
    match reply with
    | Some (Wrong_epoch { mepoch = srv })
      when srv > t.mepoch && mrounds < max_map_rounds ->
      (* Genuinely stale map: the server has committed an epoch we
         have not seen. Refetch and re-route. *)
      t.st.wrong_epoch_retries <- t.st.wrong_epoch_retries + 1;
      refresh_map t;
      resolve (mrounds + 1) wrounds (routed_attempt ())
    | Some (Wrong_epoch { mepoch = srv })
      when srv <= t.mepoch && wrounds < max_wait_rounds ->
      (* The server is not ahead of us: either it lags the Paxos apply,
         or the drain-time freeze of a pending transfer is holding our
         mutation back. A refresh would just read the same map back —
         wait it out and retry; once the cutover commits the reject
         flips to [srv > t.mepoch] and the map branch takes over. *)
      t.st.wrong_epoch_retries <- t.st.wrong_epoch_retries + 1;
      t.st.freeze_waits <- t.st.freeze_waits + 1;
      Sim.sleep (Sim.ms 250);
      resolve mrounds (wrounds + 1) (routed_attempt ())
    | r -> r
  in
  Sim.spawn (fun () ->
      match
        resolve 0 0
          (match Sim.Ivar.read first with
          | Ok r ->
            if not to_secondary then note_primary_ok t pi;
            Some r
          | Error `Timeout when to_secondary ->
            (* The replica detour failed; the suspicion may be stale
               (the fault moved), so probe the skipped primary before
               declaring the data unreachable. *)
            call_primary pi
          | Error `Timeout ->
            note_primary_timeout t pi;
            call_replica ())
      with
      | exception ex ->
        (* Our own host died mid-failover: fail the op, don't abort
           the simulation from this helper process. *)
        Sim.Resource.release t.inflight;
        gather_fill g (Error ex)
      | reply -> (
        Sim.Resource.release t.inflight;
        match reply with
        | None ->
          let msg =
            if nrep > 1 then "petal: no replica reachable"
            else "petal: server unreachable"
          in
          gather_fill g (Error (Unavailable msg))
        | Some (Wrong_epoch _) ->
          (* Map rounds exhausted: the cluster is reconfiguring faster
             than we can refetch, or every refresh source is cut off.
             Same caller-visible outcome as replica loss. *)
          gather_fill g (Error (Unavailable "petal: ownership map stale"))
        | Some r -> (
          match on_reply r with
          | () -> gather_piece_done g
          | exception ex -> gather_fill g (Error ex))))

let mgmt t cmd =
  let order = poll_order t in
  let rec go = function
    | [] -> raise (Unavailable "petal: no server for management op")
    | i :: rest -> (
      match
        Rpc.call t.rpc ~dst:t.servers.(i) ~timeout:(Sim.sec 2.0) ~size:small
          (Mgmt_req cmd)
      with
      | Ok (Mgmt_ok id) -> id
      | Ok (Perr e) -> failwith ("petal: " ^ e)
      | Ok _ | Error `Timeout -> go rest)
  in
  go order

let create_vdisk t ~nrep = mgmt t (Create_vdisk { nrep })

let add_server t ~idx = ignore (mgmt t (Add_server { idx }))
let remove_server t ~idx = ignore (mgmt t (Remove_server { idx }))
let delete_vdisk t ~id = ignore (mgmt t (Delete_vdisk { id }))

let open_vdisk t vid =
  let order = poll_order t in
  let rec go = function
    | [] -> raise (Unavailable "petal: no server for open")
    | i :: rest -> (
      match
        Rpc.call t.rpc ~dst:t.servers.(i) ~timeout:(Sim.ms 500) ~size:small
          (Vdisk_info_req vid)
      with
      | Ok (Vdisk_info { root; nrep; frozen }) -> { c = t; vid; root; nrep; frozen }
      | Ok (Perr e) -> failwith ("petal: " ^ e)
      | Ok _ | Error `Timeout -> go rest)
  in
  go order

let id v = v.vid
let is_snapshot v = v.frozen <> None

let check_aligned ~off ~len =
  if off < 0 || len < 0 || off mod sector_bytes <> 0 || len mod sector_bytes <> 0
  then invalid_arg "petal: unaligned I/O"

(* Split [off, off+len) into (chunk, within, n) pieces. *)
let pieces ~off ~len =
  let rec go off len acc =
    if len = 0 then List.rev acc
    else begin
      let chunk = off / chunk_bytes in
      let within = off mod chunk_bytes in
      let n = min len (chunk_bytes - within) in
      go (off + n) (len - n) ((chunk, within, n) :: acc)
    end
  in
  go off len []

let sel v = match v.frozen with Some e -> At e | None -> Current

(* One destination segment of a (possibly coalesced) read RPC:
   [dlen] bytes at offset [srcoff] of the reply land at [dpos] of
   [dbuf]. *)
type dest = { dbuf : bytes; dpos : int; srcoff : int; dlen : int }

(* Submit every piece through [submit], then block until the last one
   lands or the first one fails, and re-raise that failure. A raise
   while submitting (e.g. our host died) fails the operation too,
   unless an earlier piece already had. *)
let scatter submit ps =
  if ps <> [] then begin
    let g = { outcome = Sim.Ivar.create (); remaining = List.length ps } in
    (try List.iter (submit g) ps with ex -> gather_fill g (Error ex));
    match Sim.Ivar.read g.outcome with Ok () -> () | Error ex -> raise ex
  end

(* Add the simulated time [f] blocks for to [add], failure included. *)
let timed add f =
  let t0 = Sim.now () in
  Fun.protect ~finally:(fun () -> add (Sim.now () - t0)) f

(* The read engine: split every run into chunk pieces, then coalesce
   adjacent pieces that address the same chunk (and thus the same
   server) into a single RPC — e.g. the tail of one 64 KB run and the
   head of the next, when runs are not chunk-aligned. Each coalesced
   RPC scatters its reply into all its destination segments. *)
let read_runs v runs =
  v.c.st.reads <- v.c.st.reads + 1;
  let runs = List.map (fun (off, len) -> (off, Bytes.create len)) runs in
  List.iter (fun (off, buf) -> check_aligned ~off ~len:(Bytes.length buf)) runs;
  let raw =
    List.concat_map
      (fun (off, buf) ->
        let pos = ref 0 in
        List.map
          (fun (chunk, within, n) ->
            let p = !pos in
            pos := !pos + n;
            (chunk, within, n, { dbuf = buf; dpos = p; srcoff = 0; dlen = n }))
          (pieces ~off ~len:(Bytes.length buf)))
      runs
  in
  let merged =
    List.fold_left
      (fun acc (chunk, within, n, d) ->
        match acc with
        | (c0, w0, l0, ds) :: rest when c0 = chunk && w0 + l0 = within ->
          (c0, w0, l0 + n, { d with srcoff = l0 } :: ds) :: rest
        | _ -> (chunk, within, n, [ d ]) :: acc)
      [] raw
    |> List.rev_map (fun (c, w, l, ds) -> (c, w, l, List.rev ds))
  in
  v.c.st.read_pieces <- v.c.st.read_pieces + List.length raw;
  v.c.st.read_rpcs <- v.c.st.read_rpcs + List.length merged;
  v.c.st.read_coalesced <-
    v.c.st.read_coalesced + (List.length raw - List.length merged);
  timed (fun dt -> v.c.read_ns <- v.c.read_ns + dt) (fun () ->
      scatter
        (fun g (chunk, within, len, ds) ->
          submit_piece v.c g ~root:v.root ~chunk ~nrep:v.nrep
            ~size:read_req_size
            ~req_of:(fun ~solo:_ ->
              Read_req
                { root = v.root; chunk; within; len; sel = sel v;
                  mepoch = v.c.mepoch })
            ~on_reply:(function
              | Read_ok data ->
                List.iter
                  (fun d -> Bytes.blit data d.srcoff d.dbuf d.dpos d.dlen)
                  ds
              | _ -> failwith "petal: bad read reply"))
        merged);
  List.map snd runs

let read v ~off ~len = List.hd (read_runs v [ (off, len) ])

(* The write-side twin of {!read_runs}, without its merge: split every
   [(off, data)] run into chunk pieces and send one RPC per piece, each
   shipping a (doff, dlen) slice of the caller's buffer — no copy,
   payloads are immutable once sent (Storage.mli's ownership rules).
   Frangipani's write-back already hands over maximal runs inside
   aligned chunk-sized windows ([Cache.group_runs]), so it never
   submits two adjacent pieces of one chunk. *)
let write_runs v runs =
  v.c.st.writes <- v.c.st.writes + 1;
  if is_snapshot v then raise Read_only;
  List.iter (fun (off, data) -> check_aligned ~off ~len:(Bytes.length data)) runs;
  let ps =
    List.concat_map
      (fun (off, data) ->
        let pos = ref 0 in
        List.map
          (fun (chunk, within, n) ->
            let p = !pos in
            pos := !pos + n;
            (chunk, within, data, p, n))
          (pieces ~off ~len:(Bytes.length data)))
      runs
  in
  v.c.st.write_pieces <- v.c.st.write_pieces + List.length ps;
  timed (fun dt -> v.c.write_ns <- v.c.write_ns + dt) (fun () ->
      scatter
        (fun g (chunk, within, data, doff, dlen) ->
          Faultpoint.hit "petal.write_piece";
          submit_piece v.c g ~root:v.root ~chunk ~nrep:v.nrep
            ~size:(write_req_size dlen)
            ~req_of:(fun ~solo ->
              (* The §6 stamp is captured per attempt, not per piece: a
                 retry that sat out a reconfiguration freeze must carry
                 the current lease expiry, or the stamp lapses in the
                 wait loop and the server rejects a perfectly safe
                 write as stale. *)
              let expires = v.c.write_guard () in
              Write_req
                { root = v.root; chunk; within; data; doff; dlen; solo;
                  mepoch = v.c.mepoch; expires })
            ~on_reply:(function
              | Write_ok -> ()
              | Perr "expired lease timestamp" ->
                raise (Stale_write "expired lease timestamp")
              | Perr e -> failwith ("petal: " ^ e)
              | _ -> failwith "petal: bad write reply"))
        ps)

let write v ~off data = write_runs v [ (off, data) ]

let snapshot v =
  if is_snapshot v then raise Read_only;
  mgmt v.c (Snapshot { src = v.vid })
