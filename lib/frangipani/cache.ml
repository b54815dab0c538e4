open Stdext
open Simkit

type entry = {
  addr : int;
  mutable data : bytes;
  mutable dirty : bool;
  mutable gen : int; (* bumped on every modification (flush races) *)
  mutable rid : int; (* newest log record describing this entry *)
  mutable pre : bytes option;
      (* the bytes from before the open transaction's first update:
         [Some] exactly while a transaction that touched this sector is
         open. A flush writes this committed image instead of [data],
         so unlogged bytes never reach Petal, and an abort restores
         it. *)
  mutable flushing : bool; (* a write-back for this entry is in flight *)
  mutable lo : int;
  mutable hi : int;
      (* [lo, hi): the bytes that logged updates changed since the entry
         was last clean (empty when [hi <= lo]). Every logged diff of
         the sector carries this whole span, so its newest record alone
         turns Petal's copy into the committed image. *)
  lock : int;
}

type t = {
  vd : Petal.Client.vdisk;
  wal : Wal.t;
  lease_ok : unit -> bool;
  tbl : (int, entry) Hashtbl.t;
  by_lock : (int, (int, unit) Hashtbl.t) Hashtbl.t;
  inflight : (int, unit Sim.Ivar.t) Hashtbl.t; (* fetch dedup *)
  mutable dirty_bytes : int;
  mutable wb_running : bool; (* background write-behind active *)
  flush_done : Sim.Condition.t; (* signalled as write-back runs complete *)
  mutable hits : int;
  mutable misses : int;
}

(* Start draining to Petal in the background once this much data is
   dirty, so streaming writes overlap with the flush (the kernel's
   write-behind). *)
let writeback_threshold = 1 lsl 20 (* bytes *)

let mark_dirty t e =
  if not e.dirty then begin
    e.dirty <- true;
    t.dirty_bytes <- t.dirty_bytes + Bytes.length e.data
  end;
  e.gen <- e.gen + 1

(* Petal now holds [e.data]: the next logged diff starts a new span. *)
let mark_clean t e =
  if e.dirty then begin
    e.dirty <- false;
    t.dirty_bytes <- t.dirty_bytes - Bytes.length e.data
  end;
  e.lo <- max_int;
  e.hi <- 0

type txn = {
  mutable diffs : Wal.diff list;
  mutable touched : entry list;
  mutable post : (unit -> unit) list; (* run after commit (lock releases) *)
}

let create ~vd ~wal ~lease_ok =
  { vd; wal; lease_ok; tbl = Hashtbl.create 4096; by_lock = Hashtbl.create 256;
    inflight = Hashtbl.create 64; dirty_bytes = 0; wb_running = false;
    flush_done = Sim.Condition.create (); hits = 0; misses = 0 }

let lock_index t lock =
  match Hashtbl.find_opt t.by_lock lock with
  | Some s -> s
  | None ->
    let s = Hashtbl.create 16 in
    Hashtbl.replace t.by_lock lock s;
    s

(* Create a clean entry for [addr] holding [data] and index it under
   [lock]. *)
let add_clean t ~lock ~addr data =
  let e =
    { addr; data; dirty = false; gen = 0; rid = 0; pre = None; flushing = false;
      lo = max_int; hi = 0; lock }
  in
  Hashtbl.replace t.tbl addr e;
  Hashtbl.replace (lock_index t lock) addr ();
  e

let rec entry t ~lock ~addr ~len =
  match Hashtbl.find_opt t.tbl addr with
  | Some e ->
    t.hits <- t.hits + 1;
    e
  | None -> (
    match Hashtbl.find_opt t.inflight addr with
    | Some iv ->
      (* Someone (often the read-ahead) is already fetching it. *)
      Sim.Ivar.read iv;
      entry t ~lock ~addr ~len
    | None ->
      t.misses <- t.misses + 1;
      let iv = Sim.Ivar.create () in
      Hashtbl.replace t.inflight addr iv;
      let finish () =
        Hashtbl.remove t.inflight addr;
        Sim.Ivar.fill iv ()
      in
      let data =
        try Petal.Client.read t.vd ~off:addr ~len
        with ex ->
          finish ();
          raise ex
      in
      let e = add_clean t ~lock ~addr data in
      finish ();
      e)

let read t ~lock ~addr ~len = (entry t ~lock ~addr ~len).data

let with_txn t f =
  let txn = { diffs = []; touched = []; post = [] } in
  (* Close the transaction, then run its commit hooks (lock
     releases). An abort first restores the pre-transaction bytes: its
     diffs are dropped unlogged, so the cache must not keep them
     either, or they would later reach Petal under an older, already
     durable record. *)
  let close ~abort =
    List.iter
      (fun e ->
        (match e.pre with
        | Some img when abort -> Bytes.blit img 0 e.data 0 (Bytes.length img)
        | _ -> ());
        e.pre <- None)
      txn.touched;
    List.iter (fun g -> g ()) (List.rev txn.post)
  in
  let r =
    try f txn
    with e ->
      close ~abort:true;
      raise e
  in
  (match txn.diffs with
  | [] -> ()
  | diffs -> (
    match Wal.append t.wal (List.rev diffs) with
    | rid -> List.iter (fun e -> e.rid <- max e.rid rid) txn.touched
    | exception ex ->
      (* A synchronous flush failed (Petal unreachable): the record
         was still enqueued under the WAL's newest rid and will be
         retried, so stamp the touched entries conservatively — and
         commit, running the commit hooks (lock releases!) before
         re-raising, or the locks leak forever. *)
      List.iter (fun e -> e.rid <- max e.rid (Wal.last_rid t.wal)) txn.touched;
      close ~abort:false;
      raise ex));
  close ~abort:false;
  r

let on_commit txn g = txn.post <- g :: txn.post

(* Widen [e]'s span by the bytes of [data] that differ from the
   cached image at [off]. *)
let widen e ~off data =
  let len = Bytes.length data in
  let same i = Bytes.get data i = Bytes.get e.data (off + i) in
  let first = ref 0 in
  while !first < len && same !first do incr first done;
  if !first < len then begin
    let last = ref (len - 1) in
    while same !last do decr last done;
    e.lo <- min e.lo (off + !first);
    e.hi <- max e.hi (off + !last + 1)
  end

(* The diff covers the entry's whole span, not just this update's
   bytes, and replaces any earlier diff of the sector in [txn]: one
   diff per sector per record, since replay stamps the version with
   the first diff it applies and skips any other with that version. *)
let update t txn ~lock ~addr ~off ~bytes:data =
  assert (
    addr mod Layout.sector = 0 && off >= 8 && off + Bytes.length data <= Layout.sector);
  let e = entry t ~lock ~addr ~len:Layout.sector in
  if e.pre = None then e.pre <- Some (Bytes.copy e.data);
  let version = Codec.get_int e.data 0 + 1 in
  Codec.put_int e.data 0 version;
  widen e ~off data;
  Bytes.blit data 0 e.data off (Bytes.length data);
  mark_dirty t e;
  let doff, dlen = if e.hi > e.lo then (e.lo, e.hi - e.lo) else (off, 0) in
  let d = { Wal.addr; doff; data = Bytes.sub e.data doff dlen; version } in
  txn.diffs <- d :: List.filter (fun (d : Wal.diff) -> d.addr <> addr) txn.diffs;
  txn.touched <- e :: txn.touched

let update_nolog t ~lock ~addr ~off ~bytes:data =
  let e = entry t ~lock ~addr ~len:Layout.sector in
  Codec.put_int e.data 0 (Codec.get_int e.data 0 + 1);
  Bytes.blit data 0 e.data off (Bytes.length data);
  mark_dirty t e

(* Partial user-data update: read-modify-write within a cached block
   of [len] bytes (fetched on miss). Not logged, no version field. *)
let update_data t ~lock ~addr ~len ~off ~bytes:data =
  let e = entry t ~lock ~addr ~len in
  Bytes.blit data 0 e.data off (Bytes.length data);
  mark_dirty t e

let write_data t ~lock ~addr ~bytes:data =
  match Hashtbl.find_opt t.tbl addr with
  | Some e ->
    t.hits <- t.hits + 1;
    Bytes.blit data 0 e.data 0 (Bytes.length data);
    mark_dirty t e
  | None ->
    (* A full-block overwrite needs no fetch, but it is still an
       entry-creation path: count the miss so {!stats} agrees across
       paths. *)
    t.misses <- t.misses + 1;
    mark_dirty t (add_clean t ~lock ~addr (Bytes.copy data))

let mem t addr = Hashtbl.mem t.tbl addr
let present t addr = Hashtbl.mem t.tbl addr || Hashtbl.mem t.inflight addr

(* Fetch several [(lock, addr, len)] runs with one Petal submission
   (the client fans the chunk pieces of every run out concurrently
   and coalesces adjacent pieces) and populate entries of [granule]
   bytes each — the batched miss path of a scatter-gather read.
   Granules already cached or being fetched elsewhere are skipped;
   readers of those wait on the other fetch through {!entry}. *)
let fill_runs ?(still_wanted = fun () -> true) t runs
    ~granule =
  (* Granules already cached (or being fetched) are hits of the
     read-ahead; misses are counted below, per entry this fetch
     actually fills — a failed read counts nothing, and granules
     someone else inserts while the fetch is in flight stay
     theirs. *)
  let prepared =
    List.filter_map
      (fun (lock, addr, len) ->
        if len <= 0 then None
        else begin
          let requested = List.init (len / granule) (fun i -> addr + (i * granule)) in
          let wanted = List.filter (fun a -> not (present t a)) requested in
          t.hits <- t.hits + (List.length requested - List.length wanted);
          if wanted = [] then None else Some (lock, addr, len, wanted)
        end)
      runs
  in
  if prepared <> [] then begin
    let ivs =
      List.concat_map
        (fun (_, _, _, wanted) -> List.map (fun a -> (a, Sim.Ivar.create ())) wanted)
        prepared
    in
    List.iter (fun (a, iv) -> Hashtbl.replace t.inflight a iv) ivs;
    let finish () =
      List.iter
        (fun (a, iv) ->
          Hashtbl.remove t.inflight a;
          Sim.Ivar.fill iv ())
        ivs
    in
    (* One submission for all runs: the Petal client fans the chunk
       pieces out concurrently and coalesces across run boundaries. *)
    let datas =
      try
        Petal.Client.read_runs t.vd
          (List.map (fun (_, addr, len, _) -> (addr, len)) prepared)
      with ex ->
        finish ();
        raise ex
    in
    (* A cancelled prefetch (its lock was revoked mid-fetch) must not
       insert: the data may be stale by now. Waiters parked on the
       inflight ivars re-check the table and fetch for themselves. *)
    let insert = still_wanted () in
    List.iter2
      (fun (lock, addr, _, wanted) data ->
        List.iter
          (fun a ->
            if insert && not (Hashtbl.mem t.tbl a) then begin
              t.misses <- t.misses + 1;
              ignore (add_clean t ~lock ~addr:a (Bytes.sub data (a - addr) granule))
            end)
          wanted)
      prepared datas;
    finish ()
  end

(* Write a set of dirty entries back to Petal: log records first
   (write-ahead), then the entries clustered into naturally-aligned
   runs of up to 64 KB (§9.2), all runs submitted asynchronously
   before waiting once. Backpressure is the Petal client's bounded
   in-flight pool, so submission itself throttles when the pipe is
   full. *)
let max_run = 65536

(* Cluster address-sorted dirty entries into contiguous runs that do
   not cross a naturally-aligned 64 KB boundary. *)
let group_runs dirty =
  List.fold_left
    (fun acc e ->
      match acc with
      | (last :: _ as run) :: rest
        when last.addr + Bytes.length last.data = e.addr
             && e.addr / max_run = last.addr / max_run ->
        (e :: run) :: rest
      | _ -> [ e ] :: acc)
    [] dirty
  |> List.rev_map List.rev

(* Submit the address-sorted [entries] as ONE scatter-gather Petal
   write, then wait for it. No two runs need merging on the wire:
   [group_runs] makes each run maximal inside its naturally aligned
   64 KB window, and that window is exactly one Petal chunk
   ([Petal.Protocol.chunk_bytes]), so every run is one chunk piece and
   no two runs touch inside one chunk. Each entry goes out as its
   committed image: its pre-transaction bytes while a transaction
   that touched it is open, [data] otherwise. Once the batch lands, an
   entry written from [data] whose generation is unchanged becomes
   clean; one written from its old image stays dirty. The in-flight
   flags drop even when the write fails (e.g. the host died), so no
   entry is left marked in flight forever. *)
let write_runs t entries =
  let runs = group_runs entries in
  let sent = List.map (fun e -> (e, e.gen, e.pre = None)) entries in
  let image e = Option.value e.pre ~default:e.data in
  let extents =
    List.map
      (fun run ->
        ((List.hd run).addr, Bytes.concat Bytes.empty (List.map image run)))
      runs
  in
  List.iter (fun e -> e.flushing <- true) entries;
  let finish () =
    List.iter (fun e -> e.flushing <- false) entries;
    Sim.Condition.broadcast t.flush_done
  in
  match
    List.iter (fun _ -> Faultpoint.hit "cache.write_run") runs;
    Petal.Client.write_runs t.vd extents
  with
  | () ->
    List.iter (fun (e, g, current) -> if current && e.gen = g then mark_clean t e) sent;
    finish ()
  | exception ex ->
    finish ();
    raise ex

(* An entry a flush may write: resident (not invalidated and replaced,
   nor handed to another server), dirty, and described by no record
   newer than [upto], which the flush made durable. *)
let writable t ~upto e =
  e.dirty && e.rid <= upto
  && match Hashtbl.find_opt t.tbl e.addr with Some e' -> e' == e | None -> false

(* The one write-back path: sync, fsync, revoke, write-behind and the
   WAL's reclaim. First block until the log holds every handed entry's
   newest record (write-ahead). While we block, a revoke can flush and
   invalidate an entry and pass its lock to another server, whose
   newer bytes the stale copy would then overwrite; or a transaction
   can re-dirty an entry under a newer record, which must reach the
   log first. Such an entry stays dirty for the next flush: waiting
   again here would chase a writer that re-logs its inode on every
   call. (A revoke's flush never sees one: the clerk admits no local
   user of the lock while it runs.) The reclaim hook hands only
   entries whose records are durable, so its log wait returns at once.

   Entries another flush is writing are not re-sent; we wait for
   those writes instead. If one of them fails (or wrote an older
   image), this flush writes what it left dirty at the generation we
   saw. So a flush returns only once every handed entry is on Petal as
   of the call, and raises otherwise. *)
let flush_entries t entries =
  let handed =
    List.filter (fun e -> e.dirty) entries
    |> List.sort_uniq (fun a b -> compare a.addr b.addr)
  in
  let upto = List.fold_left (fun acc e -> max acc e.rid) 0 handed in
  if upto > 0 then Wal.ensure_flushed t.wal upto;
  let rec go entries =
    let busy, mine =
      List.partition (fun e -> e.flushing) (List.filter (writable t ~upto) entries)
    in
    let seen = List.map (fun e -> (e, e.gen)) busy in
    if mine <> [] then begin
      if not (t.lease_ok ()) then Errors.fail Errors.Eio;
      write_runs t mine
    end;
    List.iter
      (fun e ->
        while e.flushing do
          Sim.Condition.wait t.flush_done
        done)
      busy;
    match List.filter_map (fun (e, g) -> if e.gen = g then Some e else None) seen with
    | [] -> ()
    | left -> go left
  in
  go handed

let flush_lock t lock =
  match Hashtbl.find_opt t.by_lock lock with
  | None -> ()
  | Some s ->
    let entries =
      Hashtbl.fold
        (fun a () acc ->
          match Hashtbl.find_opt t.tbl a with Some e -> e :: acc | None -> acc)
        s []
    in
    flush_entries t entries

let invalidate_lock t lock =
  match Hashtbl.find_opt t.by_lock lock with
  | None -> ()
  | Some s ->
    Hashtbl.iter
      (fun a () ->
        match Hashtbl.find_opt t.tbl a with
        | Some e ->
          assert (not e.dirty);
          Hashtbl.remove t.tbl a
        | None -> ())
      s;
    Hashtbl.remove t.by_lock lock

let flush_all t =
  flush_entries t (Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl [])

let flush_upto_rid t bound =
  flush_entries t
    (Hashtbl.fold
       (fun _ e acc -> if e.dirty && e.rid > 0 && e.rid <= bound then e :: acc else acc)
       t.tbl [])

let drop_clean t =
  let doomed =
    Hashtbl.fold (fun a e acc -> if e.dirty then acc else (a, e.lock) :: acc) t.tbl []
  in
  List.iter
    (fun (a, lock) ->
      Hashtbl.remove t.tbl a;
      match Hashtbl.find_opt t.by_lock lock with
      | Some s -> Hashtbl.remove s a
      | None -> ())
    doomed

let discard_volatile t =
  Hashtbl.reset t.tbl;
  Hashtbl.reset t.by_lock;
  t.dirty_bytes <- 0

let dirty_bytes t = t.dirty_bytes

(* Background write-behind: once enough data is dirty, drain it to
   Petal concurrently with the writer, like the kernel's update/
   bdflush pair. The drainer runs an elevator loop — each sweep
   snapshots the dirty set (flush_entries sorts it by address and
   coalesces adjacent runs) — and keeps sweeping while the writer
   stays ahead of it, so a streaming write overlaps its entire drain
   instead of leaving everything after the first sweep's snapshot to
   the final sync. Failures leave the data dirty for the next sync. *)
let maybe_writeback t =
  if (not t.wb_running) && t.dirty_bytes >= writeback_threshold then begin
    t.wb_running <- true;
    Sim.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> t.wb_running <- false)
          (fun () ->
            try
              let continue = ref true in
              while !continue && t.dirty_bytes >= writeback_threshold / 2 do
                let before = t.dirty_bytes in
                flush_entries t (Hashtbl.fold (fun _ e acc -> e :: acc) t.tbl []);
                (* No progress (everything left belongs to an open
                   transaction, or was re-dirtied under a record not
                   yet logged): stop rather than spin. *)
                if t.dirty_bytes >= before then continue := false
              done
            with _ -> ()))
  end
let stats t = (t.hits, t.misses)
