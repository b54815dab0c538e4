open Stdext
open Simkit

type diff = { addr : int; doff : int; data : bytes; version : int }

let payload_cap = 496 (* 512 - 8 lsn - 2 first_rec - 2 len - 4 crc *)

(* One flusher at a time takes every pending record, packs the batch
   into 512-byte sector images (bounded "groups" of sectors), and
   writes the groups to Petal in LSN order, reclaiming log space ahead
   of the write cursor between groups. Callers that need records
   durable while a flush is writing wait for it; the next batch
   carries their records (group commit).

   LSNs are stamped at write time, not at formatting: a failed flush
   puts its unwritten records back and the retry reuses the same LSN
   range, so the on-disk LSN sequence never develops a gap — recovery
   replays the maximal run of consecutive LSNs ending at the highest
   one, and a gap would silently cut durable records out of the
   replay window. *)
type group = {
  g_sectors : bytes list;
      (* formatted sector images, LSN and CRC fields still zero *)
  g_rids : int list;
      (* per sector: the highest rid wholly contained once that sector
         is durable (0 if no record ends in it) *)
}

type wal_stats = {
  mutable flush_groups : int;
  mutable pipeline_overlaps : int;
  mutable log_pressure_stalls : int;
  mutable reclaim_rounds : int;
  mutable ensure_stalls : int;
  mutable appended_bytes : int;
  mutable written_bytes : int;
}

type t = {
  vd : Petal.Client.vdisk;
  slot : int;
  synchronous : bool;
  lease_ok : unit -> bool;
  mutable reclaim : upto_rid:int -> unit;
  mutable next_rid : int;
  mutable flushed_rid : int; (* records <= this are durable *)
  mutable next_lsn : int; (* next sector lsn to write (starts at 1) *)
  mutable applied_barrier : int; (* sectors <= this have their metadata applied *)
  mutable rid_at_lsn : (int * int) list; (* (lsn, last rid fully contained) newest first *)
  mutable pending : (int * bytes) list; (* (rid, serialized record) newest first *)
  mutable pending_bytes : int;
  mutable flushing : bool; (* the single flusher is writing a batch *)
  mutable batch : (int * bytes) list;
      (* the records that flush took, oldest first; emptied by
         [discard_volatile] so a crash during the write requeues none *)
  flush_done : Sim.Condition.t;
  st : wal_stats;
}

(* Sectors per group: the granularity at which the flusher reclaims
   ahead of the write cursor and wakes waiters. Must stay well below
   the log's sector count. *)
let group_sector_cap = 64

let create ~vd ~slot ~synchronous ~lease_ok () =
  {
    vd;
    slot;
    synchronous;
    lease_ok;
    reclaim = (fun ~upto_rid:_ -> ());
    next_rid = 0;
    flushed_rid = 0;
    next_lsn = 1;
    applied_barrier = 0;
    rid_at_lsn = [];
    pending = [];
    pending_bytes = 0;
    flushing = false;
    batch = [];
    flush_done = Sim.Condition.create ();
    st =
      {
        flush_groups = 0;
        pipeline_overlaps = 0;
        log_pressure_stalls = 0;
        reclaim_rounds = 0;
        ensure_stalls = 0;
        appended_bytes = 0;
        written_bytes = 0;
      };
  }

let set_reclaim_hook t f = t.reclaim <- f
let last_rid t = t.next_rid

let stats t = { t.st with flush_groups = t.st.flush_groups }

let serialize_record diffs =
  let w = Codec.W.create ~size:128 () in
  Codec.W.u16 w (List.length diffs);
  List.iter
    (fun d ->
      assert (d.addr mod Layout.sector = 0);
      assert (d.doff + Bytes.length d.data <= Layout.sector);
      Codec.W.int w d.addr;
      Codec.W.u16 w d.doff;
      Codec.W.u16 w (Bytes.length d.data);
      Codec.W.int w d.version;
      Codec.W.bytes w d.data)
    diffs;
  let body = Codec.W.contents w in
  let out = Codec.W.create ~size:(Bytes.length body + 4) () in
  Codec.W.u32 out (Bytes.length body);
  Codec.W.bytes out body;
  Codec.W.contents out

let sector_addr t lsn =
  Layout.log_addr ~slot:t.slot + ((lsn - 1) mod Layout.log_sectors * Layout.sector)

(* --- formatting ---------------------------------------------------------- *)

(* Pack [records] (oldest first) into one group of formatted sector
   images. Pure computation: no Petal I/O, no LSN consumption. *)
let format_group records =
  let total = List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 records in
  let stream = Bytes.create total in
  let starts = ref [] (* stream offset of each record start *)
  and ends = ref [] (* (stream end offset, rid) *) in
  let pos = ref 0 in
  List.iter
    (fun (rid, b) ->
      starts := !pos :: !starts;
      Bytes.blit b 0 stream !pos (Bytes.length b);
      pos := !pos + Bytes.length b;
      ends := (!pos, rid) :: !ends)
    records;
  let starts = List.rev !starts and ends = List.rev !ends in
  let nsectors = (total + payload_cap - 1) / payload_cap in
  let build s =
    let off = s * payload_cap in
    let len = min payload_cap (total - off) in
    let sector = Bytes.make Layout.sector '\000' in
    let first_rec =
      match List.find_opt (fun st -> st >= off && st < off + len) starts with
      | Some st -> st - off
      | None -> 0xffff
    in
    Codec.put_u16 sector 8 first_rec;
    Codec.put_u16 sector 10 len;
    Bytes.blit stream off sector 12 len;
    sector
  in
  let durable s =
    let off = s * payload_cap in
    let len = min payload_cap (total - off) in
    List.fold_left
      (fun acc (e, r) -> if e <= off + len then max acc r else acc)
      0 ends
  in
  { g_sectors = List.init nsectors build; g_rids = List.init nsectors durable }

(* Split [records] (oldest first) into groups of at most
   [group_sector_cap] sectors, cut only between records: a record
   longer than the cap gets a group to itself. A group that lands
   therefore ends on a whole record, and the records a failed flush
   puts back all start in groups that never landed — a retry that
   re-formatted a record whose head had already landed would leave
   that head in the log ahead of a full copy, and replay would stop
   at it. *)
let make_groups records =
  let sectors bytes = (bytes + payload_cap - 1) / payload_cap in
  let rec split acc cur cur_bytes = function
    | [] -> List.rev (if cur = [] then acc else List.rev cur :: acc)
    | ((_, b) as r) :: rest ->
      let n = cur_bytes + Bytes.length b in
      if cur <> [] && sectors n > group_sector_cap then
        split (List.rev cur :: acc) [ r ] (Bytes.length b) rest
      else split acc (r :: cur) n rest
  in
  List.map format_group (split [] [] 0 records)

(* --- writing ------------------------------------------------------------- *)

(* Apply (via the reclaim hook) every record wholly contained in
   sectors with lsn <= [upto], then advance the applied barrier. *)
let reclaim_upto t upto =
  t.st.reclaim_rounds <- t.st.reclaim_rounds + 1;
  let rid_limit =
    List.fold_left
      (fun acc (l, r) -> if l <= upto then max acc r else acc)
      0 t.rid_at_lsn
  in
  if rid_limit > 0 then t.reclaim ~upto_rid:rid_limit;
  t.applied_barrier <- max t.applied_barrier upto;
  t.rid_at_lsn <- List.filter (fun (l, _) -> l > upto) t.rid_at_lsn

(* Proactive reclaim, run between group submissions: once the live
   window passes 3/4 of the log, apply the older half now — off the
   overwrite path — so the hard guard in [write_group] (a log-pressure
   stall) rarely fires. Smarter than the paper's reclaim-a-quarter-
   when-full policy, which pays the whole application inside the
   stalled flush. *)
let maybe_reclaim_ahead t =
  let landed = t.next_lsn - 1 in
  if landed - t.applied_barrier > Layout.log_sectors * 3 / 4 then
    reclaim_upto t (landed - (Layout.log_sectors / 2))

(* Stamp LSNs and CRCs onto one group's sectors and write them.
   Recovery replays the maximal run of consecutive LSNs ending at the
   highest one, so a log sector must never become durable before its
   predecessors (prefix durability) — a crash mid-group must not leave
   an orphaned suffix that replay would apply without the records
   preceding it. The group is split wherever one Petal write would
   stop being a single failure-atomic piece — at the circular-buffer
   wrap and at chunk boundaries — and the pieces are written strictly
   in order, each awaited before the next is submitted.

   [t.next_lsn] advances only after the whole group has landed, so a
   failed group's retry reuses its LSN range (overwriting whatever
   prefix of the old attempt landed — harmless, replay is
   version-checked). *)
let write_group t g =
  let n = List.length g.g_sectors in
  let base = t.next_lsn in
  let last_lsn = base + n - 1 in
  (* Make room: sectors about to be overwritten held lsn minus the log
     size; everything they described must be in place first. *)
  if last_lsn > Layout.log_sectors && last_lsn - Layout.log_sectors > t.applied_barrier
  then begin
    t.st.log_pressure_stalls <- t.st.log_pressure_stalls + 1;
    reclaim_upto t (last_lsn - 1)
  end;
  let sectors =
    List.mapi
      (fun i sector ->
        let lsn = base + i in
        Codec.put_int sector 0 lsn;
        Codec.put_u32 sector 508 (Crc32.bytes sector 0 508);
        (lsn, sector))
      g.g_sectors
  in
  let chunk = Petal.Protocol.chunk_bytes in
  let rec runs = function
    | [] -> []
    | (lsn0, _) :: _ as rest ->
      let pos0 = (lsn0 - 1) mod Layout.log_sectors in
      let addr0 = sector_addr t lsn0 in
      let to_wrap = Layout.log_sectors - pos0 in
      let to_chunk = (chunk - (addr0 mod chunk)) / Layout.sector in
      let fit = min (List.length rest) (min to_wrap to_chunk) in
      let run = List.filteri (fun i _ -> i < fit) rest in
      let tail = List.filteri (fun i _ -> i >= fit) rest in
      (addr0, run) :: runs tail
  in
  List.iter
    (fun (addr0, run) ->
      Petal.Client.write t.vd ~off:addr0
        (Bytes.concat Bytes.empty (List.map snd run));
      Faultpoint.hit "wal.commit")
    (runs sectors);
  t.st.written_bytes <- t.st.written_bytes + (n * Layout.sector);
  (* Account durability per written sector. *)
  List.iteri
    (fun i rid ->
      let r = max t.flushed_rid rid in
      t.flushed_rid <- r;
      t.rid_at_lsn <- (base + i, r) :: t.rid_at_lsn)
    g.g_rids;
  t.next_lsn <- base + n

(* --- the flusher --------------------------------------------------------- *)

(* Put a failed flush's unwritten records back at the front of the
   pending list (their rids precede every record appended since) and
   wake the waiters, so they retry or observe the failure instead of
   parking on [flush_done] forever. *)
let requeue t =
  let unwritten = List.filter (fun (rid, _) -> rid > t.flushed_rid) t.batch in
  t.batch <- [];
  t.pending <- t.pending @ List.rev unwritten;
  t.pending_bytes <-
    List.fold_left (fun acc (_, b) -> acc + Bytes.length b) 0 t.pending;
  t.flushing <- false;
  Sim.Condition.broadcast t.flush_done

(* An asynchronous append starts a flush once a quarter of the log is
   pending. *)
let kick_due t = t.pending_bytes >= Layout.log_bytes / 4

(* As the single flusher, write [groups] in order, waking waiters as
   each lands. Once records up to [target] are durable, the rest of
   the batch is left to a background fiber, so a caller that needs
   one record is not held for the appends that piled up behind it.
   A crash or lease loss ([discard_volatile] empties [t.batch]) ends
   the batch after the group in flight. A batch that leaves a quarter
   of the log pending behind it (appended while it was writing)
   starts the next flush. *)
let rec write_groups t ~target = function
  | g :: rest when t.batch <> [] ->
    (try
       write_group t g;
       t.st.flush_groups <- t.st.flush_groups + 1;
       Faultpoint.hit "wal.group";
       Sim.Condition.broadcast t.flush_done;
       maybe_reclaim_ahead t
     with ex ->
       requeue t;
       raise ex);
    if rest <> [] && t.flushed_rid >= target then
      Sim.spawn (fun () -> try write_groups t ~target:max_int rest with _ -> ())
    else write_groups t ~target rest
  | _ ->
    t.batch <- [];
    t.flushing <- false;
    Sim.Condition.broadcast t.flush_done;
    if kick_due t then kick t

(* Take every pending record as one batch and write it. *)
and write_pending t ~target =
  t.flushing <- true;
  t.batch <- List.rev t.pending;
  t.pending <- [];
  t.pending_bytes <- 0;
  write_groups t ~target (make_groups t.batch)

(* Asynchronous flush (the non-synchronous append path): start a
   flusher without blocking the appender. A failure inside it already
   put the records back as pending; it resurfaces at the next
   synchronous flush/fsync. While a flush is writing, the kick is left
   to the end of its batch. *)
and kick t =
  if not t.flushing then
    Sim.spawn (fun () ->
        if (not t.flushing) && kick_due t && t.lease_ok () then
          try write_pending t ~target:max_int with _ -> ())

(* Make records up to [target] durable. If a flush is writing, wait
   for its progress; otherwise write everything pending. If the wait
   ends with the records neither durable nor pending nor being written
   (a crash discarded the volatile tail), return rather than spin —
   the caller runs into the dead host's failure on its next I/O.
   Write failures propagate to every caller that attempts the
   (re-queued) work itself. *)
let rec flush_to t ~target ~on_stall =
  if t.flushed_rid < target then
    if t.flushing then begin
      on_stall ();
      Sim.Condition.wait t.flush_done;
      if t.flushed_rid < target && (t.flushing || t.pending <> []) then
        flush_to t ~target ~on_stall
    end
    else if t.pending <> [] then begin
      if not (t.lease_ok ()) then Errors.fail Errors.Eio;
      write_pending t ~target;
      flush_to t ~target ~on_stall
    end

let flush t = flush_to t ~target:t.next_rid ~on_stall:ignore

let ensure_flushed t rid =
  if rid > t.flushed_rid then
    flush_to t ~target:(min rid t.next_rid) ~on_stall:(fun () ->
        t.st.ensure_stalls <- t.st.ensure_stalls + 1)

let append t diffs =
  Faultpoint.hit "wal.append";
  if t.flushing then t.st.pipeline_overlaps <- t.st.pipeline_overlaps + 1;
  t.next_rid <- t.next_rid + 1;
  let rid = t.next_rid in
  let b = serialize_record diffs in
  t.pending <- (rid, b) :: t.pending;
  t.pending_bytes <- t.pending_bytes + Bytes.length b;
  t.st.appended_bytes <- t.st.appended_bytes + Bytes.length b;
  if t.synchronous then
    flush_to t ~target:rid ~on_stall:ignore
  else if kick_due t then kick t;
  rid

let discard_volatile t =
  t.pending <- [];
  t.pending_bytes <- 0;
  t.batch <- []

(* --- recovery-side scan -------------------------------------------------- *)

type scan_report = {
  diffs : diff list;
  records : int;  (* complete records decoded *)
  live_sectors : int;  (* CRC-valid sectors in the replay window *)
  torn : bool;  (* the stream ended inside an incomplete or garbled record *)
}

let scan_report vd ~slot =
  let base = Layout.log_addr ~slot in
  let raw = Petal.Client.read vd ~off:base ~len:Layout.log_bytes in
  let sectors = ref [] in
  for i = 0 to Layout.log_sectors - 1 do
    let b = Bytes.sub raw (i * Layout.sector) Layout.sector in
    let lsn = Codec.get_int b 0 in
    if
      lsn > 0
      && Codec.get_u16 b 10 <= payload_cap
      && Codec.get_u32 b 508 = Crc32.bytes b 0 508
    then sectors := (lsn, b) :: !sectors
  done;
  let sorted = List.sort (fun (a, _) (b, _) -> compare a b) !sectors in
  (* Maximal run of consecutive LSNs ending at the highest one. *)
  let live =
    List.fold_left
      (fun acc (lsn, b) ->
        match acc with
        | (prev, _) :: _ when lsn = prev + 1 -> (lsn, b) :: acc
        | _ -> [ (lsn, b) ])
      [] sorted
    |> List.rev
  in
  match live with
  | [] -> { diffs = []; records = 0; live_sectors = 0; torn = false }
  | _ ->
    let payloads =
      List.map
        (fun (_, b) ->
          let len = Codec.get_u16 b 10 in
          Bytes.sub b 12 len)
        live
    in
    let stream = Bytes.concat Bytes.empty payloads in
    (* First record boundary: the oldest live sector may begin
       mid-record (its head sectors were already overwritten). *)
    let start =
      let rec find acc sectors payloads =
        match (sectors, payloads) with
        | [], _ | _, [] -> Bytes.length stream
        | (_, b) :: rest, p :: prest ->
          let fr = Codec.get_u16 b 8 in
          if fr <> 0xffff then acc + fr else find (acc + Bytes.length p) rest prest
      in
      find 0 live payloads
    in
    (* Decode records strictly, stopping at the first inconsistency:
       a crash mid-group-commit leaves a torn tail (a length header
       or record body cut off at the last durable sector), and replay
       must apply exactly the valid prefix rather than raise. *)
    let n = Bytes.length stream in
    let diffs = ref [] and records = ref 0 and torn = ref false in
    let pos = ref start in
    (try
       while !pos < n do
         if !pos + 4 > n then begin
           torn := true;
           raise Exit
         end;
         let len = Codec.get_u32 stream !pos in
         if len < 2 || !pos + 4 + len > n then begin
           torn := true;
           raise Exit
         end;
         let stop = !pos + 4 + len in
         let r = Codec.R.of_bytes ~pos:(!pos + 4) stream in
         let rdiffs = ref [] in
         (match
            let ndiffs = Codec.R.u16 r in
            for _ = 1 to ndiffs do
              let addr = Codec.R.int r in
              let doff = Codec.R.u16 r in
              let dlen = Codec.R.u16 r in
              let version = Codec.R.int r in
              if
                addr < 0
                || addr mod Layout.sector <> 0
                || doff + dlen > Layout.sector
                || version <= 0
              then raise Exit;
              let data = Codec.R.bytes r dlen in
              rdiffs := { addr; doff; data; version } :: !rdiffs
            done
          with
         | () when Codec.R.pos r = stop ->
           diffs := !rdiffs @ !diffs;
           incr records;
           pos := stop
         | () ->
           torn := true;
           raise Exit
         | exception (Exit | Codec.R.Underflow) ->
           torn := true;
           raise Exit)
       done
     with Exit -> ());
    {
      diffs = List.rev !diffs;
      records = !records;
      live_sectors = List.length live;
      torn = !torn;
    }

let scan vd ~slot = (scan_report vd ~slot).diffs
