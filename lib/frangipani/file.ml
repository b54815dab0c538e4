(** File-content block mapping and data I/O (§3): the first 64 KB of
    a file live in 16 small (4 KB) blocks, the remainder in one large
    (1 TB) block; directories use the metadata pools so their freed
    blocks are never recycled as user data (§4).

    Callers hold the file's lock (W for writes, R for reads); all
    functions here assume it. *)

open Errors

let small_pool ~meta = if meta then Layout.Small_meta else Layout.Small_data
let large_pool ~meta = if meta then Layout.Large_meta else Layout.Large_data

(* Petal address of the file block containing byte [boff] (block
   aligned), if mapped. Which address pool a block number refers to
   is determined by the inode type: only directories keep content in
   the metadata pools (symlink targets are inline). *)
let block_addr (ino : Ondisk.inode) ~boff =
  let meta = ino.itype = Ondisk.Dir in
  if boff < Layout.small_area_per_file then begin
    match ino.small.(boff / Layout.small_block) with
    | 0 -> None
    | v -> Some (Layout.small_addr (small_pool ~meta) (v - 1))
  end
  else
    match ino.large with
    | 0 -> None
    | v ->
      Some
        (Layout.large_addr (large_pool ~meta) (v - 1)
        + boff - Layout.small_area_per_file)

(* Ensure the block containing [boff] is mapped, allocating (in its
   own transaction) if needed. [meta] selects the directory pools.
   Returns the (possibly updated) inode and the block address. *)
let ensure_block ctx inum (ino : Ondisk.inode) ~boff ~meta =
  if boff >= Layout.small_area_per_file + Layout.large_block then fail Efbig;
  match block_addr ino ~boff with
  | Some a -> (ino, a)
  | None ->
    Cache.with_txn ctx.Ctx.cache (fun txn ->
        if boff < Layout.small_area_per_file then begin
          let b = Alloc.alloc ctx txn (small_pool ~meta) in
          let small = Array.copy ino.small in
          small.(boff / Layout.small_block) <- b + 1;
          let ino = { ino with small } in
          Inode.write ctx txn inum ino;
          (ino, Layout.small_addr (small_pool ~meta) b)
        end
        else begin
          let l = Alloc.alloc ctx txn (large_pool ~meta) in
          let ino = { ino with large = l + 1 } in
          Inode.write ctx txn inum ino;
          ( ino,
            Layout.large_addr (large_pool ~meta) l
            + boff - Layout.small_area_per_file )
        end)

(* Split [off, off+len) into block-aligned pieces:
   (block_start, offset_within_block, piece_len). *)
let pieces ~off ~len =
  let rec go off len acc =
    if len <= 0 then List.rev acc
    else begin
      let boff = off / Layout.block * Layout.block in
      let within = off - boff in
      let n = min len (Layout.block - within) in
      go (off + n) (len - n) ((boff, within, n) :: acc)
    end
  in
  go off len []

(* The blocks starting in [[from, upto)] ([from] block-aligned) that
   are mapped but neither cached nor already being fetched — what a
   fetch would actually transfer. Holes are skipped (they read as
   zeros without I/O). *)
let missing_blocks ctx (ino : Ondisk.inode) ~from ~upto =
  let rec go boff acc =
    if boff < from then acc
    else
      go (boff - Layout.block)
        (match block_addr ino ~boff with
        | Some addr when not (Cache.present ctx.Ctx.cache addr) -> boff :: acc
        | _ -> acc)
  in
  if upto <= from then []
  else go ((upto - 1) / Layout.block * Layout.block) []

(* Fetch the uncached blocks among [boffs]: cluster their Petal
   addresses into contiguous runs of up to 64 KB (holes and the
   small/large-block address discontinuity split runs naturally) and
   submit every run through one batched scatter-gather fetch. *)
let fetch_blocks ?still_wanted ctx inum
    (ino : Ondisk.inode) boffs =
  let missing =
    List.filter_map (fun boff -> block_addr ino ~boff) boffs
    |> List.filter (fun addr -> not (Cache.present ctx.Ctx.cache addr))
    |> List.sort_uniq compare
  in
  let runs =
    List.fold_left
      (fun acc addr ->
        match acc with
        | (a0, len) :: rest when a0 + len = addr && len < 65536 ->
          (a0, len + Layout.block) :: rest
        | _ -> (addr, Layout.block) :: acc)
      [] missing
    |> List.rev
  in
  Cache.fill_runs ?still_wanted ctx.Ctx.cache
    (List.map
       (fun (addr, len) -> (Ctx.data_lock ctx ~inum ~addr, addr, len))
       runs)
    ~granule:Layout.block

(** Read file content; holes and the region past EOF read as zeros
    (the caller clamps [len] to size if it wants POSIX reads). *)
let read ctx inum (ino : Ondisk.inode) ~off ~len =
  Ctx.charge_bytes ctx len;
  let ps = pieces ~off ~len in
  if not ctx.Ctx.config.block_locks then
    fetch_blocks ctx inum ino (List.map (fun (boff, _, _) -> boff) ps);
  let buf = Bytes.make len '\000' in
  List.iter
    (fun (boff, within, n) ->
      match block_addr ino ~boff with
      | None -> ()
      | Some addr ->
        let lock = Ctx.data_lock ctx ~inum ~addr in
        if ctx.Ctx.config.block_locks then
          Locksvc.Clerk.acquire ctx.Ctx.clerk ~lock Locksvc.Types.R;
        let data = Cache.read ctx.Ctx.cache ~lock ~addr ~len:Layout.block in
        Bytes.blit data within buf (boff + within - off) n;
        if ctx.Ctx.config.block_locks then
          Locksvc.Clerk.release ctx.Ctx.clerk ~lock Locksvc.Types.R)
    ps;
  buf

(** Write file content, allocating blocks as needed; returns the
    updated inode (size and mtime already updated and logged). *)
let write ctx inum (ino : Ondisk.inode) ~off ~data ~meta =
  let len = Bytes.length data in
  Ctx.charge_bytes ctx len;
  let ino = ref ino in
  List.iter
    (fun (boff, within, n) ->
      let ino', addr = ensure_block ctx inum !ino ~boff ~meta in
      ino := ino';
      let lock = Ctx.data_lock ctx ~inum ~addr in
      if ctx.Ctx.config.block_locks then
        Locksvc.Clerk.acquire ctx.Ctx.clerk ~lock Locksvc.Types.W;
      let piece = Bytes.sub data (boff + within - off) n in
      if within = 0 && n = Layout.block then
        Cache.write_data ctx.Ctx.cache ~lock ~addr ~bytes:piece
      else
        Cache.update_data ctx.Ctx.cache ~lock ~addr ~len:Layout.block ~off:within
          ~bytes:piece;
      if ctx.Ctx.config.block_locks then
        Locksvc.Clerk.release ctx.Ctx.clerk ~lock Locksvc.Types.W)
    (pieces ~off ~len);
  let newsize = max !ino.size (off + len) in
  Cache.with_txn ctx.Ctx.cache (fun txn ->
      let ino' = { !ino with size = newsize; mtime = Simkit.Sim.now () } in
      Inode.write ctx txn inum ino';
      ino := ino');
  !ino

(** The (pool, bit) list backing a file's content — what must be
    freed when it is destroyed. *)
let content_bits (ino : Ondisk.inode) ~meta =
  let bits = ref [] in
  Array.iter
    (fun v -> if v <> 0 then bits := (small_pool ~meta, v - 1) :: !bits)
    ino.small;
  if ino.large <> 0 then bits := (large_pool ~meta, ino.large - 1) :: !bits;
  List.rev !bits

(** Truncate to [size]; frees whole blocks past the end and zeroes
    the cached tail of the last partial block. Returns the updated
    inode (not yet written — the caller's transaction does that). *)
let truncate ctx txn inum (ino : Ondisk.inode) ~size ~meta =
  if size > ino.size then { ino with size }
  else begin
    let keep_blocks = (size + Layout.block - 1) / Layout.block in
    let small = Array.copy ino.small in
    let freed = ref [] in
    Array.iteri
      (fun i v ->
        if v <> 0 && i >= keep_blocks then begin
          freed := (small_pool ~meta, v - 1) :: !freed;
          small.(i) <- 0
        end)
      small;
    let large =
      if ino.large <> 0 && size <= Layout.small_area_per_file then begin
        freed := (large_pool ~meta, ino.large - 1) :: !freed;
        0
      end
      else ino.large
    in
    if !freed <> [] then Alloc.free_many ctx txn (List.rev !freed);
    (* Zero the tail of the last partial block so data exposed by a
       later extension reads as zeros. *)
    let ino' = { ino with small; large; size } in
    (if size mod Layout.block <> 0 then begin
       let boff = size / Layout.block * Layout.block in
       match block_addr ino' ~boff with
       | Some addr ->
         let lock = Ctx.data_lock ctx ~inum ~addr in
         let tail = Layout.block - (size mod Layout.block) in
         Cache.update_data ctx.Ctx.cache ~lock ~addr ~len:Layout.block
           ~off:(size mod Layout.block) ~bytes:(Bytes.make tail '\000')
       | None -> ()
     end);
    ino'
  end
