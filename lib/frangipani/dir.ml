(** Directory content: fixed 64-byte slots, seven per 512-byte
    versioned sector, stored in the directory's blocks (allocated
    from the metadata pools). No "." or ".." entries are stored;
    path helpers resolve them lexically. The caller holds the
    directory's lock. *)

open Errors

let slots_per_block = Layout.dir_slots_per_sector * (Layout.block / Layout.sector)

(* Iterate the directory's sectors as (sector_addr) in order. *)
let sectors (ino : Ondisk.inode) =
  let nblocks = ino.size / Layout.block in
  let rec block_list i acc =
    if i >= nblocks then List.rev acc
    else
      match File.block_addr ino ~boff:(i * Layout.block) with
      | Some a -> block_list (i + 1) (a :: acc)
      | None -> block_list (i + 1) acc
  in
  List.concat_map
    (fun base ->
      List.init (Layout.block / Layout.sector) (fun s -> base + (s * Layout.sector)))
    (block_list 0 [])

let lock_of inum = Lockns.inode_lock inum

(* Find [name]; returns (target inum, sector addr, slot index). *)
let find ctx inum ino name =
  let lock = lock_of inum in
  let rec scan = function
    | [] -> None
    | saddr :: rest ->
      let sector = Cache.read ctx.Ctx.cache ~lock ~addr:saddr ~len:Layout.sector in
      let rec slots k =
        if k >= Layout.dir_slots_per_sector then None
        else
          match Ondisk.read_slot sector k with
          | Some (n, target) when n = name -> Some (target, saddr, k)
          | Some _ | None -> slots (k + 1)
      in
      (match slots 0 with Some r -> Some r | None -> scan rest)
  in
  scan (sectors ino)

let lookup ctx inum ino name =
  match find ctx inum ino name with Some (t, _, _) -> Some t | None -> None

let entries ctx inum ino =
  let lock = lock_of inum in
  List.concat_map
    (fun saddr ->
      let sector = Cache.read ctx.Ctx.cache ~lock ~addr:saddr ~len:Layout.sector in
      List.filter_map (Ondisk.read_slot sector)
        (List.init Layout.dir_slots_per_sector Fun.id))
    (sectors ino)

let is_empty ctx inum ino = entries ctx inum ino = []

(* Find a free slot, or extend the directory by one zeroed block.
   Returns the (possibly grown) inode and the slot position. *)
let free_slot ctx txn inum (ino : Ondisk.inode) =
  let lock = lock_of inum in
  let existing =
    List.find_map
      (fun saddr ->
        let sector = Cache.read ctx.Ctx.cache ~lock ~addr:saddr ~len:Layout.sector in
        let rec slots k =
          if k >= Layout.dir_slots_per_sector then None
          else if Ondisk.read_slot sector k = None then Some (saddr, k)
          else slots (k + 1)
        in
        slots 0)
      (sectors ino)
  in
  match existing with
  | Some (saddr, k) -> (ino, saddr, k)
  | None ->
    (* Extend: allocate a block from the metadata pool and zero all
       its slots (a reused metadata block may hold stale entries). *)
    let boff = ino.size in
    if boff >= 64 * slots_per_block * Layout.dir_slot_size * 1024 then fail Enospc;
    let ino, base = File.ensure_block ctx inum ino ~boff ~meta:true in
    for s = 0 to (Layout.block / Layout.sector) - 1 do
      Cache.update ctx.Ctx.cache txn ~lock ~addr:(base + (s * Layout.sector)) ~off:8
        ~bytes:(Bytes.make (Layout.sector - 8) '\000')
    done;
    let ino = { ino with size = ino.size + Layout.block } in
    Inode.write ctx txn inum ino;
    (ino, base, 0)

(** Reject a name no directory slot can hold: empty, containing ['/']
    or longer than {!Layout.max_name}. *)
let check_name name =
  if String.length name > Layout.max_name then fail Enametoolong;
  if name = "" || String.contains name '/' then fail Einval

(** Insert [name -> target]; the caller has checked absence. Returns
    the updated directory inode. *)
let insert ctx txn inum ino name target =
  check_name name;
  let ino, saddr, k = free_slot ctx txn inum ino in
  Cache.update ctx.Ctx.cache txn ~lock:(lock_of inum) ~addr:saddr
    ~off:(Ondisk.dir_slot_off k) ~bytes:(Ondisk.encode_slot name target);
  ino

(** Remove [name]; returns the removed target's inum. *)
let remove ctx txn inum ino name =
  match find ctx inum ino name with
  | None -> fail Enoent
  | Some (target, saddr, k) ->
    Cache.update ctx.Ctx.cache txn ~lock:(lock_of inum) ~addr:saddr
      ~off:(Ondisk.dir_slot_off k) ~bytes:Ondisk.empty_slot;
    target

(** Point an existing entry at a new target (rename overwrite). *)
let replace ctx txn inum ino name target =
  match find ctx inum ino name with
  | None -> fail Enoent
  | Some (_, saddr, k) ->
    Cache.update ctx.Ctx.cache txn ~lock:(lock_of inum) ~addr:saddr
      ~off:(Ondisk.dir_slot_off k) ~bytes:(Ondisk.encode_slot name target)
