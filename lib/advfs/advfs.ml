open Simkit
open Frangipani.Errors

let block = 4096
let root = 0

(* The paper's test machine: 8 RZ29-class disks, an update demon
   every 30 s, and CPU costs and read-ahead depth (in blocks)
   calibrated to Tables 1-3. *)
let ndisks = 8
let read_ahead_blocks = 16
let cpu_ns_per_byte_read = 36
let cpu_ns_per_byte_write = 58
let cpu_per_op = Sim.us 40
let sync_interval = Sim.sec 30.0

type itype = Reg | Dir | Symlink

type inode = {
  mutable itype : itype;
  mutable size : int;
  mutable nlink : int;
  mutable mtime : Sim.time;
  blocks : (int, int * int) Hashtbl.t; (* file block index -> disk, offset *)
  entries : (string, int) Hashtbl.t; (* directories *)
  mutable target : string;
}

type centry = { cdata : bytes; mutable cdirty : bool }

type t = {
  host : Cluster.Host.t;
  disks : Blockdev.Storage.t array;
  inodes : (int, inode) Hashtbl.t;
  mutable next_inum : int;
  frontier : int array; (* per-disk allocation offset *)
  mutable rotor : int;
  cache : (int * int, centry) Hashtbl.t; (* (disk, off) -> entry *)
  inflight : (int * int, unit Sim.Ivar.t) Hashtbl.t;
  (* The paper's machine attaches its 8 disks through two 10 MB/s
     fast-SCSI strings; each transfer also occupies its string. *)
  strings : Sim.Resource.t array;
  (* Metadata log: a rotor over a 128 KB region of disk 0; only its
     I/O timing matters (metadata content is in memory). *)
  mutable ndirty : int;
  mutable wb_running : bool;
  mutable log_pending : int; (* bytes of unflushed records *)
  mutable log_sector : int;
  mutable log_flushing : bool;
  log_flushed : Sim.Condition.t;
}

let host t = t.host

let new_inode t itype =
  let inum = t.next_inum in
  t.next_inum <- inum + 1;
  Hashtbl.replace t.inodes inum
    {
      itype;
      size = 0;
      nlink = (if itype = Dir then 2 else 1);
      mtime = Sim.now ();
      blocks = Hashtbl.create 8;
      entries = Hashtbl.create 8;
      target = "";
    };
  inum

let rec create ~host ?(nvram = false) () =
  let disks =
    Array.init ndisks (fun d ->
        let disk =
          Blockdev.Disk.create ~capacity:(256 * 1024 * 1024)
            (Printf.sprintf "%s.rz29-%d" (Cluster.Host.name host) d)
        in
        if nvram then Blockdev.Nvram.wrap disk else Blockdev.Storage.of_disk disk)
  in
  let t =
    {
      host;
      disks;
      inodes = Hashtbl.create 1024;
      next_inum = 0;
      frontier = Array.make ndisks (256 * 1024) (* leave room for the log *);
      rotor = 0;
      cache = Hashtbl.create 4096;
      inflight = Hashtbl.create 64;
      strings =
        Array.init 2 (fun i ->
            Sim.Resource.create (Cluster.Host.name host ^ Printf.sprintf ".scsi%d" i));
      ndirty = 0;
      wb_running = false;
      log_pending = 0;
      log_sector = 0;
      log_flushing = false;
      log_flushed = Sim.Condition.create ();
    }
  in
  ignore (new_inode t Dir) (* the root *);
  (* The update demon. *)
  Sim.spawn ~name:(Cluster.Host.name host ^ ".advfs-update") (fun () ->
      let rec loop () =
        Sim.sleep sync_interval;
        if Cluster.Host.is_alive host then begin
          (try sync_internal t with Blockdev.Disk.Failed _ | Cluster.Host.Crashed _ -> ());
          loop ()
        end
      in
      loop ())
  |> ignore;
  t

(* --- metadata log (timing model) ------------------------------------------ *)

and log_flush t =
  if t.log_flushing then begin
    Sim.Condition.wait t.log_flushed;
    if t.log_pending > 0 then log_flush t
  end
  else if t.log_pending > 0 then begin
    t.log_flushing <- true;
    let nsectors = (t.log_pending + 511) / 512 in
    t.log_pending <- 0;
    for _ = 1 to nsectors do
      let off = t.log_sector mod 256 * 512 in
      t.log_sector <- t.log_sector + 1;
      string_transfer t 0 512;
      t.disks.(0).Blockdev.Storage.write ~off (Bytes.make 512 '\000')
    done;
    t.log_flushing <- false;
    Sim.Condition.broadcast t.log_flushed
  end

and log_append t nbytes =
  t.log_pending <- t.log_pending + nbytes;
  if t.log_pending >= 32 * 1024 then log_flush t

(* --- data cache ------------------------------------------------------------ *)

and string_transfer t d len =
  (* 10 MB/s = 100 ns per byte on the string. *)
  Sim.Resource.use t.strings.(d mod 2) (len * 100)

and flush_entry t (d, off) e =
  if e.cdirty then begin
    e.cdirty <- false;
    t.ndirty <- t.ndirty - 1;
    string_transfer t d (Bytes.length e.cdata);
    t.disks.(d).Blockdev.Storage.write ~off e.cdata
  end

and mark_dirty t e =
  if not e.cdirty then begin
    e.cdirty <- true;
    t.ndirty <- t.ndirty + 1;
    (* Write-behind: drain in the background once enough is dirty. *)
    if (not t.wb_running) && t.ndirty >= 256 then begin
      t.wb_running <- true;
      Sim.spawn (fun () ->
          (try sync_internal t
           with Blockdev.Disk.Failed _ | Cluster.Host.Crashed _ -> ());
          t.wb_running <- false)
    end
  end

and sync_internal t =
  log_flush t;
  let dirty = Hashtbl.fold (fun k e acc -> if e.cdirty then (k, e) :: acc else acc) t.cache [] in
  (* One writer per disk, each streaming its blocks in order: all the
     striped spindles work in parallel. *)
  let by_disk = Hashtbl.create 8 in
  List.iter
    (fun ((d, _), _ as it) ->
      let l = try Hashtbl.find by_disk d with Not_found -> [] in
      Hashtbl.replace by_disk d (it :: l))
    dirty;
  Sim.fork_join
    (fun items -> List.iter (fun (k, e) -> flush_entry t k e) (List.sort compare items))
    (List.of_seq (Hashtbl.to_seq_values by_disk))

let rec cache_block t key =
  match Hashtbl.find_opt t.cache key with
  | Some e -> e
  | None -> (
    match Hashtbl.find_opt t.inflight key with
    | Some iv ->
      Sim.Ivar.read iv;
      cache_block t key
    | None ->
      let iv = Sim.Ivar.create () in
      Hashtbl.replace t.inflight key iv;
      let d, off = key in
      let cdata =
        try
          string_transfer t d block;
          t.disks.(d).Blockdev.Storage.read ~off ~len:block
        with ex ->
          Hashtbl.remove t.inflight key;
          Sim.Ivar.fill iv ();
          raise ex
      in
      let e = { cdata; cdirty = false } in
      Hashtbl.replace t.cache key e;
      Hashtbl.remove t.inflight key;
      Sim.Ivar.fill iv ();
      e)

let alloc_block t =
  let d = t.rotor mod Array.length t.disks in
  t.rotor <- t.rotor + 1;
  let off = t.frontier.(d) in
  if off + block > t.disks.(d).Blockdev.Storage.capacity then fail Enospc;
  t.frontier.(d) <- off + block;
  (d, off)

(* --- inode helpers ----------------------------------------------------------- *)

let inode t inum =
  match Hashtbl.find_opt t.inodes inum with
  | Some i -> i
  | None -> fail Estale

let dir_inode t inum =
  let i = inode t inum in
  if i.itype <> Dir then fail Enotdir;
  i

let charge_op t = Cluster.Host.consume t.host cpu_per_op

(* --- namespace --------------------------------------------------------------- *)

let add_entry t ~dir name inum ~meta_bytes =
  let d = dir_inode t dir in
  if Hashtbl.mem d.entries name then fail Eexist;
  Hashtbl.replace d.entries name inum;
  d.mtime <- Sim.now ();
  log_append t meta_bytes

let create_file t ~dir name =
  charge_op t;
  let inum = new_inode t Reg in
  add_entry t ~dir name inum ~meta_bytes:128;
  inum

let mkdir t ~dir name =
  charge_op t;
  let inum = new_inode t Dir in
  add_entry t ~dir name inum ~meta_bytes:128;
  (dir_inode t dir).nlink <- (dir_inode t dir).nlink + 1;
  inum

let symlink t ~dir name ~target =
  charge_op t;
  let inum = new_inode t Symlink in
  (inode t inum).target <- target;
  add_entry t ~dir name inum ~meta_bytes:(128 + String.length target);
  inum

let lookup t ~dir name =
  charge_op t;
  if name = "." then dir
  else
    match Hashtbl.find_opt (dir_inode t dir).entries name with
    | Some i -> i
    | None -> fail Enoent

let readdir t dir =
  charge_op t;
  Hashtbl.fold (fun n i acc -> (n, i) :: acc) (dir_inode t dir).entries []

let readlink t inum =
  charge_op t;
  let i = inode t inum in
  if i.itype <> Symlink then fail Einval;
  i.target

let link t ~dir name ~inum =
  charge_op t;
  let i = inode t inum in
  if i.itype = Dir then fail Eisdir;
  add_entry t ~dir name inum ~meta_bytes:96;
  i.nlink <- i.nlink + 1

let drop_inode t inum =
  let i = inode t inum in
  i.nlink <- i.nlink - (if i.itype = Dir then 2 else 1);
  if i.nlink <= 0 then begin
    Hashtbl.iter (fun _ key -> Hashtbl.remove t.cache key) i.blocks;
    Hashtbl.remove t.inodes inum
  end

let unlink t ~dir name =
  charge_op t;
  let d = dir_inode t dir in
  match Hashtbl.find_opt d.entries name with
  | None -> fail Enoent
  | Some target ->
    if (inode t target).itype = Dir then fail Eisdir;
    Hashtbl.remove d.entries name;
    log_append t 96;
    drop_inode t target

let rmdir t ~dir name =
  charge_op t;
  let d = dir_inode t dir in
  match Hashtbl.find_opt d.entries name with
  | None -> fail Enoent
  | Some target ->
    let ti = inode t target in
    if ti.itype <> Dir then fail Enotdir;
    if Hashtbl.length ti.entries > 0 then fail Enotempty;
    Hashtbl.remove d.entries name;
    d.nlink <- d.nlink - 1;
    log_append t 96;
    drop_inode t target

let rename t ~sdir sname ~ddir dname =
  charge_op t;
  let sd = dir_inode t sdir and dd = dir_inode t ddir in
  match Hashtbl.find_opt sd.entries sname with
  | None -> fail Enoent
  | Some src ->
    (match Hashtbl.find_opt dd.entries dname with
    | Some old when old <> src ->
      let oi = inode t old in
      if oi.itype = Dir && Hashtbl.length oi.entries > 0 then fail Enotempty;
      Hashtbl.remove dd.entries dname;
      drop_inode t old
    | _ -> ());
    Hashtbl.remove sd.entries sname;
    Hashtbl.replace dd.entries dname src;
    log_append t 160

(* --- data I/O ------------------------------------------------------------------ *)

let pieces ~off ~len =
  let rec go off len acc =
    if len <= 0 then List.rev acc
    else begin
      let b = off / block in
      let within = off mod block in
      let n = min len (block - within) in
      go (off + n) (len - n) ((b, within, n) :: acc)
    end
  in
  go off len []

(* AdvFS's deeper read-ahead: prefetches fan out in parallel, so the
   striped disks all work at once (the paper credits AdvFS with a
   more effective read-ahead than Frangipani's, §9.2). *)
let read_ahead t inum ~from n =
  for k = 0 to n - 1 do
    Sim.spawn (fun () ->
        try
          let i = inode t inum in
          let b = from + k in
          if b * block < i.size then
            match Hashtbl.find_opt i.blocks b with
            | Some key -> ignore (cache_block t key)
            | None -> ()
        with Error _ | Blockdev.Disk.Failed _ | Cluster.Host.Crashed _ -> ())
  done

let read t inum ~off ~len =
  charge_op t;
  let i = inode t inum in
  if i.itype = Dir then fail Eisdir;
  let len = max 0 (min len (i.size - off)) in
  Cluster.Host.consume t.host (len * cpu_ns_per_byte_read);
  let buf = Bytes.make len '\000' in
  List.iter
    (fun (b, within, n) ->
      match Hashtbl.find_opt i.blocks b with
      | None -> ()
      | Some key ->
        let e = cache_block t key in
        Bytes.blit e.cdata within buf ((b * block) + within - off) n)
    (pieces ~off ~len);
  read_ahead t inum ~from:((off + len) / block) read_ahead_blocks;
  buf

let write t inum ~off data =
  charge_op t;
  let len = Bytes.length data in
  Cluster.Host.consume t.host (len * cpu_ns_per_byte_write);
  let i = inode t inum in
  if i.itype = Dir then fail Eisdir;
  List.iter
    (fun (b, within, n) ->
      let key =
        match Hashtbl.find_opt i.blocks b with
        | Some key -> key
        | None ->
          let key = alloc_block t in
          Hashtbl.replace i.blocks b key;
          log_append t 32 (* extent-map update *);
          key
      in
      let e =
        if within = 0 && n = block then begin
          match Hashtbl.find_opt t.cache key with
          | Some e -> e
          | None ->
            let e = { cdata = Bytes.create block; cdirty = false } in
            Hashtbl.replace t.cache key e;
            e
        end
        else cache_block t key
      in
      Bytes.blit data ((b * block) + within - off) e.cdata within n;
      mark_dirty t e)
    (pieces ~off ~len);
  if off + len > i.size then begin
    i.size <- off + len;
    log_append t 48
  end;
  i.mtime <- Sim.now ()

let truncate t inum ~size =
  charge_op t;
  let i = inode t inum in
  if size < i.size then begin
    let keep = (size + block - 1) / block in
    let doomed =
      Hashtbl.fold (fun b key acc -> if b >= keep then (b, key) :: acc else acc) i.blocks []
    in
    List.iter
      (fun (b, key) ->
        Hashtbl.remove i.blocks b;
        Hashtbl.remove t.cache key)
      doomed
  end;
  i.size <- size;
  log_append t 48

let size t inum = (inode t inum).size

let fsync t inum =
  charge_op t;
  log_flush t;
  let i = inode t inum in
  Hashtbl.iter
    (fun _ key ->
      match Hashtbl.find_opt t.cache key with
      | Some e -> flush_entry t key e
      | None -> ())
    i.blocks;
  Array.iter (fun (s : Blockdev.Storage.t) -> s.flush ()) [| t.disks.(0) |]

let sync t = sync_internal t

let drop_caches t =
  let clean = Hashtbl.fold (fun k e acc -> if e.cdirty then acc else k :: acc) t.cache [] in
  List.iter (Hashtbl.remove t.cache) clean
