open Simkit

exception Failed of string
exception Bad_sector of int

let sector_size = 512

(* The RZ29's average positioning time and media rate (§9). *)
let avg_seek = Sim.ms 9
let xfer_bps = 6_000_000

(* Backing store granule: 64 KB slabs allocated on first touch, so a
   mostly-empty multi-gigabyte disk costs almost no host memory. *)
let slab_bytes = 65536

type t = {
  dname : string;
  capacity : int;
  slabs : (int, bytes) Hashtbl.t;
  damaged : (int, unit) Hashtbl.t; (* sector number -> () *)
  arm : Sim.Resource.t;
  reads : (int * int, pending) Hashtbl.t; (* (off, len) -> queued or in-service read *)
  mutable merged : int;
  mutable pos : int; (* last byte offset touched, for the seek model *)
  mutable failed : bool;
}

(* A read still queued or in service, and how many identical reads
   joined it. *)
and pending = { outcome : (bytes, exn) result Sim.Ivar.t; mutable joiners : int }

let create ?(capacity = 4_300_000_000) dname =
  {
    dname;
    capacity;
    slabs = Hashtbl.create 1024;
    damaged = Hashtbl.create 7;
    arm = Sim.Resource.create (dname ^ ".arm");
    reads = Hashtbl.create 16;
    merged = 0;
    pos = 0;
    failed = false;
  }

let name t = t.dname
let capacity t = t.capacity
let arm t = t.arm
let merged t = t.merged
let fail t = t.failed <- true
let heal t = t.failed <- false
let damage_sector t s = Hashtbl.replace t.damaged s ()

let check t ~off ~len =
  if t.failed then raise (Failed t.dname);
  if off < 0 || len < 0 || off + len > t.capacity then
    invalid_arg (Printf.sprintf "%s: I/O out of range (off=%d len=%d)" t.dname off len);
  if off mod sector_size <> 0 || len mod sector_size <> 0 then
    invalid_arg (Printf.sprintf "%s: unaligned I/O (off=%d len=%d)" t.dname off len)

(* Service time: seek proportional to arm travel plus media transfer.
   base + stroke/3 averages to [avg_seek] for uniformly random
   targets; sequential access pays only a settle time. *)
let service_time t ~off ~len =
  let seek =
    if off = t.pos then Sim.us 200
    else begin
      let dist = abs (off - t.pos) in
      let base = avg_seek / 3 in
      let stroke = 2 * avg_seek in
      base + int_of_float (float_of_int stroke *. float_of_int dist /. float_of_int t.capacity)
    end
  in
  let transfer = int_of_float (float_of_int len /. float_of_int xfer_bps *. 1e9) in
  seek + transfer

let slab_for t idx =
  match Hashtbl.find_opt t.slabs idx with
  | Some b -> b
  | None ->
    let b = Bytes.make slab_bytes '\000' in
    Hashtbl.replace t.slabs idx b;
    b

(* Copy the [boff, boff+len) range of [buf] to/from the slab store at
   disk offset [off]; [dir] [`In] = store -> buf, [`Out] = buf -> store. *)
let move t ~off buf ~boff ~len ~dir =
  let rec go doff boff left =
    if left > 0 then begin
      let idx = doff / slab_bytes in
      let within = doff mod slab_bytes in
      let n = min (slab_bytes - within) left in
      let slab = slab_for t idx in
      (match dir with
      | `In -> Bytes.blit slab within buf boff n
      | `Out -> Bytes.blit buf boff slab within n);
      go (doff + n) (boff + n) (left - n)
    end
  in
  go off boff len

let serve_read t ~off ~len =
  Sim.Resource.acquire t.arm;
  Sim.sleep (service_time t ~off ~len);
  t.pos <- off + len;
  Sim.Resource.release t.arm;
  if t.failed then raise (Failed t.dname);
  let s0 = off / sector_size and s1 = (off + len) / sector_size in
  Hashtbl.iter
    (fun s () -> if s >= s0 && s < s1 then raise (Bad_sector s))
    t.damaged;
  let buf = Bytes.create len in
  move t ~off buf ~boff:0 ~len ~dir:`In;
  buf

(* A read of exactly the range of a read still queued or in service
   joins it: one arm service, and every joiner gets its own copy of
   the bytes (or the same exception). The earlier read captures its
   bytes when its service ends, after the joiner arrived, and writes
   take effect at the end of their own service on the same FIFO arm,
   so every write completed before the joiner arrived is in them. *)
let read t ~off ~len =
  check t ~off ~len;
  match Hashtbl.find_opt t.reads (off, len) with
  | Some p -> (
    t.merged <- t.merged + 1;
    p.joiners <- p.joiners + 1;
    match Sim.Ivar.read p.outcome with
    | Ok shared -> Bytes.copy shared
    | Error e -> raise e)
  | None -> (
    let p = { outcome = Sim.Ivar.create (); joiners = 0 } in
    Hashtbl.replace t.reads (off, len) p;
    let outcome = match serve_read t ~off ~len with b -> Ok b | exception e -> Error e in
    Hashtbl.remove t.reads (off, len);
    (* Joiners copy from a snapshot, never from the buffer this
       caller owns and may mutate. *)
    Sim.Ivar.fill p.outcome
      (match outcome with Ok b when p.joiners > 0 -> Ok (Bytes.copy b) | o -> o);
    match outcome with Ok b -> b | Error e -> raise e)

let write_sub t ~off data ~boff ~len =
  if boff < 0 || len < 0 || boff + len > Bytes.length data then
    invalid_arg (t.dname ^ ": write_sub slice out of range");
  check t ~off ~len;
  Sim.Resource.acquire t.arm;
  Sim.sleep (service_time t ~off ~len);
  t.pos <- off + len;
  Sim.Resource.release t.arm;
  if t.failed then raise (Failed t.dname);
  move t ~off data ~boff ~len ~dir:`Out;
  let s0 = off / sector_size and s1 = (off + len) / sector_size in
  for s = s0 to s1 - 1 do
    Hashtbl.remove t.damaged s
  done;
  Faultpoint.hit "disk.write"

let write t ~off data = write_sub t ~off data ~boff:0 ~len:(Bytes.length data)
