(** Large-file sequential I/O (Table 3, Figures 6 and 7): stream a
    big file in 64 KB units and report throughput and the host CPU
    utilisation over the transfer. *)

open Simkit

type result = { mb_per_s : float; cpu_utilization : float; seconds : float }

let unit_bytes = 65536

let measure host f =
  Sim.Resource.reset_stats (Cluster.Host.cpu host);
  let t0 = Sim.now () in
  let bytes = f () in
  let dt = Sim.to_sec (Sim.now () - t0) in
  {
    mb_per_s = (if dt > 0.0 then float_of_int bytes /. 1e6 /. dt else 0.0);
    cpu_utilization = Sim.Resource.utilization (Cluster.Host.cpu host);
    seconds = dt;
  }

(** Sequentially write an [mb]-megabyte file named [name] (syncing at
    the end, so the cache drains into the measurement). *)
let write_seq (v : Vfs.t) ~name ~mb =
  let inum = v.Vfs.create ~dir:v.Vfs.root name in
  let data = Bytes.make unit_bytes 'D' in
  measure v.Vfs.host (fun () ->
      let units = mb * 1024 * 1024 / unit_bytes in
      for i = 0 to units - 1 do
        v.Vfs.write inum ~off:(i * unit_bytes) data
      done;
      v.Vfs.sync ();
      units * unit_bytes)

(** Sequentially read the file back after dropping caches. *)
let read_seq (v : Vfs.t) ~name =
  let inum = v.Vfs.lookup ~dir:v.Vfs.root name in
  let total = v.Vfs.size inum in
  v.Vfs.drop_caches ();
  measure v.Vfs.host (fun () ->
      let units = total / unit_bytes in
      for i = 0 to units - 1 do
        ignore (v.Vfs.read inum ~off:(i * unit_bytes) ~len:unit_bytes)
      done;
      units * unit_bytes)

(** Many small uncached reads from one machine (the paper's 30
    processes reading separate 8 KB files). *)
let small_reads (v : Vfs.t) ~nfiles =
  let files =
    List.init nfiles (fun i ->
        let inum = v.Vfs.create ~dir:v.Vfs.root (Printf.sprintf "small%d" i) in
        v.Vfs.write inum ~off:0 (Bytes.make 8192 's');
        inum)
  in
  v.Vfs.sync ();
  v.Vfs.drop_caches ();
  measure v.Vfs.host (fun () ->
      Sim.fork_join (fun inum -> ignore (v.Vfs.read inum ~off:0 ~len:8192)) files;
      nfiles * 8192)
