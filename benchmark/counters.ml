(* Per-layer counters, read from outside through the libraries' public
   stats functions: one snapshot before and one after the measured
   phase, and utilisation of every CPU, link and disk arm over it. *)

open Simkit
module Fs = Frangipani.Fs
module P = Petal.Client

(* Per-endpoint / per-server stats, summed on use. *)
type snap = {
  sim : Sim.stats;
  rpc : Cluster.Rpc.stats list;  (** file and Petal servers' endpoints *)
  petal : P.stats list;  (** the file servers' Petal drivers *)
  cache : (int * int) list;  (** (hits, misses) per file server *)
  wal : Frangipani.Wal.wal_stats list;
  lease : Locksvc.Clerk.stats list;
}

let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l
let sumf f l = List.fold_left (fun acc x -> acc +. f x) 0.0 l

let take (w : Workload.run) =
  let fss = Array.to_list w.Workload.fss in
  let tb = w.Workload.tb in
  {
    sim = Sim.stats ();
    rpc =
      List.map Cluster.Rpc.stats
        (List.map (Workloads.Testbed.rpc_of tb) fss @ Array.to_list tb.Workloads.Testbed.petal.Petal.Testbed.rpcs);
    petal = List.map Fs.petal_stats fss;
    cache = List.map Fs.cache_stats fss;
    wal = List.map Fs.wal_stats fss;
    lease = List.map Fs.lease_stats fss;
  }

(* The queueing resources of each machine class. *)
type resources = {
  fs_cpus : Sim.Resource.t list;
  fs_links : Sim.Resource.t list;  (** tx and rx of every file server *)
  petal_cpus : Sim.Resource.t list;
  petal_links : Sim.Resource.t list;
  disks : Sim.Resource.t list;
}

let links rpcs =
  List.concat_map
    (fun rpc ->
      let port = Cluster.Rpc.port rpc in
      [ Cluster.Net.tx_link port; Cluster.Net.rx_link port ])
    rpcs

let resources (w : Workload.run) =
  let pt = w.Workload.tb.Workloads.Testbed.petal in
  {
    fs_cpus = Array.to_list (Array.map (fun fs -> Cluster.Host.cpu (Fs.host fs)) w.Workload.fss);
    fs_links = links (Array.to_list (Array.map (Workloads.Testbed.rpc_of w.Workload.tb) w.Workload.fss));
    petal_cpus = Array.to_list (Array.map Cluster.Host.cpu pt.Petal.Testbed.hosts);
    petal_links = links (Array.to_list pt.Petal.Testbed.rpcs);
    disks =
      List.concat_map
        (fun ds -> Array.to_list (Array.map Blockdev.Disk.arm ds))
        (Array.to_list pt.Petal.Testbed.disks);
  }

let reset r =
  List.iter (List.iter Sim.Resource.reset_stats)
    [ r.fs_cpus; r.fs_links; r.petal_cpus; r.petal_links; r.disks ]

let util_max l = List.fold_left (fun m r -> Float.max m (Sim.Resource.utilization r)) 0.0 l

let util_mean l =
  match l with
  | [] -> 0.0
  | _ -> sumf Sim.Resource.utilization l /. float_of_int (List.length l)

let held_locks (w : Workload.run) =
  Array.fold_left
    (fun acc s -> acc + List.length (Locksvc.Server.held_locks s))
    0 w.Workload.tb.Workloads.Testbed.lock_servers

(* Cumulative counters as one JSON object: the traced run's per-second
   snapshot. *)
let to_json s r =
  let i x = Json.Num (float_of_int x) in
  let rpc f = i (sum f s.rpc) and petal f = i (sum f s.petal) and wal f = i (sum f s.wal) in
  Json.Obj
    [
      ("events", i s.sim.Sim.events);
      ("spawns", i s.sim.Sim.spawns);
      ("skipped", i s.sim.Sim.skipped);
      ("rpc_calls", rpc (fun x -> x.Cluster.Rpc.calls));
      ("rpc_attempts", rpc (fun x -> x.Cluster.Rpc.attempts));
      ("rpc_timeouts", rpc (fun x -> x.Cluster.Rpc.timeouts));
      ("petal_reads", petal (fun x -> x.P.reads));
      ("petal_writes", petal (fun x -> x.P.writes));
      ("petal_read_rpcs", petal (fun x -> x.P.read_rpcs));
      ("petal_write_rpcs", petal (fun x -> x.P.write_rpcs));
      ("petal_failovers", petal (fun x -> x.P.failovers));
      ("cache_hits", i (sum fst s.cache));
      ("cache_misses", i (sum snd s.cache));
      ("wal_flush_groups", wal (fun x -> x.Frangipani.Wal.flush_groups));
      ("wal_reclaim_rounds", wal (fun x -> x.Frangipani.Wal.reclaim_rounds));
      ("wal_log_pressure_stalls", wal (fun x -> x.Frangipani.Wal.log_pressure_stalls));
      ("renew_misses", i (sum (fun x -> x.Locksvc.Clerk.renew_misses) s.lease));
      ("fs_cpu_util_mean", Json.Num (util_mean r.fs_cpus));
      ("fs_link_util_max", Json.Num (util_max r.fs_links));
      ("petal_cpu_util_max", Json.Num (util_max r.petal_cpus));
      ("petal_link_util_max", Json.Num (util_max r.petal_links));
      ("disk_util_max", Json.Num (util_max r.disks));
    ]
