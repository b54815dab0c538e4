(** Multi-tenant Zipf workload for the scale experiments.

    Each Frangipani server hosts a tenant directory worked by a crowd
    of simulated users; file popularity within a tenant follows a
    Zipf distribution over a large logical namespace (the full id
    space across a 128-server run is measured in millions of names),
    and only the files actually touched ever materialise. A small
    cluster-wide shared directory is read by every tenant, so the
    lock service and cache-coherence machinery see cross-server
    traffic, while the bulk of the load exhibits the
    little-write-sharing locality the paper's workloads assume (§9).

    All randomness is drawn from the simulation's seeded RNG — runs
    are bit-for-bit reproducible. *)

open Simkit

type result = {
  ops : int;  (** data + namespace operations completed *)
  bytes : int;  (** payload bytes moved (reads + writes) *)
  distinct_files : int;  (** files actually materialised *)
  seconds : float;  (** simulated elapsed time *)
  work_seconds : float;  (** simulated time before the final sync *)
  ops_per_sec : float;  (** aggregate, in simulated time *)
  mb_per_s : float;  (** aggregate payload throughput *)
}

(* Zipf(s) sampler over ranks [0, n): inverse-CDF lookup by binary
   search in a precomputed cumulative table. *)
let zipf_cdf ~n ~s =
  let w = Array.init n (fun i -> 1.0 /. Float.pow (float_of_int (i + 1)) s) in
  let acc = ref 0.0 in
  let cdf =
    Array.map
      (fun x ->
        acc := !acc +. x;
        !acc)
      w
  in
  let total = !acc in
  fun () ->
    let u = Sim.random_float total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* What a tenant knows about a logical file id. [Inflight] marks a
   create another user of the same tenant has issued but not finished;
   racing users fall back to a read elsewhere instead of colliding. *)
type file_state = Done of int | Inflight

let io_unit = 4096

(* Zipf skew within a tenant; the share of ops on an existing file
   that rewrite it rather than read it; the share of ops that read the
   cluster-wide shared set; and that set's size. *)
let zipf_s = 1.1
let write_frac = 0.3
let shared_frac = 0.05
let nshared = 8

let run vfss ?(users_per_server = 16) ?(ops_per_user = 24) ?(namespace = 16384)
    ?(think = Sim.ms 2) () =
  let nservers = List.length vfss in
  if nservers = 0 then invalid_arg "Multitenant.run: no servers";
  let sample = zipf_cdf ~n:namespace ~s:zipf_s in
  let wbuf = Bytes.make io_unit 'm' in
  (* Server 0 sets up the cluster-wide shared read set. *)
  let v0 = List.hd vfss in
  let shared_dir = v0.Vfs.mkdir ~dir:v0.Vfs.root "shared" in
  let shared =
    Array.init nshared (fun i ->
        let inum = v0.Vfs.create ~dir:shared_dir (Printf.sprintf "s%d" i) in
        v0.Vfs.write inum ~off:0 wbuf;
        inum)
  in
  v0.Vfs.sync ();
  (* One tenant directory and file table per server. *)
  let tenants =
    List.mapi
      (fun i (v : Vfs.t) ->
        let dir = v.Vfs.mkdir ~dir:v.Vfs.root (Printf.sprintf "tenant%d" i) in
        (v, dir, Hashtbl.create 256))
      vfss
  in
  let ops = ref 0 and bytes = ref 0 and created = ref 0 in
  let t0 = Sim.now () in
  let users =
    List.concat_map (fun tenant -> List.init users_per_server (fun _ -> tenant)) tenants
  in
  Sim.fork_join
    (fun (v, dir, files) ->
      for _op = 1 to ops_per_user do
        Sim.sleep (Sim.random_int think);
        (if Sim.random_float 1.0 < shared_frac then begin
           (* Cross-tenant traffic: read a shared hot file. *)
           let inum = shared.(Sim.random_int nshared) in
           ignore (v.Vfs.read inum ~off:0 ~len:io_unit);
           bytes := !bytes + io_unit
         end
         else begin
           let id = sample () in
           match Hashtbl.find_opt files id with
           | None ->
             Hashtbl.replace files id Inflight;
             let inum = v.Vfs.create ~dir (Printf.sprintf "f%d" id) in
             v.Vfs.write inum ~off:0 wbuf;
             Hashtbl.replace files id (Done inum);
             incr created;
             bytes := !bytes + io_unit
           | Some Inflight ->
             (* A same-tenant user is mid-create: touch the
                namespace instead of racing it. *)
             ignore (v.Vfs.readdir dir)
           | Some (Done inum) ->
             if Sim.random_float 1.0 < write_frac then begin
               v.Vfs.write inum ~off:0 wbuf;
               bytes := !bytes + io_unit
             end
             else begin
               ignore (v.Vfs.read inum ~off:0 ~len:io_unit);
               bytes := !bytes + io_unit
             end
         end);
        incr ops
      done)
    users;
  let work_seconds = Sim.to_sec (Sim.now () - t0) in
  (* Every server syncs at once, as the users ran: one after another,
     each sync would wait out the write-back of the servers before it. *)
  Sim.fork_join (fun (v : Vfs.t) -> v.Vfs.sync ()) vfss;
  let seconds = Sim.to_sec (Sim.now () - t0) in
  {
    ops = !ops;
    bytes = !bytes;
    distinct_files = !created;
    seconds;
    work_seconds;
    ops_per_sec = (if seconds > 0.0 then float_of_int !ops /. seconds else 0.0);
    mb_per_s =
      (if seconds > 0.0 then float_of_int !bytes /. 1e6 /. seconds else 0.0);
  }
