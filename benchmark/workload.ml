(* The four benchmark workloads. Each one draws its whole op schedule
   (files, op kinds, think times) from a benchmark-owned
   [Random.State] before the simulation starts, so the simulator's own
   RNG never shapes the inputs; inside [Sim.run] a workload only
   interprets its schedule. All are closed loops: a simulated user
   issues its next call only after the previous one returned.

   No workload grows a directory during its measured phase: every
   directory it writes into is given its blocks at set-up. Directory
   growth on many servers makes them trade the small-meta bitmap
   segment locks, and a background write-behind that snapshotted a
   bitmap sector before such a revoke writes it back after another
   server changed it (Cache.flush_entries re-checks nothing after
   blocking in Wal.ensure_flushed); fsck then finds blocks allocated
   twice. *)

open Simkit
module T = Workloads.Testbed
module Fs = Frangipani.Fs

let mb = 1024 * 1024

(* Entries one directory block holds: a directory that stays within
   it never allocates after its first block. *)
let dir_block_entries =
  Frangipani.Layout.(block / sector * dir_slots_per_sector)

(* --- data patterns --------------------------------------------------------- *)

(* Every write carries a unique stamp in its first and last 8 bytes and
   a stamp-derived fill, so a read-back can tell which write it sees. *)
let pattern_into buf stamp =
  let len = Bytes.length buf in
  Bytes.fill buf 0 len (Char.chr (33 + (stamp mod 90)));
  Bytes.set_int64_le buf 0 (Int64.of_int stamp);
  Bytes.set_int64_le buf (len - 8) (Int64.of_int stamp)

let pattern len stamp =
  let b = Bytes.create len in
  pattern_into b stamp;
  b

let has_pattern data stamp = Bytes.equal data (pattern (Bytes.length data) stamp)

(* --- what a workload hands the harness --------------------------------------- *)

(* One repeat's cluster, after set-up: [measure] runs the measured
   phase and returns its simulated length; [check] runs after every
   server has synced, reads back through a fresh mount that wrote
   nothing, and returns the mismatches it found. *)
type run = {
  tb : T.t;
  fss : Fs.t array;
  measure : unit -> Sim.time;
  check : Fs.t -> string list;
}

type t = {
  name : string;
  seed : int;  (** seeds both the schedule and [Sim.run] *)
  digest : string;  (** MD5 of the pre-generated schedule *)
  start : Record.t -> run;  (** build, mount and pre-populate; inside [Sim.run] *)
}

let digest sched = Digest.to_hex (Digest.string (Marshal.to_string sched []))
let host_name fs = Cluster.Host.name (Fs.host fs)

(* Run [f i] as one process per participant and return the simulated
   time until the last one finishes. *)
let parallel n f =
  let t0 = Sim.now () in
  let left = ref n and all_done = Sim.Ivar.create () in
  for i = 0 to n - 1 do
    Sim.spawn (fun () ->
        f i;
        decr left;
        if !left = 0 then Sim.Ivar.fill all_done ())
  done;
  Sim.Ivar.read all_done;
  Sim.now () - t0

(* Give directory [dir] its first block now, so later inserts (up to
   {!dir_block_entries}) never allocate. *)
let pregrow fs dir =
  ignore (Fs.create fs ~dir ".pregrow");
  Fs.unlink fs ~dir ".pregrow"

let read_into (r : Record.t) = function
  | Some b -> r.Record.read_bytes <- r.Record.read_bytes + Bytes.length b
  | None -> ()

let wrote (r : Record.t) n = function
  | Some () -> r.Record.written_bytes <- r.Record.written_bytes + n
  | None -> ()

(* Read a file back through [fs] and compare it with [expect] (one
   stamp per [unit]-byte block); a raise is a mismatch too. *)
let verify fs ~what inum ~unit expect =
  match
    List.filteri
      (fun k stamp -> not (has_pattern (Fs.read fs inum ~off:(k * unit) ~len:unit) stamp))
      (Array.to_list expect)
  with
  | [] -> []
  | bad ->
    [ Printf.sprintf "%s: %d of %d blocks differ from the last write" what (List.length bad)
        (Array.length expect) ]
  | exception e -> [ Printf.sprintf "%s: read-back raised %s" what (Printexc.to_string e) ]

(* --- zipf_tenants ----------------------------------------------------------------- *)

type zop = Shared of int | Private of { id : int; write : bool }

(* Zipf(s) over ranks [0, n) by inverse-CDF lookup. *)
let zipf_sampler rng ~n ~s =
  let cdf = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    acc := !acc +. (1.0 /. Float.pow (float_of_int (i + 1)) s);
    cdf.(i) <- !acc
  done;
  fun () ->
    let u = Random.State.float rng !acc in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* Which write a file must show at the end: any write not followed by
   another that started after it returned. [seq] orders invocations
   and returns in simulation order. *)
type tracker = {
  inum : int;
  mutable cands : (int ref * int) list;  (** (return seq, stamp) *)
  mutable unknown : bool;  (** a write failed: its effect is unknown *)
}

type fstate = Creating | Live of tracker

let zipf_tenants ~smoke ~seed =
  let nfs, npetal, users, ops = if smoke then (8, 2, 16, 19) else (128, 32, 16, 24) in
  let namespace = 16384 and nshared = 8 and io = 4096 in
  (* A tenant's names are spread over [nsub] directories by id. *)
  let nsub = 8 in
  let rng = Random.State.make [| seed |] in
  let sample = zipf_sampler rng ~n:namespace ~s:1.1 in
  let sched =
    Array.init nfs (fun _ ->
        Array.init users (fun _ ->
            Array.init ops (fun _ ->
                let think = Random.State.int rng (Sim.ms 2) in
                if Random.State.float rng 1.0 < 0.05 then
                  (think, Shared (Random.State.int rng nshared))
                else
                  let id = sample () in
                  (think, Private { id; write = Random.State.float rng 1.0 < 0.3 }))))
  in
  Array.iter
    (fun tenant ->
      let ids = Hashtbl.create 256 in
      Array.iter
        (Array.iter (function _, Private { id; _ } -> Hashtbl.replace ids id () | _, Shared _ -> ()))
        tenant;
      let per = Array.make nsub 0 in
      Hashtbl.iter (fun id () -> per.(id mod nsub) <- per.(id mod nsub) + 1) ids;
      if Array.exists (fun n -> n >= dir_block_entries) per then
        failwith "zipf_tenants: a tenant directory would outgrow its pre-grown block")
    sched;
  let start (r : Record.t) =
    (* Eight disks per Petal server: with four, the hottest disk queues
       past the Petal client's 2 s failover timeout, and a read that
       fails over to a replica which missed a timed-out forward
       returns stale data. *)
    let tb = T.build ~petal_servers:npetal ~ndisks:8 ~disk_capacity:(512 * mb) () in
    let fss = Array.init nfs (fun _ -> T.add_server tb ()) in
    let hosts = Array.map host_name fss in
    (* Each shared file is created by a different server, so the files
       land in different Petal chunks and the cold reads of every
       server at start-up spread over several disks. *)
    let sdir = Fs.mkdir fss.(0) ~dir:Fs.root "shared" in
    let shared =
      Array.init nshared (fun i ->
          let fs = fss.(i * nfs / nshared) in
          let inum = Fs.create fs ~dir:sdir (Printf.sprintf "s%d" i) in
          Fs.write fs inum ~off:0 (pattern io (i + 1));
          inum)
    in
    let subdirs = Array.make_matrix nfs nsub 0 in
    ignore
      (parallel nfs (fun s ->
           let fs = fss.(s) in
           let tdir = Fs.mkdir fs ~dir:Fs.root (Printf.sprintf "tenant%d" s) in
           for d = 0 to nsub - 1 do
             subdirs.(s).(d) <- Fs.mkdir fs ~dir:tdir (Printf.sprintf "d%d" d);
             pregrow fs subdirs.(s).(d)
           done));
    Array.iter Fs.sync fss;
    let files = Array.init nfs (fun _ -> Hashtbl.create 256) in
    let seq = ref 0 and stamp = ref nshared in
    let write_tracked s buf parent tr =
      incr stamp;
      incr seq;
      let inv = !seq and ret = ref max_int in
      tr.cands <- (ret, !stamp) :: List.filter (fun (rt, _) -> !rt > inv) tr.cands;
      pattern_into buf !stamp;
      match Record.call r ~parent ~host:hosts.(s) Write (fun () -> Fs.write fss.(s) tr.inum ~off:0 buf) with
      | Some () ->
        incr seq;
        ret := !seq;
        wrote r io (Some ())
      | None -> tr.unknown <- true
    in
    let user s u =
      let fs = fss.(s) and host = hosts.(s) and buf = Bytes.create io in
      Array.iter
        (fun (think, op) ->
          Sim.sleep think;
          Record.span r ~name:"zipf_op" ~layer:"workload" ~host (fun parent ->
              let read inum =
                read_into r (Record.call r ~parent ~host Read (fun () -> Fs.read fs inum ~off:0 ~len:io))
              in
              match op with
              | Shared k -> read shared.(k)
              | Private { id; write } -> (
                let dir = subdirs.(s).(id mod nsub) in
                match Hashtbl.find_opt files.(s) id with
                | None -> (
                  Hashtbl.replace files.(s) id Creating;
                  match
                    Record.call r ~parent ~host Create (fun () ->
                        Fs.create fs ~dir (Printf.sprintf "f%d" id))
                  with
                  | Some inum ->
                    let tr = { inum; cands = []; unknown = false } in
                    write_tracked s buf parent tr;
                    Hashtbl.replace files.(s) id (Live tr)
                  | None -> ())
                | Some Creating ->
                  (* A same-tenant user is mid-create: touch the
                     namespace instead of racing it. *)
                  ignore (Record.call r ~parent ~host Readdir (fun () -> Fs.readdir fs dir))
                | Some (Live tr) -> if write then write_tracked s buf parent tr else read tr.inum)))
        sched.(s).(u)
    in
    let measure () = parallel (nfs * users) (fun i -> user (i / users) (i mod users)) in
    let check checker =
      let errs = ref [] in
      Array.iteri
        (fun i inum ->
          errs := verify checker ~what:(Printf.sprintf "shared/s%d" i) inum ~unit:io [| i + 1 |] @ !errs)
        shared;
      (* One reader per tenant, so the read-back is short in simulated
         time and the idle cluster adds few events to it. *)
      ignore
        (parallel nfs (fun s ->
             Hashtbl.iter
               (fun id st ->
                 match st with
                 | Live tr when not tr.unknown -> (
                   let what = Printf.sprintf "tenant%d/f%d" s id in
                   match Fs.read checker tr.inum ~off:0 ~len:io with
                   | data ->
                     if not (List.exists (fun (_, st) -> has_pattern data st) tr.cands) then
                       errs := (what ^ ": content is not the last write") :: !errs
                   | exception e -> errs := (what ^ ": read-back raised " ^ Printexc.to_string e) :: !errs)
                 | Live _ | Creating -> ())
               files.(s)));
      !errs
    in
    { tb; fss; measure; check }
  in
  { name = "zipf_tenants"; seed; digest = digest sched; start }

(* --- stream_private ---------------------------------------------------------------- *)

let stream_private ~smoke ~seed =
  let n = 6 and unit = 65536 in
  let units = (if smoke then 2 * mb else 32 * mb) / unit in
  let rng = Random.State.make [| seed |] in
  let draw k bound = Array.init n (fun _ -> Array.init k (fun _ -> Random.State.int rng bound)) in
  (* Per server: a start stagger, then a think time before each call. *)
  let stagger_w = draw 1 (Sim.ms 2) and think_w = draw units (Sim.us 100) in
  let stagger_r = draw 1 (Sim.ms 2) and think_r = draw units (Sim.us 100) in
  let stamp i k = 1 + (i * units) + k in
  let start (r : Record.t) =
    let tb = T.build ~petal_servers:7 ~ndisks:9 ~disk_capacity:(256 * mb) () in
    let fss = Array.init n (fun _ -> T.add_server tb ()) in
    let hosts = Array.map host_name fss in
    let inums = Array.mapi (fun i fs -> Fs.create fs ~dir:Fs.root (Printf.sprintf "p%d" i)) fss in
    let measure () =
      let phase name body =
        parallel n (fun i ->
            Record.span r ~name ~layer:"workload" ~host:hosts.(i) (fun parent -> body i parent))
      in
      let tw =
        phase "write_phase" (fun i parent ->
            let fs = fss.(i) and buf = Bytes.create unit in
            Sim.sleep stagger_w.(i).(0);
            for k = 0 to units - 1 do
              Sim.sleep think_w.(i).(k);
              pattern_into buf (stamp i k);
              wrote r unit
                (Record.call r ~parent ~host:hosts.(i) Write (fun () ->
                     Fs.write fs inums.(i) ~off:(k * unit) buf))
            done;
            ignore (Record.call r ~parent ~host:hosts.(i) Sync (fun () -> Fs.sync fs)))
      in
      Array.iter Fs.drop_caches fss;
      (* Each server reads its neighbour's file cold. *)
      let tr =
        phase "read_phase" (fun i parent ->
            let fs = fss.(i) and src = inums.((i + 1) mod n) in
            Sim.sleep stagger_r.(i).(0);
            for k = 0 to units - 1 do
              Sim.sleep think_r.(i).(k);
              read_into r
                (Record.call r ~parent ~host:hosts.(i) Read (fun () ->
                     Fs.read fs src ~off:(k * unit) ~len:unit))
            done)
      in
      tw + tr
    in
    let check checker =
      List.concat
        (List.init n (fun i ->
             let errs =
               verify checker ~what:(Printf.sprintf "p%d" i) inums.(i) ~unit (Array.init units (stamp i))
             in
             Fs.drop_caches checker;
             errs))
    in
    { tb; fss; measure; check }
  in
  { name = "stream_private"; seed; digest = digest (stagger_w, think_w, stagger_r, think_r); start }

(* --- shared_rw ---------------------------------------------------------------------- *)

(* Think times of the duration-bounded workloads are a pre-drawn cycle
   per participant, long enough that a run rarely wraps it. *)
let cycle = 8192

let shared_rw ~smoke ~seed =
  let nreaders = 4 and unit = 65536 and units = 16 in
  let duration = Sim.sec (if smoke then 6.0 else 120.0) in
  let rng = Random.State.make [| seed |] in
  let np = nreaders + 1 in
  let stagger = Array.init np (fun _ -> Random.State.int rng (Sim.ms 10)) in
  (* Reader p starts (p - 1) quarters into the file. The readers advance
     in step, so their start offsets hold for the whole run. Drawn at
     random, the offsets gave schedules' throughput a coefficient of
     variation of 5.5% at any run length from 30 to 240 simulated s;
     fixed, think times and staggers leave 0.24%. *)
  let first_unit = Array.init np (fun p -> max 0 (p - 1) * units / nreaders) in
  let think = Array.init np (fun _ -> Array.init cycle (fun _ -> Random.State.int rng (Sim.us 200))) in
  let start (r : Record.t) =
    let tb = T.build ~petal_servers:7 ~ndisks:9 () in
    (* Participant 0 is the writer, 1..4 the readers. *)
    let fss = Array.init np (fun _ -> T.add_server tb ()) in
    let hosts = Array.map host_name fss in
    let writer = fss.(0) in
    let inum = Fs.create writer ~dir:Fs.root "shared" in
    let last = Array.init units (fun k -> k + 1) in
    Array.iteri (fun k stamp -> Fs.write writer inum ~off:(k * unit) (pattern unit stamp)) last;
    Fs.sync writer;
    let unknown = ref false in
    let measure () =
      let deadline = Sim.now () + duration in
      parallel np (fun p ->
          let fs = fss.(p) and host = hosts.(p) in
          Record.span r ~name:(if p = 0 then "rewrite_loop" else "read_loop") ~layer:"workload" ~host
            (fun parent ->
              Sim.sleep stagger.(p);
              let buf = Bytes.create unit in
              let j = ref 0 in
              while Sim.now () < deadline do
                Sim.sleep think.(p).(!j mod cycle);
                if p = 0 then begin
                  (* Every rewrite of the first 64 KB revokes the
                     readers' locks on the file. *)
                  let stamp = units + 1 + !j in
                  pattern_into buf stamp;
                  match Record.call r ~parent ~host Write (fun () -> Fs.write fs inum ~off:0 buf) with
                  | Some () ->
                    last.(0) <- stamp;
                    wrote r unit (Some ())
                  | None -> unknown := true
                end
                else
                  read_into r
                    (Record.call r ~parent ~host Read (fun () ->
                         Fs.read fs inum ~off:((first_unit.(p) + !j) mod units * unit) ~len:unit));
                incr j
              done))
    in
    let check checker = if !unknown then [] else verify checker ~what:"shared" inum ~unit last in
    { tb; fss; measure; check }
  in
  { name = "shared_rw"; seed; digest = digest (stagger, think); start }

(* --- meta_churn ---------------------------------------------------------------------- *)

let meta_churn ~smoke ~seed =
  let nservers = 4 and users = 4 and lag = 32 and io = 4096 in
  let duration = Sim.sec (if smoke then 5.0 else 95.0) in
  let rng = Random.State.make [| seed |] in
  let nu = nservers * users in
  let think = Array.init nu (fun _ -> Array.init cycle (fun _ -> Random.State.int rng (Sim.ms 128))) in
  let start (r : Record.t) =
    let tb = T.build ~petal_servers:7 ~ndisks:9 () in
    let fss = Array.init nservers (fun _ -> T.add_server tb ()) in
    let hosts = Array.map host_name fss in
    let dirs =
      Array.init nu (fun i ->
          let fs = fss.(i / users) in
          let dir = Fs.mkdir fs ~dir:Fs.root (Printf.sprintf "u%d_%d" (i / users) (i mod users)) in
          pregrow fs dir;
          dir)
    in
    Array.iter Fs.sync fss;
    (* Per user: the files still expected to exist, oldest first. At
       most [lag] + 1 names live in a directory at once. *)
    let live = Array.init nu (fun _ -> Queue.create ()) in
    let measure () =
      let deadline = Sim.now () + duration in
      parallel nu (fun i ->
          let fs = fss.(i / users) and host = hosts.(i / users) and dir = dirs.(i) in
          let buf = Bytes.create io in
          let k = ref 0 in
          while Sim.now () < deadline do
            Sim.sleep think.(i).(!k mod cycle);
            let stamp = 1 + (i * 1_000_000) + !k in
            let tmp = Printf.sprintf "n%d" !k and final = Printf.sprintf "r%d" !k in
            Record.span r ~name:"churn_op" ~layer:"workload" ~host (fun parent ->
                let call kind f = Record.call r ~parent ~host kind f in
                match call Create (fun () -> Fs.create fs ~dir tmp) with
                | None -> ()
                | Some inum ->
                  pattern_into buf stamp;
                  wrote r io (call Write (fun () -> Fs.write fs inum ~off:0 buf));
                  if call Rename (fun () -> Fs.rename fs ~sdir:dir tmp ~ddir:dir final) <> None then begin
                    Queue.push (final, inum, stamp) live.(i);
                    if Queue.length live.(i) > lag then begin
                      let old, _, _ = Queue.pop live.(i) in
                      ignore (call Unlink (fun () -> Fs.unlink fs ~dir old))
                    end
                  end);
            incr k
          done)
    in
    let check checker =
      let errs = Array.make nu [] in
      ignore
        (parallel nu (fun i ->
             let expect = List.of_seq (Queue.to_seq live.(i)) in
             let what = Printf.sprintf "u%d_%d" (i / users) (i mod users) in
             let listing =
               match Fs.readdir checker dirs.(i) with
               | entries ->
                 if List.sort compare (List.map fst entries)
                    = List.sort compare (List.map (fun (n, _, _) -> n) expect)
                 then []
                 else [ what ^ ": directory listing differs from the expected names" ]
               | exception e -> [ what ^ ": readdir raised " ^ Printexc.to_string e ]
             in
             errs.(i) <-
               listing
               @ List.concat_map
                   (fun (name, inum, stamp) ->
                     verify checker ~what:(what ^ "/" ^ name) inum ~unit:io [| stamp |])
                   expect));
      List.concat (Array.to_list errs)
    in
    { tb; fss; measure; check }
  in
  { name = "meta_churn"; seed; digest = digest think; start }

let names = [ "zipf_tenants"; "stream_private"; "shared_rw"; "meta_churn" ]

(* How many independent schedules one run pools for its simulated-time
   metrics: enough that their spread across seeds stays well inside
   the bounds, few enough that one run of each of the four workloads
   takes about 85 s of wall clock on a 2-vCPU container. *)
let schedules name ~smoke =
  if smoke then 1 else match name with "stream_private" -> 4 | _ -> 3

(* How many re-runs follow, cycling through the schedules: each must
   reproduce its schedule's first run bit for bit, and adds a sample
   to the host-time and set-up medians. *)
let reruns name ~smoke =
  if smoke then 1 else match name with "zipf_tenants" | "meta_churn" -> 1 | _ -> 2

(* The [k]th schedule of a run with seed [seed]. *)
let make name ~smoke ~seed k =
  let seed = (seed * 1000) + k in
  match name with
  | "zipf_tenants" -> Some (zipf_tenants ~smoke ~seed)
  | "stream_private" -> Some (stream_private ~smoke ~seed)
  | "shared_rw" -> Some (shared_rw ~smoke ~seed)
  | "meta_churn" -> Some (meta_churn ~smoke ~seed)
  | _ -> None
