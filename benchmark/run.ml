(* The repository benchmark.

     run.exe --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]]
     run.exe --smoke
     run.exe compare <dir-a> <dir-b>

   An untraced run draws a fixed number of independent schedules from
   --seed and runs each once, checking the file system's end state
   after each; the simulated-time metrics pool them. It then re-runs a
   fixed number of schedules and asserts that each re-run reproduces
   its simulated-time results bit for bit; host metrics are medians
   over all runs. A run therefore does the same work on every commit
   and machine; --seconds is accepted and ignored. A traced run
   (--trace 1) runs the first schedule once untraced and once with
   spans, probes and per-second counter snapshots, writes those to
   .bench_trace/, reports the tracing overhead and prints the
   per-layer metrics. A run is correct only if no FS call failed, every
   check passed and every re-run matched. The last line of stdout is
   the result as one JSON object. Metric names, units, directions and
   bounds come from BENCHMARK.json (--spec). *)

open Simkit
module Fs = Frangipani.Fs
module P = Petal.Client

let fail_usage msg =
  prerr_endline ("run.exe: " ^ msg);
  exit 2

(* The smoke run prints one line per workload, nothing else, and skips
   the calibration (see [reference_s]): its host times are never
   compared. *)
let smoke_run = ref false
let say fmt = if not !smoke_run then Printf.printf fmt else Printf.ifprintf stdout fmt

(* --- BENCHMARK.json ---------------------------------------------------------- *)

type mspec = { mname : string; unit : string; better : string; bound : float option }

let load_spec path =
  let ic = try open_in_bin path with Sys_error e -> fail_usage e in
  let j = Json.parse (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let metrics key =
    List.map
      (fun m ->
        {
          mname = Json.to_str (Json.member "name" m);
          unit = Json.to_str (Json.member "unit" m);
          better = Json.to_str (Json.member "better" m);
          bound = (match Json.member "bound" m with Json.Num b -> Some b | _ -> None);
        })
      (Json.to_list (Json.member key j))
  in
  (metrics "end_to_end", metrics "per_layer")

(* --- statistics ------------------------------------------------------------------ *)

let sorted_floats l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted_floats l in
  let n = Array.length a in
  if n = 0 then nan else if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives
   them (its default "exclusive" method). *)
let quartiles l =
  let a = sorted_floats l in
  let ld = Array.length a in
  if ld < 2 then (median l, median l)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Host cost is user CPU time. System time is left out: it is mostly
   page faults as a run's heap regrows into memory the previous run's
   compaction returned, and it swings from 0 to 40% of a run with the
   process's memory state rather than with the code. *)
let cpu () = (Unix.times ()).Unix.tms_utime
let ms ns = float_of_int ns /. 1e6

(* Host times are reported for a reference machine. Before its set-up,
   each run times [calibrate], fixed work on the standard library alone
   (hashing, sorting, list allocation): no change to the file system
   moves it, but the speed of a shared machine does, by up to a factor
   of two over minutes. A run's host times are multiplied by
   [reference_s /. its calibration time]. Over twelve sets of ten
   invocations on such a machine this cut the spread of host_us_per_op
   within a set from a median of 13% (4 to 52%) to 7% (3 to 23%).
   [reference_s] is about the calibration time of a quiet 2-vCPU
   container. *)
let reference_s = 0.09

let calibrate () =
  let h0 = cpu () in
  let acc = ref 0 in
  for round = 1 to 3 do
    let t = Hashtbl.create 1024 in
    for i = 0 to 60_000 do
      Hashtbl.replace t (((i * 7919) + round) land 0xfffff) (Some i)
    done;
    let a = Array.init 60_000 (fun i -> ((i * 104729) + round) land 0xffff) in
    Array.sort compare a;
    let l = List.init 60_000 (fun i -> (i, a.(i))) in
    acc := !acc + Hashtbl.length t + List.length (List.rev l)
  done;
  ignore (Sys.opaque_identity !acc);
  cpu () -. h0

let mean_ms a =
  ratio (Array.fold_left (fun acc x -> acc +. float_of_int x) 0.0 a /. 1e6) (float_of_int (Array.length a))

(* --- one run of one schedule ------------------------------------------------------ *)

type outcome = {
  r : Record.t;
  sim_ns : Sim.time;  (** simulated length of the measured phase *)
  setup_s : float;  (** host CPU seconds ({!cpu}) to build, mount and pre-populate *)
  host_s : float;  (** host CPU seconds ({!cpu}) of the measured phase *)
  cal_s : float;  (** host CPU seconds of {!calibrate} just before the run *)
  wall_s : float;
  minor_words : float;
  major_gcs : int;
  top_heap_bytes : int;  (** process heap high-water mark at the end of the phase *)
  c0 : Counters.snap;
  c1 : Counters.snap;
  util : (string * float) list;
  held_locks : int;
  errors : string list option;  (** fsck findings and read-back mismatches, if checked *)
  probe : Probe.t option;
  snapshots : Json.t list;
}

(* Sync every server, then mount a fresh server that wrote nothing:
   every written file is read back through it, then fsck runs there,
   where the read-back has already gathered most locks and inodes. *)
let quiesce_and_check (run : Workload.run) =
  match
    Array.iter Fs.sync run.Workload.fss;
    let checker = Workloads.Testbed.add_server run.Workload.tb ~name:"checker" () in
    let mismatches = run.Workload.check checker in
    (mismatches, Frangipani.Fsck.check checker)
  with
  | mismatches, findings ->
    List.map (Format.asprintf "fsck: %a" Frangipani.Fsck.pp_finding) findings @ mismatches
  | exception e -> [ "quiesce or fsck raised " ^ Printexc.to_string e ]

(* The engine of the previous run keeps its cluster reachable until
   the next run replaces it: replace it first, so the compaction frees
   that cluster before the next run builds its own. *)
let fresh_heap () =
  Sim.run (fun () -> ());
  Gc.compact ()

let run_once (w : Workload.t) ~trace ~check =
  fresh_heap ();
  let cal_s = if !smoke_run then reference_s else calibrate () in
  Gc.compact ();
  let r = Record.create ~tracing:trace in
  let wall0 = Unix.gettimeofday () and h0 = cpu () in
  let o =
    Sim.run ~seed:w.Workload.seed (fun () ->
        let run = w.Workload.start r in
        let probe = if trace then Some (Probe.create run.Workload.tb ~seed:w.Workload.seed) else None in
        let res = Counters.resources run in
        Counters.reset res;
        let c0 = Counters.take run in
        let gc0 = Gc.quick_stat () in
        let h1 = cpu () in
        let stopped = ref false in
        let snaps = if trace then Some (Probe.sample_every_second run res ~stopped) else None in
        Option.iter (fun p -> Probe.start p r) probe;
        let sim_ns = run.Workload.measure () in
        let h2 = cpu () in
        let gc1 = Gc.quick_stat () in
        stopped := true;
        Option.iter Probe.stop probe;
        Option.iter (fun snaps -> snaps := Probe.snapshot run res :: !snaps) snaps;
        let c1 = Counters.take run in
        let util =
          Counters.
            [
              ("fs_cpu_util_mean", util_mean res.fs_cpus);
              ("fs_link_util_max", util_max res.fs_links);
              ("petal_cpu_util_max", util_max res.petal_cpus);
              ("petal_link_util_max", util_max res.petal_links);
              ("disk_util_max", util_max res.disks);
              ("disk_util_mean", util_mean res.disks);
            ]
        in
        let held_locks = Counters.held_locks run in
        {
          r;
          sim_ns;
          setup_s = h1 -. h0;
          host_s = h2 -. h1;
          cal_s;
          wall_s = 0.0;
          minor_words = gc1.Gc.minor_words -. gc0.Gc.minor_words;
          major_gcs = gc1.Gc.major_collections - gc0.Gc.major_collections;
          top_heap_bytes = gc1.Gc.top_heap_words * (Sys.word_size / 8);
          c0;
          c1;
          util;
          held_locks;
          errors = (if check then Some (quiesce_and_check run) else None);
          probe;
          snapshots = (match snaps with Some l -> List.rev !l | None -> []);
        })
  in
  { o with wall_s = Unix.gettimeofday () -. wall0 }

(* Everything a run computed in simulated time; re-runs of one
   schedule must agree on it bit for bit. *)
let fingerprint o =
  Digest.to_hex
    (Digest.string
       (Marshal.to_string
          ( o.sim_ns,
            o.r.Record.attempted,
            o.r.Record.failed,
            o.r.Record.read_bytes,
            o.r.Record.written_bytes,
            Array.map (fun v -> Array.sub v.Record.Vec.a 0 v.Record.Vec.n) o.r.Record.lat,
            o.c0,
            o.c1,
            o.util,
            o.held_locks )
          []))

let completed o = float_of_int (Record.completed o.r)

(* A host time of run [o] on the reference machine. *)
let scaled o s = s *. reference_s /. o.cal_s

(* --- metrics -------------------------------------------------------------------------- *)

(* The end-to-end metrics of an untraced run. [distinct] holds one run
   per schedule. Throughput is the median over schedules (a closed loop
   of fixed work ends with its slowest user, so one schedule in a few
   runs long); latency pools every schedule's calls, so the tail
   percentiles have the samples they need. [all] holds every run: host
   metrics and set-up time are medians over it, scaled to the
   reference machine. The heap high-water mark is the first run's,
   before any check has read anything. *)
let end_to_end ~distinct ~all =
  let per_schedule f = median (List.map (fun o -> f o /. Sim.to_sec o.sim_ns) distinct) in
  let lat = Record.Vec.sorted (List.concat_map (fun o -> Array.to_list o.r.Record.lat) distinct) in
  [
    ("ops_per_s", per_schedule completed);
    ("mb_s", per_schedule (fun o -> float_of_int (o.r.Record.read_bytes + o.r.Record.written_bytes) /. 1e6));
    ("op_mean_ms", mean_ms lat);
    ("op_p99_ms", ms (Record.quantile lat 0.99));
    ("op_p999_ms", ms (Record.quantile lat 0.999));
    ("host_us_per_op", median (List.map (fun o -> scaled o o.host_s *. 1e6 /. completed o) all));
    ("heap_peak_mb", float_of_int (List.hd distinct).top_heap_bytes /. 1e6);
    ("setup_s", median (List.map (fun o -> scaled o o.setup_s) all));
  ]

(* Per-layer metrics: counters from the untraced reference run [o]
   (so probes do not perturb them), probe latencies from the traced
   run [t]. *)
let per_layer o t =
  let d f = float_of_int (f o.c1 - f o.c0) in
  let ops = completed o in
  let sim f = d (fun c -> f c.Counters.sim) in
  let rpc f = d (fun c -> Counters.sum f c.Counters.rpc) in
  let petal f = d (fun c -> Counters.sum f c.Counters.petal) in
  let petal_s f = Counters.sumf f o.c1.Counters.petal -. Counters.sumf f o.c0.Counters.petal in
  let wal f = d (fun c -> Counters.sum f c.Counters.wal) in
  let events = sim (fun s -> s.Sim.events) in
  let hits = d (fun c -> Counters.sum fst c.Counters.cache)
  and misses = d (fun c -> Counters.sum snd c.Counters.cache) in
  (* Probe latencies are means: an uncontended probe path takes the
     same simulated time every time, so its percentiles repeat exactly. *)
  let probes =
    match t.probe with
    | None -> []
    | Some p ->
      let mean vec = mean_ms (Record.Vec.sorted [ vec ]) in
      [
        ("petal.probe_read_mean_ms", mean p.Probe.read);
        ("locksvc.probe_acquire_mean_ms", mean p.Probe.acquire);
        ("locksvc.probe_revoke_mean_ms", mean p.Probe.revoke);
      ]
  in
  [
    ("simkit.events_per_op", events /. ops);
    ("simkit.spawns_per_op", sim (fun s -> s.Sim.spawns) /. ops);
    ("simkit.skipped_per_op", sim (fun s -> s.Sim.skipped) /. ops);
    ("simkit.host_ns_per_event", scaled o o.host_s *. 1e9 /. events);
    ("simkit.minor_words_per_event", o.minor_words /. events);
    ("simkit.major_gcs", float_of_int o.major_gcs);
    ("cluster.rpc_calls_per_op", rpc (fun r -> r.Cluster.Rpc.calls) /. ops);
    ("cluster.rpc_timeouts", rpc (fun r -> r.Cluster.Rpc.timeouts));
  ]
  @ List.map
      (fun (n, v) -> ((if String.starts_with ~prefix:"disk" n then "blockdev." else "cluster.") ^ n, v))
      o.util
  @ [
      ("petal.reads_per_op", petal (fun p -> p.P.reads) /. ops);
      ("petal.writes_per_op", petal (fun p -> p.P.writes) /. ops);
      ("petal.read_rpcs_per_piece", ratio (petal (fun p -> p.P.read_rpcs)) (petal (fun p -> p.P.read_pieces)));
      ("petal.write_rpcs_per_piece", ratio (petal (fun p -> p.P.write_rpcs)) (petal (fun p -> p.P.write_pieces)));
      ("petal.read_ms_mean", ratio (1e3 *. petal_s (fun p -> p.P.read_seconds)) (petal (fun p -> p.P.reads)));
      ("petal.write_ms_mean", ratio (1e3 *. petal_s (fun p -> p.P.write_seconds)) (petal (fun p -> p.P.writes)));
      ("petal.failovers", petal (fun p -> p.P.failovers));
      ("locksvc.held_locks", float_of_int o.held_locks);
      ("frangipani.cache_hit_ratio", ratio hits (hits +. misses));
      ("frangipani.write_mean_ms", mean_ms (Record.Vec.sorted [ o.r.Record.lat.(Record.kind_index Record.Write) ]));
      ("frangipani.wal_flush_groups", wal (fun w -> w.Frangipani.Wal.flush_groups));
      ("frangipani.wal_pipeline_overlaps", wal (fun w -> w.Frangipani.Wal.pipeline_overlaps));
      ("frangipani.wal_reclaim_rounds", wal (fun w -> w.Frangipani.Wal.reclaim_rounds));
      ("frangipani.wal_ensure_stalls", wal (fun w -> w.Frangipani.Wal.ensure_stalls));
    ]
  @ probes

(* --- reporting ------------------------------------------------------------------------- *)

let print_latency_table os =
  say "latency by call, simulated ms, pooled over %d schedules (a percentile needs 10 samples beyond it):\n"
    (List.length os);
  say "  %-8s %8s %10s %10s %10s %10s\n" "call" "n" "mean" "p50" "p99" "p99.9";
  let row name a =
    let n = Array.length a in
    let q p = if Record.supports n p then Printf.sprintf "%10.3f" (ms (Record.quantile a p)) else Printf.sprintf "%10s" "-" in
    if n > 0 then say "  %-8s %8d %10.3f %s %s %s\n" name n (mean_ms a) (q 0.5) (q 0.99) (q 0.999)
  in
  let pooled vs = Record.Vec.sorted (List.concat_map vs os) in
  Array.iter
    (fun k -> row (Record.kind_name k) (pooled (fun o -> [ o.r.Record.lat.(Record.kind_index k) ])))
    Record.kinds;
  row "all" (pooled (fun o -> Array.to_list o.r.Record.lat))

(* Print every spec metric with its unit, direction and bound, and
   return the JSON result line. Fails if the run did not compute one. *)
let result_line spec values ~correct ~attempted ~failed =
  say "metrics:\n";
  let metrics =
    List.map
      (fun m ->
        match List.assoc_opt m.mname values with
        | None -> fail_usage ("BENCHMARK.json names a metric this run does not compute: " ^ m.mname)
        | Some v ->
          say "  %-36s %16.6f %-11s (%s is better%s)\n" m.mname v m.unit m.better
            (match m.bound with Some b -> Printf.sprintf ", bound %g%%" (100.0 *. b) | None -> "");
          (m.mname, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str m.unit) ]))
      spec
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool correct);
         ("attempted", Json.Num (float_of_int attempted));
         ("failed", Json.Num (float_of_int failed));
         ("metrics", Json.Obj metrics);
       ])

let report_run (w : Workload.t) o =
  say
    "schedule %d: sim %.3f s, %d calls (%d failed), %.1f MB moved; host setup %.3f s, measured %.3f s (%.0f minor words, %d major GCs), calibration %.4f s; wall %.2f s\n%!"
    w.Workload.seed (Sim.to_sec o.sim_ns) o.r.Record.attempted o.r.Record.failed
    (float_of_int (o.r.Record.read_bytes + o.r.Record.written_bytes) /. 1e6)
    o.setup_s o.host_s o.minor_words o.major_gcs o.cal_s o.wall_s;
  List.iter (fun e -> say "  failed call: %s\n" e) (List.rev o.r.Record.errors);
  match o.errors with
  | None -> ()
  | Some [] -> say "  correctness: fsck clean; every written file reads back its last write through another server\n"
  | Some errs ->
    say "  correctness: %d problems\n" (List.length errs);
    List.iteri (fun i e -> if i < 20 then say "    %s\n" e) errs

let trace_dir = ".bench_trace"

let write_trace (w : Workload.t) o =
  (try Sys.mkdir trace_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat trace_dir (Printf.sprintf "%s-seed%d.jsonl" w.Workload.name w.Workload.seed) in
  let oc = open_out_bin path in
  let spans = List.sort (fun a b -> compare a.Record.id b.Record.id) o.r.Record.spans in
  List.iter (fun s -> output_string oc (Json.to_string (Record.span_json s) ^ "\n")) spans;
  List.iter (fun j -> output_string oc (Json.to_string j ^ "\n")) o.snapshots;
  close_out oc;
  (path, List.length spans)

(* --- modes ---------------------------------------------------------------------------- *)

let schedules name ~smoke ~seed =
  List.init (Workload.schedules name ~smoke) (fun k ->
      match Workload.make name ~smoke ~seed k with
      | Some w -> w
      | None ->
        fail_usage ("unknown workload " ^ name ^ " (known: " ^ String.concat " " Workload.names ^ ")"))

(* Run every schedule once, checking the end state after each, then
   make [reruns] re-runs cycling through the schedules, comparing each
   with the first run of its schedule. *)
let untraced ws ~reruns =
  let distinct =
    List.map
      (fun w ->
        let o = run_once w ~trace:false ~check:true in
        report_run w o;
        o)
      ws
  in
  let n = List.length ws in
  let firsts = Array.of_list (List.map fingerprint distinct) and ws = Array.of_list ws in
  let again =
    List.init reruns (fun i ->
        let w = ws.(i mod n) in
        let o = run_once w ~trace:false ~check:false in
        report_run w o;
        let same = fingerprint o = firsts.(i mod n) in
        if not same then say "  DIFFERS from the first run of schedule %d\n" w.Workload.seed;
        (o, same))
  in
  let deterministic = List.for_all snd again in
  say "determinism: %d re-runs, simulated-time results %s\n" reruns
    (if deterministic then "bit-identical to the first run of their schedule" else "DIFFER");
  (distinct, distinct @ List.map fst again, deterministic)

(* The end state checked clean and no FS call failed. *)
let clean o = o.errors = Some [] && o.r.Record.failed = 0

let run_workload ~spec_path ~name ~seed ~trace =
  let e2e_spec, layer_spec = load_spec spec_path in
  let ws = schedules name ~smoke:false ~seed in
  say "# workload=%s seed=%d trace=%d digest=%s\n%!" name seed (Bool.to_int trace)
    (Digest.to_hex (Digest.string (String.concat "" (List.map (fun w -> w.Workload.digest) ws))));
  if not trace then begin
    let distinct, all, deterministic = untraced ws ~reruns:(Workload.reruns name ~smoke:false) in
    print_latency_table distinct;
    let sum f = List.fold_left (fun acc o -> acc + f o.r) 0 distinct in
    let correct = deterministic && List.for_all clean distinct in
    print_endline
      (result_line e2e_spec (end_to_end ~distinct ~all) ~correct
         ~attempted:(sum (fun r -> r.Record.attempted)) ~failed:(sum (fun r -> r.Record.failed)));
    exit (if correct then 0 else 1)
  end
  else begin
    (* Untraced with the end-state check, traced, then untraced again:
       the overhead and the host-time layer metrics compare the traced
       run with the second untraced run, which like it follows a warm-up. *)
    let w = List.hd ws in
    let first = run_once w ~trace:false ~check:true in
    report_run w first;
    let t = run_once w ~trace:true ~check:false in
    report_run w t;
    let o = run_once w ~trace:false ~check:false in
    report_run w o;
    let deterministic = fingerprint o = fingerprint first in
    let probe_failures = match t.probe with Some p -> p.Probe.failures | None -> 0 in
    say "determinism: the second untraced run %s\n"
      (if deterministic then "is bit-identical to the first" else "DIFFERS from the first");
    let path, nspans = write_trace w t in
    say
      "traced run: %d spans, %d counter snapshots, %d probe failures -> %s\n\
       trace overhead: host %+.3f s (%+.1f%%), simulated %+.6f s against the untraced run\n"
      nspans (List.length t.snapshots) probe_failures path
      (scaled t (t.setup_s +. t.host_s) -. scaled o (o.setup_s +. o.host_s))
      ((100.0 *. ratio (scaled t (t.setup_s +. t.host_s)) (scaled o (o.setup_s +. o.host_s))) -. 100.0)
      (Sim.to_sec (t.sim_ns - o.sim_ns));
    Option.iter
      (fun p ->
        say "probe samples: read %d, acquire %d, revoke %d\n" (Record.Vec.length p.Probe.read)
          (Record.Vec.length p.Probe.acquire) (Record.Vec.length p.Probe.revoke))
      t.probe;
    print_latency_table [ o ];
    let correct = deterministic && clean first && t.r.Record.failed = 0 && probe_failures = 0 in
    print_endline
      (result_line layer_spec (per_layer o t) ~correct
         ~attempted:(o.r.Record.attempted + t.r.Record.attempted)
         ~failed:(o.r.Record.failed + t.r.Record.failed));
    exit (if correct then 0 else 1)
  end

(* Every workload at about 1/20 scale, untraced and traced: the result
   lines must parse back and name every metric, and the correctness
   check must pass. *)
let smoke ~spec_path =
  let e2e_spec, layer_spec = load_spec spec_path in
  smoke_run := true;
  let ok = ref true in
  List.iter
    (fun name ->
      let t0 = Unix.gettimeofday () in
      let ws = schedules name ~smoke:true ~seed:1 in
      let distinct, all, deterministic = untraced ws ~reruns:(Workload.reruns name ~smoke:true) in
      let o = List.hd distinct and w = List.hd ws in
      let t = run_once w ~trace:true ~check:false in
      let lines =
        [
          result_line e2e_spec (end_to_end ~distinct ~all) ~correct:true ~attempted:o.r.Record.attempted
            ~failed:0;
          result_line layer_spec (per_layer o t) ~correct:true ~attempted:o.r.Record.attempted ~failed:0;
        ]
      in
      let names_every spec line =
        match Json.parse line with
        | j ->
          List.for_all
            (fun m ->
              Float.is_finite (Json.to_num (Json.member "value" (Json.member m.mname (Json.member "metrics" j)))))
            spec
        | exception _ -> false
      in
      let good =
        List.for_all2 names_every [ e2e_spec; layer_spec ] lines
        && deterministic && clean o && t.r.Record.failed = 0 && t.r.Record.spans <> []
        && List.length t.snapshots >= 2
      in
      Printf.printf "smoke %s: %s (%d calls, %d spans, %.2f s)\n%!" name (if good then "ok" else "FAILED")
        o.r.Record.attempted (List.length t.r.Record.spans) (Unix.gettimeofday () -. t0);
      if not good then ok := false)
    Workload.names;
  exit (if !ok then 0 else 1)

(* --- compare ---------------------------------------------------------------------------- *)

(* A result file is one run's stdout: its "# workload=..." header and
   its final JSON line. *)
let read_result path =
  let ic = open_in_bin path in
  let lines = String.split_on_char '\n' (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  let header = List.find_opt (String.starts_with ~prefix:"# workload=") lines in
  match (header, List.rev lines) with
  | Some h, last :: _ -> (
    let field k =
      List.find_map
        (fun kv -> match String.split_on_char '=' kv with [ k'; v ] when k' = k -> Some v | _ -> None)
        (String.split_on_char ' ' (String.sub h 2 (String.length h - 2)))
    in
    match (field "workload", field "trace", Json.parse last) with
    | Some wl, Some tr, j -> Some ((wl, tr), j)
    | _ | (exception _) -> None)
  | _ -> None

let load_set dir =
  let files = try Sys.readdir dir with Sys_error e -> fail_usage e in
  Array.sort compare files;
  Array.to_list files |> List.filter_map (fun f -> read_result (Filename.concat dir f))

(* Set-up time may also grow by this many seconds, whatever its bound:
   on most workloads set-up takes a few milliseconds, and a share of
   that would flag noise. *)
let setup_floor_s = 0.05

(* For each workload and metric: the median of set B against set A,
   judged by the metric's bound. A metric whose spread within A is
   wider than its bound is reported as unresolved, not as ok. A run of
   B that is not correct, or had a call fail, is a regression on its
   own. *)
let compare_sets ~spec_path a b =
  let e2e_spec, layer_spec = load_spec spec_path in
  let sa = load_set a and sb = load_set b in
  let regressions = ref 0 in
  List.iter
    (fun ((wl, tr) as key) ->
      let pick s = List.filter_map (fun (k, j) -> if k = key then Some j else None) s in
      let ra = pick sa and rb = pick sb in
      if rb <> [] then begin
        Printf.printf "%s (trace %s): %d vs %d runs\n" wl tr (List.length ra) (List.length rb);
        let bad =
          List.length
            (List.filter
               (fun j -> Json.member "correct" j <> Json.Bool true || Json.member "failed" j <> Json.Num 0.0)
               rb)
        in
        if bad > 0 then begin
          incr regressions;
          Printf.printf "  %d runs not correct or with failed calls  REGRESSION\n" bad
        end;
        List.iter
          (fun m ->
            let values rs =
              List.filter_map
                (fun j ->
                  match Json.member "value" (Json.member m.mname (Json.member "metrics" j)) with
                  | Json.Num v -> Some v
                  | _ -> None)
                rs
            in
            let va = values ra and vb = values rb in
            if va <> [] && vb <> [] then begin
              let ma = median va and mb = median vb in
              let worse = if m.better = "lower" then ratio (mb -. ma) ma else ratio (ma -. mb) ma in
              let q1, q3 = quartiles va in
              let bound =
                Option.map (fun b -> if m.mname = "setup_s" then Float.max b (ratio setup_floor_s ma) else b) m.bound
              in
              let verdict =
                match bound with
                | None -> ""
                | Some bound when worse > bound ->
                  incr regressions;
                  "REGRESSION"
                | Some bound when ratio (q3 -. q1) ma > bound -> "unresolved (spread above bound)"
                | Some _ -> "ok"
              in
              Printf.printf "  %-36s %14.6g -> %14.6g %-11s %+7.2f%% worse  %s\n" m.mname ma mb m.unit
                (100.0 *. worse) verdict
            end)
          (if tr = "1" then layer_spec else e2e_spec)
      end)
    (List.sort_uniq compare (List.map fst sa));
  Printf.printf "%d regressions\n" !regressions;
  exit (if !regressions = 0 then 0 else 1)

(* --- command line ------------------------------------------------------------------------ *)

let () =
  let spec_path = ref "BENCHMARK.json" in
  let workload = ref None and seed = ref None and trace = ref false in
  let smoke_mode = ref false and positional = ref [] in
  let num conv flag v = match conv v with Some x -> x | None -> fail_usage ("bad value for " ^ flag ^ ": " ^ v) in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest ->
      workload := Some v;
      parse rest
    | "--seed" :: v :: rest ->
      seed := Some (num int_of_string_opt "--seed" v);
      parse rest
    | "--seconds" :: v :: rest ->
      ignore (num float_of_string_opt "--seconds" v);
      parse rest
    | "--trace" :: (("0" | "1") as v) :: rest ->
      trace := v = "1";
      parse rest
    | "--trace" :: rest ->
      trace := true;
      parse rest
    | "--spec" :: v :: rest ->
      spec_path := v;
      parse rest
    | "--smoke" :: rest ->
      smoke_mode := true;
      parse rest
    | v :: rest when not (String.starts_with ~prefix:"--" v) ->
      positional := !positional @ [ v ];
      parse rest
    | v :: _ -> fail_usage ("unknown argument " ^ v)
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!positional, !smoke_mode, !workload, !seed) with
  | [ "compare"; a; b ], _, _, _ -> compare_sets ~spec_path:!spec_path a b
  | [], true, _, _ -> smoke ~spec_path:!spec_path
  | [], false, Some name, Some seed ->
    run_workload ~spec_path:!spec_path ~name ~seed ~trace:!trace
  | _ ->
    fail_usage
      "usage: run.exe --workload <name> --seed <n> [--seconds <s>] [--trace [0|1]] | --smoke | compare <dir-a> <dir-b>"
