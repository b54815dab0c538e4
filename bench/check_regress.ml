(* Perf-regression gate over the BENCH_<n>.json trajectory.

     dune exec bench/check_regress.exe               -- two newest BENCH_*.json
     dune exec bench/check_regress.exe -- --allow-missing   -- pass when < 2 files
     dune exec bench/check_regress.exe OLD.json NEW.json

   Five sections are gated, each with its own tolerance:

   - "workloads": per-workload "throughput_mb_per_s" must not drop
     more than 20%. Simulated-time numbers, fully deterministic.
   - "sim": simkit microbenchmark "ns_per_op" must not more than
     double. Host wall-clock, so noisy on a shared box — the gate
     catches kernel regressions, not jitter.
   - "scale": per-cluster-size "fs_ops_per_sec" (deterministic, 20%
     as for workloads) and "events_per_sec" (host wall-clock; runs on
     this 1-vCPU container vary several-fold, so only an
     order-of-magnitude collapse — >90% drop — fails), plus
     "petal_disk_util_max" (deterministic; must not rise more than
     20%: a placement rule that piles a layout stride onto a few
     Petal servers saturates their disks first). Older files lack
     it, so it is reported as new there.
   - "soak": per-scenario "invariant_checks" must not drop more than
     20% (the harness silently checking less is itself a regression)
     and "max_cutover_s" must not more than double (the drain-time
     write freeze bounds hot-chunk cutover; losing that bound shows
     up here before it shows up as a soak timeout). Simulated-time
     counters, fully deterministic.

   - "idle": per-cluster-size "events_per_sim_s" and
     "events_per_host_per_sim_s" of a mounted cluster doing nothing
     must not rise more than 20% (simulated-time counts, fully
     deterministic): a new periodic daemon or an all-pairs message
     shows up here first.

   A gated metric present only in the newer file never fails: a
   section the older snapshot predates (e.g. "sim" and "scale"
   appeared with BENCH_6) is reported as new and skipped, which is the
   --allow-missing semantics at per-metric granularity. A gated metric
   present only in the older file fails: deleting a row must not be a
   way around its gate.

   The json is the line-oriented subset bench/main.exe emits; this
   parses it with the stdlib only (no json library in the image). *)

type dir = Higher | Lower

(* section -> gated keys within its rows: (key, direction, tolerance). *)
let gates =
  [
    ("workloads", [ ("throughput_mb_per_s", Higher, 0.20) ]);
    ("sim", [ ("ns_per_op", Lower, 1.00) ]);
    ( "scale",
      [
        ("fs_ops_per_sec", Higher, 0.20);
        ("events_per_sec", Higher, 0.90);
        ("petal_disk_util_max", Lower, 0.20);
      ] );
    ( "soak",
      [ ("invariant_checks", Higher, 0.20); ("max_cutover_s", Lower, 1.00) ] );
    ( "idle",
      [ ("events_per_sim_s", Lower, 0.20); ("events_per_host_per_sim_s", Lower, 0.20) ] );
  ]

(* Metrics a PR's tentpole specifically optimised: the new value must
   be at least the old one — any drop fails, no tolerance. Missing
   from the older file is skipped, missing from the newer one fails
   (as above). *)
let must_improve = [ "workloads/largefile_write_16mb throughput_mb_per_s" ]

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m > 0 && go 0

(* Pull the float following "<key>": out of a row line, if present. *)
let find_value line key =
  let key = "\"" ^ key ^ "\":" in
  let n = String.length line and m = String.length key in
  let rec find i =
    if i + m > n then None
    else if String.sub line i m = key then Some (i + m)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some v0 ->
    let stop = ref v0 in
    while
      !stop < n
      && (match line.[!stop] with
         | '0' .. '9' | '.' | '-' | 'e' | '+' | ' ' -> true
         | _ -> false)
    do
      incr stop
    done;
    (try Some (float_of_string (String.trim (String.sub line v0 (!stop - v0))))
     with Failure _ -> None)

(* First quoted string on the line: the row (or section) name. *)
let quoted_name line =
  match String.index_opt line '"' with
  | None -> None
  | Some q0 -> (
    match String.index_from_opt line (q0 + 1) '"' with
    | None -> None
    | Some q1 -> Some (String.sub line (q0 + 1) (q1 - q0 - 1)))

(* Returns rows as (id, value, dir, tolerance); id is
   "section/row key" so the same row can carry several gated keys. *)
let parse_file path =
  let ic = open_in path in
  let rows = ref [] in
  let section = ref None in
  (try
     while true do
       let line = input_line ic in
       let starts_section =
         List.exists
           (fun (sec, _) ->
             if contains line ("\"" ^ sec ^ "\": {") then begin
               section := Some sec;
               true
             end
             else false)
           gates
       in
       if starts_section then ()
       else if contains line "\": {" && not (contains line "}") then
         (* Header of a non-gated section ("net": {, "reconf": { ...):
            only section headers open a brace without closing it on
            the same line — row lines are single-line objects. *)
         section := None
       else begin
         let t = String.trim line in
         if t = "}," || t = "}" then section := None
         else
           match !section with
           | None -> ()
           | Some sec -> (
             match quoted_name line with
             | None -> ()
             | Some name ->
               List.iter
                 (fun (key, d, tol) ->
                   match find_value line key with
                   | Some v ->
                     rows :=
                       (sec ^ "/" ^ name ^ " " ^ key, v, d, tol) :: !rows
                   | None -> ())
                 (List.assoc sec gates))
       end
     done
   with End_of_file -> ());
  close_in ic;
  List.rev !rows

(* BENCH_<n>.json, sorted by <n>; the two highest are (previous,
   current). *)
let autodetect ~allow_missing =
  let indexed =
    Sys.readdir "."
    |> Array.to_list
    |> List.filter_map (fun f ->
           try Scanf.sscanf f "BENCH_%d.json%!" (fun n -> Some (n, f))
           with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
    |> List.sort compare
  in
  match List.rev indexed with
  | (_, cur) :: (_, prev) :: _ -> (prev, cur)
  | _ when allow_missing ->
    (* First PR on a branch, or a fresh checkout: nothing to compare
       against is not a regression. *)
    print_endline
      "check_regress: fewer than two BENCH_<n>.json files, nothing to compare \
       (--allow-missing)";
    exit 0
  | _ ->
    prerr_endline
      "check_regress: need two BENCH_<n>.json files (or pass OLD NEW, or \
       --allow-missing)";
    exit 2

let () =
  let prev_file, cur_file =
    match Sys.argv with
    | [| _ |] -> autodetect ~allow_missing:false
    | [| _; "--allow-missing" |] -> autodetect ~allow_missing:true
    | [| _; a; b |] -> (a, b)
    | _ ->
      prerr_endline "usage: check_regress [--allow-missing | OLD.json NEW.json]";
      exit 2
  in
  let prev = parse_file prev_file and cur = parse_file cur_file in
  Printf.printf "check_regress: %s -> %s\n" prev_file cur_file;
  let assoc id rows =
    List.find_map (fun (i, v, _, _) -> if i = id then Some v else None) rows
  in
  let failed = ref false in
  List.iter
    (fun (id, old_v, d, tol) ->
      match assoc id cur with
      | None ->
        failed := true;
        Printf.printf "  %-44s %10.1f -> (gone)   GATED METRIC DROPPED\n" id
          old_v
      | Some new_v ->
        let delta =
          if old_v > 0. then (new_v -. old_v) /. old_v *. 100. else 0.
        in
        let bad =
          old_v > 0.
          &&
          match d with
          | Higher -> new_v < old_v *. (1. -. tol)
          | Lower -> new_v > old_v *. (1. +. tol)
        in
        let below_floor = List.mem id must_improve && new_v < old_v in
        if bad || below_floor then failed := true;
        Printf.printf "  %-44s %10.1f -> %10.1f  %+7.1f%% (tol %s%.0f%%)%s%s\n"
          id old_v new_v delta
          (match d with Higher -> "-" | Lower -> "+")
          (tol *. 100.)
          (if bad then "  REGRESSION" else "")
          (if below_floor then "  BELOW MUST-IMPROVE FLOOR" else ""))
    prev;
  List.iter
    (fun (id, new_v, _, _) ->
      if assoc id prev = None then
        Printf.printf "  %-44s      (new) -> %10.1f\n" id new_v)
    cur;
  if !failed then begin
    prerr_endline "check_regress: FAIL";
    exit 1
  end
  else print_endline "check_regress: OK"
