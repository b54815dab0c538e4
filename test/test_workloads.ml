open Simkit
module T = Workloads.Testbed
module V = Workloads.Vfs

let frangipani_vfs ?config () =
  let t = T.build ~petal_servers:3 ~ndisks:3 ~ngroups:16 () in
  (t, V.of_frangipani (T.add_server t ?config ()))

let advfs_vfs () =
  let host = Cluster.Host.create "advfs" in
  V.of_advfs (Advfs.create ~host ())

let test_andrew_on_both () =
  let check v =
    let r = Workloads.Andrew.run v ~root_name:"mab" in
    Alcotest.(check int) (v.V.name ^ " has 5 phases") 5 (List.length r.Workloads.Andrew.phases);
    List.iter
      (fun p ->
        Alcotest.(check bool)
          (Printf.sprintf "%s %s > 0" v.V.name p.Workloads.Andrew.phase)
          true
          (p.Workloads.Andrew.seconds > 0.0))
      r.Workloads.Andrew.phases;
    r.Workloads.Andrew.total
  in
  let tf = Sim.run (fun () -> check (snd (frangipani_vfs ()))) in
  let ta = Sim.run (fun () -> check (advfs_vfs ())) in
  (* Both complete in plausible single-digit-to-tens-of-seconds time,
     with the compile phase dominating. *)
  Alcotest.(check bool) "frangipani total sane" true (tf > 10.0 && tf < 120.0);
  Alcotest.(check bool) "advfs total sane" true (ta > 10.0 && ta < 120.0)

let test_andrew_files_actually_exist () =
  Sim.run (fun () ->
      let _, v = frangipani_vfs () in
      ignore (Workloads.Andrew.run v ~root_name:"mab");
      let base = v.V.lookup ~dir:v.V.root "mab" in
      let src = v.V.lookup ~dir:base "src" in
      let d0 = v.V.lookup ~dir:src "dir0" in
      (* 14 sources + 14 objects per directory. *)
      Alcotest.(check int) "entries" 28 (List.length (v.V.readdir d0)))

let test_connectathon_rows () =
  Sim.run (fun () ->
      let _, v = frangipani_vfs () in
      let rows = Workloads.Connectathon.run v ~root_name:"cth" in
      Alcotest.(check int) "9 rows" 9 (List.length rows);
      List.iter
        (fun r ->
          Alcotest.(check bool)
            (r.Workloads.Connectathon.test ^ " positive")
            true
            (r.Workloads.Connectathon.seconds >= 0.0 && r.Workloads.Connectathon.ops > 0))
        rows)

let test_largefile_throughput_sane () =
  Sim.run (fun () ->
      let _, v = frangipani_vfs () in
      let w = Workloads.Largefile.write_seq v ~name:"big" ~mb:4 in
      let r = Workloads.Largefile.read_seq v ~name:"big" in
      let open Workloads.Largefile in
      Alcotest.(check bool)
        (Printf.sprintf "write %.1f MB/s in [2,20]" w.mb_per_s)
        true
        (w.mb_per_s > 2.0 && w.mb_per_s < 20.0);
      Alcotest.(check bool)
        (Printf.sprintf "read %.1f MB/s in [2.5,20]" r.mb_per_s)
        true
        (r.mb_per_s > 2.5 && r.mb_per_s < 20.0);
      Alcotest.(check bool) "cpu util < 1" true (w.cpu_utilization < 1.0))

let test_contention_runs () =
  Sim.run (fun () ->
      let t = T.build ~petal_servers:3 ~ndisks:3 ~ngroups:16 () in
      let writer = V.of_frangipani (T.add_server t ()) in
      let readers = List.init 2 (fun _ -> V.of_frangipani (T.add_server t ())) in
      let r =
        Workloads.Contention.readers_vs_writer ~reader_vfss:readers
          ~writer_vfs:writer ~write_bytes:65536 ~duration:(Sim.sec 10.0)
      in
      Alcotest.(check int) "readers" 2 r.Workloads.Contention.readers;
      Alcotest.(check bool) "some reads happened" true
        (r.Workloads.Contention.read_mb_per_s > 0.0);
      Alcotest.(check bool) "some writes happened" true
        (r.Workloads.Contention.write_mb_per_s > 0.0))

(* Figure 8: under write sharing, read-ahead must not cost readers
   throughput — prefetched windows that every revoke discards used to
   make ON trail OFF. Deterministic, so the bound is exact. *)
let test_read_ahead_under_write_sharing () =
  let read_mb_per_s config =
    Sim.run (fun () ->
        let t = T.build ~petal_servers:3 ~ndisks:3 ~ngroups:16 () in
        let writer = V.of_frangipani (T.add_server t ~config ()) in
        let readers =
          List.init 2 (fun _ -> V.of_frangipani (T.add_server t ~config ()))
        in
        (Workloads.Contention.readers_vs_writer ~reader_vfss:readers
           ~writer_vfs:writer ~write_bytes:(1024 * 1024) ~duration:(Sim.sec 10.0))
          .Workloads.Contention.read_mb_per_s)
  in
  let base = Frangipani.Ctx.default_config in
  let on = read_mb_per_s base in
  let off = read_mb_per_s { base with Frangipani.Ctx.read_ahead = 0 } in
  Alcotest.(check bool)
    (Printf.sprintf "read-ahead ON %.3f >= 0.98 x OFF %.3f MB/s" on off)
    true
    (on >= 0.98 *. off)

let test_write_write_sharing_runs () =
  Sim.run (fun () ->
      let t = T.build ~petal_servers:3 ~ndisks:3 ~ngroups:16 () in
      let writers = List.init 3 (fun _ -> V.of_frangipani (T.add_server t ())) in
      let thr =
        Workloads.Contention.writers_sharing ~writer_vfss:writers
          ~duration:(Sim.sec 5.0)
      in
      Alcotest.(check bool) "progress under write sharing" true (thr > 0.0))

let () =
  Alcotest.run "workloads"
    [
      ( "andrew",
        [
          Alcotest.test_case "runs on both systems" `Quick test_andrew_on_both;
          Alcotest.test_case "files exist" `Quick test_andrew_files_actually_exist;
        ] );
      ("connectathon", [ Alcotest.test_case "rows" `Quick test_connectathon_rows ]);
      ("largefile", [ Alcotest.test_case "throughput sane" `Quick test_largefile_throughput_sane ]);
      ( "contention",
        [
          Alcotest.test_case "readers vs writer" `Quick test_contention_runs;
          Alcotest.test_case "read-ahead under write sharing" `Quick
            test_read_ahead_under_write_sharing;
          Alcotest.test_case "write/write sharing" `Quick test_write_write_sharing_runs;
        ] );
    ]
