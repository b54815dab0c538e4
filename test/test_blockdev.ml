open Simkit
open Blockdev

let mkdisk () = Disk.create ~capacity:(16 * 1024 * 1024) "d0"

let test_read_back () =
  Sim.run (fun () ->
      let d = mkdisk () in
      let data = Bytes.make 4096 'x' in
      Disk.write d ~off:8192 data;
      let got = Disk.read d ~off:8192 ~len:4096 in
      Alcotest.(check string) "read back" (Bytes.to_string data) (Bytes.to_string got))

let test_unwritten_zero () =
  Sim.run (fun () ->
      let d = mkdisk () in
      let got = Disk.read d ~off:0 ~len:512 in
      Alcotest.(check string) "zeros" (String.make 512 '\000') (Bytes.to_string got))

let test_cross_slab () =
  Sim.run (fun () ->
      let d = mkdisk () in
      (* 128 KB spanning two 64 KB slabs, offset so it straddles. *)
      let data = Bytes.init 131072 (fun i -> Char.chr (i mod 251)) in
      Disk.write d ~off:(32 * 1024) data;
      let got = Disk.read d ~off:(32 * 1024) ~len:131072 in
      Alcotest.(check bool) "cross-slab equal" true (Bytes.equal data got))

let test_alignment_rejected () =
  Sim.run (fun () ->
      let d = mkdisk () in
      (try
         ignore (Disk.read d ~off:10 ~len:512);
         Alcotest.fail "expected Invalid_argument"
       with Invalid_argument _ -> ());
      try
        Disk.write d ~off:0 (Bytes.create 100);
        Alcotest.fail "expected Invalid_argument"
      with Invalid_argument _ -> ())

let test_timing_model () =
  let elapsed, elapsed_seq =
    Sim.run (fun () ->
        let d = mkdisk () in
        let t0 = Sim.now () in
        ignore (Disk.read d ~off:(8 * 1024 * 1024) ~len:65536);
        let t1 = Sim.now () in
        ignore (Disk.read d ~off:(8 * 1024 * 1024 + 65536) ~len:65536);
        let t2 = Sim.now () in
        (t1 - t0, t2 - t1))
  in
  (* Random access pays a seek; sequential does not. *)
  Alcotest.(check bool) "random slower than sequential" true (elapsed > elapsed_seq);
  (* 64 KB at 6 MB/s is ~10.9 ms of transfer alone. *)
  Alcotest.(check bool) "sequential >= transfer time" true (elapsed_seq >= Sim.ms 10)

let test_fail_and_heal () =
  Sim.run (fun () ->
      let d = mkdisk () in
      Disk.fail d;
      (try
         ignore (Disk.read d ~off:0 ~len:512);
         Alcotest.fail "expected Failed"
       with Disk.Failed _ -> ());
      Disk.heal d;
      ignore (Disk.read d ~off:0 ~len:512))

let test_damaged_sector () =
  Sim.run (fun () ->
      let d = mkdisk () in
      Disk.write d ~off:0 (Bytes.make 1024 'a');
      Disk.damage_sector d 1;
      (try
         ignore (Disk.read d ~off:0 ~len:1024);
         Alcotest.fail "expected Bad_sector"
       with Disk.Bad_sector 1 -> ());
      (* Sector 0 alone is still readable. *)
      ignore (Disk.read d ~off:0 ~len:512);
      (* Overwriting the damaged sector repairs it. *)
      Disk.write d ~off:512 (Bytes.make 512 'b');
      ignore (Disk.read d ~off:0 ~len:1024))

(* --- merged in-flight reads --------------------------------------------- *)

(* Start [reads] concurrently at the current instant; each result is
   [Ok bytes] or [Error exn]. *)
let spawn_reads d reads =
  List.map
    (fun (off, len) ->
      let iv = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          Sim.Ivar.fill iv
            (match Disk.read d ~off ~len with b -> Ok b | exception e -> Error e));
      iv)
    reads

let test_merge_identical () =
  Sim.run (fun () ->
      let alone = mkdisk () and d = mkdisk () in
      Disk.write alone ~off:4096 (Bytes.make 4096 'm');
      Disk.write d ~off:4096 (Bytes.make 4096 'm');
      let busy0 = Sim.Resource.busy_time (Disk.arm alone) in
      ignore (Disk.read alone ~off:4096 ~len:4096);
      let one = Sim.Resource.busy_time (Disk.arm alone) - busy0 in
      let busy0 = Sim.Resource.busy_time (Disk.arm d) in
      let bufs =
        spawn_reads d (List.init 5 (fun _ -> (4096, 4096)))
        |> List.map (fun iv -> Result.get_ok (Sim.Ivar.read iv))
      in
      Alcotest.(check int) "one arm service" one
        (Sim.Resource.busy_time (Disk.arm d) - busy0);
      Alcotest.(check int) "four merged" 4 (Disk.merged d);
      List.iter
        (fun b -> Alcotest.(check string) "same bytes" (String.make 4096 'm') (Bytes.to_string b))
        bufs;
      List.iteri (fun i b -> Bytes.fill b 0 4096 (Char.chr (Char.code 'a' + i))) bufs;
      List.iteri
        (fun i b ->
          Alcotest.(check char) "independent buffer" (Char.chr (Char.code 'a' + i)) (Bytes.get b 0))
        bufs;
      (* The first reader scribbles on its buffer the moment its read
         returns; a read that joined it still gets the disk's bytes. *)
      let joined = Sim.Ivar.create () in
      Sim.spawn (fun () -> Bytes.fill (Disk.read d ~off:4096 ~len:4096) 0 4096 'x');
      Sim.spawn (fun () -> Sim.Ivar.fill joined (Disk.read d ~off:4096 ~len:4096));
      Alcotest.(check string) "joiner unaffected by the first reader" (String.make 4096 'm')
        (Bytes.to_string (Sim.Ivar.read joined));
      Alcotest.(check int) "five merged" 5 (Disk.merged d))

(* A read that joins an earlier one sees every write that completed
   before it was issued: the write is ahead of the earlier read on the
   FIFO arm, and the earlier read captures its bytes when its own
   service ends. *)
let test_merge_after_write () =
  Sim.run (fun () ->
      let d = mkdisk () in
      Disk.write d ~off:0 (Bytes.make 512 'o');
      let written = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          Disk.write d ~off:0 (Bytes.make 512 'n');
          Sim.Ivar.fill written ());
      let earlier = spawn_reads d [ (0, 512) ] in
      Sim.Ivar.read written;
      let joiner = Disk.read d ~off:0 ~len:512 in
      Alcotest.(check int) "joined the earlier read" 1 (Disk.merged d);
      Alcotest.(check string) "joiner sees the write" (String.make 512 'n')
        (Bytes.to_string joiner);
      Alcotest.(check string) "earlier read too" (String.make 512 'n')
        (Bytes.to_string (Result.get_ok (Sim.Ivar.read (List.hd earlier))));
      Alcotest.(check string) "later read" (String.make 512 'n')
        (Bytes.to_string (Disk.read d ~off:0 ~len:512)))

(* Through NVRAM: a read that must destage an overlapping pending write
   first queues that write behind the earlier disk read, so by the time
   it reads, the earlier read has captured its bytes and left; it reads
   the disk afresh and sees the write. *)
let test_merge_nvram_destage () =
  Sim.run (fun () ->
      let d = mkdisk () in
      Disk.write d ~off:0 (Bytes.make 1024 'o');
      let s = Nvram.wrap d in
      let earlier = spawn_reads d [ (0, 1024) ] in
      s.Storage.write ~off:512 (Bytes.make 512 'n');
      let got = s.Storage.read ~off:0 ~len:1024 in
      Alcotest.(check string) "sees the NVRAM write"
        (String.make 512 'o' ^ String.make 512 'n')
        (Bytes.to_string got);
      Alcotest.(check string) "earlier read predates it" (String.make 1024 'o')
        (Bytes.to_string (Result.get_ok (Sim.Ivar.read (List.hd earlier))));
      Alcotest.(check int) "nothing merged" 0 (Disk.merged d))

let test_merge_errors_reach_joiners () =
  Sim.run (fun () ->
      let d = mkdisk () in
      Disk.damage_sector d 1;
      spawn_reads d (List.init 3 (fun _ -> (0, 1024)))
      |> List.iter (fun iv ->
             match Sim.Ivar.read iv with
             | Error (Disk.Bad_sector 1) -> ()
             | _ -> Alcotest.fail "expected Bad_sector 1");
      Alcotest.(check int) "bad sector: two joined" 2 (Disk.merged d);
      let ivs = spawn_reads d (List.init 3 (fun _ -> (8192, 512))) in
      Sim.sleep (Sim.us 100);
      Disk.fail d;
      List.iter
        (fun iv ->
          match Sim.Ivar.read iv with
          | Error (Disk.Failed _) -> ()
          | _ -> Alcotest.fail "expected Failed")
        ivs;
      Alcotest.(check int) "failed disk: two more joined" 4 (Disk.merged d))

let test_merge_exact_range_only () =
  Sim.run (fun () ->
      let d = mkdisk () in
      spawn_reads d [ (0, 512); (0, 1024); (512, 512); (1024, 512) ]
      |> List.iter (fun iv -> ignore (Result.get_ok (Sim.Ivar.read iv)));
      Alcotest.(check int) "nothing merged" 0 (Disk.merged d))

let test_nvram_write_fast_read_back () =
  Sim.run (fun () ->
      let d = mkdisk () in
      let s = Nvram.wrap d in
      let t0 = Sim.now () in
      s.Storage.write ~off:4096 (Bytes.make 512 'z');
      let dt = Sim.now () - t0 in
      Alcotest.(check bool) "NVRAM write well under 1ms" true (dt < Sim.ms 1);
      let got = s.Storage.read ~off:4096 ~len:512 in
      Alcotest.(check string) "read back from NVRAM" (String.make 512 'z')
        (Bytes.to_string got))

let test_nvram_flush_reaches_disk () =
  Sim.run (fun () ->
      let d = mkdisk () in
      let s = Nvram.wrap d in
      s.Storage.write ~off:0 (Bytes.make 512 'q');
      s.Storage.flush ();
      let got = Disk.read d ~off:0 ~len:512 in
      Alcotest.(check string) "destaged" (String.make 512 'q') (Bytes.to_string got))

let test_nvram_overwrite_coalesces () =
  Sim.run (fun () ->
      let d = mkdisk () in
      let s = Nvram.wrap d in
      for i = 0 to 9 do
        s.Storage.write ~off:0 (Bytes.make 512 (Char.chr (Char.code '0' + i)))
      done;
      s.Storage.flush ();
      let got = Disk.read d ~off:0 ~len:512 in
      Alcotest.(check string) "last write wins" (String.make 512 '9')
        (Bytes.to_string got))

let test_nvram_capacity_blocks () =
  Sim.run (fun () ->
      let d = mkdisk () in
      let s = Nvram.wrap d in
      (* Write 9 MB through the 8 MB board: the last MB must wait for
         the destager at disk speed (6 MB/s), yet every write
         completes and everything lands on disk. At NVRAM speed alone
         (200 MB/s) the loop would take under 50 ms. *)
      let nblocks = 9 * 16 in
      let block i = Bytes.make 65536 (Char.chr (Char.code 'a' + (i mod 26))) in
      let t0 = Sim.now () in
      for i = 0 to nblocks - 1 do
        s.Storage.write ~off:(i * 65536) (block i)
      done;
      Alcotest.(check bool) "writers blocked on destage" true (Sim.now () - t0 > Sim.ms 100);
      s.Storage.flush ();
      for i = 0 to nblocks - 1 do
        let got = Disk.read d ~off:(i * 65536) ~len:65536 in
        Alcotest.(check bool) (Printf.sprintf "block %d" i) true (Bytes.equal (block i) got)
      done)

let prop_disk_roundtrip =
  QCheck.Test.make ~name:"disk write/read round-trips at random offsets" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 10) (pair (int_range 0 1000) (int_range 1 8)))
    (fun writes ->
      Sim.run (fun () ->
          let d = mkdisk () in
          let model = Hashtbl.create 16 in
          List.iter
            (fun (sector, nsect) ->
              let off = sector * 512 and len = nsect * 512 in
              let data =
                Bytes.init len (fun i -> Char.chr ((sector + i) mod 256))
              in
              Disk.write d ~off data;
              (* Update a byte-level model. *)
              for i = 0 to len - 1 do
                Hashtbl.replace model (off + i) (Bytes.get data i)
              done)
            writes;
          List.for_all
            (fun (sector, nsect) ->
              let off = sector * 512 and len = nsect * 512 in
              let got = Disk.read d ~off ~len in
              let ok = ref true in
              for i = 0 to len - 1 do
                let expect =
                  match Hashtbl.find_opt model (off + i) with
                  | Some c -> c
                  | None -> '\000'
                in
                if Bytes.get got i <> expect then ok := false
              done;
              !ok)
            writes))

let () =
  Alcotest.run "blockdev"
    [
      ( "disk",
        [
          Alcotest.test_case "read back" `Quick test_read_back;
          Alcotest.test_case "unwritten reads zero" `Quick test_unwritten_zero;
          Alcotest.test_case "cross-slab I/O" `Quick test_cross_slab;
          Alcotest.test_case "alignment rejected" `Quick test_alignment_rejected;
          Alcotest.test_case "timing model" `Quick test_timing_model;
          Alcotest.test_case "fail and heal" `Quick test_fail_and_heal;
          Alcotest.test_case "damaged sector" `Quick test_damaged_sector;
          QCheck_alcotest.to_alcotest prop_disk_roundtrip;
        ] );
      ( "merge",
        [
          Alcotest.test_case "identical reads share a service" `Quick test_merge_identical;
          Alcotest.test_case "joiner sees completed write" `Quick test_merge_after_write;
          Alcotest.test_case "NVRAM destage, then read" `Quick test_merge_nvram_destage;
          Alcotest.test_case "errors reach every joiner" `Quick test_merge_errors_reach_joiners;
          Alcotest.test_case "only identical ranges merge" `Quick test_merge_exact_range_only;
        ] );
      ( "nvram",
        [
          Alcotest.test_case "fast write, read back" `Quick test_nvram_write_fast_read_back;
          Alcotest.test_case "flush reaches disk" `Quick test_nvram_flush_reaches_disk;
          Alcotest.test_case "overwrite coalesces" `Quick test_nvram_overwrite_coalesces;
          Alcotest.test_case "capacity blocks writers" `Quick test_nvram_capacity_blocks;
        ] );
    ]
