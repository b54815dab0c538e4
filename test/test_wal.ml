open Simkit
open Frangipani

(* A private vdisk for log experiments, with its network and the
   client's address (for network faults). *)
let mkvd_on_net () =
  let net = Cluster.Net.create () in
  let tb = Petal.Testbed.build ~net ~nservers:3 ~ndisks:2 () in
  let h = Cluster.Host.create "walclient" in
  let port = Cluster.Net.attach net h in
  let c = Petal.Testbed.client tb ~rpc:(Cluster.Rpc.create port) in
  (net, Cluster.Net.addr port, Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2))

let mkvd () =
  let _, _, vd = mkvd_on_net () in
  vd

let diff addr doff data version = { Wal.addr; doff; data; version }

let d i =
  diff
    (Layout.inode_addr i)
    8
    (Bytes.of_string (Printf.sprintf "record-%04d" i))
    (i + 1)

let test_roundtrip () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:3 ~synchronous:false ~lease_ok:(fun () -> true) () in
      for i = 0 to 9 do
        ignore (Wal.append w [ d i ])
      done;
      Wal.flush w;
      let diffs = Wal.scan vd ~slot:3 in
      Alcotest.(check int) "all diffs recovered" 10 (List.length diffs);
      List.iteri
        (fun i (x : Wal.diff) ->
          Alcotest.(check int) "order" (Layout.inode_addr i) x.Wal.addr;
          Alcotest.(check string) "payload"
            (Printf.sprintf "record-%04d" i)
            (Bytes.to_string x.Wal.data))
        diffs)

let test_unflushed_not_durable () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:0 ~synchronous:false ~lease_ok:(fun () -> true) () in
      ignore (Wal.append w [ d 1 ]);
      Alcotest.(check int) "nothing on disk yet" 0 (List.length (Wal.scan vd ~slot:0));
      Wal.discard_volatile w;
      Wal.flush w;
      Alcotest.(check int) "discarded tail lost" 0 (List.length (Wal.scan vd ~slot:0)))

let test_synchronous_mode () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:1 ~synchronous:true ~lease_ok:(fun () -> true) () in
      ignore (Wal.append w [ d 7 ]);
      (* Durable immediately, no explicit flush. *)
      Alcotest.(check int) "already durable" 1 (List.length (Wal.scan vd ~slot:1)))

let test_ensure_flushed_barrier () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:2 ~synchronous:false ~lease_ok:(fun () -> true) () in
      let r1 = Wal.append w [ d 1 ] in
      let r2 = Wal.append w [ d 2 ] in
      Wal.ensure_flushed w r1;
      (* r2 was grouped into the same flush (group commit). *)
      Alcotest.(check bool) "group commit" true (r2 <= Wal.last_rid w);
      Alcotest.(check int) "both durable" 2 (List.length (Wal.scan vd ~slot:2)))

let test_wraparound_keeps_window () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:4 ~synchronous:false ~lease_ok:(fun () -> true) () in
      (* Push far more than 128 KB of records through: the log wraps
         several times; scan must return a consistent recent window,
         newest record always included. *)
      let n = 3000 in
      for i = 0 to n - 1 do
        ignore (Wal.append w [ d i ]);
        if i mod 50 = 0 then Wal.flush w
      done;
      Wal.flush w;
      let diffs = Wal.scan vd ~slot:4 in
      Alcotest.(check bool) "non-empty window" true (List.length diffs > 100);
      (* Monotone order, ending at the newest record. *)
      let versions = List.map (fun (x : Wal.diff) -> x.Wal.version) diffs in
      let sorted = List.sort compare versions in
      Alcotest.(check bool) "in order" true (versions = sorted);
      Alcotest.(check int) "newest present" n (List.nth versions (List.length versions - 1)))

let test_isolated_slots () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w5 = Wal.create ~vd ~slot:5 ~synchronous:true ~lease_ok:(fun () -> true) () in
      let w6 = Wal.create ~vd ~slot:6 ~synchronous:true ~lease_ok:(fun () -> true) () in
      ignore (Wal.append w5 [ d 100 ]);
      ignore (Wal.append w6 [ d 200 ]);
      Alcotest.(check int) "slot5" 1 (List.length (Wal.scan vd ~slot:5));
      Alcotest.(check int) "slot6" 1 (List.length (Wal.scan vd ~slot:6));
      Alcotest.(check int) "slot7 empty" 0 (List.length (Wal.scan vd ~slot:7)))

let test_lease_check_blocks_writes () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let ok = ref true in
      let w = Wal.create ~vd ~slot:8 ~synchronous:false ~lease_ok:(fun () -> !ok) () in
      ignore (Wal.append w [ d 1 ]);
      ok := false;
      (try
         Wal.flush w;
         Alcotest.fail "expected EIO"
       with Errors.Error Errors.Eio -> ()))

(* A crash mid-group-commit leaves the tail of a multi-sector record
   missing: scan must report the torn tail and replay exactly the
   valid prefix rather than raise. Simulated by zeroing the last log
   sector after a flush of one small record plus one record big
   enough to span several sectors. *)
let test_torn_tail_replays_prefix () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:3 ~synchronous:false ~lease_ok:(fun () -> true) () in
      ignore (Wal.append w [ d 1 ]);
      ignore
        (Wal.append w
           [
             diff (Layout.inode_addr 10) 0 (Bytes.make 500 'a') 11;
             diff (Layout.inode_addr 11) 0 (Bytes.make 500 'b') 12;
             diff (Layout.inode_addr 12) 0 (Bytes.make 500 'c') 13;
           ]);
      Wal.flush w;
      let whole = Wal.scan_report vd ~slot:3 in
      Alcotest.(check bool) "intact log not torn" false whole.Wal.torn;
      Alcotest.(check int) "intact log has both records" 2 whole.Wal.records;
      (* Tear off the last sector of the log (the big record's tail). *)
      let last = Layout.log_addr ~slot:3 + ((whole.Wal.live_sectors - 1) * Layout.sector) in
      Petal.Client.write vd ~off:last (Bytes.make Layout.sector '\000');
      let torn = Wal.scan_report vd ~slot:3 in
      Alcotest.(check bool) "torn tail detected" true torn.Wal.torn;
      Alcotest.(check int) "only the complete record survives" 1 torn.Wal.records;
      Alcotest.(check int) "its single diff is the prefix" 1
        (List.length torn.Wal.diffs);
      Alcotest.(check int) "prefix diff is record 1" 2
        (List.hd torn.Wal.diffs).Wal.version)

(* A sector whose CRC happens to validate but whose header claims an
   impossible payload length must be excluded from the live window,
   not crash the scanner (it used to raise Invalid_argument from
   Bytes.sub). *)
let test_garbage_sector_with_valid_crc () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let b = Bytes.make Layout.sector '\000' in
      Stdext.Codec.put_int b 0 1 (* lsn 1 *);
      Stdext.Codec.put_u16 b 8 0 (* first_rec 0 *);
      Stdext.Codec.put_u16 b 10 5000 (* payload "length" way past the cap *);
      Stdext.Codec.put_u32 b 508 (Stdext.Crc32.bytes b 0 508);
      Petal.Client.write vd ~off:(Layout.log_addr ~slot:0) b;
      let r = Wal.scan_report vd ~slot:0 in
      Alcotest.(check int) "garbage sector not live" 0 r.Wal.live_sectors;
      Alcotest.(check (list string)) "no diffs" []
        (List.map (fun (x : Wal.diff) -> Bytes.to_string x.Wal.data) r.Wal.diffs))

(* A failed flush (host died mid-commit) must release the
   group-commit latch and put the batch back: a second flush attempt
   fails the same way instead of wedging forever, and ensure_flushed
   does not spin. *)
let test_flush_failure_releases_group_commit () =
  Sim.run (fun () ->
      let net = Cluster.Net.create () in
      let tb = Petal.Testbed.build ~net ~nservers:3 ~ndisks:2 () in
      let h = Cluster.Host.create "walclient" in
      let rpc = Cluster.Rpc.create (Cluster.Net.attach net h) in
      let c = Petal.Testbed.client tb ~rpc in
      let vd = Petal.Client.open_vdisk c (Petal.Client.create_vdisk c ~nrep:2) in
      let w = Wal.create ~vd ~slot:0 ~synchronous:false ~lease_ok:(fun () -> true) () in
      let r = Wal.append w [ d 1 ] in
      Cluster.Host.crash h;
      (match Wal.flush w with
      | () -> Alcotest.fail "flush from a dead host should fail"
      | exception Cluster.Host.Crashed _ -> ());
      (match Wal.ensure_flushed w r with
      | () -> Alcotest.fail "ensure_flushed should propagate the failure"
      | exception Cluster.Host.Crashed _ -> ());
      (match Wal.flush w with
      | () -> Alcotest.fail "flush should fail again, not wedge"
      | exception Cluster.Host.Crashed _ -> ()))

let rec400 i c = [ diff (Layout.inode_addr i) 0 (Bytes.make 400 c) (i + 1) ]

(* Group commit: appends made while a flush is writing are not part of
   its batch; they go out in the next one, still in strict LSN (= rid)
   order behind the first batch. *)
let test_group_commit_carries_inflight_appends () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:3 ~synchronous:false ~lease_ok:(fun () -> true) () in
      (* Batch 1: ~127 sectors, several groups. *)
      for i = 0 to 149 do
        ignore (Wal.append w (rec400 i 'x'))
      done;
      let done1 = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          Wal.flush w;
          Sim.Ivar.fill done1 ());
      (* Let the flusher put its first group on the wire, then append
         batch 2 while it is still writing. *)
      Sim.sleep (Sim.us 100);
      for i = 150 to 199 do
        ignore (Wal.append w (rec400 i 'y'))
      done;
      Alcotest.(check int) "appends made while a flush was writing" 50
        (Wal.stats w).Wal.pipeline_overlaps;
      Wal.flush w;
      Sim.Ivar.read done1;
      Alcotest.(check bool) "several groups were written" true
        ((Wal.stats w).Wal.flush_groups > 1);
      let diffs = Wal.scan vd ~slot:3 in
      Alcotest.(check (list int)) "every record present, in rid order"
        (List.init 200 (fun i -> i + 1))
        (List.map (fun (x : Wal.diff) -> x.Wal.version) diffs))

(* A caller that needs one record returns once the group holding it
   lands; the rest of its batch is written in the background without
   a further call. *)
let test_caller_returns_when_its_record_lands () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:7 ~synchronous:false ~lease_ok:(fun () -> true) () in
      let first = Wal.append w (rec400 0 'x') in
      for i = 1 to 149 do
        ignore (Wal.append w (rec400 i 'x'))
      done;
      Wal.ensure_flushed w first;
      Alcotest.(check int) "one group written when the caller returns" 1
        (Wal.stats w).Wal.flush_groups;
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check (list int)) "the rest of the batch reached the log"
        (List.init 150 (fun i -> i + 1))
        (List.map (fun (x : Wal.diff) -> x.Wal.version) (Wal.scan vd ~slot:7)))

(* Asynchronous appends that pass a quarter of the log while a flush
   is writing must still reach the log once it ends: no later append
   or explicit flush comes to start another. *)
let test_async_appends_during_flush_reach_log () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:5 ~synchronous:false ~lease_ok:(fun () -> true) () in
      for i = 0 to 19 do
        ignore (Wal.append w (rec400 i 'x'))
      done;
      Sim.spawn (fun () -> Wal.flush w);
      Sim.sleep (Sim.us 100);
      (* ~43 KB, past the 32 KB kick threshold, appended mid-flush. *)
      for i = 20 to 119 do
        ignore (Wal.append w (rec400 i 'y'))
      done;
      Sim.sleep (Sim.sec 1.0);
      Alcotest.(check (list int)) "every record reached the log"
        (List.init 120 (fun i -> i + 1))
        (List.map (fun (x : Wal.diff) -> x.Wal.version) (Wal.scan vd ~slot:5)))

(* A flush that fails after some of its groups landed puts back only
   the records that did not land. Groups end on whole records, so no
   record's head is left in the log ahead of the retry's full copy:
   replay decodes every record and finds no torn tail. Record 76 (70
   diffs, ~74 sectors) is longer than a group's 64-sector cap and
   gets a group to itself. *)
let test_failed_flush_retry_replays_whole_records () =
  Sim.run (fun () ->
      Faultpoint.reset ();
      Faultpoint.enable ();
      Fun.protect ~finally:Faultpoint.reset @@ fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:6 ~synchronous:false ~lease_ok:(fun () -> true) () in
      for i = 0 to 149 do
        ignore
          (Wal.append w
             (if i = 75 then
                List.init 70 (fun k ->
                    diff (Layout.inode_addr (1000 + k)) 0 (Bytes.make 500 'b') (i + 1))
              else rec400 i 'x'))
      done;
      Faultpoint.arm_site "wal.group" ~at:1 (Faultpoint.Raise Exit);
      (match Wal.flush w with
      | () -> Alcotest.fail "the armed group fault should fail the flush"
      | exception Exit -> ());
      Wal.flush w;
      let r = Wal.scan_report vd ~slot:6 in
      Alcotest.(check bool) "not torn" false r.Wal.torn;
      Alcotest.(check (list int)) "every record replays once, in rid order"
        (List.concat (List.init 150 (fun i -> List.init (if i = 75 then 70 else 1) (fun _ -> i + 1))))
        (List.map (fun (x : Wal.diff) -> x.Wal.version) r.Wal.diffs))

(* The log is a fixed 128 KB ring ([Layout.log_bytes], §4): ~1000
   records of over a sector each wrap it several times, reclaim keeps
   the writer going, and the scan decodes a clean window that can
   never hold more records than the ring has sectors. *)
let test_wrapped_log_window_fits_ring () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:4 ~synchronous:false ~lease_ok:(fun () -> true) () in
      for i = 0 to 999 do
        ignore
          (Wal.append w [ diff (Layout.inode_addr i) 0 (Bytes.make 500 'z') (i + 1) ]);
        if i mod 100 = 0 then Wal.flush w
      done;
      Wal.flush w;
      let r = Wal.scan_report vd ~slot:4 in
      Alcotest.(check bool) "not torn" false r.Wal.torn;
      Alcotest.(check bool)
        (Printf.sprintf "0 < records <= %d (got %d)" Layout.log_sectors r.Wal.records)
        true
        (r.Wal.records > 0 && r.Wal.records <= Layout.log_sectors);
      (* The log wrapped, so reclaim must have run. *)
      Alcotest.(check bool) "reclaim ran" true ((Wal.stats w).Wal.reclaim_rounds > 0))

(* The WAL's reclaim writes back through the cache's one write-back
   path, which sends a sector that an open transaction touched as its
   pre-transaction image. A transaction dirties an already logged
   sector, sleeps while another fiber's commits push the log past its
   proactive-reclaim mark, and aborts: its bytes must never reach
   Petal, and Petal and the cache must agree afterwards. *)
let test_reclaim_never_writes_open_txn_bytes () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:2 ~synchronous:false ~lease_ok:(fun () -> true) () in
      let c = Cache.create ~vd ~wal:w ~lease_ok:(fun () -> true) in
      Wal.set_reclaim_hook w (fun ~upto_rid -> Cache.flush_upto_rid c upto_rid);
      let addr = Layout.inode_addr 0 in
      let put txn addr s =
        Cache.update c txn ~lock:0 ~addr ~off:16 ~bytes:(Bytes.of_string s)
      in
      let at16 b = Bytes.sub_string b 16 9 in
      let on_petal () = at16 (Petal.Client.read vd ~off:addr ~len:Layout.sector) in
      Cache.with_txn c (fun txn -> put txn addr "committed");
      Wal.flush w;
      Cache.flush_all c;
      let while_open = Sim.Ivar.create () in
      Sim.spawn (fun () ->
          Sim.sleep (Sim.ms 1);
          for i = 0 to 2999 do
            Cache.with_txn c (fun txn ->
                put txn (Layout.inode_addr (1 + (i mod 500))) (Printf.sprintf "churn%04d" i))
          done;
          Wal.flush w;
          Cache.flush_all c;
          Sim.Ivar.fill while_open (on_petal ()));
      (match
         Cache.with_txn c (fun txn ->
             put txn addr "ABORTED!!";
             Sim.sleep (Sim.sec 5.0);
             raise Exit)
       with
      | () -> Alcotest.fail "the transaction should abort"
      | exception Exit -> ());
      Alcotest.(check bool) "the churn ended while the transaction was open" true
        (Sim.Ivar.is_filled while_open);
      Alcotest.(check bool) "proactive reclaim ran" true
        ((Wal.stats w).Wal.reclaim_rounds > 0);
      Alcotest.(check string) "Petal while the transaction was open" "committed"
        (Sim.Ivar.read while_open);
      Alcotest.(check string) "Petal after the abort" "committed" (on_petal ());
      Alcotest.(check string) "cache after the abort" "committed"
        (at16 (Cache.read c ~lock:0 ~addr ~len:Layout.sector));
      Cache.flush_all c;
      Alcotest.(check string) "Petal after a final flush" "committed" (on_petal ()))

(* A flush that waits on a write another flush started must not
   return as if that write had landed. The client is cut off from
   Petal: flush A fails after its replica timeouts, and flush B, which
   started 10 ms later and waited on A's write, must then write the
   block itself (and fail too) rather than return with Petal still
   holding zeros. *)
let test_flush_that_returns_wrote_what_it_waited_for () =
  Sim.run (fun () ->
      let net, client, vd = mkvd_on_net () in
      let w = Wal.create ~vd ~slot:3 ~synchronous:false ~lease_ok:(fun () -> true) () in
      let c = Cache.create ~vd ~wal:w ~lease_ok:(fun () -> true) in
      let addr = Layout.small_base + (64 * Layout.block) in
      let block = Bytes.make Layout.block 'D' in
      Cache.write_data c ~lock:1 ~addr ~bytes:block;
      let nf = Cluster.Netfault.create net in
      Cluster.Netfault.isolate nf client;
      let a_failed = ref false in
      Sim.spawn (fun () -> try Cache.flush_all c with _ -> a_failed := true);
      Sim.sleep (Sim.ms 10);
      let b_raised = match Cache.flush_lock c 1 with () -> false | exception _ -> true in
      Alcotest.(check bool) "flush A failed" true !a_failed;
      Cluster.Netfault.heal_all nf;
      Sim.sleep (Sim.sec 10.0);
      let on_petal = Bytes.equal block (Petal.Client.read vd ~off:addr ~len:Layout.block) in
      Alcotest.(check bool) "flush B raised or put the block on Petal" true
        (b_raised || on_petal))

let prop_scan_returns_complete_prefix_records =
  QCheck.Test.make ~name:"random record sizes survive the sector packer" ~count:25
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 1 400))
    (fun sizes ->
      Sim.run (fun () ->
          let vd = mkvd () in
          let w = Wal.create ~vd ~slot:9 ~synchronous:false ~lease_ok:(fun () -> true) () in
          List.iteri
            (fun i sz ->
              ignore
                (Wal.append w
                   [ diff (Layout.inode_addr i) 8 (Bytes.make (min sz 500) 'p') (i + 1) ]))
            sizes;
          Wal.flush w;
          let diffs = Wal.scan vd ~slot:9 in
          List.length diffs = List.length sizes
          && List.for_all2
               (fun (x : Wal.diff) sz -> Bytes.length x.Wal.data = min sz 500)
               diffs sizes))

let () =
  Alcotest.run "wal"
    [
      ( "wal",
        [
          Alcotest.test_case "roundtrip" `Quick test_roundtrip;
          Alcotest.test_case "unflushed not durable" `Quick test_unflushed_not_durable;
          Alcotest.test_case "synchronous mode" `Quick test_synchronous_mode;
          Alcotest.test_case "ensure_flushed barrier" `Quick test_ensure_flushed_barrier;
          Alcotest.test_case "wraparound window" `Quick test_wraparound_keeps_window;
          Alcotest.test_case "isolated slots" `Quick test_isolated_slots;
          Alcotest.test_case "lease check blocks writes" `Quick
            test_lease_check_blocks_writes;
          Alcotest.test_case "torn tail replays prefix" `Quick
            test_torn_tail_replays_prefix;
          Alcotest.test_case "garbage sector with valid crc" `Quick
            test_garbage_sector_with_valid_crc;
          Alcotest.test_case "flush failure releases group commit" `Quick
            test_flush_failure_releases_group_commit;
          Alcotest.test_case "group commit carries in-flight appends" `Quick
            test_group_commit_carries_inflight_appends;
          Alcotest.test_case "caller returns when its record lands" `Quick
            test_caller_returns_when_its_record_lands;
          Alcotest.test_case "async appends during a flush reach the log" `Quick
            test_async_appends_during_flush_reach_log;
          Alcotest.test_case "failed flush retry replays whole records" `Quick
            test_failed_flush_retry_replays_whole_records;
          Alcotest.test_case "wrapped log window fits the ring" `Quick
            test_wrapped_log_window_fits_ring;
          Alcotest.test_case "reclaim never writes an open transaction's bytes" `Quick
            test_reclaim_never_writes_open_txn_bytes;
          Alcotest.test_case "a flush that returns wrote what it waited for" `Quick
            test_flush_that_returns_wrote_what_it_waited_for;
          QCheck_alcotest.to_alcotest prop_scan_returns_complete_prefix_records;
        ] );
    ]
