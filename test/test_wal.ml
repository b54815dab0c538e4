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

(* Replay [diffs] onto Petal the way [Recovery.apply_diff] does: in
   log order, each only where Petal's copy has an older version. *)
let replay vd diffs =
  List.iter
    (fun (x : Wal.diff) ->
      let sector = Petal.Client.read vd ~off:x.Wal.addr ~len:Layout.sector in
      if Stdext.Codec.get_int sector 0 < x.Wal.version then begin
        Bytes.blit x.Wal.data 0 sector x.Wal.doff (Bytes.length x.Wal.data);
        Stdext.Codec.put_int sector 0 x.Wal.version;
        Petal.Client.write vd ~off:x.Wal.addr sector
      end)
    diffs

(* Reclaim writes back only sectors whose newest record falls behind
   its bound, so a sector re-logged faster than reclaim advances is
   never written while the log reuses the space of its older records.
   Its newest record must then restore it alone: one sector takes
   "AAAAAAAAA" at offset 16 and is re-logged at offset 32 on every
   10th of 8,000 commits to 500 other sectors, the log wraps, and a
   replay of what is left of it onto Petal must give back every
   committed byte. *)
let test_reclaim_covers_a_sector_relogged_past_its_bound () =
  Sim.run (fun () ->
      let vd = mkvd () in
      let w = Wal.create ~vd ~slot:5 ~synchronous:false ~lease_ok:(fun () -> true) () in
      let c = Cache.create ~vd ~wal:w ~lease_ok:(fun () -> true) in
      Wal.set_reclaim_hook w (fun ~upto_rid -> Cache.flush_upto_rid c upto_rid);
      let put addr off s =
        Cache.with_txn c (fun txn ->
            Cache.update c txn ~lock:0 ~addr ~off ~bytes:(Bytes.of_string s))
      in
      let addrs = List.init 501 Layout.inode_addr in
      let hot = List.hd addrs in
      put hot 16 "AAAAAAAAA";
      for i = 0 to 7999 do
        put (Layout.inode_addr (1 + (i mod 500))) 16 (Printf.sprintf "cold%05d" i);
        if i mod 10 = 0 then put hot 32 (Printf.sprintf "hot%05d" i)
      done;
      Wal.flush w;
      Alcotest.(check bool) "the log wrapped and reclaimed" true
        ((Wal.stats w).Wal.reclaim_rounds >= 4);
      replay vd (Wal.scan vd ~slot:5);
      let on_petal addr = Petal.Client.read vd ~off:addr ~len:Layout.sector in
      Alcotest.(check string) "the first commit survives" "AAAAAAAAA"
        (Bytes.sub_string (on_petal hot) 16 9);
      List.iter
        (fun addr ->
          Alcotest.(check string)
            (Printf.sprintf "Petal matches the cache at %d" addr)
            (Bytes.to_string (Cache.read c ~lock:0 ~addr ~len:Layout.sector))
            (Bytes.to_string (on_petal addr)))
        addrs)

(* The diff rule, over random transactions on four sectors (one lock
   each): commits, aborts, write-backs, revokes (write-back then
   eviction) and evictions of clean entries. After every commit the
   log is flushed and scanned, and:
   - the record holds one diff per sector it touched;
   - replaying only each sector's newest diff onto Petal gives the
     committed image of every sector, version included;
   - a sector's diff covers exactly the bytes that committed updates
     changed since its last write-back (unless an abort touched it
     since, which may widen the span), so an update that changes no
     byte logs an empty diff that still carries its version. *)
type diff_op =
  | Commit of (int * int * string) list
  | Abort of (int * int * string) list
  | Flush_all
  | Flush of int
  | Revoke of int
  | Drop_clean

let show_diff_op =
  let ups l =
    String.concat "; " (List.map (fun (k, off, s) -> Printf.sprintf "%d@%d %S" k off s) l)
  in
  function
  | Commit l -> "Commit [" ^ ups l ^ "]"
  | Abort l -> "Abort [" ^ ups l ^ "]"
  | Flush_all -> "Flush_all"
  | Flush k -> Printf.sprintf "Flush %d" k
  | Revoke k -> Printf.sprintf "Revoke %d" k
  | Drop_clean -> "Drop_clean"

let gen_diff_op =
  let open QCheck.Gen in
  let update =
    let* k = int_range 0 3 in
    let* s = string_size ~gen:(oneofl [ 'a'; 'b'; '\000' ]) (int_range 1 12) in
    let* off = int_range 8 (Layout.sector - String.length s) in
    return (k, off, s)
  in
  let updates = list_size (int_range 1 3) update in
  frequency
    [
      (6, map (fun l -> Commit l) updates);
      (2, map (fun l -> Abort l) updates);
      (1, return Flush_all);
      (1, map (fun k -> Flush k) (int_range 0 3));
      (1, map (fun k -> Revoke k) (int_range 0 3));
      (1, return Drop_clean);
    ]

let prop_newest_diff_restores_the_committed_image =
  QCheck.Test.make ~name:"each sector's newest diff restores its committed image" ~count:60
    (QCheck.list_of_size QCheck.Gen.(int_range 5 40) (QCheck.make ~print:show_diff_op gen_diff_op))
    (fun ops ->
      Sim.run (fun () ->
          let vd = mkvd () in
          let w = Wal.create ~vd ~slot:6 ~synchronous:false ~lease_ok:(fun () -> true) () in
          let c = Cache.create ~vd ~wal:w ~lease_ok:(fun () -> true) in
          let addr k = Layout.inode_addr k in
          (* The model: each sector's committed image, the span that
             committed updates changed since its last write-back, and
             whether an abort touched it since. *)
          let img = Array.init 4 (fun _ -> Bytes.make Layout.sector '\000') in
          let span = Array.make 4 None and tainted = Array.make 4 false in
          let clean k =
            span.(k) <- None;
            tainted.(k) <- false
          in
          let ndiffs = ref 0 in
          let check touched =
            Wal.flush w;
            let diffs = Wal.scan vd ~slot:6 in
            let fresh = List.filteri (fun i _ -> i >= !ndiffs) diffs in
            ndiffs := List.length diffs;
            let newest k =
              List.fold_left
                (fun acc (x : Wal.diff) -> if x.Wal.addr = addr k then Some x else acc)
                None diffs
            in
            List.length fresh = List.length touched
            && List.for_all
                 (fun k ->
                   match List.filter (fun (x : Wal.diff) -> x.Wal.addr = addr k) fresh with
                   | [ x ] -> (
                     tainted.(k)
                     ||
                     match span.(k) with
                     | None -> Bytes.length x.Wal.data = 0
                     | Some (lo, hi) ->
                       x.Wal.doff = lo && Bytes.equal x.Wal.data (Bytes.sub img.(k) lo (hi - lo)))
                   | _ -> false)
                 touched
            && List.for_all
                 (fun k ->
                   let sector = Petal.Client.read vd ~off:(addr k) ~len:Layout.sector in
                   (match newest k with
                   | Some x when Stdext.Codec.get_int sector 0 < x.Wal.version ->
                     Bytes.blit x.Wal.data 0 sector x.Wal.doff (Bytes.length x.Wal.data);
                     Stdext.Codec.put_int sector 0 x.Wal.version
                   | _ -> ());
                   Bytes.equal (Bytes.sub sector 8 (Layout.sector - 8))
                     (Bytes.sub img.(k) 8 (Layout.sector - 8))
                   && Bytes.equal sector (Cache.read c ~lock:k ~addr:(addr k) ~len:Layout.sector))
                 [ 0; 1; 2; 3 ]
          in
          let apply txn (k, off, s) =
            Cache.update c txn ~lock:k ~addr:(addr k) ~off ~bytes:(Bytes.of_string s)
          in
          List.for_all
            (function
              | Commit ups ->
                Cache.with_txn c (fun txn -> List.iter (apply txn) ups);
                List.iter
                  (fun (k, off, s) ->
                    let n = String.length s in
                    let differs i = Bytes.get img.(k) (off + i) <> s.[i] in
                    let idx = List.filter differs (List.init n Fun.id) in
                    (match idx with
                    | [] -> ()
                    | first :: _ ->
                      let lo = off + first and hi = off + List.nth idx (List.length idx - 1) + 1 in
                      span.(k) <-
                        (match span.(k) with
                        | None -> Some (lo, hi)
                        | Some (l, h) -> Some (min l lo, max h hi)));
                    Bytes.blit_string s 0 img.(k) off n)
                  ups;
                check (List.sort_uniq compare (List.map (fun (k, _, _) -> k) ups))
              | Abort ups ->
                (try Cache.with_txn c (fun txn -> List.iter (apply txn) ups; raise Exit)
                 with Exit -> ());
                List.iter (fun (k, _, _) -> tainted.(k) <- true) ups;
                true
              | Flush_all ->
                Cache.flush_all c;
                List.iter clean [ 0; 1; 2; 3 ];
                true
              | Flush k ->
                Cache.flush_lock c k;
                clean k;
                true
              | Revoke k ->
                Cache.flush_lock c k;
                Cache.invalidate_lock c k;
                clean k;
                true
              | Drop_clean ->
                Cache.drop_clean c;
                true)
            ops))

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
          Alcotest.test_case "reclaim covers a sector re-logged past its bound" `Quick
            test_reclaim_covers_a_sector_relogged_past_its_bound;
          QCheck_alcotest.to_alcotest prop_scan_returns_complete_prefix_records;
          QCheck_alcotest.to_alcotest prop_newest_diff_restores_the_committed_image;
        ] );
    ]
