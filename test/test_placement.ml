(* Petal chunk placement ([Protocol.ring_slot]): the slot stays in
   range, sequential chunks stripe over distinct servers, Frangipani's
   layout strides spread over the ring instead of aliasing onto a few
   servers, and client routing agrees with server ownership across a
   reconfiguration. *)

open Simkit
open Cluster
open Frangipani

let sizes = [ 4; 7; 16; 24; 32 ]
let chunk_of addr = addr / Petal.Protocol.chunk_bytes

(* The last chunk of the 2^62-byte virtual disk. *)
let max_chunk = max_int / Petal.Protocol.chunk_bytes

(* Roots anywhere, and within [max_chunk] of [max_int], where
   [root + chunk] would overflow. *)
let root_gen =
  QCheck.(oneof [ int_bound max_int; map (fun d -> max_int - d) (int_bound max_chunk) ])

let slot_in_range =
  QCheck.Test.make ~count:2000 ~name:"ring_slot stays in [0, n)"
    QCheck.(triple (oneofl sizes) (int_bound max_chunk) root_gen)
    (fun (n, chunk, root) ->
      let s = Petal.Protocol.ring_slot ~root ~chunk n in
      s >= 0 && s < n)

let group_stripes =
  let g = Petal.Protocol.group_chunks in
  QCheck.Test.make ~count:2000
    ~name:"n consecutive chunks in a group hit n servers"
    QCheck.(
      quad (oneofl sizes) (int_bound ((max_chunk / g) - 1)) (int_bound (g - 1))
        (int_bound 1_000))
    (fun (n, group, off, root) ->
      let first = (group * g) + min off (g - n) in
      let slots =
        List.init n (fun i -> Petal.Protocol.ring_slot ~root ~chunk:(first + i) n)
      in
      List.length (List.sort_uniq compare slots) = n)

(* The first chunk of each structure Frangipani lays out at a fixed
   stride (§3, Figure 4). *)
let log_starts = List.init Layout.max_servers (fun slot -> Layout.log_addr ~slot)

let inode_sector_starts =
  List.init 1024 (fun s -> Layout.inode_addr (s * Layout.bits_per_sector))

let small_data_sector_starts =
  List.init 1024 (fun s ->
      Layout.small_addr Layout.Small_data (s * Layout.bits_per_sector))

let large_starts = List.init 1024 (fun l -> Layout.large_addr Layout.Large_data l)

let bitmap_bases =
  List.map Layout.pool_bitmap_base
    Layout.[ Inode_pool; Small_meta; Small_data; Large_meta; Large_data ]

let per_server ~root n addrs =
  let c = Array.make n 0 in
  List.iter
    (fun a ->
      let s = Petal.Protocol.ring_slot ~root ~chunk:(chunk_of a) n in
      c.(s) <- c.(s) + 1)
    addrs;
  c

let check_spread ~root n name addrs =
  let c = per_server ~root n addrs in
  let top = Array.fold_left max 0 c in
  let mean = float_of_int (List.length addrs) /. float_of_int n in
  if float_of_int top > 2.0 *. mean then
    Alcotest.failf "%s over %d servers (root %d): one server gets %d, mean %.1f"
      name n root top mean

let test_layout_strides_spread () =
  List.iter
    (fun root ->
      List.iter
        (fun n ->
          let sets =
            [
              ("log slots", log_starts);
              ("inode sectors", inode_sector_starts);
              ("small-data sectors", small_data_sector_starts);
              ("large blocks", large_starts);
            ]
          in
          List.iter (fun (name, addrs) -> check_spread ~root n name addrs) sets;
          check_spread ~root n "all starts"
            (bitmap_bases @ List.concat_map snd sets);
          (* Five bases are too few for a mean-based bound; under the
             plain [(root + chunk) mod n] rule all five shared one
             server whenever n divides 2^23. *)
          let top = Array.fold_left max 0 (per_server ~root n bitmap_bases) in
          if top > 2 then
            Alcotest.failf "bitmap bases over %d servers: %d on one" n top)
        sizes)
    [ 0; 1; 2; 3 ]

(* --- routing across a reconfiguration --------------------------------- *)

let bytes_pat n seed = Bytes.init n (fun i -> Char.chr ((i + seed) mod 256))

(* Chunks from several groups, including two 4 GB log-slot strides. *)
let probe_chunks =
  List.concat_map
    (fun g -> List.init 3 (fun j -> (g * Petal.Protocol.group_chunks) + j))
    [ 0; 1; 5; 17 ]
  @ List.map chunk_of [ Layout.log_addr ~slot:1; Layout.log_addr ~slot:2 ]

let check_routes c ~root active =
  let a = Array.of_list active in
  List.iter
    (fun chunk ->
      let p, r = Petal.Client.route c ~root ~chunk in
      Alcotest.(check (list int))
        (Printf.sprintf "chunk %d routed to its owners" chunk)
        (Petal.Protocol.owners a ~nrep:2 ~root ~chunk)
        [ p; r ])
    probe_chunks

let test_client_matches_servers () =
  Sim.run (fun () ->
      let net = Net.create () in
      let tb = Petal.Testbed.build ~net ~nservers:4 ~nactive:3 ~ndisks:3 () in
      let rpc = Rpc.create (Net.attach net (Host.create "client")) in
      let c = Petal.Testbed.client tb ~rpc in
      let root = Petal.Client.create_vdisk c ~nrep:2 in
      let vd = Petal.Client.open_vdisk c root in
      let cb = Petal.Protocol.chunk_bytes in
      List.iteri
        (fun i chunk -> Petal.Client.write vd ~off:(chunk * cb) (bytes_pat 512 i))
        probe_chunks;
      let servers = tb.Petal.Testbed.servers in
      check_routes c ~root (Petal.Server.current_active servers.(0));
      Petal.Client.add_server c ~idx:3;
      let settled () =
        Array.for_all
          (fun s ->
            Petal.Server.current_epoch s = 1
            && (not (Petal.Server.pending_transfer s))
            && Petal.Server.degraded_count s = 0
            && Petal.Server.nonowned_chunk_count s = 0)
          servers
      in
      let deadline = Sim.now () + Sim.sec 120.0 in
      while (not (settled ())) && Sim.now () < deadline do
        Sim.sleep (Sim.ms 500)
      done;
      Alcotest.(check bool) "reconfiguration settled" true (settled ());
      let mepoch, active = Petal.Client.fetch_map c in
      Alcotest.(check int) "client on the new epoch" 1 mepoch;
      Alcotest.(check (list int)) "same map as the servers"
        (Petal.Server.current_active servers.(0))
        active;
      check_routes c ~root active;
      (* The handoff moved each chunk to exactly the owners the client
         now routes to. *)
      let a = Array.of_list active in
      Array.iter
        (fun s ->
          let expect =
            List.length
              (List.filter
                 (fun chunk ->
                   List.mem (Petal.Server.index s)
                     (Petal.Protocol.owners a ~nrep:2 ~root ~chunk))
                 probe_chunks)
          in
          Alcotest.(check int)
            (Printf.sprintf "server %d stores its chunks" (Petal.Server.index s))
            expect (Petal.Server.chunk_count s))
        servers;
      List.iteri
        (fun i chunk ->
          Alcotest.(check bool)
            (Printf.sprintf "chunk %d readable" chunk)
            true
            (Bytes.equal (bytes_pat 512 i)
               (Petal.Client.read vd ~off:(chunk * cb) ~len:512)))
        probe_chunks)

let () =
  Alcotest.run "placement"
    [
      ( "ring_slot",
        List.map QCheck_alcotest.to_alcotest [ slot_in_range; group_stripes ]
        @ [
            Alcotest.test_case "layout strides spread" `Quick
              test_layout_strides_spread;
          ] );
      ( "routing",
        [
          Alcotest.test_case "client matches servers across add" `Quick
            test_client_matches_servers;
        ] );
    ]
