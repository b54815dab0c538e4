(** Lock-contention experiments (§9.4, Figures 8 and 9, and the
    write/write sharing experiment).

    One or more readers stream a shared file while a writer keeps
    rewriting some amount of it; every rewrite upgrades the writer's
    lock in place, from the R that the readers' requests downgraded
    it to, and invalidates the readers' caches, so the whole-file
    lock ping-pongs. Read-ahead makes it worse: data
    prefetched but not yet delivered is discarded on revoke, and the
    wasted disk work slows the readers' lock re-requests —
    reproducing Figure 8's flattening. *)

open Simkit

type result = {
  readers : int;
  read_mb_per_s : float;  (** aggregate across readers *)
  write_mb_per_s : float;
}

let file_mb = 1

(** [readers_vs_writer] runs [nreaders] servers reading the shared
    file sequentially while one server rewrites [write_bytes] of it,
    for [duration] of simulated time. [vfss] supplies one mount per
    participant (readers first, then the writer). *)
let readers_vs_writer ~(reader_vfss : Vfs.t list) ~(writer_vfs : Vfs.t)
    ~write_bytes ~duration =
  let setup = writer_vfs in
  let inum = setup.Vfs.create ~dir:setup.Vfs.root "shared" in
  let unit = 65536 in
  let units = file_mb * 1024 * 1024 / unit in
  let data = Bytes.make unit 'x' in
  for i = 0 to units - 1 do
    setup.Vfs.write inum ~off:(i * unit) data
  done;
  setup.Vfs.sync ();
  let stop = ref false in
  let read_bytes = ref 0 and written_bytes = ref 0 in
  (* The writer rewrites the first [write_bytes] over and over. *)
  Sim.spawn (fun () ->
      let wdata = Bytes.make (min write_bytes (1 lsl 20)) 'w' in
      let rec loop () =
        if not !stop then begin
          let rec put off =
            if off < write_bytes then begin
              let n = min (Bytes.length wdata) (write_bytes - off) in
              writer_vfs.Vfs.write inum ~off (Bytes.sub wdata 0 n);
              put (off + n)
            end
          in
          put 0;
          written_bytes := !written_bytes + write_bytes;
          loop ()
        end
      in
      try loop () with _ -> ());
  (* Readers stream the file in 64 KB units, forever. *)
  List.iter
    (fun (rv : Vfs.t) ->
      Sim.spawn (fun () ->
          let rinum = rv.Vfs.lookup ~dir:rv.Vfs.root "shared" in
          let rec loop i =
            if not !stop then begin
              let off = i mod units * unit in
              let got = rv.Vfs.read rinum ~off ~len:unit in
              read_bytes := !read_bytes + Bytes.length got;
              loop (i + 1)
            end
          in
          try loop 0 with _ -> ()))
    reader_vfss;
  Sim.sleep duration;
  stop := true;
  let secs = Sim.to_sec duration in
  {
    readers = List.length reader_vfss;
    read_mb_per_s = float_of_int !read_bytes /. 1e6 /. secs;
    write_mb_per_s = float_of_int !written_bytes /. 1e6 /. secs;
  }

(** Write/write sharing (§9.4's third experiment): [n] servers all
    rewriting disjoint 64 KB regions of one file — every write still
    fights for the single whole-file lock. *)
let writers_sharing ~(writer_vfss : Vfs.t list) ~duration =
  let setup = List.hd writer_vfss in
  let inum = setup.Vfs.create ~dir:setup.Vfs.root "wshared" in
  let unit = 65536 in
  setup.Vfs.write inum ~off:0 (Bytes.make (unit * List.length writer_vfss) 'i');
  setup.Vfs.sync ();
  let stop = ref false in
  let written = ref 0 in
  List.iteri
    (fun k (wv : Vfs.t) ->
      Sim.spawn (fun () ->
          let winum = wv.Vfs.lookup ~dir:wv.Vfs.root "wshared" in
          let data = Bytes.make unit (Char.chr (65 + k)) in
          let rec loop () =
            if not !stop then begin
              wv.Vfs.write winum ~off:(k * unit) data;
              written := !written + unit;
              loop ()
            end
          in
          try loop () with _ -> ()))
    writer_vfss;
  Sim.sleep duration;
  stop := true;
  float_of_int !written /. 1e6 /. Sim.to_sec duration
