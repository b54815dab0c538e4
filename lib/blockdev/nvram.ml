open Simkit

(* The PrestoServe board of the paper's testbed (§9). *)
let capacity = 8 * 1024 * 1024
let write_latency = Sim.us 50
let bytes_per_sec = 200_000_000

type state = {
  disk : Disk.t;
  table : (int, bytes) Hashtbl.t; (* pending writes, keyed by offset *)
  mutable used : int;
  space_freed : Sim.Condition.t;
  work : Sim.Condition.t;
  port : Sim.Resource.t; (* NVRAM bus: one transfer at a time *)
}

let overlaps ~off ~len (o, b) = o < off + len && off < o + Bytes.length b

(* The destager is an elevator: each sweep snapshots the pending
   table, sorts it by disk address and coalesces adjacent entries
   into one disk write per contiguous batch — one seek per batch
   instead of one per entry, and the disk sees a monotone address
   sequence within a sweep (SCAN order). Entries overwritten while
   their batch was in flight stay pending for the next sweep. *)
let destager st () =
  let rec loop () =
    if Hashtbl.length st.table = 0 then begin
      Sim.Condition.wait st.work;
      loop ()
    end
    else begin
      let entries =
        Hashtbl.fold (fun o b acc -> (o, b) :: acc) st.table []
        |> List.sort (fun (a, _) (b, _) -> compare a b)
      in
      let batches =
        List.fold_left
          (fun acc (o, b) ->
            match acc with
            | (start, stop, bufs) :: rest when stop = o ->
              (start, stop + Bytes.length b, b :: bufs) :: rest
            | _ -> (o, o + Bytes.length b, [ b ]) :: acc)
          [] entries
        |> List.rev_map (fun (start, _, bufs) -> (start, List.rev bufs))
      in
      List.iter
        (fun (start, bufs) ->
          Disk.write st.disk ~off:start (Bytes.concat Bytes.empty bufs);
          Faultpoint.hit "nvram.destage";
          (* Only drop entries that were not overwritten while the
             batch write was in flight. *)
          let pos = ref start in
          List.iter
            (fun b ->
              let o = !pos in
              pos := o + Bytes.length b;
              match Hashtbl.find_opt st.table o with
              | Some d when d == b ->
                Hashtbl.remove st.table o;
                st.used <- st.used - Bytes.length b;
                Sim.Condition.broadcast st.space_freed
              | Some _ | None -> ())
            bufs)
        batches;
      loop ()
    end
  in
  loop ()

let nvram_time len =
  write_latency + int_of_float (float_of_int len /. float_of_int bytes_per_sec *. 1e9)

(* Ownership-transfer write: [data] is stored in the table without a
   copy, so the caller must never mutate it afterwards (the
   Storage.write_own contract). *)
let write_own st ~off data =
  let len = Bytes.length data in
  while st.used + len > capacity do
    Sim.Condition.wait st.space_freed
  done;
  Sim.Resource.use st.port (nvram_time len);
  (match Hashtbl.find_opt st.table off with
  | Some old when Bytes.length old = len -> st.used <- st.used - len
  | Some old ->
    (* Different length at the same offset: flush the old entry to
       keep the table free of partial overlaps. *)
    Disk.write st.disk ~off old;
    st.used <- st.used - Bytes.length old;
    Hashtbl.remove st.table off
  | None -> ());
  Hashtbl.replace st.table off data;
  st.used <- st.used + len;
  Sim.Condition.broadcast st.work;
  Faultpoint.hit "nvram.write"

let write st ~off data = write_own st ~off (Bytes.copy data)

let write_sub st ~off data ~boff ~len =
  write_own st ~off (Bytes.sub data boff len)

let read st ~off ~len =
  (* Exact-offset hit serves straight from NVRAM; any partial overlap
     is destaged first so the disk holds the truth. *)
  match Hashtbl.find_opt st.table off with
  | Some data when Bytes.length data = len ->
    Sim.Resource.use st.port (nvram_time len);
    Bytes.copy data
  | _ ->
    let pending =
      Hashtbl.fold
        (fun o b acc -> if overlaps ~off ~len (o, b) then (o, b) :: acc else acc)
        st.table []
    in
    List.iter
      (fun (o, b) ->
        Disk.write st.disk ~off:o b;
        (match Hashtbl.find_opt st.table o with
        | Some d when d == b ->
          Hashtbl.remove st.table o;
          st.used <- st.used - Bytes.length b;
          Sim.Condition.broadcast st.space_freed
        | Some _ | None -> ()))
      pending;
    Disk.read st.disk ~off ~len

let flush st () =
  while st.used > 0 do
    Sim.Condition.wait st.space_freed
  done

let wrap disk =
  let st =
    {
      disk;
      table = Hashtbl.create 256;
      used = 0;
      space_freed = Sim.Condition.create ();
      work = Sim.Condition.create ();
      port = Sim.Resource.create (Disk.name disk ^ ".nvram");
    }
  in
  Sim.spawn ~name:(Disk.name disk ^ ".destager") (destager st);
  {
    Storage.sname = Disk.name disk ^ "+nvram";
    capacity = Disk.capacity disk;
    read = read st;
    write = write st;
    write_own = write_own st;
    write_sub = write_sub st;
    flush = flush st;
  }
