(** The recovery demon (§4, §6).

    Invoked by the lock service on a live server when another
    server's lease expires. It seizes the dead server's log lock,
    replays the log from Petal, and applies each diff only where the
    on-disk sector's version number is older than the record's — so
    updates that already reached Petal (or were superseded) are never
    redone, and replaying a log twice is harmless.

    A replay that aborts (our own lease margin ran out, Petal
    unreachable, this host crashed) releases the log lock and lets
    the exception propagate: the clerk then stays silent instead of
    announcing completion, and the lock server's nag loop re-issues
    the recovery — here or on another live server — until someone
    finishes it.

    Every logged diff of a sector covers all the bytes logged updates
    changed since the sector was last written back ({!Cache.update}),
    so the newest durable diff of each sector alone turns Petal's copy
    into the committed image. Replay applies only that one: one Petal
    read and at most one write per sector, with the older diffs
    counted as skipped. *)

open Stdext

let apply_diff ctx (d : Wal.diff) =
  Simkit.Faultpoint.hit "recovery.apply";
  let sector = Petal.Client.read ctx.Ctx.vd ~off:d.addr ~len:Layout.sector in
  if Codec.get_int sector 0 < d.version then begin
    Bytes.blit d.data 0 sector d.doff (Bytes.length d.data);
    Codec.put_int sector 0 d.version;
    if not (Locksvc.Clerk.check_lease_margin ctx.Ctx.clerk) then
      Errors.fail Errors.Eio;
    Petal.Client.write ctx.Ctx.vd ~off:d.addr sector;
    ctx.Ctx.recovery.diffs_applied <- ctx.Ctx.recovery.diffs_applied + 1
  end
  else ctx.Ctx.recovery.diffs_skipped <- ctx.Ctx.recovery.diffs_skipped + 1

let run ctx ~dead_lease =
  let slot = dead_lease mod Layout.max_servers in
  Logs.info (fun m ->
      m "%s: recovering log slot %d (lease %d)"
        (Cluster.Host.name ctx.Ctx.host) slot dead_lease);
  let lock = Lockns.log_lock slot in
  Locksvc.Clerk.acquire_for_recovery ctx.Ctx.clerk ~lock;
  Fun.protect
    ~finally:(fun () -> Locksvc.Clerk.release ctx.Ctx.clerk ~lock Locksvc.Types.W)
    (fun () ->
      let report = Wal.scan_report ctx.Ctx.vd ~slot in
      let st = ctx.Ctx.recovery in
      st.replays <- st.replays + 1;
      if report.Wal.torn then st.torn_tails <- st.torn_tails + 1;
      let diffs = report.Wal.diffs in
      let newest = Hashtbl.create 64 in
      List.iter (fun (d : Wal.diff) -> Hashtbl.replace newest d.addr d) diffs;
      let latest = List.filter (fun (d : Wal.diff) -> Hashtbl.find newest d.addr == d) diffs in
      st.diffs_skipped <- st.diffs_skipped + List.length diffs - List.length latest;
      List.iter (apply_diff ctx) latest;
      Logs.info (fun m ->
          m "%s: replayed %d diffs onto %d sectors (%d records, %d live sectors%s) from slot %d"
            (Cluster.Host.name ctx.Ctx.host)
            (List.length diffs) (List.length latest)
            report.Wal.records report.Wal.live_sectors
            (if report.Wal.torn then ", torn tail" else "")
            slot))
