(* The clerk (see clerk.mli). Lock requests leave through a per-server
   {!Outbox}: the requests made for one lock server in one simulated
   instant travel as one message, so a fresh-inode refill's 8 inode
   locks (one aligned run, hence one server; see {!Types.group_of})
   cost one request message. Ordering rule: a release, or any other
   message to that server, first sends its queued requests, so a
   release never overtakes a request. *)

open Simkit
open Cluster
open Types

type lstate = {
  lid : int;
  mutable global : mode option;
  mutable wanted : mode option;
  mutable requested_at : Sim.time;
  mutable readers : int;
  mutable writer : bool;
  waiting : (mode * (unit -> unit)) Queue.t;
  mutable revoke_to : mode option option; (* Some to_mode = revoke pending *)
  mutable revoking : bool;
  mutable recovery : bool; (* outstanding request is a recovery seizure *)
  mutable last_used : Sim.time;
}

type stats = {
  mutable renew_misses : int;
  mutable requests : int;
  mutable request_msgs : int;
}

type t = {
  rpc : Rpc.t;
  host : Host.t;
  ctable : string;
  clease : int;
  mutable servers : Net.addr list;
  ngroups : int;
  locks : (int, lstate) Hashtbl.t;
  mutable on_revoke : lock:int -> to_read:bool -> unit;
  mutable on_do_recovery : dead_lease:int -> unit;
  mutable on_expired : unit -> unit;
  mutable on_contended : lock:int -> unit;
  mutable expired : bool;
  mutable valid_until : Sim.time;
  mutable closed : bool;
  recoveries : (int, unit) Hashtbl.t;
  outbox : (int * mode * bool) Outbox.t; (* requests: lock, mode, for_recovery *)
  st : stats;
}

let stats t = { t.st with renew_misses = t.st.renew_misses }

let lease t = t.clease
let table t = t.ctable
let lease_valid_until t = t.valid_until

let check_lease_margin t =
  (not t.expired) && Sim.now () + lease_margin <= t.valid_until

let set_callbacks ?on_contended t ~on_revoke ~on_do_recovery ~on_expired =
  t.on_revoke <- on_revoke;
  t.on_do_recovery <- on_do_recovery;
  t.on_expired <- on_expired;
  match on_contended with Some f -> t.on_contended <- f | None -> ()

let lstate t lid =
  match Hashtbl.find_opt t.locks lid with
  | Some st -> st
  | None ->
    let st =
      {
        lid;
        global = None;
        wanted = None;
        requested_at = 0;
        readers = 0;
        writer = false;
        waiting = Queue.create ();
        revoke_to = None;
        revoking = false;
        recovery = false;
        last_used = Sim.now ();
      }
    in
    Hashtbl.replace t.locks lid st;
    st

let owner t lid = owner_of ~servers:t.servers ~ngroups:t.ngroups ~table:t.ctable ~lock:lid

let send_requests t dst reqs =
  Rpc.oneway t.rpc ~dst ~size:(batch_size (List.length reqs))
    (L_requests { table = t.ctable; lease = t.clease; reqs });
  t.st.requests <- t.st.requests + List.length reqs;
  t.st.request_msgs <- t.st.request_msgs + 1

let flush_requests t dst = Outbox.flush t.outbox dst ~send:(send_requests t)

(* Both sends are fire-and-forget and may run in helper processes
   that outlive a crash of this host (retransmit loops, revoke
   completions): a dead host simply sends nothing. *)
let send_request t st mode ~for_recovery =
  match owner t st.lid with
  | None -> ()
  | Some dst ->
    st.wanted <- Some mode;
    st.requested_at <- Sim.now ();
    Outbox.push t.outbox dst
      (st.lid, mode, for_recovery || st.recovery)
      ~send:(send_requests t)

let send_release t st to_mode =
  match owner t st.lid with
  | None -> ()
  | Some dst -> (
    try
      flush_requests t dst;
      Rpc.oneway t.rpc ~dst ~size:msg
        (L_release { table = t.ctable; lease = t.clease; lock = st.lid; to_mode })
    with Host.Crashed _ -> ())

(* Can a local user in [mode] start right now? *)
let admissible st mode =
  st.revoke_to = None
  && (not st.revoking)
  &&
  match (st.global, mode) with
  | Some W, W -> (not st.writer) && st.readers = 0
  | Some W, R | Some R, R -> not st.writer
  | Some R, W | None, _ -> false

(* Begin servicing a pending revoke once local users have drained
   enough: a downgrade to R waits only for the writer; a full release
   waits for everyone. *)
let rec try_start_revoke t st =
  match st.revoke_to with
  | Some to_mode
    when (not st.revoking)
         && (not st.writer)
         && (to_mode = Some R || st.readers = 0) ->
    st.revoking <- true;
    Sim.spawn (fun () ->
        (* Flush dirty data (and invalidate on release) before the
           lock changes hands — the coherence invariant of §5. A
           transiently failing flush (storage unreachable) is retried:
           the lock must NOT be released until the data is safe. *)
        let rec flush_retrying () =
          match t.on_revoke ~lock:st.lid ~to_read:(to_mode = Some R) with
          | () -> true
          | exception Host.Crashed _ -> false
          | exception _ ->
            Sim.sleep (Sim.sec 1.0);
            Host.is_alive t.host && flush_retrying ()
        in
        if flush_retrying () then begin
          send_release t st to_mode;
          st.global <- to_mode;
          st.revoking <- false;
          st.revoke_to <- None;
          pump t st
        end)
  | _ -> ()

and pump t st =
  let rec admit () =
    match Queue.peek_opt st.waiting with
    | Some (mode, _) when admissible st mode ->
      let _, k = Queue.pop st.waiting in
      (match mode with
      | R -> st.readers <- st.readers + 1
      | W -> st.writer <- true);
      st.last_used <- Sim.now ();
      k ();
      admit ()
    | Some (mode, _)
      when st.revoke_to = None && (not st.revoking)
           && not (match st.global with Some g -> mode_geq g mode | None -> false)
      -> (
      (* The cached lock is insufficient. A held R is an upgrade: it
         stays held, and its cache valid, until the server grants W
         or a revoke takes it. *)
      match st.wanted with
      | Some w when mode_geq w mode -> () (* request already outstanding *)
      | Some _ | None -> send_request t st mode ~for_recovery:false)
    | Some _ | None -> ()
  in
  admit ();
  try_start_revoke t st

let check_usable t = if t.expired || t.closed then raise Lease_expired

let acquire t ~lock mode =
  check_usable t;
  let st = lstate t lock in
  if Queue.is_empty st.waiting && admissible st mode then begin
    (match mode with
    | R -> st.readers <- st.readers + 1
    | W -> st.writer <- true);
    st.last_used <- Sim.now ()
  end
  else begin
    (* The pump (which may send lock-service messages) runs as its
       own process, after the waiter below is registered. *)
    Sim.spawn (fun () -> pump t st);
    Sim.suspend (fun resume -> Queue.push (mode, (fun () -> resume ())) st.waiting)
  end;
  check_usable t

let release t ~lock mode =
  (* After a crash the lock table was reset (the lease is dead and
     the holdings gone); a surviving process unwinding through its
     release must not re-create state for — or trip asserts on — a
     lock it no longer holds. *)
  if not t.closed then begin
    let st = lstate t lock in
    (match mode with
    | R ->
      assert (st.readers > 0);
      st.readers <- st.readers - 1
    | W ->
      assert st.writer;
      st.writer <- false);
    st.last_used <- Sim.now ();
    pump t st
  end

let acquire_for_recovery t ~lock =
  check_usable t;
  let st = lstate t lock in
  st.recovery <- true;
  Sim.spawn (fun () ->
      send_request t st W ~for_recovery:true;
      pump t st);
  Sim.suspend (fun resume -> Queue.push (W, (fun () -> resume ())) st.waiting);
  check_usable t

let holds t ~lock =
  match Hashtbl.find_opt t.locks lock with
  | Some st -> st.global
  | None -> None

(* --- incoming messages -------------------------------------------------- *)

let on_grant t ~lock mode =
  let st = lstate t lock in
  (match st.global with
  | Some g when mode_geq g mode -> ()
  | _ -> st.global <- Some mode);
  (match st.wanted with
  | Some w when mode_geq mode w ->
    st.wanted <- None;
    st.recovery <- false
  | _ -> ());
  pump t st

let on_revoke_msg t ~lock ~to_mode =
  match Hashtbl.find_opt t.locks lock with
  | None ->
    (* We hold nothing: tell the server so it can move on. *)
    let st = lstate t lock in
    send_release t st to_mode
  | Some st -> (
    match (st.global, to_mode) with
    | None, _ ->
      if st.wanted = None then send_release t st to_mode
    | Some R, Some R -> () (* already downgraded *)
    | Some _, _ ->
      (match (st.revoke_to, to_mode) with
      | Some (Some R), None -> st.revoke_to <- Some None (* strengthen *)
      | Some _, _ -> ()
      | None, _ -> st.revoke_to <- Some to_mode);
      try_start_revoke t st;
      (* Still blocked on local users: tell the FS layer, so it can
         shed discretionary holds (cancel speculative read-ahead)
         instead of making the remote waiter ride them out. *)
      if st.revoke_to <> None && not st.revoking then t.on_contended ~lock)

let on_do_recovery_msg t ~src ~dead_lease =
  if not (Hashtbl.mem t.recoveries dead_lease) then begin
    Hashtbl.replace t.recoveries dead_lease ();
    Sim.spawn (fun () ->
        match t.on_do_recovery ~dead_lease with
        | () ->
          (* Only a completed replay is announced, and only to the
             lock server whose request started it: that one proposes
             the dead lease's removal, which frees its locks
             everywhere. The others keep nagging until the removal
             applies, so a server that dies before proposing is
             covered by the next replay. The callback may have
             crashed this very host and still returned (a test
             rigging `crash` as the callback), so the announce itself
             must tolerate a dead sender. *)
          (try
             flush_requests t src;
             Rpc.oneway t.rpc ~dst:src ~size:msg
               (L_recovered { table = t.ctable; dead_lease })
           with Host.Crashed _ -> ());
          Hashtbl.remove t.recoveries dead_lease
        | exception Host.Crashed _ -> ()
        | exception _ ->
          (* The replay aborted (our lease margin ran out, Petal
             unreachable): stay silent and forget it, so the lock
             server's nag re-issues the recovery here or elsewhere. *)
          Hashtbl.remove t.recoveries dead_lease)
  end

let expire t =
  if not t.expired then begin
    t.expired <- true;
    (* Discard all locks and cached data without writing anything:
       the data may no longer be ours to write (paper §6). Waiters
       are woken and observe Lease_expired. *)
    Hashtbl.iter
      (fun _ st ->
        st.global <- None;
        st.wanted <- None;
        st.revoke_to <- None;
        Queue.iter (fun (_, k) -> k ()) st.waiting;
        Queue.clear st.waiting)
      t.locks;
    (try t.on_expired () with Host.Crashed _ -> ())
  end

(* --- housekeeping: renewals, retries, idle discard, sync ---------------- *)

(* Every lock server tracks renewals independently, so the lease must
   be refreshed with all of them (in parallel — a crashed server's
   timeout must not delay the others past their expiry check). Each
   server gets a short retransmitting call, so one dropped datagram
   on a lossy link does not cost a whole renewal round. Returns
   whether any server acknowledged. *)
let renew_once t =
  let sent_at = Sim.now () in
  let ok = ref false in
  Sim.fork_join
    (fun dst ->
      match
        Rpc.call_retry t.rpc ~dst ~timeout:(Sim.ms 400) ~attempts:2
          ~backoff:(Sim.ms 50) ~size:16
          (L_renew { lease = t.clease })
      with
      | Ok L_renewed -> ok := true
      | Ok (L_err _) -> expire t
      | Ok _ | Error `Timeout -> ()
      | exception Host.Crashed _ -> ())
    t.servers;
  if !ok then t.valid_until <- sent_at + lease_period;
  !ok

let sync_once t =
  match t.servers with
  | [] -> ()
  | servers -> (
    let dst = List.nth servers (Sim.random_int (List.length servers)) in
    match Rpc.call t.rpc ~dst ~timeout:(Sim.ms 300) ~size:16 L_sync with
    | Ok (L_synced { servers }) -> t.servers <- servers
    | Ok _ | Error `Timeout -> ())

let housekeeping t () =
  let next_renew = ref 0 and renew_backoff = ref 0 and last_sync = ref 0 in
  (* The host can crash at any instant — including while this demon
     is between its liveness check and an RPC; the raise just ends
     the demon. *)
  let rec loop () =
    Sim.sleep (Sim.sec 1.0);
    if (not t.closed) && Host.is_alive t.host then begin
      if not t.expired then begin
        (* Renew every [renew_interval] — but a missed round (no
           server answered) is retried early, on a 1→8 s exponential
           backoff, instead of idling out the full interval while the
           lease runs down (§6: the clerk must fight for its lease
           before taking the expiry path). *)
        if Sim.now () >= !next_renew then begin
          if renew_once t then begin
            renew_backoff := 0;
            next_renew := Sim.now () + renew_interval
          end
          else begin
            t.st.renew_misses <- t.st.renew_misses + 1;
            renew_backoff :=
              (if !renew_backoff = 0 then Sim.sec 1.0
               else min (2 * !renew_backoff) (Sim.sec 8.0));
            next_renew := Sim.now () + !renew_backoff
          end
        end;
        if (not t.expired) && Sim.now () > t.valid_until then expire t;
        if Sim.now () - !last_sync >= Sim.sec 2.0 then begin
          last_sync := Sim.now ();
          sync_once t
        end;
        (* Retransmit stale requests; drop long-idle sticky locks. *)
        Hashtbl.iter
          (fun _ st ->
            (match st.wanted with
            | Some w when Sim.now () - st.requested_at > Sim.sec 2.0 ->
              send_request t st w ~for_recovery:false
            | _ -> ());
            if
              st.global <> None && st.wanted = None && st.revoke_to = None
              && (not st.revoking) && st.readers = 0 && (not st.writer)
              && Queue.is_empty st.waiting
              && Sim.now () - st.last_used > idle_discard
            then begin
              st.revoking <- true;
              Sim.spawn (fun () ->
                  (try t.on_revoke ~lock:st.lid ~to_read:false
                   with Host.Crashed _ -> ());
                  send_release t st None;
                  st.global <- None;
                  st.revoking <- false)
            end)
          t.locks
      end;
      loop ()
    end
  in
  try loop () with Host.Crashed _ -> ()

(* All clerks sharing one RPC endpoint (one machine mounting several
   file systems, §3): the lock servers query lock state per machine,
   so a single handler must answer for every table. Keyed by address;
   an entry left over from a previous simulation run (stale endpoint
   object) is simply replaced. *)
let registry : (Net.addr, Rpc.t * t list ref) Hashtbl.t = Hashtbl.create 16

let register_clerk rpc t =
  let addr = Rpc.addr rpc in
  match Hashtbl.find_opt registry addr with
  | Some (r, clerks) when r == rpc ->
    clerks := t :: !clerks;
    false
  | Some _ | None ->
    Hashtbl.replace registry addr (rpc, ref [ t ]);
    true

let create ~rpc ~servers ~table:ctable () =
  let host = Rpc.host rpc in
  let server_list = Array.to_list servers in
  let rec open_loop i =
    if i >= Array.length servers then failwith "locksvc: no lock server reachable"
    else
      match
        Rpc.call rpc ~dst:servers.(i) ~timeout:(Sim.sec 2.0) ~size:msg
          (L_open { table = ctable })
      with
      | Ok (L_opened { lease; servers; ngroups }) -> (lease, servers, ngroups)
      | Ok _ | Error `Timeout -> open_loop (i + 1)
  in
  let clease, servers', ngroups = open_loop 0 in
  let t =
    {
      rpc;
      host;
      ctable;
      clease;
      servers = (if servers' = [] then server_list else servers');
      ngroups;
      locks = Hashtbl.create 256;
      on_revoke = (fun ~lock:_ ~to_read:_ -> ());
      on_do_recovery = (fun ~dead_lease:_ -> ());
      on_expired = (fun () -> ());
      on_contended = (fun ~lock:_ -> ());
      expired = false;
      valid_until = Sim.now () + lease_period;
      closed = false;
      recoveries = Hashtbl.create 4;
      outbox = Outbox.create ();
      st = { renew_misses = 0; requests = 0; request_msgs = 0 };
    }
  in
  Rpc.on_oneway rpc (fun ~src body ->
      match body with
      | L_grants { grants } ->
        List.iter
          (fun (table, lock, mode) -> if table = ctable then on_grant t ~lock mode)
          grants
      | L_revoke { table; lock; to_mode } when table = ctable ->
        on_revoke_msg t ~lock ~to_mode
      | L_do_recovery { table; dead_lease } when table = ctable ->
        on_do_recovery_msg t ~src ~dead_lease
      | _ -> ());
  (* The state-query handler answers for every clerk on this machine
     (one per mounted file system); installed only once per endpoint. *)
  if register_clerk rpc t then
    Rpc.add_handler rpc (fun ~src:_ body ->
        match body with
        | L_get_state { group; _ } ->
          let clerks =
            match Hashtbl.find_opt registry (Rpc.addr rpc) with
            | Some (r, clerks) when r == rpc -> !clerks
            | Some _ | None -> []
          in
          let held =
            List.concat_map
              (fun (c : t) ->
                Hashtbl.fold
                  (fun lid st acc ->
                    match st.global with
                    | Some m
                      when group_of ~ngroups:c.ngroups ~table:c.ctable ~lock:lid
                           = group ->
                      (c.ctable, lid, m) :: acc
                    | _ -> acc)
                  c.locks [])
              clerks
          in
          Some (L_state { held }, msg + (16 * List.length held))
        | _ -> None);
  (* A crash loses all volatile clerk state; a restarted host builds
     a fresh clerk (and gets a fresh lease), so the old one must not
     answer state queries with stale holdings. *)
  Host.on_crash host (fun () ->
      t.closed <- true;
      (* Processes parked in [acquire] would otherwise wait forever
         for a grant that died with the host: wake them so they
         observe [Lease_expired] from [check_usable] and unwind. *)
      Hashtbl.iter
        (fun _ st ->
          Queue.iter (fun (_, k) -> k ()) st.waiting;
          Queue.clear st.waiting)
        t.locks;
      Hashtbl.reset t.locks;
      Outbox.clear t.outbox);
  Sim.spawn ~name:"clerk.housekeeping" (housekeeping t);
  t

(* After expiry, close sends nothing: an [L_close] would retire the
   lease before a live clerk has replayed its log. *)
let close t =
  if not t.closed then begin
    t.closed <- true;
    if not t.expired then begin
      Hashtbl.iter
        (fun _ st ->
          if st.global <> None then begin
            send_release t st None;
            st.global <- None
          end)
        t.locks;
      match
        Rpc.call t.rpc ~dst:(List.hd t.servers) ~timeout:(Sim.sec 1.0) ~size:msg
          (L_close { table = t.ctable; lease = t.clease })
      with
      | Ok _ | Error `Timeout -> ()
    end
  end
