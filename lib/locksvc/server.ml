(* A lock server (see server.mli). Grants leave through a per-clerk
   {!Outbox}: the grants made for one clerk machine in one simulated
   instant travel as one message. Ordering rule: [send_clerk] (revokes
   and recovery requests) first sends that clerk's queued grants. The
   clerk drops a revoke for a lock it has requested but not been
   granted, which is safe only because a revoke never overtakes its
   grant; a server that grants and revokes a lock in one pump (a
   release that hands the lock to one waiter while another waits)
   relies on this. *)

open Simkit
open Cluster
open Types
module P = Paxos_group.P

type pending = { please : int; pmode : mode; pclerk : Net.addr; precovery : bool }

type lockst = {
  mutable holders : (int * mode) list; (* lease, mode *)
  queue : pending Queue.t;
  mutable last_revoke : Sim.time;
}

type lease_rec = {
  laddr : Net.addr;
  ltable : string;
  mutable last_renew : Sim.time;
  mutable dead : bool;
}

type t = {
  host : Host.t;
  rpc : Rpc.t;
  index : int;
  ngroups : int;
  mutable paxos : P.t option;
  (* Replicated state (identical on every server: pure function of the
     applied command prefix plus the static initial configuration). *)
  mutable servers : Net.addr list;
  mutable clerks : (string * Net.addr * int) list; (* table, addr, lease *)
  mutable next_lease : int;
  slot_lease : (int, int) Hashtbl.t;
  (* Soft state. *)
  leases : (int, lease_rec) Hashtbl.t;
  locks : (string * int, lockst) Hashtbl.t; (* owned groups only *)
  ready : (int, unit) Hashtbl.t; (* groups this server may serve *)
  hb : (Net.addr, Sim.time) Hashtbl.t;
  mutable renewed : (int * Sim.time) list; (* answered since the last tick *)
  recovering : (int, unit) Hashtbl.t; (* dead leases with recovery in flight *)
  grants : (string * int * mode) Outbox.t; (* table, lock, mode *)
}

let host t = t.host
let my_addr t = Rpc.addr t.rpc
let paxos t = match t.paxos with Some p -> p | None -> assert false

let group t ~table ~lock = group_of ~ngroups:t.ngroups ~table ~lock

let is_owner t g = group_owner t.servers g = Some (my_addr t)

let lease_alive t lease =
  match Hashtbl.find_opt t.leases lease with
  | Some l -> not l.dead
  | None -> false

let held_locks t =
  Hashtbl.fold
    (fun (table, lock) l acc ->
      List.fold_left
        (fun acc (lease, m) -> (table, lock, m, lease) :: acc)
        acc l.holders)
    t.locks []

let applied t =
  List.filter_map (P.decided (paxos t)) (List.init (P.applied_up_to (paxos t)) Fun.id)

let lockst t key =
  match Hashtbl.find_opt t.locks key with
  | Some l -> l
  | None ->
    let l = { holders = []; queue = Queue.create (); last_revoke = 0 } in
    Hashtbl.replace t.locks key l;
    l

let send_grants t dst grants =
  Rpc.oneway t.rpc ~dst ~size:(batch_size (List.length grants)) (L_grants { grants })

let grant t dst ~table ~lock mode =
  Outbox.push t.grants dst (table, lock, mode) ~send:(send_grants t)

(* Every other message to a clerk: its queued grants go first. *)
let send_clerk t dst m =
  Outbox.flush t.grants dst ~send:(send_grants t);
  Rpc.oneway t.rpc ~dst ~size:msg m

(* --- grant/revoke engine ---------------------------------------------- *)

let grantable t l p =
  let live_conflict =
    List.exists
      (fun (lease, m) ->
        lease <> p.please && (p.pmode = W || m = W))
      l.holders
  in
  let dead_holder =
    List.exists (fun (lease, _) -> not (lease_alive t lease)) l.holders
  in
  if p.precovery then
    (* A recovery demon may seize a dead server's lock. *)
    not
      (List.exists
         (fun (lease, m) ->
           lease_alive t lease && lease <> p.please && (p.pmode = W || m = W))
         l.holders)
  else (not live_conflict) && not dead_holder

let do_grant t ~table ~lock l p =
  if p.precovery then
    l.holders <- List.filter (fun (lease, _) -> lease_alive t lease) l.holders;
  (* Idempotent for retried requests. *)
  l.holders <- (p.please, p.pmode) :: List.remove_assoc p.please l.holders;
  grant t p.pclerk ~table ~lock p.pmode

let pump t ~table ~lock =
  let g = group t ~table ~lock in
  if is_owner t g && Hashtbl.mem t.ready g then begin
    let l = lockst t (table, lock) in
    let rec grant_prefix () =
      match Queue.peek_opt l.queue with
      | Some p when not (lease_alive t p.please) ->
        ignore (Queue.pop l.queue);
        grant_prefix ()
      | Some p when grantable t l p ->
        ignore (Queue.pop l.queue);
        do_grant t ~table ~lock l p;
        grant_prefix ()
      | Some _ | None -> ()
    in
    grant_prefix ();
    (* Conflict remains: ask the offending holders to give way. The
       requester's own R is no conflict: its W is an upgrade. *)
    match Queue.peek_opt l.queue with
    | None -> ()
    | Some p ->
      if Sim.now () - l.last_revoke >= Sim.sec 2.0 || l.last_revoke = 0 then begin
        l.last_revoke <- Sim.now ();
        let to_mode = if p.pmode = R then Some R else None in
        List.iter
          (fun (lease, m) ->
            if lease <> p.please && lease_alive t lease && (p.pmode = W || m = W)
            then
              match Hashtbl.find_opt t.leases lease with
              | Some lr -> send_clerk t lr.laddr (L_revoke { table; lock; to_mode })
              | None -> ())
          l.holders
      end
  end

let pump_all t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.locks [] in
  List.iter (fun (table, lock) -> pump t ~table ~lock) keys

(* --- group reassignment (paper: two-phase lock reassignment) --------- *)

let recover_group t g =
  (* Phase 2: rebuild holder state for a newly gained group from the
     clerks that have the relevant tables open. *)
  let clerk_addrs = List.sort_uniq compare (List.map (fun (_, a, _) -> a) t.clerks) in
  List.iter
    (fun addr ->
      match
        Rpc.call t.rpc ~dst:addr ~timeout:(Sim.ms 500) ~size:msg
          (L_get_state { table = ""; group = g })
      with
      | Ok (L_state { held }) ->
        List.iter
          (fun (table, lock, m) ->
            match
              List.find_opt (fun (tb, a, _) -> tb = table && a = addr) t.clerks
            with
            | Some (_, _, lease) ->
              let l = lockst t (table, lock) in
              l.holders <- (lease, m) :: List.remove_assoc lease l.holders
            | None -> ())
          held
      | Ok _ | Error `Timeout -> ()
      | exception Host.Crashed _ -> ())
    clerk_addrs;
  Hashtbl.replace t.ready g ();
  pump_all t

let recompute_ownership t old_servers =
  for g = 0 to t.ngroups - 1 do
    let before = group_owner old_servers g = Some (my_addr t) in
    let after = is_owner t g in
    if before && not after then begin
      (* Phase 1: discard state for groups we lost. *)
      Hashtbl.remove t.ready g;
      let doomed =
        Hashtbl.fold
          (fun (table, lock) _ acc ->
            if group t ~table ~lock = g then (table, lock) :: acc else acc)
          t.locks []
      in
      List.iter (fun k -> Hashtbl.remove t.locks k) doomed
    end
    else if after && not before then begin
      Hashtbl.remove t.ready g;
      Sim.spawn (fun () -> recover_group t g)
    end
  done

(* --- replicated-state application -------------------------------------- *)

let apply t slot cmd =
  match cmd with
  | Add_clerk { table; addr } ->
    let lease = t.next_lease in
    t.next_lease <- t.next_lease + 1;
    t.clerks <- t.clerks @ [ (table, addr, lease) ];
    Hashtbl.replace t.leases lease
      { laddr = addr; ltable = table; last_renew = Sim.now (); dead = false };
    Hashtbl.replace t.slot_lease slot lease
  | Remove_clerk { table; lease } ->
    t.clerks <- List.filter (fun (tb, _, le) -> not (tb = table && le = lease)) t.clerks;
    Hashtbl.remove t.leases lease;
    Hashtbl.remove t.recovering lease;
    (* Locks held by the removed lease are now free. *)
    Hashtbl.iter
      (fun _ l -> l.holders <- List.filter (fun (le, _) -> le <> lease) l.holders)
      t.locks;
    pump_all t
  | Add_server { addr } ->
    if not (List.mem addr t.servers) then begin
      let old = t.servers in
      t.servers <- t.servers @ [ addr ];
      (* If WE are the one rejoining, our soft lease clocks are stale:
         we were deaf to renewals and gossip while out. Restart every
         clock rather than let an old opinion kill a live lease — a
         genuinely dead one simply re-expires a lease period later. *)
      if addr = my_addr t then
        Hashtbl.iter
          (fun _ lr ->
            lr.last_renew <- Sim.now ();
            lr.dead <- false)
          t.leases;
      recompute_ownership t old
    end
  | Remove_server { addr } ->
    (* Never empty the membership: a partition leaves BOTH sides with
       queued removal proposals, and after heal the stale ones commit
       too. With one server left there is nobody to heartbeat, so the
       rejoin path could never recover from zero. The floor is a
       deterministic function of replicated state, so every replica
       refuses the same command. *)
    if List.mem addr t.servers && List.length t.servers > 1 then begin
      let old = t.servers in
      t.servers <- List.filter (fun a -> a <> addr) t.servers;
      recompute_ownership t old
    end

(* --- lease expiry and Frangipani-server recovery ----------------------- *)

let initiate_recovery t lease =
  let rec nag () =
    match Hashtbl.find_opt t.leases lease with
    | Some lr when lr.dead ->
      (* Ask a live clerk with the same table open to run recovery. *)
      let target =
        List.find_opt
          (fun (tb, _, le) -> tb = lr.ltable && le <> lease && lease_alive t le)
          t.clerks
      in
      (match target with
      | Some (_, addr, _) ->
        send_clerk t addr (L_do_recovery { table = lr.ltable; dead_lease = lease })
      | None -> ());
      Sim.sleep (Sim.sec 10.0);
      nag ()
    | Some _ | None -> ()
  in
  nag ()

let expiry_daemon t () =
  let rec loop () =
    Sim.sleep (Sim.sec 5.0);
    (* Only a current member may pass judgement: a server voted out
       during a partition stops hearing renewals and gossip, so its
       clocks say nothing about the clerk's health. *)
    if Host.is_alive t.host && List.mem (my_addr t) t.servers then begin
      Hashtbl.iter
        (fun lease lr ->
          if (not lr.dead) && Sim.now () - lr.last_renew > lease_period then begin
            Logs.info (fun m ->
                m "%s: lease %d expired, initiating recovery" (Host.name t.host) lease);
            lr.dead <- true;
            (* Its locks stop being grantable until recovery completes;
               nag a live clerk to run recovery. *)
            Sim.spawn (fun () -> initiate_recovery t lease);
            pump_all t
          end)
        t.leases
    end;
    loop ()
  in
  loop ()

(* --- lock-server heartbeats & membership -------------------------------- *)

let propose_remove_server t addr =
  if List.mem addr t.servers then ignore (P.propose (paxos t) (Remove_server { addr }))

let propose_add_server t addr =
  if not (List.mem addr t.servers) then ignore (P.propose (paxos t) (Add_server { addr }))

(* The one periodic message between lock servers; the tick then
   re-pumps every lock, in case a revoke or grant was lost. *)
let heartbeat_daemon t () =
  let rec loop () =
    Sim.sleep (Sim.sec 2.0);
    if Host.is_alive t.host then begin
      let renewed = t.renewed and size = 16 + (16 * List.length t.renewed) in
      t.renewed <- [];
      List.iter
        (fun a ->
          if a <> my_addr t then Rpc.oneway t.rpc ~dst:a ~size (S_heartbeat { renewed }))
        t.servers;
      List.iter
        (fun a ->
          if a <> my_addr t then
            match Hashtbl.find_opt t.hb a with
            | None -> Hashtbl.replace t.hb a (Sim.now ())
            | Some last ->
              if Sim.now () - last > Sim.sec 10.0 then begin
                Logs.info (fun m ->
                    m "%s: lock server %d silent, proposing removal"
                      (Host.name t.host) a);
                Hashtbl.remove t.hb a;
                Sim.spawn (fun () -> try propose_remove_server t a with Host.Crashed _ -> ())
              end)
        t.servers;
      pump_all t
    end;
    loop ()
  in
  loop ()

(* --- message handling --------------------------------------------------- *)

let handle_request t ~table ~lease ~lock ~mode ~for_recovery =
  if lease_alive t lease || for_recovery then begin
    let g = group t ~table ~lock in
    if is_owner t g then begin
      let l = lockst t (table, lock) in
      (* Retried request for a lock already held: re-grant. *)
      match List.assoc_opt lease l.holders with
      | Some m when mode_geq m mode ->
        (match Hashtbl.find_opt t.leases lease with
        | Some lr -> grant t lr.laddr ~table ~lock m
        | None -> ())
      | Some _ | None ->
        let already =
          Queue.fold
            (fun acc p -> acc || (p.please = lease && p.pmode = mode))
            false l.queue
        in
        if not already then begin
          let pclerk =
            match Hashtbl.find_opt t.leases lease with
            | Some lr -> lr.laddr
            | None -> -1
          in
          if pclerk >= 0 then
            Queue.push
              { please = lease; pmode = mode; pclerk; precovery = for_recovery }
              l.queue
        end;
        pump t ~table ~lock
    end
  end

let handle_release t ~table ~lease ~lock ~to_mode =
  match Hashtbl.find_opt t.locks (table, lock) with
  | None -> ()
  | Some l ->
    (match to_mode with
    | None -> l.holders <- List.filter (fun (le, _) -> le <> lease) l.holders
    | Some m ->
      l.holders <-
        List.map (fun (le, hm) -> if le = lease then (le, m) else (le, hm)) l.holders);
    l.last_revoke <- 0;
    pump t ~table ~lock

let handle_recovered t ~table ~dead_lease =
  match Hashtbl.find_opt t.leases dead_lease with
  | Some lr when lr.dead ->
    if not (Hashtbl.mem t.recovering dead_lease) then begin
      Hashtbl.replace t.recovering dead_lease ();
      Sim.spawn (fun () ->
          try ignore (P.propose (paxos t) (Remove_clerk { table; lease = dead_lease }))
          with Host.Crashed _ -> ())
    end
  | Some _ | None -> ()

let rpc_handler t ~src body =
  match body with
  | L_open { table } ->
    let slot = P.propose (paxos t) (Add_clerk { table; addr = src }) in
    while P.applied_up_to (paxos t) <= slot do
      Sim.sleep (Sim.ms 1)
    done;
    let lease = Hashtbl.find t.slot_lease slot in
    Some (L_opened { lease; servers = t.servers; ngroups = t.ngroups }, msg)
  | L_close { table; lease } ->
    Sim.spawn (fun () ->
        try ignore (P.propose (paxos t) (Remove_clerk { table; lease }))
        with Host.Crashed _ -> ());
    Some (L_closed, msg)
  | L_renew { lease } -> (
    match Hashtbl.find_opt t.leases lease with
    | Some lr when not lr.dead ->
      lr.last_renew <- Sim.now ();
      t.renewed <- (lease, Sim.now ()) :: t.renewed;
      Some (L_renewed, 16)
    | Some _ | None -> Some (L_err "unknown lease", msg))
  | L_sync -> Some (L_synced { servers = t.servers }, msg)
  | _ -> None

let oneway_handler t ~src body =
  match body with
  | L_requests { table; lease; reqs } ->
    List.iter
      (fun (lock, mode, for_recovery) ->
        handle_request t ~table ~lease ~lock ~mode ~for_recovery)
      reqs
  | L_release { table; lease; lock; to_mode } ->
    handle_release t ~table ~lease ~lock ~to_mode
  | L_recovered { table; dead_lease } -> handle_recovered t ~table ~dead_lease
  | S_heartbeat { renewed } ->
    Hashtbl.replace t.hb src (Sim.now ());
    List.iter
      (fun (lease, at) ->
        match Hashtbl.find_opt t.leases lease with
        | Some lr when not lr.dead -> lr.last_renew <- max lr.last_renew at
        | Some _ | None -> ())
      renewed;
    (* A peer we removed during a partition is audibly alive again:
       bring it back. (Without this, stale removals — including the
       minority side's own queued proposals committing after heal —
       would only ever shrink the membership.) *)
    if not (List.mem src t.servers) then
      Sim.spawn (fun () -> try propose_add_server t src with Host.Crashed _ -> ())
  | _ -> ()

let create ~host ~rpc ~peers ~index ?(ngroups = default_ngroups) ~stable () =
  let t =
    {
      host;
      rpc;
      index;
      ngroups;
      paxos = None;
      servers = Array.to_list peers;
      clerks = [];
      next_lease = 1;
      slot_lease = Hashtbl.create 32;
      leases = Hashtbl.create 32;
      locks = Hashtbl.create 1024;
      ready = Hashtbl.create 64;
      hb = Hashtbl.create 8;
      renewed = [];
      recovering = Hashtbl.create 8;
      grants = Outbox.create ();
    }
  in
  t.paxos <-
    Some
      (P.create ~rpc ~group:0x10c2 ~peers:(Array.to_list peers) ~id:index ~stable
         ~apply:(fun slot cmd -> apply t slot cmd));
  (* Initially-owned groups have no prior state to recover. *)
  for g = 0 to ngroups - 1 do
    if is_owner t g then Hashtbl.replace t.ready g ()
  done;
  Rpc.add_handler rpc (rpc_handler t);
  Rpc.on_oneway rpc (oneway_handler t);
  Sim.spawn ~name:"locksvc.expiry" (expiry_daemon t);
  Sim.spawn ~name:"locksvc.heartbeat" (heartbeat_daemon t);
  t
