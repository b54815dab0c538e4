open Simkit
open Cluster

module Make (C : sig
  type t
end) =
struct
  type ballot = int * int (* round, proposer id; lexicographic *)

  type entry = { origin : int; oseq : int; cmd : C.t }

  let same_entry a b = a.origin = b.origin && a.oseq = b.oseq

  type Net.payload +=
    | Prepare of { group : int; slot : int; ballot : ballot }
    | Promise of {
        ok : bool;
        accepted : (ballot * entry) option;
        chosen : entry option;
      }
    | Accept of { group : int; slot : int; ballot : ballot; entry : entry }
    | Accepted of { ok : bool }
    | Decided of { group : int; slot : int; entry : entry }
    | Query of { group : int; from_slot : int }
    | Answer of { entries : (int * entry) list }

  type stable = {
    promised : (int, ballot) Hashtbl.t;
    accepted : (int, ballot * entry) Hashtbl.t;
  }

  let stable () = { promised = Hashtbl.create 32; accepted = Hashtbl.create 32 }

  type t = {
    rpc : Rpc.t;
    group : int;
    peers : Net.addr list;
    id : int;
    st : stable;
    apply : int -> C.t -> unit;
    chosen : (int, entry) Hashtbl.t;
    mutable applied : int;
    mutable oseq : int;
    mutable round : int;
  }

  let majority t = (List.length t.peers / 2) + 1

  (* How long any Paxos call waits for its reply: a round's Prepare
     and Accept, and the catch-up Query. A shorter Query timeout
     drops replies that queue behind bulk traffic on a busy link. *)
  let rpc_timeout = Sim.ms 300

  let promised_for t slot =
    match Hashtbl.find_opt t.st.promised slot with
    | Some b -> b
    | None -> (-1, -1)

  let record_decided t slot entry =
    if not (Hashtbl.mem t.chosen slot) then begin
      Hashtbl.replace t.chosen slot entry;
      let rec drain () =
        match Hashtbl.find_opt t.chosen t.applied with
        | Some e ->
          t.apply t.applied e.cmd;
          t.applied <- t.applied + 1;
          drain ()
        | None -> ()
      in
      drain ()
    end

  let handler t ~src:_ body =
    match body with
    | Prepare { group; slot; ballot } when group = t.group ->
      let chosen = Hashtbl.find_opt t.chosen slot in
      if ballot >= promised_for t slot then begin
        Hashtbl.replace t.st.promised slot ballot;
        Some
          (Promise { ok = true; accepted = Hashtbl.find_opt t.st.accepted slot; chosen }, 64)
      end
      else Some (Promise { ok = false; accepted = None; chosen }, 32)
    | Accept { group; slot; ballot; entry } when group = t.group ->
      if ballot >= promised_for t slot then begin
        Hashtbl.replace t.st.promised slot ballot;
        Hashtbl.replace t.st.accepted slot (ballot, entry);
        Some (Accepted { ok = true }, 16)
      end
      else Some (Accepted { ok = false }, 16)
    | Query { group; from_slot } when group = t.group ->
      let entries =
        Hashtbl.fold
          (fun slot e acc -> if slot >= from_slot then (slot, e) :: acc else acc)
          t.chosen []
      in
      Some (Answer { entries }, 64 + (64 * List.length entries))
    | _ -> None

  let on_decided t ~src:_ body =
    match body with
    | Decided { group; slot; entry } when group = t.group -> record_decided t slot entry
    | _ -> ()

  (* Issue [msg] to every peer in parallel and return the successful
     replies (loopback included: a replica is its own acceptor). *)
  let broadcast_call t msg =
    let results = ref [] in
    Sim.fork_join
      (fun peer ->
        match Rpc.call t.rpc ~dst:peer ~timeout:rpc_timeout ~size:64 msg with
        | Ok reply -> results := reply :: !results
        | Error `Timeout -> ()
        | exception Host.Crashed _ -> ())
      t.peers;
    !results

  let first_undecided t =
    let rec go slot = if Hashtbl.mem t.chosen slot then go (slot + 1) else slot in
    go t.applied

  let propose t cmd =
    t.oseq <- t.oseq + 1;
    let mine = { origin = t.id; oseq = t.oseq; cmd } in
    let rec outer () =
      let slot = first_undecided t in
      let rec try_ballot () =
        t.round <- t.round + 1 + Sim.random_int 2;
        let ballot = (t.round, t.id) in
        let replies = broadcast_call t (Prepare { group = t.group; slot; ballot }) in
        (* Someone may already know this slot's outcome. *)
        let already =
          List.find_map
            (function Promise { chosen = Some e; _ } -> Some e | _ -> None)
            replies
        in
        match already with
        | Some e ->
          record_decided t slot e;
          if same_entry e mine then slot else outer ()
        | None ->
          let promises =
            List.filter_map
              (function
                | Promise { ok = true; accepted; _ } -> Some accepted
                | _ -> None)
              replies
          in
          if List.length promises < majority t then begin
            Sim.sleep (Sim.ms (1 + Sim.random_int 50));
            try_ballot ()
          end
          else begin
            (* Adopt the highest-ballot accepted value, if any. *)
            let value =
              List.fold_left
                (fun best a ->
                  match (best, a) with
                  | None, x -> x
                  | Some _, None -> best
                  | Some (bb, _), Some (ab, _) -> if ab > bb then a else best)
                None promises
              |> function
              | Some (_, e) -> e
              | None -> mine
            in
            let acks =
              broadcast_call t (Accept { group = t.group; slot; ballot; entry = value })
              |> List.filter (function Accepted { ok = true } -> true | _ -> false)
            in
            if List.length acks >= majority t then begin
              List.iter
                (fun peer ->
                  Rpc.oneway t.rpc ~dst:peer ~size:64
                    (Decided { group = t.group; slot; entry = value }))
                t.peers;
              record_decided t slot value;
              if same_entry value mine then slot else outer ()
            end
            else begin
              Sim.sleep (Sim.ms (1 + Sim.random_int 50));
              try_ballot ()
            end
          end
      in
      try_ballot ()
    in
    outer ()

  let decided t slot =
    match Hashtbl.find_opt t.chosen slot with
    | Some e -> Some e.cmd
    | None -> None

  let applied_up_to t = t.applied
  let round t = t.round

  let catch_up_daemon t () =
    let h = Rpc.host t.rpc in
    let rec loop () =
      Sim.sleep (Sim.ms (250 + Sim.random_int 100));
      if Host.is_alive h then begin
        let others = List.filter (fun a -> a <> Rpc.addr t.rpc) t.peers in
        match others with
        | [] -> ()
        | _ -> (
          let peer = List.nth others (Sim.random_int (List.length others)) in
          match
            Rpc.call t.rpc ~dst:peer ~timeout:rpc_timeout ~size:32
              (Query { group = t.group; from_slot = t.applied })
          with
          | Ok (Answer { entries }) ->
            List.iter (fun (slot, e) -> record_decided t slot e) entries
          | Ok _ | Error `Timeout -> ()
          | exception Host.Crashed _ -> ())
      end;
      loop ()
    in
    loop ()

  let create ~rpc ~group ~peers ~id ~stable ~apply =
    let t =
      {
        rpc;
        group;
        peers;
        id;
        st = stable;
        apply;
        chosen = Hashtbl.create 64;
        applied = 0;
        oseq = 0;
        round = 0;
      }
    in
    Rpc.add_handler rpc (handler t);
    Rpc.on_oneway rpc (on_decided t);
    Sim.spawn ~name:"paxos.catchup" (catch_up_daemon t);
    t
end
