(** Per-peer outboxes for the asynchronous lock traffic.

    Items pushed for one peer in one simulated instant leave as one
    message: the first push schedules a flush process at the current
    instant, later pushes from the same instant join the pending list.
    [send] receives the items oldest first; callers pass it to every
    operation.

    Ordering rule: the clerk ignores a revoke for a lock it has
    requested but not yet been granted, which is safe only because a
    revoke never overtakes its grant. So any other message to a peer
    must go through {!flush} for that peer first; the network and the
    single-core host CPU then keep the two in order. *)

open Simkit
open Cluster

type 'a t = (Net.addr, 'a list) Hashtbl.t (* newest first *)

let create () : 'a t = Hashtbl.create 8

let flush t dst ~send =
  match Hashtbl.find_opt t dst with
  | None -> ()
  | Some items ->
    Hashtbl.remove t dst;
    send dst (List.rev items)

let push t dst item ~send =
  match Hashtbl.find_opt t dst with
  | Some items -> Hashtbl.replace t dst (item :: items)
  | None ->
    Hashtbl.replace t dst [ item ];
    (* A host that crashes before the flush loses the items, as it
       would lose the messages. *)
    Sim.spawn (fun () -> try flush t dst ~send with Host.Crashed _ -> ())

let clear t = Hashtbl.reset t
