(** A lock server.

    Serves the lock groups assigned to it by the deterministic rule
    over the Paxos-replicated server list; tracks clerk leases (30 s,
    renewed every 10 s); initiates Frangipani-server recovery when a
    lease expires; recovers lock-group state from the clerks when
    groups are reassigned to it after a membership change. *)

type t

val create :
  host:Cluster.Host.t ->
  rpc:Cluster.Rpc.t ->
  peers:Cluster.Net.addr array ->
  index:int ->
  ?ngroups:int ->
  stable:Paxos_group.stable ->
  unit ->
  t

val host : t -> Cluster.Host.t

val held_locks : t -> (string * int * Types.mode * int) list
(** [(table, lock, mode, lease)] for every holder this server knows,
    in the groups it currently serves. For tests. *)

val applied : t -> Types.cmd list
(** The replicated commands this server has applied, in slot order.
    For tests. *)

val propose_add_server : t -> Cluster.Net.addr -> unit
