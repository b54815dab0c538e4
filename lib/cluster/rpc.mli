(** Request/response matching over {!Net} datagrams, with timeouts.

    Each host runs one {!t} per incarnation; services on the host
    register handlers on it. Handlers run as their own processes so a
    slow disk I/O in one request does not block the dispatcher. Lost
    messages (crashes, partitions) surface as [`Timeout]. *)

type error = [ `Timeout ]

type handler = src:Net.addr -> Net.payload -> (Net.payload * int) option
(** A handler inspects a request body; if it recognises it, it
    returns [Some (reply, reply_size_bytes)]. Handlers may block. *)

type t

val create : Net.port -> t
(** Create the endpoint and start its dispatcher. The dispatcher
    lives as long as the simulation; while the host is crashed no
    messages are delivered to it, so the endpoint simply falls
    silent and resumes after a restart (services model volatile-state
    loss with [Host.on_crash] hooks). *)

val port : t -> Net.port
val addr : t -> Net.addr
val host : t -> Host.t

val add_handler : t -> handler -> unit

val on_oneway : t -> (src:Net.addr -> Net.payload -> unit) -> unit
(** Subscribe to non-RPC datagrams (heartbeats, asynchronous
    notifications). Callbacks run in a fresh process per message. *)

val call_async :
  t ->
  dst:Net.addr ->
  ?timeout:Simkit.Sim.time ->
  size:int ->
  Net.payload ->
  (Net.payload, error) result Simkit.Sim.Ivar.t
(** Issue a request of [size] bytes and return immediately (after the
    sender-side protocol-stack cost) with an ivar that is filled with
    the reply, or with [`Timeout] once the timeout (default 1 s of
    simulated time) expires. Outside this module its one caller is
    the Petal client's piece submission, which fires each piece's
    first attempt from the submitting process (keeping submission
    order and backpressure there) and hands the reply to a per-piece
    waiter. *)

val call :
  t ->
  dst:Net.addr ->
  ?timeout:Simkit.Sim.time ->
  size:int ->
  Net.payload ->
  (Net.payload, error) result
(** [call_async] followed by a blocking read of the reply. *)

val call_retry :
  t ->
  dst:Net.addr ->
  ?timeout:Simkit.Sim.time ->
  ?attempts:int ->
  ?backoff:Simkit.Sim.time ->
  size:int ->
  Net.payload ->
  (Net.payload, error) result
(** Blocking call with retransmission: up to [attempts] (default 4)
    copies, [timeout] (default 1 s) per copy, exponential backoff
    starting at [backoff] (default 100 ms, doubling, capped at 5 s)
    with deterministic jitter between copies. All copies carry the
    {e same} request id, so a late reply to an earlier copy completes
    the call. The receiving endpoint keeps no reply cache: every copy
    that arrives runs the handler, so [call_retry] is for idempotent
    requests only. Its callers are the Petal client's map refresh (a
    read) and the lock clerk's lease renewal (which only moves a lease
    clock forward). Returns [`Timeout] only after every attempt has
    timed out. *)

type stats = private {
  mutable calls : int;  (** [call]/[call_async]/[call_retry] invocations *)
  mutable attempts : int;  (** request transmissions, retries included *)
  mutable timeouts : int;  (** attempts that timed out *)
  mutable retries : int;  (** retransmissions by [call_retry] *)
}

val stats : t -> stats
(** A copy of the cumulative counters for this endpoint (both its
    client and server roles); later traffic does not change it. *)

val oneway : t -> dst:Net.addr -> size:int -> Net.payload -> unit
(** Fire-and-forget datagram through this endpoint. *)
