(** Cluster network: a single switch with a dedicated full-duplex
    point-to-point link per host, like the paper's 24-port ATM switch
    with 155 Mbit/s links.

    A message occupies the sender's transmit link for
    [bits / bandwidth] (so links saturate realistically — Figure 7
    depends on this), then arrives after the propagation latency.
    Delivery is dropped silently if either end is crashed or the pair
    is cut; reliability is the business of upper layers.

    {b Partition semantics for in-flight messages.} The
    {!set_fault_cut} predicate (driven by [Cluster.Netfault]) is
    evaluated at the {e delivery} instant, not
    at send time: a cut installed while a message is crossing the
    switch retroactively drops it, and a cut healed before delivery
    lets a message sent during the partition through. This is the
    realistic choice — a physical link that dies mid-flight loses the
    frames already on the wire — and it is the documented, tested
    behaviour ([test_cluster], "partition installed mid-flight").

    Payloads are an extensible variant: each protocol adds its own
    constructors. *)

type payload = ..

type addr = int

type t
(** The switch. *)

type port
(** One host's network attachment. *)

val create : unit -> t

val attach : t -> Host.t -> port
(** Attach a host: 155 Mbit/s, 120 µs switch latency, and a
    UDP/IP-stack CPU cost of 2 ns/byte + 30 µs/message charged to the
    host on both send and receive (calibrated to the paper's "16 MB/s
    at 4% CPU" raw Petal measurement). *)

val addr : port -> addr
val host : port -> Host.t
val net : port -> t

val send : port -> dst:addr -> size:int -> payload -> unit
(** Fire-and-forget datagram of [size] bytes. Charges CPU, queues on
    the TX link, delivers asynchronously. Raises [Host.Crashed] if
    the sending host is down. *)

val recv : port -> addr * payload
(** Block until a datagram arrives; returns the source address. *)

val tx_link : port -> Simkit.Sim.Resource.t
(** Transmit-link resource, for utilisation/saturation stats. *)

val rx_link : port -> Simkit.Sim.Resource.t
(** Receive-link resource; inbound messages occupy it for their
    transfer time, so a host's incoming bandwidth also saturates. *)

val addrs : t -> addr list
(** Addresses of every attached port, in attachment order. *)

(** {2 Fault-injection hooks}

    Two composable hooks used by [Cluster.Netfault]; both default to
    "no fault". *)

val set_fault_cut : t -> (addr -> addr -> bool) -> unit
(** [set_fault_cut t cut]: a message from [src] to [dst] is dropped
    when [cut src dst] is true {e at the delivery instant}. The
    predicate is directional, so one-way (asymmetric) link faults are
    expressible. The default is full connectivity. *)

val clear_fault_cut : t -> unit

type fate = Deliver | Lose | Delay of Simkit.Sim.time
(** What the network-emulation hook decides for one message. *)

val set_netem : t -> (addr -> addr -> int -> fate) -> unit
(** [set_netem t em]: [em src dst size] is consulted exactly once per
    message, after the base propagation latency and before the
    partition check, so a seeded nemesis samples loss/delay in a
    deterministic order. [Lose] drops the message; [Delay d] adds [d]
    to its in-flight time (cuts installed during the extra delay
    still apply). *)

val clear_netem : t -> unit
