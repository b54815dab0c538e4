open Simkit

type payload = ..
type addr = int

(* The paper's 155 Mbit/s ATM links and switch, and a UDP/IP-stack
   CPU cost calibrated to its "16 MB/s at 4% CPU" raw Petal
   measurement (§9). *)
let bandwidth = 155e6
let latency = Sim.us 120
let cpu_ns_per_byte = 2
let cpu_ns_per_msg = 30_000

type port = {
  paddr : addr;
  phost : Host.t;
  pnet : t;
  tx : Sim.Resource.t;
  rx : Sim.Resource.t;
  inbox : (addr * payload) Sim.Mailbox.t;
}

and t = {
  mutable ports : port array; (* indexed by address: addresses are dense from 0 *)
  mutable fault_cut : addr -> addr -> bool;
  mutable netem : (addr -> addr -> int -> fate) option;
}

and fate = Deliver | Lose | Delay of Sim.time

let create () =
  {
    ports = [||];
    fault_cut = (fun _ _ -> false);
    netem = None;
  }

let attach t phost =
  let paddr = Array.length t.ports in
  let p =
    {
      paddr;
      phost;
      pnet = t;
      tx = Sim.Resource.create (Host.name phost ^ ".tx");
      rx = Sim.Resource.create (Host.name phost ^ ".rx");
      inbox = Sim.Mailbox.create ();
    }
  in
  t.ports <- Array.append t.ports [| p |];
  p

let addr p = p.paddr
let host p = p.phost
let net p = p.pnet
let tx_link p = p.tx
let rx_link p = p.rx
let set_fault_cut t f = t.fault_cut <- f
let clear_fault_cut t = t.fault_cut <- (fun _ _ -> false)
let set_netem t f = t.netem <- Some f
let clear_netem t = t.netem <- None
let addrs t = List.init (Array.length t.ports) Fun.id

let stack_cost size = cpu_ns_per_msg + (cpu_ns_per_byte * size)

let transfer_time size =
  int_of_float (float_of_int (size * 8) /. bandwidth *. 1e9)

(* The in-flight portion of a message is a chain of heap events, not
   a process: the tx and rx links are FIFO pipes ([Resource.reserve]),
   and latency/CPU segments are [Sim.at] callbacks. A cluster moving
   millions of messages allocates one event per hop instead of two
   fibers per message; timing and the delivery-instant fault semantics
   are unchanged from the process formulation. *)
let send p ~dst ~size m =
  Host.check p.phost;
  (* Protocol-stack CPU work is paid synchronously by the caller. *)
  Sim.Resource.use (Host.cpu p.phost) (stack_cost size);
  let t = p.pnet in
  let src = p.paddr in
  let tx_done = Sim.Resource.reserve p.tx (transfer_time size) in
  let deliver () =
    (* Partition semantics: the cut is evaluated at the delivery
       instant, so a cut installed while a message is in flight
       retroactively drops it (see net.mli). *)
    if
      Host.is_alive p.phost
      && (not (t.fault_cut src dst))
      && dst >= 0
      && dst < Array.length t.ports
      && Host.is_alive t.ports.(dst).phost
    then begin
      let q = t.ports.(dst) in
      (* Receive side: the message occupies the receiver's link, then
         its protocol-stack CPU cost is charged, before the message
         becomes visible. *)
      let rx_done = Sim.Resource.reserve q.rx (transfer_time size) in
      Sim.at rx_done (fun () ->
          if Host.is_alive q.phost then begin
            let cpu = Host.cpu q.phost in
            Sim.Resource.acquire_cb cpu (fun () ->
                Sim.at
                  (Sim.now () + stack_cost size)
                  (fun () ->
                    Sim.Resource.release cpu;
                    if Host.is_alive q.phost then Sim.Mailbox.send q.inbox (src, m)))
          end)
    end
  in
  Sim.at (tx_done + latency) (fun () ->
      (* Network-emulation hook (Netfault): consulted once per
         message, after the base propagation latency, so loss and
         added delay are sampled in a deterministic order. *)
      match t.netem with
      | None -> deliver ()
      | Some em -> (
        match em src dst size with
        | Deliver -> deliver ()
        | Lose -> ()
        | Delay d -> Sim.at (Sim.now () + d) deliver))

let recv p = Sim.Mailbox.recv p.inbox
