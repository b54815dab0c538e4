open Simkit

type error = [ `Timeout ]

type Net.payload +=
  | Req of { id : int; dedup : bool; body : Net.payload }
  | Reply of { id : int; body : Net.payload }
  | Oneway of Net.payload

type handler = src:Net.addr -> Net.payload -> (Net.payload * int) option

type stats = {
  mutable calls : int;
  mutable attempts : int;
  mutable timeouts : int;
  mutable retries : int;
  mutable dups_suppressed : int;
  mutable dedup_evictions : int;
}

(* Server-side duplicate-suppression cache for [dedup] requests
   (those issued by [call_retry], which reuses one request id across
   attempts). [In_progress] while the first copy's handler runs;
   [Done] keeps the reply so a retransmitted request is answered
   without re-executing a non-idempotent handler. *)
type cached = In_progress | Done of (Net.payload * int)

let dedup_cap = 1024

type t = {
  port : Net.port;
  mutable handlers : handler list;
  mutable oneway_subs : (src:Net.addr -> Net.payload -> unit) list;
  pending : (int, (Net.payload, error) result Sim.Ivar.t * Sim.Timer.t) Hashtbl.t;
  replies : (Net.addr * int, cached) Hashtbl.t;
  reply_order : (Net.addr * int) Queue.t;
  mutable next_id : int;
  st : stats;
}

let port t = t.port
let addr t = Net.addr t.port
let host t = Net.host t.port
let add_handler t h = t.handlers <- t.handlers @ [ h ]
let on_oneway t f = t.oneway_subs <- t.oneway_subs @ [ f ]

let stats t = { t.st with calls = t.st.calls }

let run_handlers t ~src body =
  let rec try_handlers = function
    | [] ->
      Logs.warn (fun m ->
          m "%s: unhandled rpc request from %d" (Host.name (host t)) src);
      None
    | h :: rest -> (
      match h ~src body with
      | Some (reply, size) -> Some (reply, size)
      | None -> try_handlers rest)
  in
  try_handlers t.handlers

let send_reply t ~dst id (reply, size) =
  try Net.send t.port ~dst ~size (Reply { id; body = reply })
  with Host.Crashed _ -> ()

let handle_request t ~src id ~dedup body =
  if not dedup then (
    try
      match run_handlers t ~src body with
      | Some r -> send_reply t ~dst:src id r
      | None -> ()
    with Host.Crashed _ -> () (* host died mid-request: no reply, caller times out *))
  else
    let key = (src, id) in
    match Hashtbl.find_opt t.replies key with
    | Some (Done r) ->
      (* Retransmission of a request we already executed: answer from
         the cache, do not run the handler again. *)
      t.st.dups_suppressed <- t.st.dups_suppressed + 1;
      send_reply t ~dst:src id r
    | Some In_progress ->
      (* First copy's handler is still running; it will reply. *)
      t.st.dups_suppressed <- t.st.dups_suppressed + 1
    | None -> (
      Hashtbl.replace t.replies key In_progress;
      Queue.push key t.reply_order;
      if Queue.length t.reply_order > dedup_cap then begin
        (* Bounded reply cache: the oldest entry's reply is forgotten.
           A retransmission of that request will re-execute its
           handler — safe as long as callers only use [call_retry]
           for operations that tolerate re-execution against a
           restarted server (the crash path already forgets the whole
           cache). *)
        t.st.dedup_evictions <- t.st.dedup_evictions + 1;
        Hashtbl.remove t.replies (Queue.pop t.reply_order)
      end;
      match run_handlers t ~src body with
      | Some r ->
        Hashtbl.replace t.replies key (Done r);
        send_reply t ~dst:src id r
      | None -> Hashtbl.remove t.replies key
      | exception Host.Crashed _ ->
        (* The handler's side effects died with the host's volatile
           state; let a retry re-execute, as against a restarted
           server. *)
        Hashtbl.remove t.replies key)

let dispatcher t () =
  let h = host t in
  let rec loop () =
    let src, m = Net.recv t.port in
    (* Delivery already requires the host to be alive; a crash between
       delivery and processing drops the message, like a real kernel
       losing its socket buffers. *)
    if Host.is_alive h then
      (match m with
      | Req { id; dedup; body } ->
        Sim.spawn (fun () -> handle_request t ~src id ~dedup body)
      | Reply { id; body } -> (
        match Hashtbl.find_opt t.pending id with
        | Some (iv, timer) ->
          Hashtbl.remove t.pending id;
          Sim.Timer.cancel timer;
          if not (Sim.Ivar.is_filled iv) then Sim.Ivar.fill iv (Ok body)
        | None -> () (* reply after timeout: drop *))
      | Oneway body ->
        List.iter
          (fun f ->
            Sim.spawn (fun () -> try f ~src body with Host.Crashed _ -> ()))
          t.oneway_subs
      | _ ->
        Logs.warn (fun m ->
            m "%s: malformed datagram from %d" (Host.name h) src));
    loop ()
  in
  loop ()

let create port =
  let t =
    {
      port;
      handlers = [];
      oneway_subs = [];
      pending = Hashtbl.create 64;
      replies = Hashtbl.create 64;
      reply_order = Queue.create ();
      next_id = 0;
      st =
        {
          calls = 0;
          attempts = 0;
          timeouts = 0;
          retries = 0;
          dups_suppressed = 0;
          dedup_evictions = 0;
        };
    }
  in
  (* The dedup cache is volatile server state: a crash loses it, so a
     retry against the restarted incarnation re-executes — exactly
     what a real server that lost its memory would do. *)
  Host.on_crash (Net.host port) (fun () ->
      Hashtbl.reset t.replies;
      Queue.clear t.reply_order);
  Sim.spawn ~name:(Host.name (Net.host port) ^ ".rpc") (dispatcher t);
  t

(* One network attempt: arm a timeout timer (cancelled by the
   dispatcher when the reply arrives — no dead timers accumulate over
   long sweeps) and transmit. *)
let attempt t ~dst ~timeout ~dedup ~size ~id body =
  let iv = Sim.Ivar.create () in
  let timer =
    Sim.Timer.after timeout (fun () ->
        if not (Sim.Ivar.is_filled iv) then begin
          Hashtbl.remove t.pending id;
          t.st.timeouts <- t.st.timeouts + 1;
          Sim.Ivar.fill iv (Error `Timeout)
        end)
  in
  Hashtbl.replace t.pending id (iv, timer);
  t.st.attempts <- t.st.attempts + 1;
  Net.send t.port ~dst ~size (Req { id; dedup; body });
  iv

let call_async t ~dst ?(timeout = Sim.sec 1.0) ~size body =
  Host.check (host t);
  t.st.calls <- t.st.calls + 1;
  t.next_id <- t.next_id + 1;
  attempt t ~dst ~timeout ~dedup:false ~size ~id:t.next_id body

let call t ~dst ?timeout ~size body =
  Sim.Ivar.read (call_async t ~dst ?timeout ~size body)

let max_backoff = Sim.sec 5.0

let call_retry t ~dst ?(timeout = Sim.sec 1.0) ?(attempts = 4)
    ?(backoff = Sim.ms 100) ~size body =
  Host.check (host t);
  t.st.calls <- t.st.calls + 1;
  t.next_id <- t.next_id + 1;
  (* One id for all attempts: a late reply to an earlier copy
     completes the current attempt, and the server can suppress
     duplicate executions keyed on (src, id). *)
  let id = t.next_id in
  let rec go n delay =
    if n > 1 then t.st.retries <- t.st.retries + 1;
    match Sim.Ivar.read (attempt t ~dst ~timeout ~dedup:true ~size ~id body) with
    | Ok r -> Ok r
    | Error `Timeout when n < attempts ->
      (* Exponential backoff with jitter from the engine's
         deterministic RNG. *)
      let j = if delay > 1 then Sim.random_int (delay / 2) else 0 in
      Sim.sleep (delay + j);
      Host.check (host t);
      go (n + 1) (min (2 * delay) max_backoff)
    | Error `Timeout -> Error `Timeout
  in
  go 1 backoff

let oneway t ~dst ~size body = Net.send t.port ~dst ~size (Oneway body)
