open Simkit

type error = [ `Timeout ]

type Net.payload +=
  | Req of { id : int; body : Net.payload }
  | Reply of { id : int; body : Net.payload }
  | Oneway of Net.payload

type handler = src:Net.addr -> Net.payload -> (Net.payload * int) option

type stats = {
  mutable calls : int;
  mutable attempts : int;
  mutable timeouts : int;
  mutable retries : int;
}

type t = {
  port : Net.port;
  mutable handlers : handler list;
  mutable oneway_subs : (src:Net.addr -> Net.payload -> unit) list;
  pending : (int, (Net.payload, error) result Sim.Ivar.t * Sim.Timer.t) Hashtbl.t;
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

let handle_request t ~src id body =
  try
    match run_handlers t ~src body with
    | Some r -> send_reply t ~dst:src id r
    | None -> ()
  with Host.Crashed _ -> () (* host died mid-request: no reply, caller times out *)

let dispatcher t () =
  let h = host t in
  let rec loop () =
    let src, m = Net.recv t.port in
    (* Delivery already requires the host to be alive; a crash between
       delivery and processing drops the message, like a real kernel
       losing its socket buffers. *)
    if Host.is_alive h then
      (match m with
      | Req { id; body } -> Sim.spawn (fun () -> handle_request t ~src id body)
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
      next_id = 0;
      st = { calls = 0; attempts = 0; timeouts = 0; retries = 0 };
    }
  in
  Sim.spawn ~name:(Host.name (Net.host port) ^ ".rpc") (dispatcher t);
  t

(* One network attempt: arm a timeout timer (cancelled by the
   dispatcher when the reply arrives — no dead timers accumulate over
   long sweeps) and transmit. *)
let attempt t ~dst ~timeout ~size ~id body =
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
  Net.send t.port ~dst ~size (Req { id; body });
  iv

let call_async t ~dst ?(timeout = Sim.sec 1.0) ~size body =
  Host.check (host t);
  t.st.calls <- t.st.calls + 1;
  t.next_id <- t.next_id + 1;
  attempt t ~dst ~timeout ~size ~id:t.next_id body

let call t ~dst ?timeout ~size body =
  Sim.Ivar.read (call_async t ~dst ?timeout ~size body)

let max_backoff = Sim.sec 5.0

let call_retry t ~dst ?(timeout = Sim.sec 1.0) ?(attempts = 4)
    ?(backoff = Sim.ms 100) ~size body =
  Host.check (host t);
  t.st.calls <- t.st.calls + 1;
  t.next_id <- t.next_id + 1;
  (* One id for all attempts: a late reply to an earlier copy
     completes the current attempt. *)
  let id = t.next_id in
  let rec go n delay =
    if n > 1 then t.st.retries <- t.st.retries + 1;
    match Sim.Ivar.read (attempt t ~dst ~timeout ~size ~id body) with
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
