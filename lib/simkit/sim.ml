type time = int

let ns t = t
let us t = t * 1_000
let ms t = t * 1_000_000
let sec s = int_of_float ((s *. 1e9) +. 0.5)
let to_sec t = float_of_int t /. 1e9

exception Deadlock of string
exception Timed_out

(* An event either runs a plain callback or resumes a sleeping
   process; storing the continuation directly saves a closure per
   [sleep], the single most common operation. *)
type event = {
  at : time;
  seq : int;
  mutable cancelled : bool;
  kind : kind;
}

and kind =
  | Fn of (unit -> unit)
  | K of (unit, unit) Effect.Deep.continuation

(* Binary min-heap of events ordered by (at, seq); seq breaks ties so
   same-instant events run in schedule order. Sifting moves a hole
   instead of swapping (one store per level instead of three), with
   unchecked array access — indices are maintained in-bounds by
   construction. *)
module Heap = struct
  type t = { mutable arr : event array; mutable len : int }

  let dummy = { at = 0; seq = 0; cancelled = true; kind = Fn ignore }
  let create () = { arr = Array.make 256 dummy; len = 0 }

  let less a b = a.at < b.at || (a.at = b.at && a.seq < b.seq)

  let push h ev =
    if h.len = Array.length h.arr then begin
      let arr = Array.make (2 * h.len) dummy in
      Array.blit h.arr 0 arr 0 h.len;
      h.arr <- arr
    end;
    let arr = h.arr in
    let i = h.len in
    h.len <- i + 1;
    let rec up i =
      if i = 0 then 0
      else begin
        let p = (i - 1) / 2 in
        let pe = Array.unsafe_get arr p in
        if less ev pe then begin
          Array.unsafe_set arr i pe;
          up p
        end
        else i
      end
    in
    Array.unsafe_set arr (up i) ev

  (* Precondition: len > 0 (the run loop checks). *)
  let pop h =
    let arr = h.arr in
    let top = Array.unsafe_get arr 0 in
    let n = h.len - 1 in
    h.len <- n;
    let last = Array.unsafe_get arr n in
    Array.unsafe_set arr n dummy;
    if n > 0 then begin
      let rec down i =
        let l = (2 * i) + 1 in
        if l >= n then i
        else begin
          let r = l + 1 in
          let c =
            if r < n && less (Array.unsafe_get arr r) (Array.unsafe_get arr l)
            then r
            else l
          in
          let ce = Array.unsafe_get arr c in
          if less ce last then begin
            Array.unsafe_set arr i ce;
            down c
          end
          else i
        end
      in
      Array.unsafe_set arr (down 0) last
    end;
    top
end

type stats = {
  events : int;  (** events executed (cancelled skips excluded) *)
  spawns : int;  (** processes started *)
  skipped : int;  (** lazily-cancelled events discarded at pop *)
  heap_len : int;  (** events currently pending *)
}

let zero_stats = { events = 0; spawns = 0; skipped = 0; heap_len = 0 }

type engine = {
  mutable now : time;
  mutable seq : int;
  heap : Heap.t;
  rng : Random.State.t;
  mutable exec : (unit -> unit) -> unit;
      (* Start a function as a process (fiber) immediately; installed
         by [run]. Lets [spawn] and timer fire-paths avoid performing
         effects, so they also work from event callbacks that run
         outside any process. *)
  mutable n_events : int;
  mutable n_spawns : int;
  mutable n_skipped : int;
}

(* The engine currently executing; set only inside [run]. *)
let current : engine option ref = ref None

(* Counters of the most recently finished [run], so benchmarks can
   report events/sec after the fact. *)
let last_stats = ref zero_stats

let engine () =
  match !current with
  | Some e -> e
  | None -> invalid_arg "Sim: blocking operation performed outside Sim.run"

let schedule eng at kind =
  eng.seq <- eng.seq + 1;
  let ev = { at; seq = eng.seq; cancelled = false; kind } in
  Heap.push eng.heap ev;
  ev

let mk_stats e =
  {
    events = e.n_events;
    spawns = e.n_spawns;
    skipped = e.n_skipped;
    heap_len = e.heap.Heap.len;
  }

let stats () =
  match !current with Some e -> mk_stats e | None -> !last_stats

type _ Effect.t +=
  | E_sleep : time -> unit Effect.t
  | E_suspend : (('v -> unit) -> unit) -> 'v Effect.t

let now () = (engine ()).now
let rng () = (engine ()).rng
let random_float x = Random.State.float (rng ()) x

let random_int n =
  (* Random.State.int is limited to bounds < 2^30, too small for
     nanosecond durations. *)
  if n <= 0 then 0 else Random.State.full_int (rng ()) n

let sleep d = Effect.perform (E_sleep d)
let suspend f = Effect.perform (E_suspend f)

let spawn ?name:_ f =
  let e = engine () in
  e.n_spawns <- e.n_spawns + 1;
  ignore (schedule e e.now (Fn (fun () -> e.exec f)))

let at t f =
  let e = engine () in
  let t = if t < e.now then e.now else t in
  ignore (schedule e t (Fn f))

let run ?(seed = 42) ?until main =
  let eng =
    {
      now = 0;
      seq = 0;
      heap = Heap.create ();
      rng = Random.State.make [| seed |];
      exec = (fun _ -> assert false);
      n_events = 0;
      n_spawns = 0;
      n_skipped = 0;
    }
  in
  let open Effect.Deep in
  let rec exec f = match_with f () handler
  and handler =
    {
      retc = (fun () -> ());
      exnc = (fun e -> raise e);
      effc =
        (fun (type c) (eff : c Effect.t) ->
          match eff with
          | E_sleep d ->
            Some
              (fun (k : (c, unit) continuation) ->
                ignore (schedule eng (eng.now + max 0 d) (K k)))
          | E_suspend f ->
            Some
              (fun (k : (c, unit) continuation) ->
                let resumed = ref false in
                f (fun v ->
                    if !resumed then invalid_arg "Sim.suspend: resumed twice";
                    resumed := true;
                    ignore
                      (schedule eng eng.now (Fn (fun () -> continue k v)))))
          | _ -> None);
    }
  in
  eng.exec <- exec;
  let result = ref None in
  ignore (schedule eng 0 (Fn (fun () -> exec (fun () -> result := Some (main ())))));
  let saved = !current in
  current := Some eng;
  let finish v =
    last_stats := mk_stats eng;
    current := saved;
    v
  in
  let bail e =
    last_stats := mk_stats eng;
    current := saved;
    raise e
  in
  let rec loop () =
    match !result with
    | Some v -> finish v
    | None ->
      if eng.heap.Heap.len = 0 then
        bail (Deadlock "Sim.run: main process blocked forever")
      else begin
        let ev = Heap.pop eng.heap in
        if ev.cancelled then begin
          eng.n_skipped <- eng.n_skipped + 1;
          loop ()
        end
        else begin
          (match until with
          | Some u when ev.at > u -> bail Timed_out
          | _ -> ());
          eng.now <- ev.at;
          eng.n_events <- eng.n_events + 1;
          (try
             match ev.kind with
             | Fn f -> f ()
             | K k -> continue k ()
           with e -> bail e);
          loop ()
        end
      end
  in
  loop ()

module Ivar = struct
  type 'a t = { mutable value : 'a option; mutable waiters : ('a -> unit) list }

  let create () = { value = None; waiters = [] }

  let fill t v =
    match t.value with
    | Some _ -> invalid_arg "Ivar.fill: already filled"
    | None ->
      t.value <- Some v;
      let ws = List.rev t.waiters in
      t.waiters <- [];
      List.iter (fun w -> w v) ws

  let read t =
    match t.value with
    | Some v -> v
    | None -> suspend (fun resume -> t.waiters <- resume :: t.waiters)

  let peek t = t.value
  let is_filled t = t.value <> None
end

(* One counter and one ivar: n spawns and a single wake-up of the
   caller per call. *)
let fork_join f = function
  | [] -> ()
  | xs ->
    let pending = ref (List.length xs) in
    let all = Ivar.create () in
    List.iter
      (fun x ->
        spawn (fun () ->
            f x;
            decr pending;
            if !pending = 0 then Ivar.fill all ()))
      xs;
    Ivar.read all

module Mailbox = struct
  type 'a t = { msgs : 'a Queue.t; readers : ('a -> unit) Queue.t }

  let create () = { msgs = Queue.create (); readers = Queue.create () }

  let send t m =
    match Queue.take_opt t.readers with
    | Some r -> r m
    | None -> Queue.push m t.msgs

  let recv t =
    match Queue.take_opt t.msgs with
    | Some m -> m
    | None -> suspend (fun resume -> Queue.push resume t.readers)

  let length t = Queue.length t.msgs
end

module Resource = struct
  type t = {
    rname : string;
    capacity : int;
    mutable in_use : int;
    waiters : (unit -> unit) Queue.t;
    mutable busy : int; (* integral of in_use over time since reset *)
    mutable last_change : time;
    mutable reset_at : time;
    mutable free_at : time; (* head-of-line completion time, for [reserve] *)
  }

  let create ?(capacity = 1) rname =
    if capacity < 1 then invalid_arg "Resource.create: capacity < 1";
    { rname; capacity; in_use = 0; waiters = Queue.create (); busy = 0;
      last_change = 0; reset_at = 0; free_at = 0 }

  let name t = t.rname

  let account t =
    let n = now () in
    t.busy <- t.busy + (t.in_use * (n - t.last_change));
    t.last_change <- n

  let acquire t =
    if t.in_use < t.capacity then begin
      account t;
      t.in_use <- t.in_use + 1
    end
    else suspend (fun resume -> Queue.push (fun () -> resume ()) t.waiters)

  let acquire_cb t k =
    if t.in_use < t.capacity then begin
      account t;
      t.in_use <- t.in_use + 1;
      k ()
    end
    else Queue.push k t.waiters

  let release t =
    if t.in_use <= 0 then invalid_arg "Resource.release: not acquired";
    match Queue.take_opt t.waiters with
    | Some w -> w () (* hand the server over; in_use unchanged *)
    | None ->
      account t;
      t.in_use <- t.in_use - 1

  let use t d =
    acquire t;
    sleep d;
    release t

  let reserve t d =
    let n = now () in
    let start = if t.free_at > n then t.free_at else n in
    let fin = start + max 0 d in
    t.free_at <- fin;
    t.busy <- t.busy + max 0 d;
    fin

  let reset_stats t =
    t.busy <- 0;
    t.last_change <- now ();
    t.reset_at <- now ()

  let busy_time t =
    account t;
    t.busy

  let utilization t =
    account t;
    let span = now () - t.reset_at in
    if span <= 0 then 0.0
    else float_of_int t.busy /. float_of_int (t.capacity * span)
end

module Condition = struct
  type t = { mutable waiters : (unit -> unit) list }

  let create () = { waiters = [] }
  let wait t = suspend (fun resume -> t.waiters <- (fun () -> resume ()) :: t.waiters)

  let broadcast t =
    let ws = List.rev t.waiters in
    t.waiters <- [];
    List.iter (fun w -> w ()) ws
end

module Timer = struct
  type t = { mutable ev : event; mutable fired : bool }

  (* One heap event per timer, no fiber until it actually fires;
     cancellation just flags the event, which the run loop discards
     when its instant arrives (lazy cancel). *)
  let after d f =
    let e = engine () in
    let t = { ev = Heap.dummy; fired = false } in
    t.ev <-
      schedule e
        (e.now + max 0 d)
        (Fn
           (fun () ->
             t.fired <- true;
             e.exec f));
    t

  let cancel t = t.ev.cancelled <- true
  let is_pending t = (not t.fired) && not t.ev.cancelled
end
