(* Deterministic network nemesis layered over Net: scheduled
   partition/heal, per-link loss probability and delay/jitter from a
   private seeded PRNG, and asymmetric (one-way) cuts. See
   netfault.mli for the contract. *)

open Simkit

type shaping = { drop_p : float; delay : Sim.time; jitter : Sim.time }

type stats = {
  mutable cut_drops : int;
  mutable loss_drops : int;
  mutable delayed : int;
  mutable events : int;
}

type t = {
  net : Net.t;
  rng : Random.State.t;
  cuts : (Net.addr * Net.addr, unit) Hashtbl.t;
  (* Most recent rule first; first match wins. [None] matches any
     address. *)
  mutable rules : (Net.addr option * Net.addr option * shaping) list;
  st : stats;
}

let is_cut t src dst =
  if Hashtbl.mem t.cuts (src, dst) then begin
    t.st.cut_drops <- t.st.cut_drops + 1;
    true
  end
  else false

let rule_for t src dst =
  let matches side = function None -> true | Some a -> a = side in
  List.find_opt (fun (s, d, _) -> matches src s && matches dst d) t.rules

let netem t src dst _size =
  match rule_for t src dst with
  | None -> Net.Deliver
  | Some (_, _, sh) ->
    (* At most two PRNG draws per message, in a fixed order, so a
       given seed replays bit-identically. *)
    let lose = sh.drop_p > 0.0 && Random.State.float t.rng 1.0 < sh.drop_p in
    if lose then begin
      t.st.loss_drops <- t.st.loss_drops + 1;
      Net.Lose
    end
    else if sh.delay > 0 || sh.jitter > 0 then begin
      let j = if sh.jitter > 0 then Random.State.int t.rng (sh.jitter + 1) else 0 in
      t.st.delayed <- t.st.delayed + 1;
      Net.Delay (sh.delay + j)
    end
    else Net.Deliver

let create ?(seed = 42) net =
  let t =
    {
      net;
      rng = Random.State.make [| seed; 0x9e3779b9 |];
      cuts = Hashtbl.create 64;
      rules = [];
      st = { cut_drops = 0; loss_drops = 0; delayed = 0; events = 0 };
    }
  in
  Net.set_fault_cut net (is_cut t);
  Net.set_netem net (netem t);
  t

let cut ?(oneway = false) t a b =
  Hashtbl.replace t.cuts (a, b) ();
  if not oneway then Hashtbl.replace t.cuts (b, a) ()

let heal t a b =
  Hashtbl.remove t.cuts (a, b);
  Hashtbl.remove t.cuts (b, a)

let partition t ga gb =
  List.iter (fun a -> List.iter (fun b -> cut t a b) gb) ga

let isolate t a =
  List.iter (fun b -> if b <> a then cut t a b) (Net.addrs t.net)

let heal_all t = Hashtbl.reset t.cuts

let shape ?src ?dst ?(drop = 0.0) ?(delay = 0) ?(jitter = 0) t =
  t.rules <- (src, dst, { drop_p = drop; delay; jitter }) :: t.rules

let clear_shaping t = t.rules <- []

let clear t =
  heal_all t;
  clear_shaping t

let schedule t evs =
  let t0 = Sim.now () in
  Sim.spawn (fun () ->
      List.iter
        (fun (at, act) ->
          let due = t0 + at in
          if Sim.now () < due then Sim.sleep (due - Sim.now ());
          t.st.events <- t.st.events + 1;
          act t)
        evs)

let stats t = { t.st with events = t.st.events }
