open Simkit

exception Crashed of string

type t = {
  hname : string;
  cpu : Sim.Resource.t;
  mutable alive : bool;
  mutable incarnation : int;
  mutable hooks : (unit -> unit) list;
}

let create hname =
  {
    hname;
    cpu = Sim.Resource.create (hname ^ ".cpu");
    alive = true;
    incarnation = 0;
    hooks = [];
  }

let name t = t.hname
let is_alive t = t.alive
let incarnation t = t.incarnation
let check t = if not t.alive then raise (Crashed t.hname)
let cpu t = t.cpu

let consume t d =
  check t;
  Sim.Resource.use t.cpu d

let on_crash t f = t.hooks <- f :: t.hooks

let crash t =
  if t.alive then begin
    t.alive <- false;
    List.iter (fun f -> f ()) t.hooks
  end

let restart t =
  if not t.alive then begin
    t.incarnation <- t.incarnation + 1;
    t.alive <- true
  end

let guard t inc = t.alive && t.incarnation = inc
