(* What a run observes from outside the file system: the simulated
   latency of every FS call, by kind, plus, in a traced run, one span
   per call and per probe. *)

open Simkit

type kind = Create | Write | Read | Rename | Unlink | Readdir | Sync

let kinds = [| Create; Write; Read; Rename; Unlink; Readdir; Sync |]

let kind_index = function
  | Create -> 0
  | Write -> 1
  | Read -> 2
  | Rename -> 3
  | Unlink -> 4
  | Readdir -> 5
  | Sync -> 6

let kind_name = function
  | Create -> "create"
  | Write -> "write"
  | Read -> "read"
  | Rename -> "rename"
  | Unlink -> "unlink"
  | Readdir -> "readdir"
  | Sync -> "sync"

(* A growable int array: latency samples in simulated nanoseconds. *)
module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 256 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let a = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 a 0 v.n;
      v.a <- a
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n

  let sorted vs =
    let a = Array.concat (List.map (fun v -> Array.sub v.a 0 v.n) vs) in
    Array.sort compare a;
    a
end

(* Nearest-rank quantile of a sorted sample. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

(* A percentile is reported only when at least ten samples lie beyond
   it: p99 needs 1,000 samples, p99.9 needs 10,000. *)
let supports n q = float_of_int n *. (1.0 -. q) >= 10.0 -. 1e-9

type span = {
  id : int;
  name : string;
  layer : string;
  host : string;
  start_ns : int;
  end_ns : int;
  parent : int;  (** [-1]: a root span *)
}

type t = {
  lat : Vec.t array;  (** per {!kind}, completed calls only *)
  mutable attempted : int;
  mutable failed : int;
  mutable read_bytes : int;
  mutable written_bytes : int;
  tracing : bool;
  mutable next_id : int;
  mutable spans : span list;  (** newest first *)
  mutable errors : string list;  (** first few failure messages *)
}

let create ~tracing =
  {
    lat = Array.map (fun _ -> Vec.create ()) kinds;
    attempted = 0;
    failed = 0;
    read_bytes = 0;
    written_bytes = 0;
    tracing;
    next_id = 0;
    spans = [];
    errors = [];
  }

let completed r = r.attempted - r.failed

let fresh_id r =
  r.next_id <- r.next_id + 1;
  r.next_id

let add_span r ~id ~name ~layer ~host ~start_ns ~parent =
  r.spans <- { id; name; layer; host; start_ns; end_ns = Sim.now (); parent } :: r.spans

(* [span r ~name ~layer ~host f] runs [f id] inside a root span [id]
   when tracing; untraced it costs one comparison. *)
let span r ~name ~layer ~host f =
  if not r.tracing then f (-1)
  else begin
    let id = fresh_id r and start_ns = Sim.now () in
    Fun.protect
      ~finally:(fun () -> add_span r ~id ~name ~layer ~host ~start_ns ~parent:(-1))
      (fun () -> f id)
  end

(* One FS call: timed, counted, and a failure (any exception) is
   recorded rather than propagated — the run goes on. *)
let call r ?(parent = -1) ~host kind f =
  r.attempted <- r.attempted + 1;
  let id = if r.tracing then fresh_id r else 0 in
  let t0 = Sim.now () in
  let trace () =
    if r.tracing then
      add_span r ~id ~name:(kind_name kind) ~layer:"frangipani" ~host ~start_ns:t0
        ~parent
  in
  match f () with
  | v ->
    Vec.push r.lat.(kind_index kind) (Sim.now () - t0);
    trace ();
    Some v
  | exception e ->
    r.failed <- r.failed + 1;
    if List.length r.errors < 5 then
      r.errors <- Printf.sprintf "%s %s: %s" host (kind_name kind) (Printexc.to_string e)
                  :: r.errors;
    trace ();
    None

let span_json s =
  Json.Obj
    [
      ("type", Json.Str "span");
      ("id", Json.Num (float_of_int s.id));
      ("name", Json.Str s.name);
      ("layer", Json.Str s.layer);
      ("host", Json.Str s.host);
      ("start_ns", Json.Num (float_of_int s.start_ns));
      ("end_ns", Json.Num (float_of_int s.end_ns));
      ("parent", if s.parent < 0 then Json.Null else Json.Num (float_of_int s.parent));
    ]
