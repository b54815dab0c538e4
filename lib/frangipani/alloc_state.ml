(** Per-server allocator state: which bitmap segment of each pool the
    server currently allocates from, a rotor within it, and the bits
    reserved by creates that have not yet claimed them. *)

type pool_state = {
  mutable seg : int option;
  mutable hint : int;
  reserved : (int, unit) Hashtbl.t;  (** absolute bit numbers *)
}

type t = { pools : pool_state array }

let create () =
  { pools = Array.init 5 (fun _ -> { seg = None; hint = 0; reserved = Hashtbl.create 8 }) }

let pool t p = t.pools.(Layout.pool_index p)
