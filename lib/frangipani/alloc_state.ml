(** Per-server allocator state: which bitmap sector of each pool the
    server currently allocates from, a rotor within it, the bits
    reserved but not yet claimed, and the batch of fresh inodes
    fetched ahead of the creates that will take them. *)

type pool_state = {
  mutable sector : int option;  (** index of the sector within the pool *)
  mutable hint : int;
  reserved : (int, unit) Hashtbl.t;  (** absolute bit numbers *)
}

type t = {
  pools : pool_state array;
  fresh : int Queue.t;
      (** reserved inode numbers, fetched and not yet handed to a
          create; their reservations belong to the server *)
  mutable topping_up : bool;
      (** a background refill of [fresh] is in flight *)
}

let create () =
  {
    pools = Array.init 5 (fun _ -> { sector = None; hint = 0; reserved = Hashtbl.create 8 });
    fresh = Queue.create ();
    topping_up = false;
  }

let pool t p = t.pools.(Layout.pool_index p)
