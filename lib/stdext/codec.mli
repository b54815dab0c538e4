(** Little-endian binary encoding helpers for on-disk structures.

    Two styles are provided: flat accessors addressing a fixed offset
    in an existing buffer (used for fixed-layout blocks such as inodes
    and log sectors), and cursor-based writer/reader for variable-
    length records (log records, directory entries). *)

val get_u8 : bytes -> int -> int
val put_u8 : bytes -> int -> int -> unit
val get_u16 : bytes -> int -> int
val put_u16 : bytes -> int -> int -> unit
val get_u32 : bytes -> int -> int
val put_u32 : bytes -> int -> int -> unit

val get_int : bytes -> int -> int
(** 63-bit OCaml int stored as a little-endian 64-bit word. *)

val put_int : bytes -> int -> int -> unit

(** Append-only growable writer. *)
module W : sig
  type t

  val create : ?size:int -> unit -> t
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val int : t -> int -> unit
  val bytes : t -> bytes -> unit

  val contents : t -> bytes
  (** Copy of everything written so far. *)
end

(** Sequential reader over a buffer. *)
module R : sig
  type t

  exception Underflow

  val of_bytes : ?pos:int -> bytes -> t
  val u16 : t -> int
  val u32 : t -> int
  val int : t -> int

  val bytes : t -> int -> bytes
  (** Read exactly [n] bytes. *)

  val pos : t -> int
end
