let get_u8 b off = Char.code (Bytes.get b off)
let put_u8 b off v = Bytes.set b off (Char.chr (v land 0xff))
let get_u16 b off = Bytes.get_uint16_le b off
let put_u16 b off v = Bytes.set_uint16_le b off v
let get_u32 b off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

let put_u32 b off v = Bytes.set_int32_le b off (Int32.of_int v)
let get_int b off = Int64.to_int (Bytes.get_int64_le b off)
let put_int b off v = Bytes.set_int64_le b off (Int64.of_int v)

module W = struct
  type t = { mutable buf : bytes; mutable len : int }

  let create ?(size = 64) () = { buf = Bytes.create (max 8 size); len = 0 }

  let ensure t n =
    let need = t.len + n in
    if need > Bytes.length t.buf then begin
      let cap = ref (Bytes.length t.buf) in
      while !cap < need do
        cap := !cap * 2
      done;
      let buf = Bytes.create !cap in
      Bytes.blit t.buf 0 buf 0 t.len;
      t.buf <- buf
    end

  let u16 t v =
    ensure t 2;
    put_u16 t.buf t.len v;
    t.len <- t.len + 2

  let u32 t v =
    ensure t 4;
    put_u32 t.buf t.len v;
    t.len <- t.len + 4

  let int t v =
    ensure t 8;
    put_int t.buf t.len v;
    t.len <- t.len + 8

  let bytes t b =
    let n = Bytes.length b in
    ensure t n;
    Bytes.blit b 0 t.buf t.len n;
    t.len <- t.len + n

  let contents t = Bytes.sub t.buf 0 t.len
end

module R = struct
  type t = { buf : bytes; mutable pos : int }

  exception Underflow

  let of_bytes ?(pos = 0) buf = { buf; pos }

  let need t n = if t.pos + n > Bytes.length t.buf then raise Underflow

  let u16 t =
    need t 2;
    let v = get_u16 t.buf t.pos in
    t.pos <- t.pos + 2;
    v

  let u32 t =
    need t 4;
    let v = get_u32 t.buf t.pos in
    t.pos <- t.pos + 4;
    v

  let int t =
    need t 8;
    let v = get_int t.buf t.pos in
    t.pos <- t.pos + 8;
    v

  let bytes t n =
    need t n;
    let b = Bytes.sub t.buf t.pos n in
    t.pos <- t.pos + n;
    b

  let pos t = t.pos
end
