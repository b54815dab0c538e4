open Stdext

let test_flat_roundtrip () =
  let b = Bytes.create 32 in
  Codec.put_u8 b 0 0xab;
  Codec.put_u16 b 1 0xbeef;
  Codec.put_u32 b 3 0xdeadbeef;
  Codec.put_int b 15 max_int;
  Alcotest.(check int) "u8" 0xab (Codec.get_u8 b 0);
  Alcotest.(check int) "u16" 0xbeef (Codec.get_u16 b 1);
  Alcotest.(check int) "u32" 0xdeadbeef (Codec.get_u32 b 3);
  Alcotest.(check int) "int" max_int (Codec.get_int b 15)

let test_cursor_roundtrip () =
  let w = Codec.W.create () in
  Codec.W.u16 w 65535;
  Codec.W.u32 w 123456789;
  Codec.W.int w (-42);
  Codec.W.bytes w (Bytes.of_string "xyz");
  let b = Codec.W.contents w in
  let r = Codec.R.of_bytes b in
  Alcotest.(check int) "u16" 65535 (Codec.R.u16 r);
  Alcotest.(check int) "u32" 123456789 (Codec.R.u32 r);
  Alcotest.(check int) "int" (-42) (Codec.R.int r);
  Alcotest.(check string) "bytes" "xyz" (Bytes.to_string (Codec.R.bytes r 3));
  Alcotest.(check int) "exhausted" (Bytes.length b) (Codec.R.pos r)

let test_reader_underflow () =
  let r = Codec.R.of_bytes (Bytes.create 3) in
  Alcotest.check_raises "underflow" Codec.R.Underflow (fun () ->
      ignore (Codec.R.int r))

let test_writer_growth () =
  let w = Codec.W.create ~size:2 () in
  for i = 0 to 999 do
    Codec.W.u32 w i
  done;
  let b = Codec.W.contents w in
  Alcotest.(check int) "length" 4000 (Bytes.length b);
  let r = Codec.R.of_bytes b in
  for i = 0 to 999 do
    Alcotest.(check int) "value" i (Codec.R.u32 r)
  done

let test_crc_known () =
  (* Standard test vector: crc32("123456789") = 0xCBF43926. *)
  Alcotest.(check int) "known vector" 0xcbf43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "")

let test_crc_slice () =
  let b = Bytes.of_string "xx123456789yy" in
  Alcotest.(check int) "slice" 0xcbf43926 (Crc32.bytes b 2 9)

let prop_cursor_roundtrip =
  QCheck.Test.make ~name:"cursor ints round-trip" ~count:200
    QCheck.(list (pair small_int int))
    (fun items ->
      let w = Codec.W.create () in
      List.iter
        (fun (a, b) ->
          Codec.W.u16 w (a land 0xffff);
          Codec.W.int w b)
        items;
      let r = Codec.R.of_bytes (Codec.W.contents w) in
      List.for_all
        (fun (a, b) -> Codec.R.u16 r = a land 0xffff && Codec.R.int r = b)
        items)

let prop_crc_detects_flip =
  QCheck.Test.make ~name:"crc detects single bit flip" ~count:200
    QCheck.(pair (string_of_size Gen.(int_range 1 64)) small_int)
    (fun (s, i) ->
      let b = Bytes.of_string s in
      let before = Crc32.bytes b 0 (Bytes.length b) in
      let pos = i mod Bytes.length b in
      Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 1));
      Crc32.bytes b 0 (Bytes.length b) <> before)

let () =
  Alcotest.run "stdext"
    [
      ( "codec",
        [
          Alcotest.test_case "flat roundtrip" `Quick test_flat_roundtrip;
          Alcotest.test_case "cursor roundtrip" `Quick test_cursor_roundtrip;
          Alcotest.test_case "reader underflow" `Quick test_reader_underflow;
          Alcotest.test_case "writer growth" `Quick test_writer_growth;
          QCheck_alcotest.to_alcotest prop_cursor_roundtrip;
        ] );
      ( "crc32",
        [
          Alcotest.test_case "known vector" `Quick test_crc_known;
          Alcotest.test_case "slice" `Quick test_crc_slice;
          QCheck_alcotest.to_alcotest prop_crc_detects_flip;
        ] );
    ]
