module Wire = Ivdb_wire.Wire
module Row = Ivdb_relation.Row
module Value = Ivdb_relation.Value

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let frame_eq a b =
  (* Rows carries float cells: compare via the codec, which is exact
     (bit-pattern), so ordinary structural equality suffices *)
  a = b

let frame_testable =
  Alcotest.testable (fun ppf f -> Format.pp_print_string ppf (Wire.frame_name f)) frame_eq

(* The payload codec, through the framing every connection uses. *)
let roundtrip f =
  match Wire.decode_framed (Wire.to_framed f) ~pos:0 with
  | Wire.Frame (f', _) -> f'
  | Wire.Partial -> failwith "partial"
  | Wire.Corrupt m -> failwith m

(* --- generators ---------------------------------------------------------- *)

let str_gen = QCheck.Gen.(string_size (int_bound 48))

let value_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Value.Int i) small_signed_int;
        map (fun i -> Value.Float (float_of_int i /. 16.)) small_signed_int;
        map (fun s -> Value.Str s) str_gen;
        map (fun b -> Value.Bool b) bool;
        return Value.Null;
      ])

let row_gen =
  QCheck.Gen.(map Array.of_list (list_size (int_range 1 6) value_gen))

let error_code_gen =
  QCheck.Gen.oneofl
    [
      Wire.E_sql;
      Wire.E_parse;
      Wire.E_constraint;
      Wire.E_deadlock;
      Wire.E_draining;
      Wire.E_protocol;
      Wire.E_read_only;
      Wire.E_repl;
    ]

let frame_gen =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun version client resume -> Wire.Hello { version; client; resume })
          (int_bound 255) str_gen
          (opt (int_bound 10000));
        map3
          (fun version server session ->
            Wire.Welcome { version; server; session })
          (int_bound 255) str_gen (int_bound 100000);
        map3
          (fun seq rid sql -> Wire.Exec { seq; rid; sql })
          (int_bound 100000) (int_bound 0xffffffff) str_gen;
        map (fun seq -> Wire.Metrics_req { seq }) (int_bound 100000);
        map3
          (fun seq header rows -> Wire.Rows { seq; header; rows })
          (int_bound 100000)
          (list_size (int_bound 5) str_gen)
          (list_size (int_bound 5) row_gen);
        map2 (fun seq n -> Wire.Affected { seq; n }) (int_bound 100000)
          small_nat;
        map2 (fun seq text -> Wire.Msg { seq; text }) (int_bound 100000)
          str_gen;
        map3
          (fun seq (code, text) txn_open ->
            Wire.Err { seq; code; text; txn_open })
          (int_bound 100000)
          (pair error_code_gen str_gen)
          bool;
        map (fun retry_ticks -> Wire.Busy { retry_ticks }) small_nat;
        map2
          (fun from replica -> Wire.ReplSubscribe { from; replica })
          (int_bound 100000) str_gen;
        map3
          (fun first n payload ->
            Wire.ReplRecords
              {
                first;
                upto = first + n;
                flushed = first + n;
                payload;
              })
          (int_bound 100000) (int_bound 100) str_gen;
        map (fun upto -> Wire.ReplAck { upto }) (int_bound 100000);
        map (fun seq -> Wire.Promote { seq }) (int_bound 100000);
        map2
          (fun seq name -> Wire.DropSlot { seq; name })
          (int_bound 100000) str_gen;
        map3
          (fun seq rid gtxn -> Wire.Prepare { seq; rid; gtxn })
          (int_bound 100000) (int_bound 100000) str_gen;
        map3
          (fun seq gtxn read_only -> Wire.Prepared { seq; gtxn; read_only })
          (int_bound 100000) str_gen bool;
        map3
          (fun (seq, rid) gtxn committed -> Wire.Decide { seq; rid; gtxn; committed })
          (pair (int_bound 100000) (int_bound 100000))
          str_gen bool;
        map3
          (fun seq gtxn committed -> Wire.Decided { seq; gtxn; committed })
          (int_bound 100000) str_gen bool;
        return Wire.Bye;
      ])

let frame_arb =
  QCheck.make ~print:Wire.frame_name frame_gen

(* --- deterministic round-trips ------------------------------------------- *)

let sample_frames =
  [
    Wire.Hello { version = Wire.version; client = "repl"; resume = None };
    Wire.Hello { version = Wire.version; client = ""; resume = Some 7 };
    Wire.Welcome { version = Wire.version; server = "ivdb"; session = 1 };
    Wire.Exec { seq = 3; rid = 65539; sql = "SELECT * FROM t WHERE s = 'a''b\x00c'" };
    Wire.Metrics_req { seq = 12 };
    Wire.Rows
      {
        seq = 4;
        header = [ "product"; "count"; "sum" ];
        rows =
          [
            [| Value.Int 1; Value.Int 2; Value.Float 3.5 |];
            [| Value.Null; Value.Str "x\xffy"; Value.Bool true |];
          ];
      };
    Wire.Rows { seq = 5; header = []; rows = [] };
    Wire.Affected { seq = 6; n = 0 };
    Wire.Msg { seq = 7; text = "ok" };
    Wire.Err
      { seq = 8; code = Wire.E_deadlock; text = "victim"; txn_open = false };
    Wire.Err { seq = 9; code = Wire.E_sql; text = ""; txn_open = true };
    Wire.Busy { retry_ticks = 100 };
    Wire.ReplSubscribe { from = 1; replica = "follower-1" };
    Wire.ReplRecords
      {
        first = 42;
        upto = 44;
        flushed = 99;
        payload = "\x00\x01framed\xff";
      };
    Wire.ReplAck { upto = 44 };
    Wire.Promote { seq = 10 };
    Wire.DropSlot { seq = 11; name = "follower-1" };
    Wire.Prepare { seq = 13; rid = 2; gtxn = "coord:7" };
    Wire.Prepare { seq = 14; rid = 0; gtxn = "" };
    Wire.Prepared { seq = 15; gtxn = "coord:7"; read_only = false };
    Wire.Prepared { seq = 15; gtxn = "coord:8"; read_only = true };
    Wire.Decide { seq = 16; rid = 2; gtxn = "coord:7"; committed = true };
    Wire.Decide { seq = 17; rid = 0; gtxn = "c:1"; committed = false };
    Wire.Decided { seq = 18; gtxn = "coord:7"; committed = true };
    Wire.Err { seq = 1; code = Wire.E_read_only; text = "replica"; txn_open = false };
    Wire.Err { seq = 2; code = Wire.E_repl; text = "truncated"; txn_open = false };
    Wire.Bye;
  ]

let test_samples_roundtrip () =
  List.iter
    (fun f ->
      match Wire.decode_framed (Wire.to_framed f) ~pos:0 with
      | Wire.Frame (f', next) ->
          check frame_testable ("framed " ^ Wire.frame_name f) f f';
          check Alcotest.int "next = length" (String.length (Wire.to_framed f))
            next
      | Wire.Partial | Wire.Corrupt _ ->
          Alcotest.failf "framed %s did not decode" (Wire.frame_name f))
    sample_frames

let test_trailing_bytes_rejected () =
  (* a Bye payload plus one byte, in an envelope whose length and
     checksum cover both *)
  let framed = Wire.to_framed Wire.Bye in
  let payload = String.sub framed 8 (String.length framed - 8) ^ "x" in
  let u32 v = String.init 4 (fun i -> Char.chr ((v lsr (8 * (3 - i))) land 0xff)) in
  let sum = Ivdb_util.Bytes_util.fnv1a32_string payload 0 (String.length payload) in
  match Wire.decode_framed (u32 (String.length payload) ^ u32 sum ^ payload) ~pos:0 with
  | Wire.Corrupt m -> check Alcotest.string "trailing byte" "Wire.decode: malformed frame" m
  | Wire.Frame _ | Wire.Partial -> Alcotest.fail "a trailing byte was accepted"

let prop_roundtrip =
  QCheck.Test.make ~name:"wire frame encode/decode roundtrip" ~count:1000
    frame_arb (fun f -> frame_eq f (roundtrip f))

let prop_framed_roundtrip =
  QCheck.Test.make ~name:"wire framed roundtrip at offset" ~count:500 frame_arb
    (fun f ->
      let framed = Wire.to_framed f in
      (* decode from a non-zero offset inside a larger buffer *)
      let buf = "junk" ^ framed ^ "tail" in
      match Wire.decode_framed buf ~pos:4 with
      | Wire.Frame (f', next) -> frame_eq f f' && next = 4 + String.length framed
      | Wire.Partial | Wire.Corrupt _ -> false)

(* --- truncation sweep ----------------------------------------------------- *)

(* Mirror of the WAL torn-tail sweep at byte granularity: concatenate a
   stream of framed frames, cut it at every byte offset, and decode
   sequentially. Exactly the frames that fit entirely before the cut come
   back; the cut point itself never yields a frame, garbage, or an
   exception. *)
let test_truncation_sweep () =
  let frames = sample_frames in
  let stream = String.concat "" (List.map Wire.to_framed frames) in
  let bounds =
    List.rev
      (snd
         (List.fold_left
            (fun (off, acc) f ->
              let e = off + String.length (Wire.to_framed f) in
              (e, e :: acc))
            (0, []) frames))
  in
  for cut = 0 to String.length stream do
    let prefix = String.sub stream 0 cut in
    let rec drain pos acc =
      match Wire.decode_framed prefix ~pos with
      | Wire.Frame (f, next) -> drain next (f :: acc)
      | Wire.Partial -> (List.rev acc, `Partial)
      | Wire.Corrupt m -> (List.rev acc, `Corrupt m)
    in
    let got, stop = drain 0 [] in
    (match stop with
    | `Partial -> ()
    | `Corrupt m -> Alcotest.failf "cut %d: corrupt (%s)" cut m);
    let expected =
      List.filteri (fun i _ -> List.nth bounds i <= cut) frames
    in
    check
      Alcotest.(list frame_testable)
      (Printf.sprintf "frames intact at cut %d" cut)
      expected got
  done

(* --- corruption ----------------------------------------------------------- *)

let test_checksum_detects_flip () =
  let framed = Wire.to_framed (Wire.Exec { seq = 1; rid = 65537; sql = "SELECT 1" }) in
  (* flip one bit in every payload byte position in turn *)
  for i = 8 to String.length framed - 1 do
    let b = Bytes.of_string framed in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
    match Wire.decode_framed (Bytes.to_string b) ~pos:0 with
    | Wire.Corrupt _ -> ()
    | Wire.Frame _ -> Alcotest.failf "flip at %d decoded" i
    | Wire.Partial -> Alcotest.failf "flip at %d read as partial" i
  done

let test_absurd_length_is_corrupt () =
  let b = Buffer.create 8 in
  (* length prefix far beyond max_frame_bytes, then a plausible-looking
     header: must be corruption, not an allocation attempt *)
  Buffer.add_string b "\xff\xff\xff\xff";
  Buffer.add_string b "\x00\x00\x00\x00";
  match Wire.decode_framed (Buffer.contents b) ~pos:0 with
  | Wire.Corrupt _ -> ()
  | Wire.Frame _ | Wire.Partial ->
      Alcotest.fail "oversized length accepted"

let test_empty_and_tiny_are_partial () =
  for n = 0 to 7 do
    match Wire.decode_framed (String.make n '\x00') ~pos:0 with
    | Wire.Partial -> ()
    | Wire.Frame _ -> Alcotest.failf "tiny buffer %d decoded" n
    | Wire.Corrupt _ -> Alcotest.failf "tiny buffer %d corrupt" n
  done

let () =
  Alcotest.run "wire"
    [
      ( "codec",
        [
          Alcotest.test_case "sample roundtrips" `Quick test_samples_roundtrip;
          Alcotest.test_case "trailing bytes rejected" `Quick
            test_trailing_bytes_rejected;
          qtest prop_roundtrip;
          qtest prop_framed_roundtrip;
        ] );
      ( "framing",
        [
          Alcotest.test_case "truncation sweep" `Quick test_truncation_sweep;
          Alcotest.test_case "checksum detects bit flips" `Quick
            test_checksum_detects_flip;
          Alcotest.test_case "absurd length is corrupt" `Quick
            test_absurd_length_is_corrupt;
          Alcotest.test_case "tiny buffers are partial" `Quick
            test_empty_and_tiny_are_partial;
        ] );
    ]
