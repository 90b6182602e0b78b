(* Binary wire frames for the ivdb client/server boundary.

   Layout mirrors Log_record: a one-byte tag then big-endian fixed-width
   integers and u32-length-framed strings. Rows travel as Row.encode
   payloads, so the wire needs no schema knowledge. The framed stream
   wraps each payload in [u32 length | u32 fnv1a32 checksum | payload];
   decode_framed accepts a frame only when the whole envelope is present
   and the checksum matches, which is what keeps a cut or flipped byte
   from ever surfacing as a phantom frame. *)

module B = Ivdb_util.Bytes_util
module Row = Ivdb_relation.Row
module Log_record = Ivdb_wal.Log_record

let version = 9

(* A length prefix beyond this is corruption, not a real frame: it caps
   the allocation a hostile or damaged stream can request. *)
let max_frame_bytes = 16 * 1024 * 1024

type error_code =
  | E_sql
  | E_parse
  | E_constraint
  | E_deadlock
  | E_draining
  | E_protocol
  | E_read_only
  | E_repl

type frame =
  | Hello of { version : int; client : string; resume : int option }
  | Welcome of { version : int; server : string; session : int }
  | Exec of { seq : int; rid : int; sql : string }
  | Rows of { seq : int; header : string list; rows : Row.t list }
  | Affected of { seq : int; n : int }
  | Msg of { seq : int; text : string }
  | Err of { seq : int; code : error_code; text : string; txn_open : bool }
  | Busy of { retry_ticks : int }
  | Metrics_req of { seq : int }
  | ReplSubscribe of { from : Log_record.lsn; replica : string }
  | ReplRecords of {
      first : Log_record.lsn;
      upto : Log_record.lsn;
      flushed : Log_record.lsn;
      payload : string;
    }
  | ReplAck of { upto : Log_record.lsn }
  | Promote of { seq : int }
  | DropSlot of { seq : int; name : string }
  | Prepare of { seq : int; rid : int; gtxn : string }
  | Prepared of { seq : int; gtxn : string; read_only : bool }
  | Decide of { seq : int; rid : int; gtxn : string; committed : bool }
  | Decided of { seq : int; gtxn : string; committed : bool }
  | Bye

let frame_name = function
  | Hello _ -> "hello"
  | Welcome _ -> "welcome"
  | Exec _ -> "exec"
  | Rows _ -> "rows"
  | Affected _ -> "affected"
  | Msg _ -> "msg"
  | Err _ -> "err"
  | Busy _ -> "busy"
  | Metrics_req _ -> "metrics_req"
  | ReplSubscribe _ -> "repl_subscribe"
  | ReplRecords _ -> "repl_records"
  | ReplAck _ -> "repl_ack"
  | Promote _ -> "promote"
  | DropSlot _ -> "drop_slot"
  | Prepare _ -> "prepare"
  | Prepared _ -> "prepared"
  | Decide _ -> "decide"
  | Decided _ -> "decided"
  | Bye -> "bye"

let error_code_name = function
  | E_sql -> "sql"
  | E_parse -> "parse"
  | E_constraint -> "constraint"
  | E_deadlock -> "deadlock"
  | E_draining -> "draining"
  | E_protocol -> "protocol"
  | E_read_only -> "read_only"
  | E_repl -> "repl"

(* --- payload writer -------------------------------------------------------- *)

let add_u32 buf v =
  let b = Bytes.create 4 in
  B.set_u32 b 0 v;
  Buffer.add_bytes buf b

let add_str buf s =
  add_u32 buf (String.length s);
  Buffer.add_string buf s

let add_str_list buf l =
  add_u32 buf (List.length l);
  List.iter (add_str buf) l

let code_byte = function
  | E_sql -> '\001'
  | E_parse -> '\002'
  | E_constraint -> '\003'
  | E_deadlock -> '\004'
  | E_draining -> '\005'
  | E_protocol -> '\006'
  | E_read_only -> '\007'
  | E_repl -> '\008'

let encode f =
  let buf = Buffer.create 64 in
  (match f with
  | Hello { version; client; resume } ->
      Buffer.add_char buf 'H';
      add_u32 buf version;
      add_str buf client;
      (match resume with
      | None -> Buffer.add_char buf '\000'
      | Some s ->
          Buffer.add_char buf '\001';
          add_u32 buf s)
  | Welcome { version; server; session } ->
      Buffer.add_char buf 'W';
      add_u32 buf version;
      add_str buf server;
      add_u32 buf session
  | Exec { seq; rid; sql } ->
      Buffer.add_char buf 'Q';
      add_u32 buf seq;
      add_u32 buf rid;
      add_str buf sql
  | Rows { seq; header; rows } ->
      Buffer.add_char buf 'R';
      add_u32 buf seq;
      add_str_list buf header;
      add_u32 buf (List.length rows);
      List.iter (fun r -> add_str buf (Row.encode r)) rows
  | Affected { seq; n } ->
      Buffer.add_char buf 'A';
      add_u32 buf seq;
      add_u32 buf n
  | Msg { seq; text } ->
      Buffer.add_char buf 'M';
      add_u32 buf seq;
      add_str buf text
  | Err { seq; code; text; txn_open } ->
      Buffer.add_char buf 'E';
      add_u32 buf seq;
      Buffer.add_char buf (code_byte code);
      add_str buf text;
      Buffer.add_char buf (if txn_open then '\001' else '\000')
  | Busy { retry_ticks } ->
      Buffer.add_char buf 'B';
      add_u32 buf retry_ticks
  | Metrics_req { seq } ->
      Buffer.add_char buf 'X';
      add_u32 buf seq
  | ReplSubscribe { from; replica } ->
      Buffer.add_char buf 'S';
      add_u32 buf from;
      add_str buf replica
  | ReplRecords { first; upto; flushed; payload } ->
      Buffer.add_char buf 'L';
      add_u32 buf first;
      add_u32 buf upto;
      add_u32 buf flushed;
      add_str buf payload
  | ReplAck { upto } ->
      Buffer.add_char buf 'K';
      add_u32 buf upto
  | Promote { seq } ->
      Buffer.add_char buf 'P';
      add_u32 buf seq
  | DropSlot { seq; name } ->
      Buffer.add_char buf 'D';
      add_u32 buf seq;
      add_str buf name
  | Prepare { seq; rid; gtxn } ->
      Buffer.add_char buf '1';
      add_u32 buf seq;
      add_u32 buf rid;
      add_str buf gtxn
  | Prepared { seq; gtxn; read_only } ->
      Buffer.add_char buf '2';
      add_u32 buf seq;
      add_str buf gtxn;
      Buffer.add_char buf (if read_only then '\001' else '\000')
  | Decide { seq; rid; gtxn; committed } ->
      Buffer.add_char buf '3';
      add_u32 buf seq;
      add_u32 buf rid;
      add_str buf gtxn;
      Buffer.add_char buf (if committed then '\001' else '\000')
  | Decided { seq; gtxn; committed } ->
      Buffer.add_char buf '4';
      add_u32 buf seq;
      add_str buf gtxn;
      Buffer.add_char buf (if committed then '\001' else '\000')
  | Bye -> Buffer.add_char buf 'Z');
  Buffer.contents buf

(* --- payload reader -------------------------------------------------------- *)

type reader = { src : string; mutable pos : int }

let fail () = invalid_arg "Wire.decode: malformed frame"

let rd_u8 r =
  if r.pos >= String.length r.src then fail ();
  let c = Char.code r.src.[r.pos] in
  r.pos <- r.pos + 1;
  c

let rd_u32 r =
  if r.pos + 4 > String.length r.src then fail ();
  let v =
    (Char.code r.src.[r.pos] lsl 24)
    lor (Char.code r.src.[r.pos + 1] lsl 16)
    lor (Char.code r.src.[r.pos + 2] lsl 8)
    lor Char.code r.src.[r.pos + 3]
  in
  r.pos <- r.pos + 4;
  v

let rd_str r =
  let len = rd_u32 r in
  if r.pos + len > String.length r.src then fail ();
  let s = String.sub r.src r.pos len in
  r.pos <- r.pos + len;
  s

let rd_str_list r =
  let n = rd_u32 r in
  List.init n (fun _ -> rd_str r)

let rd_code r =
  match rd_u8 r with
  | 1 -> E_sql
  | 2 -> E_parse
  | 3 -> E_constraint
  | 4 -> E_deadlock
  | 5 -> E_draining
  | 6 -> E_protocol
  | 7 -> E_read_only
  | 8 -> E_repl
  | _ -> fail ()

let rd_bool r = match rd_u8 r with 0 -> false | 1 -> true | _ -> fail ()

let decode s =
  let r = { src = s; pos = 0 } in
  let f =
    match Char.chr (rd_u8 r) with
    | 'H' ->
        let version = rd_u32 r in
        let client = rd_str r in
        let resume = if rd_bool r then Some (rd_u32 r) else None in
        Hello { version; client; resume }
    | 'W' ->
        let version = rd_u32 r in
        let server = rd_str r in
        Welcome { version; server; session = rd_u32 r }
    | 'Q' ->
        let seq = rd_u32 r in
        let rid = rd_u32 r in
        Exec { seq; rid; sql = rd_str r }
    | 'R' ->
        let seq = rd_u32 r in
        let header = rd_str_list r in
        let n = rd_u32 r in
        let rows =
          List.init n (fun _ ->
              let s = rd_str r in
              try Row.decode s with _ -> fail ())
        in
        Rows { seq; header; rows }
    | 'A' ->
        let seq = rd_u32 r in
        Affected { seq; n = rd_u32 r }
    | 'M' ->
        let seq = rd_u32 r in
        Msg { seq; text = rd_str r }
    | 'E' ->
        let seq = rd_u32 r in
        let code = rd_code r in
        let text = rd_str r in
        Err { seq; code; text; txn_open = rd_bool r }
    | 'B' -> Busy { retry_ticks = rd_u32 r }
    | 'X' -> Metrics_req { seq = rd_u32 r }
    | 'S' ->
        let from = rd_u32 r in
        ReplSubscribe { from; replica = rd_str r }
    | 'L' ->
        let first = rd_u32 r in
        let upto = rd_u32 r in
        let flushed = rd_u32 r in
        ReplRecords { first; upto; flushed; payload = rd_str r }
    | 'K' -> ReplAck { upto = rd_u32 r }
    | 'P' -> Promote { seq = rd_u32 r }
    | 'D' ->
        let seq = rd_u32 r in
        DropSlot { seq; name = rd_str r }
    | '1' ->
        let seq = rd_u32 r in
        let rid = rd_u32 r in
        Prepare { seq; rid; gtxn = rd_str r }
    | '2' ->
        let seq = rd_u32 r in
        let gtxn = rd_str r in
        Prepared { seq; gtxn; read_only = rd_bool r }
    | '3' ->
        let seq = rd_u32 r in
        let rid = rd_u32 r in
        let gtxn = rd_str r in
        Decide { seq; rid; gtxn; committed = rd_bool r }
    | '4' ->
        let seq = rd_u32 r in
        let gtxn = rd_str r in
        Decided { seq; gtxn; committed = rd_bool r }
    | 'Z' -> Bye
    | _ -> fail ()
  in
  if r.pos <> String.length s then fail ();
  f

(* --- framing --------------------------------------------------------------- *)

let checksum s = B.fnv1a32_string s 0 (String.length s)

let write_framed buf f =
  let payload = encode f in
  add_u32 buf (String.length payload);
  add_u32 buf (checksum payload);
  Buffer.add_string buf payload

let to_framed f =
  let buf = Buffer.create 64 in
  write_framed buf f;
  Buffer.contents buf

type decode_result = Frame of frame * int | Partial | Corrupt of string

let u32_at s pos =
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let decode_framed s ~pos =
  let avail = String.length s - pos in
  if avail < 8 then Partial
  else begin
    let len = u32_at s pos in
    if len > max_frame_bytes then Corrupt "frame length out of range"
    else if avail < 8 + len then Partial
    else begin
      let sum = u32_at s (pos + 4) in
      let payload = String.sub s (pos + 8) len in
      if checksum payload <> sum then Corrupt "frame checksum mismatch"
      else
        match decode payload with
        | f -> Frame (f, pos + 8 + len)
        | exception Invalid_argument m -> Corrupt m
    end
  end
