type t = Value.t array

(* Cell encoding: tag byte, then
   '1' '2' '4' '8' : a 1-, 2-, 4- or 8-byte big-endian two's-complement
         int. The encoder always takes the narrowest width that holds the
         value and the decoder rejects a wider one, so equal rows encode
         to equal bytes (the hash join keys on them). A width tag, unlike
         a varint, leaves a cell's offset fixed while its width holds.
   'f' : 8-byte IEEE754 bits
   's' : u16 length + bytes
   'b' : 1 byte, 0 or 1
   'n' : nothing *)

let fits bits x = x >= -(1 lsl (bits - 1)) && x < 1 lsl (bits - 1)
let int_width x = if fits 8 x then 1 else if fits 16 x then 2 else if fits 32 x then 4 else 8

let encode row =
  let buf = Buffer.create 32 in
  Buffer.add_uint16_be buf (Array.length row);
  Array.iter
    (fun v ->
      match v with
      | Value.Int x -> (
          let w = int_width x in
          Buffer.add_char buf (Char.chr (Char.code '0' + w));
          match w with
          | 1 -> Buffer.add_int8 buf x
          | 2 -> Buffer.add_int16_be buf x
          | 4 -> Buffer.add_int32_be buf (Int32.of_int x)
          | _ -> Buffer.add_int64_be buf (Int64.of_int x))
      | Value.Float x ->
          Buffer.add_char buf 'f';
          Buffer.add_int64_be buf (Int64.bits_of_float x)
      | Value.Str s ->
          Buffer.add_char buf 's';
          Buffer.add_uint16_be buf (String.length s);
          Buffer.add_string buf s
      | Value.Bool b ->
          Buffer.add_char buf 'b';
          Buffer.add_char buf (if b then '\001' else '\000')
      | Value.Null -> Buffer.add_char buf 'n')
    row;
  Buffer.contents buf

let decode s =
  let fail () = invalid_arg "Row.decode: malformed row" in
  let len = String.length s in
  if len < 2 then fail ();
  let n = (Char.code s.[0] lsl 8) lor Char.code s.[1] in
  let pos = ref 2 in
  let need k = if !pos + k > len then fail () in
  let row =
    Array.init n (fun _ ->
        need 1;
        let tag = s.[!pos] in
        incr pos;
        match tag with
        | ('1' | '2' | '4' | '8') as c ->
            let w = Char.code c - Char.code '0' in
            need w;
            let v =
              match w with
              | 1 -> String.get_int8 s !pos
              | 2 -> String.get_int16_be s !pos
              | 4 -> Int32.to_int (String.get_int32_be s !pos)
              | _ ->
                  let v = String.get_int64_be s !pos in
                  if Int64.of_int (Int64.to_int v) <> v then fail ();
                  Int64.to_int v
            in
            if int_width v <> w then fail ();
            pos := !pos + w;
            Value.Int v
        | 'f' ->
            need 8;
            let v = Int64.float_of_bits (String.get_int64_be s !pos) in
            pos := !pos + 8;
            Value.Float v
        | 's' ->
            need 2;
            let l = (Char.code s.[!pos] lsl 8) lor Char.code s.[!pos + 1] in
            pos := !pos + 2;
            need l;
            let v = String.sub s !pos l in
            pos := !pos + l;
            Value.Str v
        | 'b' ->
            need 1;
            let v = match s.[!pos] with '\000' -> false | '\001' -> true | _ -> fail () in
            incr pos;
            Value.Bool v
        | 'n' -> Value.Null
        | _ -> fail ())
  in
  if !pos <> len then fail ();
  row

let project row positions = Array.map (fun i -> row.(i)) positions

let compare a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then Stdlib.compare (Array.length a) (Array.length b)
    else
      let c = Value.compare a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal a b = Array.length a = Array.length b && compare a b = 0
