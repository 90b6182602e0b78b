type t = (int * string) list

(* Merge changed runs closer than this gap into one range: fewer, slightly
   larger ranges compress the framing overhead. *)
let merge_gap = 8

(* [Bytes.get_int64_ne] without the bounds check, which costs as much as
   the comparison itself; [compute] reads a word only where [i + 8 <= n]
   and both images are [n] bytes long *)
external unsafe_get_word : bytes -> int -> int64 = "%caml_bytes_get64u"

let compute ~before ~after =
  let n = Bytes.length before in
  if Bytes.length after <> n then invalid_arg "Page_diff.compute: sizes differ";
  let ranges = ref [] in
  let i = ref 8 (* skip the LSN field, compare from the type byte on *) in
  while !i < n do
    (* skip equal 8-byte words, then the few equal bytes before the first
       difference; the ranges come out as a byte-at-a-time scan makes them *)
    while
      !i + 8 <= n
      && (unsafe_get_word before !i : int64) = unsafe_get_word after !i
    do
      i := !i + 8
    done;
    while !i < n && Bytes.get before !i = Bytes.get after !i do
      incr i
    done;
    if !i < n then begin
      let start = !i in
      let last_diff = ref !i in
      incr i;
      let continue = ref true in
      while !continue && !i < n do
        if Bytes.get before !i <> Bytes.get after !i then begin
          last_diff := !i;
          incr i
        end
        else if !i - !last_diff < merge_gap then incr i
        else continue := false
      done;
      let len = !last_diff - start + 1 in
      ranges := (start, Bytes.sub_string after start len) :: !ranges
    end
  done;
  List.rev !ranges

let apply page t =
  List.iter
    (fun (off, s) -> Bytes.blit_string s 0 page off (String.length s))
    t

let is_empty t = t = []
let byte_size t = List.fold_left (fun acc (_, s) -> acc + 6 + String.length s) 0 t

let encode t =
  let buf = Buffer.create 64 in
  Buffer.add_uint16_be buf (List.length t);
  List.iter
    (fun (off, s) ->
      Buffer.add_uint16_be buf off;
      Buffer.add_uint16_be buf (String.length s);
      Buffer.add_string buf s)
    t;
  Buffer.contents buf

let decode s =
  let fail () = invalid_arg "Page_diff.decode: malformed diff" in
  let len = String.length s in
  if len < 2 then fail ();
  let n = (Char.code s.[0] lsl 8) lor Char.code s.[1] in
  let pos = ref 2 in
  (* only shapes [compute] can produce: non-empty, ascending and disjoint
     ranges inside [8, Page.size) — a range below 8 would overwrite the
     pageLSN on [apply] *)
  let floor = ref 8 in
  let ranges =
    List.init n (fun _ ->
        if !pos + 4 > len then fail ();
        let off = (Char.code s.[!pos] lsl 8) lor Char.code s.[!pos + 1] in
        let l = (Char.code s.[!pos + 2] lsl 8) lor Char.code s.[!pos + 3] in
        pos := !pos + 4;
        if off < !floor || l = 0 || off + l > Page.size then fail ();
        floor := off + l;
        if !pos + l > len then fail ();
        let bytes = String.sub s !pos l in
        pos := !pos + l;
        (off, bytes))
  in
  if !pos <> len then fail ();
  ranges
