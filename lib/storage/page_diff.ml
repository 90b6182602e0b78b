type t = (int * string) list

(* Merge changed runs closer than this gap into one range: fewer, slightly
   larger ranges compress the framing overhead. *)
let merge_gap = 8

(* [Bytes.get_int64_ne] without the bounds check, which costs as much as
   the comparison itself; [scan] reads words and bytes only inside its
   range, which lies inside both images *)
external unsafe_get_word : bytes -> int -> int64 = "%caml_bytes_get64u"

(* One scan over ranges in ascending order. Bytes outside them are equal
   by assumption, so the open run ([start], [last] its latest changed
   byte) carries across range boundaries: the next changed byte joins it
   when it lies at most [merge_gap] bytes past [last], wherever it is.
   Equal 8-byte words are skipped, then the equal bytes before the next
   change; the ranges come out as a byte-at-a-time scan makes them. *)
type scan = {
  before : bytes;
  after : bytes;
  mutable start : int; (* the open run's first byte; -1 before any *)
  mutable last : int;
  mutable closed : t; (* newest first *)
}

let scan_start ~before ~after = { before; after; start = -1; last = -1; closed = [] }

let close s =
  if s.start >= 0 then
    s.closed <-
      (s.start, Bytes.sub_string s.after s.start (s.last - s.start + 1)) :: s.closed

let scan s lo stop =
  (* the pageLSN at 0..7 is stamped after logging, never diffed *)
  let i = ref (if lo < 8 then 8 else lo) in
  while !i < stop do
    while
      !i + 8 <= stop
      && (unsafe_get_word s.before !i : int64) = unsafe_get_word s.after !i
    do
      i := !i + 8
    done;
    while
      !i < stop && Bytes.unsafe_get s.before !i = Bytes.unsafe_get s.after !i
    do
      incr i
    done;
    if !i < stop then begin
      if s.start >= 0 && !i - s.last <= merge_gap then s.last <- !i
      else begin
        close s;
        s.start <- !i;
        s.last <- !i
      end;
      incr i
    end
  done

let scan_finish s =
  close s;
  List.rev s.closed

(* the whole page is the one-range case *)
let compute ~before ~after =
  let n = Bytes.length before in
  if Bytes.length after <> n then invalid_arg "Page_diff.compute: sizes differ";
  let s = scan_start ~before ~after in
  scan s 0 n;
  scan_finish s

let recorded w =
  let s = scan_start ~before:(Page_writer.saved w) ~after:(Page_writer.page w) in
  for i = 0 to Page_writer.range_count w - 1 do
    scan s (Page_writer.range_start w i) (Page_writer.range_stop w i)
  done;
  scan_finish s

let apply w t =
  List.iter
    (fun (off, s) -> Page_writer.blit_string s 0 w off (String.length s))
    t

let is_empty t = t = []

(* Encoding: u16 range count, then per range u16 offset | u16 length |
   bytes. *)
let byte_size t = List.fold_left (fun acc (_, s) -> acc + 4 + String.length s) 2 t

let encode_into t b pos =
  Bytes.set_uint16_be b pos (List.length t);
  List.fold_left
    (fun pos (off, s) ->
      let n = String.length s in
      Bytes.set_uint16_be b pos off;
      Bytes.set_uint16_be b (pos + 2) n;
      Bytes.blit_string s 0 b (pos + 4) n;
      pos + 4 + n)
    (pos + 2) t

(* only shapes a diff can have: non-empty, ascending and disjoint ranges
   inside [8, Page.size) — a range below 8 would overwrite the pageLSN on
   [apply] *)
let well_formed t =
  let rec from floor = function
    | [] -> true
    | (off, s) :: rest ->
        let n = String.length s in
        off >= floor && n > 0 && off + n <= Page.size && from (off + n) rest
  in
  from 8 t

let decode_sub b pos len =
  let fail () = invalid_arg "Page_diff.decode: malformed diff" in
  let stop = pos + len in
  if len < 2 then fail ();
  let n = Bytes.get_uint16_be b pos in
  let pos = ref (pos + 2) in
  let ranges =
    List.init n (fun _ ->
        if !pos + 4 > stop then fail ();
        let off = Bytes.get_uint16_be b !pos in
        let l = Bytes.get_uint16_be b (!pos + 2) in
        if !pos + 4 + l > stop then fail ();
        let bytes = Bytes.sub_string b (!pos + 4) l in
        pos := !pos + 4 + l;
        (off, bytes))
  in
  if !pos <> stop || not (well_formed ranges) then fail ();
  ranges
