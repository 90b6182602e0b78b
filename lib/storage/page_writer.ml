module B = Ivdb_util.Bytes_util

type t = {
  mutable page : bytes;
  saved : bytes; (* before-values, meaningful inside the ranges only *)
  scratch : bytes;
  (* the touched ranges [starts.(i), stops.(i)): ascending, disjoint and
     not abutting (a write next to a range extends it) *)
  mutable starts : int array;
  mutable stops : int array;
  mutable n : int;
}

let on page =
  {
    page;
    saved = Bytes.create (Bytes.length page);
    scratch = Bytes.create (Bytes.length page);
    starts = Array.make 8 0;
    stops = Array.make 8 0;
    n = 0;
  }

let reset w page =
  if Bytes.length page <> Bytes.length w.saved then
    invalid_arg "Page_writer.reset: page size differs";
  w.page <- page;
  w.n <- 0

let page w = w.page
let saved w = w.saved
let scratch w = w.scratch

let range_count w = w.n
let range_start w i = w.starts.(i)
let range_stop w i = w.stops.(i)

let restore w =
  for i = 0 to w.n - 1 do
    Bytes.blit w.saved w.starts.(i) w.page w.starts.(i) (w.stops.(i) - w.starts.(i))
  done

(* Record [off, off + len) before it is written: save the before-value of
   each byte no range covers yet, then merge the ranges it overlaps or
   abuts into one. Mutators write near their last write (a cell and its
   slot, the next slot, the next cell down), so the ranges involved are
   found scanning back from the last. *)
let touch w off len =
  if len > 0 then begin
    let stop = off + len in
    (* ranges lo..hi-1 overlap or abut the write *)
    let hi = ref w.n in
    while !hi > 0 && w.starts.(!hi - 1) > stop do
      decr hi
    done;
    let lo = ref !hi in
    while !lo > 0 && w.stops.(!lo - 1) >= off do
      decr lo
    done;
    let lo = !lo and hi = !hi in
    let cur = ref off in
    for i = lo to hi - 1 do
      if w.starts.(i) > !cur then
        Bytes.blit w.page !cur w.saved !cur (w.starts.(i) - !cur);
      if w.stops.(i) > !cur then cur := w.stops.(i)
    done;
    if !cur < stop then Bytes.blit w.page !cur w.saved !cur (stop - !cur);
    if lo = hi then begin
      if w.n = Array.length w.starts then begin
        let grow a =
          let b = Array.make (2 * w.n) 0 in
          Array.blit a 0 b 0 w.n;
          b
        in
        w.starts <- grow w.starts;
        w.stops <- grow w.stops
      end;
      if lo < w.n then begin
        Array.blit w.starts lo w.starts (lo + 1) (w.n - lo);
        Array.blit w.stops lo w.stops (lo + 1) (w.n - lo)
      end;
      w.starts.(lo) <- off;
      w.stops.(lo) <- stop;
      w.n <- w.n + 1
    end
    else begin
      if off < w.starts.(lo) then w.starts.(lo) <- off;
      if stop > w.stops.(hi - 1) then w.stops.(lo) <- stop
      else w.stops.(lo) <- w.stops.(hi - 1);
      let gone = hi - lo - 1 in
      if gone > 0 then begin
        Array.blit w.starts hi w.starts (lo + 1) (w.n - hi);
        Array.blit w.stops hi w.stops (lo + 1) (w.n - hi);
        w.n <- w.n - gone
      end
    end
  end

let set_u8 w off v =
  touch w off 1;
  Bytes.set_uint8 w.page off v

let set_u16 w off v =
  touch w off 2;
  B.set_u16 w.page off v

let set_u32 w off v =
  touch w off 4;
  B.set_u32 w.page off v

let blit_string src src_off w off len =
  touch w off len;
  Bytes.blit_string src src_off w.page off len

let blit_bytes src src_off w off len =
  touch w off len;
  Bytes.blit src src_off w.page off len

let blit w src_off off len =
  touch w off len;
  Bytes.blit w.page src_off w.page off len
