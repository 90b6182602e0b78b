(* Growable sample buffers and the order statistics every metric uses. *)

type t = { mutable data : float array; mutable len : int }

let create () = { data = Array.make 1024 0.; len = 0 }
let length t = t.len

let add t v =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * t.len) 0. in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let add_int t v = add t (float_of_int v)

let of_list l =
  let t = create () in
  List.iter (add t) l;
  t

let to_array t = Array.sub t.data 0 t.len

let concat ts =
  let t = create () in
  List.iter (fun s -> Array.iter (add t) (to_array s)) ts;
  t

let sum t = Array.fold_left ( +. ) 0. (to_array t)
let mean t = if t.len = 0 then 0. else sum t /. float_of_int t.len

let sorted t =
  let a = to_array t in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks (Hyndman-Fan type 7). *)
let quantile t q =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let h = q *. float_of_int (n - 1) in
    let lo = truncate h in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((h -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median t = quantile t 0.5

(* The quantile of integer samples (ticks), each value [v] spread evenly
   over [v - 0.5, v + 0.5]. Many samples share a value, so a rank-based
   quantile sits on one integer for every seed and does not move when
   the share of samples at that value shifts; this one does. *)
let tick_quantile t q =
  let a = sorted t in
  let n = Array.length a in
  if n = 0 then 0.
  else
    let below = q *. float_of_int n in
    let i = min (n - 1) (truncate below) in
    let v = a.(i) in
    let lo = ref i and hi = ref i in
    while !lo > 0 && a.(!lo - 1) = v do decr lo done;
    while !hi < n && a.(!hi) = v do incr hi done;
    v -. 0.5 +. ((below -. float_of_int !lo) /. float_of_int (!hi - !lo))

(* Samples strictly beyond the [q] quantile: a percentile is only
   reported when at least ten samples lie past it. *)
let beyond t q = truncate (float_of_int t.len *. (1. -. q))
