(* Counters plus integer-valued histograms. Counters are the original
   name -> int map; histograms record a count per observed value (exact,
   not bucketed) and back e.g. the group-commit batch-size distribution.

   Hot paths resolve a typed handle once at subsystem-create time and
   bump it directly, so the steady-state cost is a ref increment instead
   of a hashtable lookup per event. *)

type counter = int ref
type hist = (int, int ref) Hashtbl.t

type t = {
  counters : (string, counter) Hashtbl.t;
  hists : (string, hist) Hashtbl.t;
}

let create () = { counters = Hashtbl.create 64; hists = Hashtbl.create 8 }

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r
  | None ->
      let r = ref 0 in
      Hashtbl.add t.counters name r;
      r

let inc c = Stdlib.incr c
let inc_by c n = c := !c + n

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let snapshot t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Sorted merge of two key-sorted association lists into per-key
   [sub after before], a key missing on one side standing at [zero]. *)
let merge_by cmp ~zero sub before after =
  let rec go acc before after =
    match (before, after) with
    | [], [] -> List.rev acc
    | (k, b) :: rest, [] -> go ((k, sub zero b) :: acc) rest []
    | [], (k, a) :: rest -> go ((k, sub a zero) :: acc) [] rest
    | (kb, b) :: rb, (ka, a) :: ra ->
        let c = cmp kb ka in
        if c = 0 then go ((kb, sub a b) :: acc) rb ra
        else if c < 0 then go ((kb, sub zero b) :: acc) rb after
        else go ((ka, sub a zero) :: acc) before ra
  in
  go [] before after

let by_key cmp l = List.sort (fun (a, _) (b, _) -> cmp a b) l

(* Counters registered after the [before] snapshot was taken (a --net run
   creates the first server counters mid-run) appear only on the [after]
   side and must still report their full value; symmetrically a counter
   absent from [after] (instance swapped out) counts down to zero. Inputs
   from [snapshot] are name-sorted; sort defensively in case a caller
   hand-builds one. *)
let diff ~before ~after =
  merge_by String.compare ~zero:0 ( - )
    (by_key String.compare before)
    (by_key String.compare after)

(* --- histograms ---------------------------------------------------------- *)

let hist t name =
  match Hashtbl.find_opt t.hists name with
  | Some h -> h
  | None ->
      let h = Hashtbl.create 16 in
      Hashtbl.add t.hists name h;
      h

let record h v =
  match Hashtbl.find_opt h v with
  | Some r -> Stdlib.incr r
  | None -> Hashtbl.add h v (ref 1)

let sorted_cells h =
  Hashtbl.fold (fun v r acc -> (v, !r) :: acc) h []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let hist_snapshot t name =
  match Hashtbl.find_opt t.hists name with None -> [] | Some h -> sorted_cells h

let hists t =
  Hashtbl.fold (fun name h acc -> (name, sorted_cells h) :: acc) t.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let hist_diff ~before ~after =
  merge_by Int.compare ~zero:0 ( - ) (by_key Int.compare before)
    (by_key Int.compare after)
  |> List.filter (fun (_, d) -> d <> 0)

let cells_mean cells =
  let n, total =
    List.fold_left (fun (n, total) (v, c) -> (n + c, total + (v * c))) (0, 0) cells
  in
  if n = 0 then 0. else float_of_int total /. float_of_int n

let percentile_cells cells p =
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 cells in
  if total = 0 then 0
  else
    let rank =
      let r = int_of_float (ceil (p /. 100. *. float_of_int total)) in
      max 1 (min total r)
    in
    let rec go seen = function
      | [] -> 0
      | (v, c) :: rest -> if seen + c >= rank then v else go (seen + c) rest
    in
    go 0 (List.sort (fun (a, _) (b, _) -> compare a b) cells)

(* --- windows ------------------------------------------------------------- *)

type window = {
  counters : (string * int) list;
  hists : (string * (int * int) list) list;
}

let capture t = { counters = snapshot t; hists = hists t }

let window_diff ~before ~after =
  {
    counters = diff ~before:before.counters ~after:after.counters;
    hists =
      merge_by String.compare ~zero:[]
        (fun a b -> hist_diff ~before:b ~after:a)
        before.hists after.hists;
  }

let window_get w name =
  match List.assoc_opt name w.counters with Some v -> v | None -> 0

let window_cells w name =
  match List.assoc_opt name w.hists with Some cells -> cells | None -> []

(* Prometheus text exposition (version 0.0.4). Exact-value histograms
   render as cumulative buckets: one le="v" bucket per distinct observed
   value plus the mandatory le="+Inf", then _sum and _count. Counter and
   histogram names are sanitized to [a-zA-Z0-9_] and prefixed, so
   "txn.commit" becomes ivdb_txn_commit. *)
let prom_name name =
  let b = Buffer.create (String.length name + 5) in
  Buffer.add_string b "ivdb_";
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let to_prometheus t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = prom_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (snapshot t);
  List.iter
    (fun (name, cells) ->
      let n = prom_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      let sum = ref 0 in
      List.iter
        (fun (v, c) ->
          cum := !cum + c;
          sum := !sum + (v * c);
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%d\"} %d\n" n v !cum))
        cells;
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" n !cum);
      Buffer.add_string b (Printf.sprintf "%s_sum %d\n" n !sum);
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n !cum))
    (hists t);
  Buffer.contents b
