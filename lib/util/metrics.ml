(* Counters plus integer-valued histograms. Counters are the original
   name -> int map; histograms record a count per observed value (exact,
   not bucketed) and back e.g. the group-commit batch-size distribution.

   Hot paths resolve a typed handle once at subsystem-create time and
   bump it directly, so the steady-state cost is a ref increment instead
   of a hashtable lookup per event. Handles stay valid across [reset]:
   reset zeroes the registered cells in place rather than emptying the
   tables, so a handle can never end up counting into an orphaned cell. *)

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
let value c = !c

let get t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let reset t =
  Hashtbl.iter (fun _ r -> r := 0) t.counters;
  Hashtbl.iter (fun _ h -> Hashtbl.reset h) t.hists

let snapshot t =
  Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.counters []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* Sorted merge over the two snapshots. Counters registered after the
   [before] snapshot was taken (a --net run creates the first server
   counters mid-run) appear only on the [after] side and must still
   report their full value; symmetrically a counter absent from [after]
   (instance swapped out) counts down to zero. Inputs from [snapshot]
   are name-sorted; sort defensively in case a caller hand-builds one. *)
let diff ~before ~after =
  let sorted l = List.sort (fun (a, _) (b, _) -> String.compare a b) l in
  let rec merge acc before after =
    match (before, after) with
    | [], [] -> List.rev acc
    | (n, v) :: rest, [] -> merge ((n, -v) :: acc) rest []
    | [], (n, v) :: rest -> merge ((n, v) :: acc) [] rest
    | (nb, vb) :: rb, (na, va) :: ra -> (
        match String.compare nb na with
        | 0 -> merge ((nb, va - vb) :: acc) rb ra
        | c when c < 0 -> merge ((nb, -vb) :: acc) rb after
        | _ -> merge ((na, va) :: acc) before ra)
  in
  merge [] (sorted before) (sorted after)

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
  let values =
    List.sort_uniq compare (List.map fst before @ List.map fst after)
  in
  let find l v = match List.assoc_opt v l with Some c -> c | None -> 0 in
  List.filter_map
    (fun v ->
      let d = find after v - find before v in
      if d = 0 then None else Some (v, d))
    values

let hist_count t name =
  List.fold_left (fun acc (_, c) -> acc + c) 0 (hist_snapshot t name)

let hist_total t name =
  List.fold_left (fun acc (v, c) -> acc + (v * c)) 0 (hist_snapshot t name)

let hist_mean t name =
  let n = hist_count t name in
  if n = 0 then 0. else float_of_int (hist_total t name) /. float_of_int n

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

(* Prometheus text exposition (version 0.0.4). Exact-value histograms
   render as cumulative buckets: one le="v" bucket per distinct observed
   value plus the mandatory le="+Inf", then _sum and _count. Counter and
   histogram names are sanitized to [a-zA-Z0-9_] and namespaced, so
   "txn.commit" becomes e.g. ivdb_txn_commit. *)
let prom_name ~namespace name =
  let b = Buffer.create (String.length namespace + String.length name + 1) in
  Buffer.add_string b namespace;
  Buffer.add_char b '_';
  String.iter
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let to_prometheus ?(namespace = "ivdb") t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (name, v) ->
      let n = prom_name ~namespace name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n%s %d\n" n n v))
    (snapshot t);
  List.iter
    (fun (name, cells) ->
      let n = prom_name ~namespace name in
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

let pp ppf t =
  List.iter (fun (k, v) -> Format.fprintf ppf "%s=%d@ " k v) (snapshot t);
  List.iter
    (fun (name, cells) ->
      Format.fprintf ppf "%s={" name;
      List.iter (fun (v, c) -> Format.fprintf ppf "%d:%d " v c) cells;
      Format.fprintf ppf "}@ ")
    (hists t)
