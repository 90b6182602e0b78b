module Value = Ivdb_relation.Value

type entry = { e_txn : int; e_vid : int; e_key : string; e_delta : Aggregate.delta }

type t = {
  by_txn : (int, entry list ref) Hashtbl.t;
  by_key : (int * string, entry list ref) Hashtbl.t;
}

let create () = { by_txn = Hashtbl.create 32; by_key = Hashtbl.create 64 }

let push tbl k e =
  match Hashtbl.find_opt tbl k with
  | Some l -> l := e :: !l
  | None -> Hashtbl.replace tbl k (ref [ e ])

let record t ~txn ~vid ~key delta =
  let e = { e_txn = txn; e_vid = vid; e_key = key; e_delta = delta } in
  push t.by_txn txn e;
  push t.by_key (vid, key) e

let drop_txn t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> ()
  | Some l ->
      Hashtbl.remove t.by_txn txn;
      List.iter
        (fun e ->
          match Hashtbl.find_opt t.by_key (e.e_vid, e.e_key) with
          | None -> ()
          | Some kl ->
              kl := List.filter (fun e' -> e'.e_txn <> txn) !kl;
              if !kl = [] then Hashtbl.remove t.by_key (e.e_vid, e.e_key))
        !l

let keys_of_txn t ~txn =
  match Hashtbl.find_opt t.by_txn txn with
  | None -> []
  | Some l ->
      List.fold_left
        (fun acc e ->
          if List.mem (e.e_vid, e.e_key) acc then acc
          else (e.e_vid, e.e_key) :: acc)
        [] !l

let pending t ~vid ~key =
  match Hashtbl.find_opt t.by_key (vid, key) with
  | None -> []
  | Some l -> List.map (fun e -> e.e_delta) !l

let vmax a b = if Value.compare a b >= 0 then a else b
let vmin a b = if Value.compare a b <= 0 then a else b

let bounds _def stored pending =
  let lo = Array.copy stored and hi = Array.copy stored in
  List.iter
    (fun (d : Aggregate.delta) ->
      (* cell 0 is the row count: delta d.dcount *)
      let apply_cell i dv =
        let zero = Value.Int 0 in
        (* an aborting transaction subtracts its delta *)
        lo.(i) <- Value.add lo.(i) (Value.neg (vmax dv zero));
        hi.(i) <- Value.add hi.(i) (Value.neg (vmin dv zero))
      in
      apply_cell 0 (Value.Int d.Aggregate.dcount);
      Array.iteri
        (fun j ad ->
          match ad with
          | Aggregate.Add v -> apply_cell (j + 1) v
          | Aggregate.Consider _ | Aggregate.Retire _ ->
              invalid_arg "Inflight.bounds: non-additive delta")
        d.Aggregate.daggs)
    pending;
  (lo, hi)
