module Value = Ivdb_relation.Value
module Row = Ivdb_relation.Row
module Expr = Ivdb_relation.Expr

type agg_delta =
  | Add of Value.t
  | Consider of Value.t
  | Retire of Value.t

type delta = { dcount : int; daggs : agg_delta array }

let agg_delta_of def sign row =
  match def with
  | View_def.Count_star -> Add (Value.Int sign)
  | View_def.Count e ->
      Add (if Expr.eval e row = Value.Null then Value.Int 0 else Value.Int sign)
  | View_def.Sum e -> (
      match Expr.eval e row with
      | Value.Null -> Add (Value.Int 0)
      | v -> Add (if sign >= 0 then v else Value.neg v))
  | View_def.Min e | View_def.Max e ->
      let v = Expr.eval e row in
      if sign >= 0 then Consider v else Retire v

let delta_of_row def ~sign row =
  let passes =
    match View_def.where_of def with
    | None -> true
    | Some pred -> Expr.eval_bool pred row
  in
  if not passes then None
  else
    let key = View_def.group_key def row in
    let daggs = Array.map (fun a -> agg_delta_of a sign row) def.View_def.aggs in
    Some (key, { dcount = sign; daggs })

let zero_of_agg = function
  | View_def.Count_star | View_def.Count _ -> Value.Int 0
  | View_def.Sum _ -> Value.Int 0
  | View_def.Min _ | View_def.Max _ -> Value.Null

let zero_row def =
  Array.append [| Value.Int 0 |] (Array.map zero_of_agg def.View_def.aggs)

let min_merge cur v =
  match (cur, v) with
  | Value.Null, v -> v
  | cur, Value.Null -> cur
  | cur, v -> if Value.compare v cur < 0 then v else cur

let max_merge cur v =
  match (cur, v) with
  | Value.Null, v -> v
  | cur, Value.Null -> cur
  | cur, v -> if Value.compare v cur > 0 then v else cur

let apply def stored delta =
  let n = Array.length def.View_def.aggs in
  if Array.length stored <> n + 1 then
    invalid_arg "Aggregate.apply: stored row arity does not match view";
  if Array.length delta.daggs <> n then
    invalid_arg "Aggregate.apply: delta shape does not match view";
  let out = Array.copy stored in
  out.(0) <- Value.Int (Value.to_int stored.(0) + delta.dcount);
  let needs_recompute = ref false in
  Array.iteri
    (fun i agg ->
      let cur = stored.(i + 1) in
      match (agg, delta.daggs.(i)) with
      | (View_def.Count_star | View_def.Count _ | View_def.Sum _), Add d ->
          out.(i + 1) <- Value.add cur d
      | View_def.Min _, Consider v -> out.(i + 1) <- min_merge cur v
      | View_def.Max _, Consider v -> out.(i + 1) <- max_merge cur v
      | (View_def.Min _ | View_def.Max _), Retire v ->
          (* removing a non-extremum is a no-op; removing the extremum (or a
             tie for it) requires recomputation from the base *)
          if v <> Value.Null && Value.compare v cur = 0 then needs_recompute := true
      | _, (Add _ | Consider _ | Retire _) ->
          invalid_arg "Aggregate.apply: delta shape does not match view"
    )
    def.View_def.aggs;
  if !needs_recompute then `Recompute else `Ok out

let is_additive delta =
  Array.for_all (function Add _ -> true | Consider _ | Retire _ -> false) delta.daggs

let negate delta =
  {
    dcount = -delta.dcount;
    daggs =
      Array.map
        (function
          | Add v -> Add (Value.neg v)
          | Consider _ | Retire _ -> invalid_arg "Aggregate.negate: not additive")
        delta.daggs;
  }

let combine a b =
  if not (is_additive a && is_additive b) then None
  else
    Some
      {
        dcount = a.dcount + b.dcount;
        daggs =
          Array.map2
            (fun x y ->
              match (x, y) with
              | Add u, Add v -> Add (Value.add u v)
              | _ -> assert false)
            a.daggs b.daggs;
      }

let encode delta =
  if not (is_additive delta) then invalid_arg "Aggregate.encode: not additive";
  let cells =
    Array.append
      [| Value.Int delta.dcount |]
      (Array.map (function Add v -> v | _ -> assert false) delta.daggs)
  in
  Row.encode cells

let decode s =
  let cells = Row.decode s in
  if Array.length cells < 1 then invalid_arg "Aggregate.decode: empty delta";
  {
    dcount = Value.to_int cells.(0);
    daggs = Array.map (fun v -> Add v) (Array.sub cells 1 (Array.length cells - 1));
  }

let fold_rows def rows =
  Seq.fold_left
    (fun acc row ->
      match delta_of_row def ~sign:1 row with
      | None -> acc
      | Some (_, delta) -> (
          match apply def acc delta with
          | `Ok acc' -> acc'
          | `Recompute -> assert false (* inserts never retire *)))
    (zero_row def) rows

let count_of stored = Value.to_int stored.(0)

let fold_groups def rows =
  let groups = Hashtbl.create 64 in
  Seq.iter
    (fun row ->
      match delta_of_row def ~sign:1 row with
      | None -> ()
      | Some (key, delta) -> (
          let cur =
            match Hashtbl.find_opt groups key with
            | Some r -> r
            | None -> zero_row def
          in
          match apply def cur delta with
          | `Ok r -> Hashtbl.replace groups key r
          | `Recompute -> assert false (* inserts never retire *)))
    rows;
  groups
