type col = { name : string; ty : Value.ty; nullable : bool }
type t = { cols : col array }

let make cols_list =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun c ->
      if Hashtbl.mem seen c.name then
        invalid_arg ("Schema.make: duplicate column " ^ c.name);
      Hashtbl.add seen c.name ())
    cols_list;
  { cols = Array.of_list cols_list }

let cols t = t.cols
let arity t = Array.length t.cols

let index_of t name =
  let n = Array.length t.cols in
  let rec go i =
    if i >= n then raise Not_found
    else if t.cols.(i).name = name then i
    else go (i + 1)
  in
  go 0

let col_at t i = t.cols.(i)

let validate t row =
  if Array.length row <> arity t then
    Error
      (Printf.sprintf "arity mismatch: expected %d, got %d" (arity t)
         (Array.length row))
  else
    let rec go i =
      if i = arity t then Ok ()
      else
        let c = t.cols.(i) in
        match Value.type_of row.(i) with
        | None -> if c.nullable then go (i + 1) else Error (c.name ^ ": NULL not allowed")
        | Some ty ->
            if ty = c.ty then go (i + 1)
            else
              Error
                (Format.asprintf "%s: expected %a, got %a" c.name Value.pp_ty
                   c.ty Value.pp_ty ty)
    in
    go 0

let concat a b =
  let names = Hashtbl.create 8 in
  Array.iter (fun c -> Hashtbl.add names c.name ()) a.cols;
  let rename c =
    if Hashtbl.mem names c.name then { c with name = "r." ^ c.name } else c
  in
  { cols = Array.append a.cols (Array.map rename b.cols) }
