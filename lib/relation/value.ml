type ty = TInt | TFloat | TStr | TBool

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null

exception Type_error of string

let type_of = function
  | Int _ -> Some TInt
  | Float _ -> Some TFloat
  | Str _ -> Some TStr
  | Bool _ -> Some TBool
  | Null -> None

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | Int x, Int y -> Stdlib.compare x y
  | Float x, Float y -> Stdlib.compare x y
  | Int x, Float y -> Stdlib.compare (float_of_int x) y
  | Float x, Int y -> Stdlib.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Stdlib.compare x y
  | (Int _ | Float _ | Str _ | Bool _), _ ->
      raise (Type_error "cannot compare values of different types")

let equal a b = compare a b = 0

let add a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | Int x, Int y -> Int (x + y)
  | Float x, Float y -> Float (x +. y)
  | Int x, Float y -> Float (float_of_int x +. y)
  | Float x, Int y -> Float (x +. float_of_int y)
  | _ -> raise (Type_error "non-numeric operand to +")

let neg = function
  | Null -> Null
  | Int x -> Int (-x)
  | Float x -> Float (-.x)
  | _ -> raise (Type_error "non-numeric operand to unary -")

let to_int = function Int x -> x | _ -> invalid_arg "Value.to_int"

let to_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | _ -> raise (Type_error "non-numeric operand")

let div a b =
  match (a, b) with
  | Null, _ | _, Null -> Null
  | _ ->
      let x = to_float a and y = to_float b in
      if y = 0. then Null else Float (x /. y)

let pp ppf = function
  | Int x -> Format.fprintf ppf "%d" x
  | Float x -> Format.fprintf ppf "%g" x
  | Str s -> Format.fprintf ppf "%S" s
  | Bool b -> Format.fprintf ppf "%b" b
  | Null -> Format.fprintf ppf "NULL"

let pp_ty ppf = function
  | TInt -> Format.fprintf ppf "INT"
  | TFloat -> Format.fprintf ppf "FLOAT"
  | TStr -> Format.fprintf ppf "STR"
  | TBool -> Format.fprintf ppf "BOOL"

let to_string v = Format.asprintf "%a" pp v
