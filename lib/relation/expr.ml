type cmp = Eq | Ne | Lt | Le | Gt | Ge

type t =
  | Col of int
  | Const of Value.t
  | Add of t * t
  | Sub of t * t
  | Mul of t * t
  | Div of t * t
  | Neg of t
  | Cmp of cmp * t * t
  | And of t * t
  | Or of t * t
  | Not of t
  | Is_null of t

let col schema name = Col (Schema.index_of schema name)
let int i = Const (Value.Int i)
let bool b = Const (Value.Bool b)

let arith name fi ff a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | Value.Int x, Value.Int y -> Value.Int (fi x y)
  | Value.Float x, Value.Float y -> Value.Float (ff x y)
  | Value.Int x, Value.Float y -> Value.Float (ff (float_of_int x) y)
  | Value.Float x, Value.Int y -> Value.Float (ff x (float_of_int y))
  | _ -> raise (Value.Type_error ("non-numeric operand to " ^ name))

let rec eval e row =
  match e with
  | Col i -> row.(i)
  | Const v -> v
  | Add (a, b) -> arith "+" ( + ) ( +. ) (eval a row) (eval b row)
  | Sub (a, b) -> arith "-" ( - ) ( -. ) (eval a row) (eval b row)
  | Mul (a, b) -> arith "*" ( * ) ( *. ) (eval a row) (eval b row)
  | Div (a, b) -> Value.div (eval a row) (eval b row)
  | Neg a -> Value.neg (eval a row)
  | Cmp (op, a, b) -> (
      match (eval a row, eval b row) with
      | Value.Null, _ | _, Value.Null -> Value.Null
      | va, vb ->
          let c = Value.compare va vb in
          let r =
            match op with
            | Eq -> c = 0
            | Ne -> c <> 0
            | Lt -> c < 0
            | Le -> c <= 0
            | Gt -> c > 0
            | Ge -> c >= 0
          in
          Value.Bool r)
  | And (a, b) -> (
      match (eval a row, eval b row) with
      | Value.Bool false, _ | _, Value.Bool false -> Value.Bool false
      | Value.Bool true, Value.Bool true -> Value.Bool true
      | (Value.Bool _ | Value.Null), (Value.Bool _ | Value.Null) -> Value.Null
      | _ -> raise (Value.Type_error "non-boolean operand to AND"))
  | Or (a, b) -> (
      match (eval a row, eval b row) with
      | Value.Bool true, _ | _, Value.Bool true -> Value.Bool true
      | Value.Bool false, Value.Bool false -> Value.Bool false
      | (Value.Bool _ | Value.Null), (Value.Bool _ | Value.Null) -> Value.Null
      | _ -> raise (Value.Type_error "non-boolean operand to OR"))
  | Not a -> (
      match eval a row with
      | Value.Bool b -> Value.Bool (not b)
      | Value.Null -> Value.Null
      | _ -> raise (Value.Type_error "non-boolean operand to NOT"))
  | Is_null a -> Value.Bool (eval a row = Value.Null)

let eval_bool e row = match eval e row with Value.Bool b -> b | _ -> false
