type token =
  | Kw of string
  | Ident of string
  | Int of int
  | Float of float
  | String of string
  | Sym of string
  | Eof

exception Lex_error of string

let keywords =
  [
    "CREATE"; "TABLE"; "INDEX"; "VIEW"; "ON"; "AS"; "SELECT"; "FROM"; "WHERE";
    "GROUP"; "BY"; "ORDER"; "LIMIT"; "DESC"; "ASC"; "JOIN"; "INSERT"; "INTO";
    "VALUES"; "DELETE"; "UPDATE"; "SET"; "AND"; "OR"; "NOT"; "NULL"; "IS";
    "TRUE"; "FALSE"; "COUNT"; "SUM"; "MIN"; "MAX"; "INT"; "FLOAT"; "TEXT";
    "BOOL"; "USING"; "ESCROW"; "EXCLUSIVE"; "DEFERRED"; "REFRESH"; "THRESHOLD";
    "BEGIN"; "COMMIT"; "ROLLBACK"; "CHECKPOINT"; "SHOW"; "TABLES"; "VIEWS";
    "METRICS"; "EXPLAIN"; "ANALYZE"; "AVG"; "HAVING"; "SAVEPOINT"; "TO";
    "UNIQUE"; "READ"; "ONLY";
  ]

(* The keywords as an open-addressed set, probed case-insensitively with a
   word still in the source text: a keyword token reuses the set's string,
   so it costs no copy, and an identifier costs only its lower-cased copy.
   "" marks a free slot. *)
let slots = 256

let kw_table = Array.make slots ""

let hash src start len =
  let h = ref len in
  for i = start to start + len - 1 do
    h := (!h * 31) + Char.code (Char.uppercase_ascii (String.unsafe_get src i))
  done;
  !h land (slots - 1)

let () =
  List.iter
    (fun k ->
      let rec put i =
        if kw_table.(i) = "" then kw_table.(i) <- k else put ((i + 1) land (slots - 1))
      in
      put (hash k 0 (String.length k)))
    keywords

(* Whether [src.[start+i .. start+len-1]], upper-cased, is [k]'s tail. *)
let rec matches_from k src start len i =
  i = len
  || (Char.uppercase_ascii (String.unsafe_get src (start + i)) = String.unsafe_get k i
     && matches_from k src start len (i + 1))

(* The keyword spelled by [src.[start .. start+len-1]] in any case, or "". *)
let keyword src start len =
  let rec probe i =
    let k = kw_table.(i) in
    if String.length k = 0 || (String.length k = len && matches_from k src start len 0)
    then k
    else probe ((i + 1) land (slots - 1))
  in
  probe (hash src start len)

let lowercase_sub src start len =
  let b = Bytes.create len in
  for i = 0 to len - 1 do
    Bytes.unsafe_set b i (Char.lowercase_ascii (String.unsafe_get src (start + i)))
  done;
  Bytes.unsafe_to_string b

(* The value of [src.[start .. stop-1]] if it is all digits and at most
   max_int, else -1. *)
let int_of_digits src start stop =
  let rec go acc i =
    if i = stop then acc
    else
      let d = Char.code (String.unsafe_get src i) - Char.code '0' in
      if d < 0 || d > 9 || acc > (max_int - d) / 10 then -1
      else go ((acc * 10) + d) (i + 1)
  in
  go 0 start

(* A run of digits and dots that is not an int: a float if it has one dot. *)
let number_token num =
  match String.index_opt num '.' with
  | Some d when not (String.contains_from num (d + 1) '.') -> Float (float_of_string num)
  | _ -> raise (Lex_error (Printf.sprintf "malformed number %S" num))

(* The index of the quote that closes a literal whose body starts at [i]. *)
let rec closing_quote src n i =
  if i >= n then raise (Lex_error "unterminated string literal")
  else if String.unsafe_get src i <> '\'' then closing_quote src n (i + 1)
  else if i + 1 < n && String.unsafe_get src (i + 1) = '\'' then
    closing_quote src n (i + 2) (* a '' escape *)
  else i

(* A literal's body, in which every quote is the first of a '' pair. *)
let unescape body =
  let b = Buffer.create (String.length body) in
  let i = ref 0 in
  while !i < String.length body do
    Buffer.add_char b body.[!i];
    i := !i + if body.[!i] = '\'' then 2 else 1
  done;
  Buffer.contents b

let rec ident_end src n i =
  if i < n then
    match String.unsafe_get src i with
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> ident_end src n (i + 1)
    | _ -> i
  else i

let rec number_end src n i =
  if i < n then
    match String.unsafe_get src i with
    | '0' .. '9' | '.' -> number_end src n (i + 1)
    | _ -> i
  else i

let rec line_end src n i =
  if i < n && String.unsafe_get src i <> '\n' then line_end src n (i + 1) else i

let tokenize src =
  let n = String.length src in
  let[@tail_mod_cons] rec go pos =
    if pos >= n then [ Eof ]
    else
      let next = if pos + 1 < n then String.unsafe_get src (pos + 1) else ' ' in
      match (String.unsafe_get src pos, next) with
      | (' ' | '\t' | '\n' | '\r' | ';'), _ -> go (pos + 1)
      | '-', '-' -> go (line_end src n pos) (* line comment *)
      | ('a' .. 'z' | 'A' .. 'Z' | '_'), _ ->
          let stop = ident_end src n pos in
          let len = stop - pos in
          let k = keyword src pos len in
          let tok =
            if String.length k = 0 then Ident (lowercase_sub src pos len) else Kw k
          in
          tok :: go stop
      | '0' .. '9', _ ->
          let stop = number_end src n pos in
          let i = int_of_digits src pos stop in
          let tok =
            if i >= 0 then Int i else number_token (String.sub src pos (stop - pos))
          in
          tok :: go stop
      | '\'', _ ->
          let stop = closing_quote src n (pos + 1) in
          let body = String.sub src (pos + 1) (stop - pos - 1) in
          let tok = String (if String.contains body '\'' then unescape body else body) in
          tok :: go (stop + 1)
      | '<', '>' | '!', '=' -> Sym "<>" :: go (pos + 2)
      | '<', '=' -> Sym "<=" :: go (pos + 2)
      | '>', '=' -> Sym ">=" :: go (pos + 2)
      | '(', _ -> Sym "(" :: go (pos + 1)
      | ')', _ -> Sym ")" :: go (pos + 1)
      | ',', _ -> Sym "," :: go (pos + 1)
      | '*', _ -> Sym "*" :: go (pos + 1)
      | '=', _ -> Sym "=" :: go (pos + 1)
      | '<', _ -> Sym "<" :: go (pos + 1)
      | '>', _ -> Sym ">" :: go (pos + 1)
      | '+', _ -> Sym "+" :: go (pos + 1)
      | '-', _ -> Sym "-" :: go (pos + 1)
      | '.', _ -> Sym "." :: go (pos + 1)
      | '/', _ -> Sym "/" :: go (pos + 1)
      | c, _ -> raise (Lex_error (Printf.sprintf "unexpected character %C" c))
  in
  go 0

let pp_token ppf = function
  | Kw k -> Format.fprintf ppf "%s" k
  | Ident i -> Format.fprintf ppf "ident:%s" i
  | Int i -> Format.fprintf ppf "int:%d" i
  | Float f -> Format.fprintf ppf "float:%g" f
  | String s -> Format.fprintf ppf "str:%S" s
  | Sym s -> Format.fprintf ppf "sym:%s" s
  | Eof -> Format.fprintf ppf "<eof>"
