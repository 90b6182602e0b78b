(** Recursive-descent parser for the SQL dialect (see {!Sql_ast}). *)

exception Parse_error of string

val parse : string -> Sql_ast.stmt
(** Parse one statement. Raises {!Parse_error} or
    {!Sql_lexer.Lex_error}. *)
