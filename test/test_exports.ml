(* Dead-export check. Every [val] declared in lib/**/*.mli must be used by
   a file outside its own .ml/.mli pair: named with its module (as [M.v],
   [Lib.M.v], or through an alias [module A = M]), or named bare in a file
   that opens the module ([open M], [let open M in], [M.( ... )],
   [include M]). Comments and string literals are not uses. A val inside a
   [module X : sig ... end] of an interface is qualified by [X].

   The first case fails naming each val no other module uses: delete it, or
   drop it from the interface. The second holds shipped code (lib, bin,
   bench, perfbench, examples) to the same rule: a val that only test/ uses
   must be one of [hooks], each with the reason a test cannot reach the
   same fact through a public path.

   Runs from _build/default/test; the dune stanza copies the scanned
   directories in with source_tree deps. *)

let shipped = [ "../lib"; "../bin"; "../bench"; "../perfbench"; "../examples" ]
let tests = [ "../test" ]

(* Vals only tests use, by [Module.name], each with its reason. *)
let hooks =
  [
    (* Failover: an application's client and a fellow follower's driver
       re-aim at a promoted primary; no shipped binary fails over itself. *)
    "Client.repoint";
    "Replica.repoint";
    (* The client half of the Metrics_req frame: a program fetches a
       server's or a coordinator's Prometheus text over the wire. *)
    "Client.metrics";
    (* A view range read under key-range locking, phantom-protected over
       the range alone; the SQL planner reads a view whole or by point. *)
    "Query.view_scan_range";
    (* Fault hook: the cut-at-every-byte sweeps tear the log tail at an
       exact byte, which no disk fault reaches. *)
    "Wal.set_torn_tail";
    (* Leak probe: a transaction's ghost notes must end with it, and a
       leaked note has no other observable effect. *)
    "Internal.ghost_entries";
  ]

let rec files dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun name ->
         let path = Filename.concat dir name in
         if name.[0] = '.' || name.[0] = '_' then []
         else if Sys.is_directory path then files path
         else if Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
         then [ path ]
         else [])

let read path = In_channel.with_open_bin path In_channel.input_all

(* ---- Lexing: identifiers and one-character symbols, with comments, string
   literals and char literals skipped. *)

type tok = Id of string | Sym of char

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

let is_upper c = c >= 'A' && c <= 'Z'

let tokens s =
  let n = String.length s in
  let rec ident_end i = if i < n && is_ident_char s.[i] then ident_end (i + 1) else i in
  let rec string_end i =
    if i >= n then n
    else match s.[i] with '\\' -> string_end (i + 2) | '"' -> i + 1 | _ -> string_end (i + 1)
  in
  let rec quoted_end i =
    if i + 1 >= n then n else if s.[i] = '|' && s.[i + 1] = '}' then i + 2 else quoted_end (i + 1)
  in
  (* Past a char literal starting at [i], or [i] when none does ('a is a
     type variable). *)
  let char_end i =
    if i + 2 < n && s.[i + 1] <> '\\' && s.[i + 2] = '\'' then i + 3
    else if i + 1 < n && s.[i + 1] = '\\' then
      match String.index_from_opt s (min n (i + 3)) '\'' with Some j -> j + 1 | None -> n
    else i
  in
  let at i a b = i + 1 < n && s.[i] = a && s.[i + 1] = b in
  let rec comment i depth =
    if i >= n then n
    else if at i '(' '*' then comment (i + 2) (depth + 1)
    else if at i '*' ')' then if depth = 1 then i + 2 else comment (i + 2) (depth - 1)
    else if s.[i] = '"' then comment (string_end (i + 1)) depth
    else if s.[i] = '\'' then comment (max (i + 1) (char_end i)) depth
    else comment (i + 1) depth
  in
  let out = ref [] in
  let rec go i =
    if i < n then
      match s.[i] with
      | _ when at i '(' '*' -> go (comment (i + 2) 1)
      | _ when at i '{' '|' -> go (quoted_end (i + 2))
      | '"' -> go (string_end (i + 1))
      | '\'' -> go (max (i + 1) (char_end i))
      | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
          let j = ident_end i in
          out := Id (String.sub s i (j - i)) :: !out;
          go j
      | '0' .. '9' -> go (ident_end i)
      | ' ' | '\n' | '\t' | '\r' -> go (i + 1)
      | c ->
          out := Sym c :: !out;
          go (i + 1)
  in
  go 0;
  Array.of_list (List.rev !out)

let is_module = function Id m -> is_upper m.[0] | Sym _ -> false

(* The module path [A.B.C] starting at token [k], a module name: the
   module it names (its last component) and the index just past it. *)
let path toks k =
  let n = Array.length toks in
  let rec go k =
    if k + 2 < n && toks.(k + 1) = Sym '.' && is_module toks.(k + 2) then go (k + 2)
    else match toks.(k) with Id m -> (m, k + 1) | Sym _ -> assert false
  in
  go k

(* ---- Uses in one file. *)

type uses = {
  qualified : (string * string, unit) Hashtbl.t;  (* (module, val) *)
  opened : (string, unit) Hashtbl.t;
  bare : (string, unit) Hashtbl.t;  (* lowercase names not after a dot *)
}

let uses_of src =
  let toks = tokens src in
  let n = Array.length toks in
  let aliases = Hashtbl.create 16 in
  for k = 0 to n - 4 do
    match (toks.(k), toks.(k + 1), toks.(k + 2)) with
    | Id "module", Id a, Sym '=' when is_module toks.(k + 1) && is_module toks.(k + 3) ->
        Hashtbl.replace aliases a (fst (path toks (k + 3)))
    | _ -> ()
  done;
  let rec resolve depth m =
    match Hashtbl.find_opt aliases m with
    | Some m' when m' <> m && depth < 8 -> resolve (depth + 1) m'
    | _ -> m
  in
  let u =
    {
      qualified = Hashtbl.create 256;
      opened = Hashtbl.create 8;
      bare = Hashtbl.create 256;
    }
  in
  let after_dot k = k > 0 && toks.(k - 1) = Sym '.' in
  for k = 0 to n - 1 do
    match toks.(k) with
    | Id ("open" | "include") ->
        let j = if k + 1 < n && toks.(k + 1) = Sym '!' then k + 2 else k + 1 in
        if j < n && is_module toks.(j) then
          Hashtbl.replace u.opened (resolve 0 (fst (path toks j))) ()
    | Id m when is_upper m.[0] && not (after_dot k) -> (
        let m, j = path toks k in
        let m = resolve 0 m in
        if j + 1 < n && toks.(j) = Sym '.' then
          match toks.(j + 1) with
          | Id v -> Hashtbl.replace u.qualified (m, v) ()
          | Sym ('(' | '[' | '{') -> Hashtbl.replace u.opened m ()
          | Sym _ -> ()
        else if k > 0 && toks.(k - 1) = Sym '(' && j < n && toks.(j) = Sym ')' then
          (* A functor argument, as in [Map.Make (M)]: the Stdlib functors
             take these names of it. *)
          List.iter (fun v -> Hashtbl.replace u.qualified (m, v) ()) [ "compare"; "equal"; "hash" ])
    | Id v when not (after_dot k) -> Hashtbl.replace u.bare v ()
    | _ -> ()
  done;
  u

(* ---- Declarations: [(module, val)] for each [val] of an interface, with
   [module] the innermost [module X : sig] around it. *)

let vals ~own src =
  let toks = tokens src in
  let n = Array.length toks in
  let stack = ref [ own ] in
  let out = ref [] in
  for k = 0 to n - 1 do
    match toks.(k) with
    | Id "sig" ->
        (* [module X : sig] opens X; any other [sig] keeps the enclosing name *)
        let m =
          match if k >= 3 then (toks.(k - 3), toks.(k - 2)) else (Sym ' ', Sym ' ') with
          | Id "module", Id x -> x
          | _ -> List.hd !stack
        in
        stack := m :: !stack
    | Id ("struct" | "object" | "begin") -> stack := List.hd !stack :: !stack
    | Id "end" -> stack := List.tl !stack
    | Id "val" when k + 1 < n -> (
        match toks.(k + 1) with
        | Id v -> out := (List.hd !stack, v) :: !out
        | Sym _ -> ())
    | _ -> ()
  done;
  List.sort_uniq compare !out

let module_of path = Filename.remove_extension path
let capital path = String.capitalize_ascii (Filename.basename (module_of path))

(* Each lib val with the files outside its own module that use it. *)
let scan () =
  let all = List.concat_map files (shipped @ tests) in
  let indexed = List.map (fun p -> (p, uses_of (read p))) all in
  let interfaces =
    List.filter
      (fun p -> String.starts_with ~prefix:"../lib/" p && Filename.check_suffix p ".mli")
      all
  in
  if interfaces = [] then Alcotest.fail "no lib/**/*.mli found: check the dune deps";
  List.concat_map
    (fun mli ->
      let own = module_of mli in
      vals ~own:(capital mli) (read mli)
      |> List.map (fun (m, v) ->
             let users =
               List.filter_map
                 (fun (p, u) ->
                   if module_of p <> own
                      && (Hashtbl.mem u.qualified (m, v)
                         || (Hashtbl.mem u.opened m && Hashtbl.mem u.bare v))
                   then Some p
                   else None)
                 indexed
             in
             (Printf.sprintf "%s.%s" m v, users)))
    interfaces

let is_test p = List.exists (fun r -> String.starts_with ~prefix:(r ^ "/") p) tests

let fail_naming what names =
  if names <> [] then
    Alcotest.failf "%d exported names are %s:\n  %s" (List.length names) what
      (String.concat "\n  " names)

let test_no_dead_exports () =
  scan ()
  |> List.filter_map (fun (name, users) -> if users = [] then Some name else None)
  |> fail_naming
       "used by no other module (delete them, or drop them from the interface)"

let test_test_only_exports_are_hooks () =
  let test_only =
    scan ()
    |> List.filter_map (fun (name, users) ->
           if users <> [] && List.for_all is_test users then Some name else None)
  in
  List.filter (fun n -> not (List.mem n hooks)) test_only
  |> fail_naming
       "used only by tests (check the fact through a public path, or list the val \
        in [hooks] with its reason)";
  List.filter (fun n -> not (List.mem n test_only)) hooks
  |> fail_naming "listed in [hooks] but not used only by tests (drop them from the list)"

let () =
  Alcotest.run "exports"
    [
      ( "interfaces",
        [
          Alcotest.test_case "every lib val is used outside its module" `Quick
            test_no_dead_exports;
          Alcotest.test_case "a val only tests use is a hook" `Quick
            test_test_only_exports_are_hooks;
        ] );
    ]
