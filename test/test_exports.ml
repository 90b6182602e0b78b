(* Dead-export check: every [val] declared in lib/**/*.mli must be named
   somewhere outside its own .ml/.mli pair. A name that occurs, as a whole
   word, only in its own module's two files is either dead (delete it) or
   private (drop it from the interface). The scan is word-level over every
   .ml and .mli file in lib, bin, bench, perfbench, test and examples, so a
   mention in another module's comment counts as a use; there is no
   allowlist.

   Runs from _build/default/test; the dune stanza copies the scanned
   directories in with source_tree deps. *)

let roots = [ "../lib"; "../bin"; "../bench"; "../perfbench"; "../test"; "../examples" ]

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

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '\'' -> true
  | _ -> false

(* The identifier words of [s], as a set. *)
let words s =
  let set = Hashtbl.create 1024 in
  let n = String.length s in
  let i = ref 0 in
  while !i < n do
    if is_ident_char s.[!i] then begin
      let j = ref !i in
      while !j < n && is_ident_char s.[!j] do incr j done;
      Hashtbl.replace set (String.sub s !i (!j - !i)) ();
      i := !j
    end
    else incr i
  done;
  set

(* Names declared by [val] lines (operators excluded). *)
let vals s =
  String.split_on_char '\n' s
  |> List.filter_map (fun line ->
         let line = String.trim line in
         if String.starts_with ~prefix:"val " line then
           let rest = String.trim (String.sub line 4 (String.length line - 4)) in
           let n = ref 0 in
           while !n < String.length rest && is_ident_char rest.[!n] do incr n done;
           if !n = 0 then None else Some (String.sub rest 0 !n)
         else None)

let module_of path = Filename.remove_extension path

let test_no_dead_exports () =
  let all = List.concat_map files roots in
  let indexed = List.map (fun p -> (p, words (read p))) all in
  let interfaces =
    List.filter
      (fun p ->
        String.starts_with ~prefix:"../lib/" p && Filename.check_suffix p ".mli")
      all
  in
  let offenders =
    List.concat_map
      (fun mli ->
        let own = module_of mli in
        vals (read mli)
        |> List.sort_uniq compare
        |> List.filter (fun name ->
               not
                 (List.exists
                    (fun (p, ws) -> module_of p <> own && Hashtbl.mem ws name)
                    indexed))
        |> List.map (fun name ->
               Printf.sprintf "%s: %s"
                 (String.capitalize_ascii (Filename.basename own))
                 name))
      interfaces
  in
  if interfaces = [] then Alcotest.fail "no lib/**/*.mli found: check the dune deps";
  if offenders <> [] then
    Alcotest.failf
      "%d exported names are used nowhere outside their own .ml/.mli (delete \
       them, or drop them from the interface):\n  %s"
      (List.length offenders)
      (String.concat "\n  " offenders)

let () =
  Alcotest.run "exports"
    [
      ( "interfaces",
        [ Alcotest.test_case "every lib val is used outside its module" `Quick
            test_no_dead_exports ] );
    ]
