(* One typed metric record and the single JSON emitter for a run's
   result line. Names and units are fixed identifiers from this
   directory, so they need no escaping. *)

type t = { name : string; unit_ : string; value : float }

let v name unit_ value = { name; unit_; value }

(* The shortest decimal that reads back as the same float: every digit
   measured, none invented. *)
let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else
    let s = Printf.sprintf "%.15g" x in
    if float_of_string s = x then s else Printf.sprintf "%.17g" x

let finite m = Float.is_finite m.value

(* A non-finite value (a ratio over an empty sample) makes the run
   incorrect rather than invalid JSON. *)
let result_line ~correct ~attempted ~failed metrics =
  let field m =
    Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.name
      (number (if finite m then m.value else 0.))
      m.unit_
  in
  Printf.sprintf
    {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    (correct && List.for_all finite metrics)
    attempted failed
    (String.concat ", " (List.map field metrics))
