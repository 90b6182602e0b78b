type t =
  | N
  | IS
  | IX
  | S
  | SIX
  | U
  | X
  | E
  | RangeS_S
  | RangeS_U
  | RangeI_N
  | RangeX_X

(* Every mode decomposes into a (gap, key) pair; plain modes have gap GN.
   Compatibility and conversion are computed componentwise, which keeps the
   full 12x12 matrix consistent by construction. *)

type gap = GN | GS | GI | GX
type key = KN | KIS | KIX | KS | KSIX | KU | KX | KE

let decompose = function
  | N -> (GN, KN)
  | IS -> (GN, KIS)
  | IX -> (GN, KIX)
  | S -> (GN, KS)
  | SIX -> (GN, KSIX)
  | U -> (GN, KU)
  | X -> (GN, KX)
  | E -> (GN, KE)
  | RangeS_S -> (GS, KS)
  | RangeS_U -> (GS, KU)
  | RangeI_N -> (GI, KN)
  | RangeX_X -> (GX, KX)

let gap_compat ~requested ~granted =
  match (requested, granted) with
  | GN, _ | _, GN -> true
  | GS, GS -> true
  | GI, GI -> true
  | GS, GI | GI, GS -> false
  | GX, _ | _, GX -> false

(* requested (rows) vs granted (columns); asymmetric for U. *)
let key_compat ~requested ~granted =
  match (requested, granted) with
  | KN, _ | _, KN -> true
  | KE, KE -> true
  | KE, _ | _, KE -> false
  | KIS, KX -> false
  | KIS, _ -> true
  | KIX, (KIS | KIX) -> true
  | KIX, _ -> false
  | KS, (KIS | KS) -> true
  | KS, _ -> false
  | KSIX, KIS -> true
  | KSIX, _ -> false
  | KU, (KIS | KS) -> true
  | KU, _ -> false
  | KX, _ -> false

let compat ~requested ~granted =
  let rg, rk = decompose requested and gg, gk = decompose granted in
  gap_compat ~requested:rg ~granted:gg && key_compat ~requested:rk ~granted:gk

let gap_sup a b =
  match (a, b) with
  | GN, g | g, GN -> g
  | GS, GS -> GS
  | GI, GI -> GI
  | _ -> GX

let key_sup a b =
  match (a, b) with
  | KN, k | k, KN -> k
  | a, b when a = b -> a
  | KIS, k | k, KIS -> k
  | KIX, KS | KS, KIX -> KSIX
  | KSIX, (KS | KIX) | (KS | KIX), KSIX -> KSIX
  | KU, KS | KS, KU -> KU
  | _ -> KX (* incl. any combination with KE other than KE/KE *)

let recompose (g, k) =
  match (g, k) with
  | GN, KN -> N
  | GN, KIS -> IS
  | GN, KIX -> IX
  | GN, KS -> S
  | GN, KSIX -> SIX
  | GN, KU -> U
  | GN, KX -> X
  | GN, KE -> E
  | GS, KS -> RangeS_S
  | GS, KU -> RangeS_U
  | GI, KN -> RangeI_N
  | GX, KX -> RangeX_X
  (* combinations outside the named set escalate to a safe upper bound *)
  | GS, KN -> RangeS_S
  | (GS | GI | GX), _ -> RangeX_X

let sup a b =
  if a = b then a
  else
    let ag, ak = decompose a and bg, bk = decompose b in
    recompose (gap_sup ag bg, key_sup ak bk)

let covers ~held ~req = sup held req = held

let to_string = function
  | N -> "N"
  | IS -> "IS"
  | IX -> "IX"
  | S -> "S"
  | SIX -> "SIX"
  | U -> "U"
  | X -> "X"
  | E -> "E"
  | RangeS_S -> "RangeS-S"
  | RangeS_U -> "RangeS-U"
  | RangeI_N -> "RangeI-N"
  | RangeX_X -> "RangeX-X"
