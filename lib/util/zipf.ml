(* Inverse-CDF sampling over the precomputed cumulative distribution.
   O(log n) per draw via binary search; exact (no rejection). *)

type t = { n : int; theta : float; cdf : float array }

let create ~n ~theta =
  assert (n > 0 && theta >= 0.);
  let cdf = Array.make n 0. in
  let total = ref 0. in
  for k = 0 to n - 1 do
    total := !total +. (1. /. Float.pow (float_of_int (k + 1)) theta);
    cdf.(k) <- !total
  done;
  for k = 0 to n - 1 do
    cdf.(k) <- cdf.(k) /. !total
  done;
  { n; theta; cdf }

let draw t rng =
  let u = Rng.float rng in
  (* smallest k with cdf.(k) >= u *)
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if t.cdf.(mid) >= u then search lo mid else search (mid + 1) hi
  in
  search 0 (t.n - 1)
