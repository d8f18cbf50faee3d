(* Summary statistics over measured samples.  [quartiles] follows Python's
   [statistics.quantiles(xs, n=4)] (the default "exclusive" method), so the
   repeat mode reports the same spread the run comparison computes. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: no samples"
  | a ->
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least two samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
  in
  (q 1, q 2, q 3)

(* Nearest-rank percentile: the smallest sample with at least [p]% of the
   samples at or below it. *)
let percentile p xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.percentile: no samples"
  | a ->
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let geomean xs =
  match xs with
  | [] -> invalid_arg "Stats.geomean: no samples"
  | _ ->
      if List.exists (fun x -> x <= 0.) xs then
        invalid_arg "Stats.geomean: non-positive sample";
      exp (List.fold_left (fun s x -> s +. log x) 0. xs /. float_of_int (List.length xs))

let sum xs = List.fold_left ( +. ) 0. xs
