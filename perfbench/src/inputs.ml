(* Seeded input generation.  Every input is a pure function of the
   workload seed; the program only ever sees the generated text. *)

let rng seed salt = Random.State.make [| seed; salt |]

(* [range st lo hi] is uniform in [lo, hi]. *)
let range st lo hi = lo + Random.State.int st (hi - lo + 1)

let city prefix i = Printf.sprintf "%s%d" prefix i

(* Legs of 25..130 minutes and $15..90: walks of up to three such legs
   straddle the query's 240 minute and $150 limits. *)
let short = ((25, 130), (15, 90))

(* Legs over both limits: in the EDB, but never part of an answer. *)
let long = ((250, 400), (160, 300))

(* A single-leg network over [cities] cities named [prefix]0.., each with
   [out] legs to distinct other cities, drawn from [kind]. *)
let network ?(kind = short) st ~prefix ~cities ~out =
  let (tlo, thi), (clo, chi) = kind in
  List.concat
    (List.init cities (fun i ->
         let others = Array.init (cities - 1) (fun k -> if k < i then k else k + 1) in
         for k = Array.length others - 1 downto 1 do
           let j = Random.State.int st (k + 1) in
           let x = others.(k) in
           others.(k) <- others.(j);
           others.(j) <- x
         done;
         List.init out (fun k ->
             {
               Walk.src = city prefix i;
               dst = city prefix others.(k);
               time = range st tlo thi;
               cost = range st clo chi;
             })))

(* Networks whose query answer count lies in a band, so that every seed
   asks for about the same amount of work.  Candidate k of a network is
   drawn from its own state, [Random.State.make (key @ [k])]; [band_key]
   finds the first candidate in the band by rejection, counting answers with
   the independent enumerator, never with the program.  How many candidates
   that takes depends on the seed, so workloads call it before set-up is
   timed and redraw only the chosen candidate inside set-up. *)
let band_key key gen ~lo ~hi =
  let rec go k =
    let key' = Array.append key [| k |] in
    let n = List.length (Walk.answers (gen (Random.State.make key'))) in
    if n >= lo && n <= hi then key' else go (k + 1)
  in
  go 0

(* The network a key found by [band_key] stands for. *)
let of_key key gen = gen (Random.State.make key)
