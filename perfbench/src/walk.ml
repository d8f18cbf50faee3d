(* Independent answers for the paper's Example 1.1 cheap-or-short query.

   A flight is a walk over single legs; a walk of k legs takes
   T = sum T_i + 30 (k - 1) minutes and costs C = sum C_i.  The query asks
   for every walk with T <= tmax or C <= cmax (240 and 150 in the paper).
   Both sums only grow as a walk is extended, so a walk with T > tmax and
   C > cmax can be dropped together with all its extensions: the
   enumeration is finite whenever every leg has positive time and cost.
   Rule r3 drops legs without positive time and cost, and so does this. *)

type leg = { src : string; dst : string; time : int; cost : int }
type answer = string * string * int * int

let layover = 30

let answers ?(tmax = 240) ?(cmax = 150) legs : answer list =
  let legs = List.filter (fun l -> l.time > 0 && l.cost > 0) legs in
  let out = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.add out l.src l) legs;
  let found = Hashtbl.create 256 in
  let rec extend origin city t c =
    List.iter
      (fun l ->
        let t' = t + l.time + layover and c' = c + l.cost in
        if t' <= tmax || c' <= cmax then begin
          Hashtbl.replace found (origin, l.dst, t', c') ();
          extend origin l.dst t' c'
        end)
      (Hashtbl.find_all out city)
  in
  List.iter
    (fun l ->
      if l.time <= tmax || l.cost <= cmax then begin
        Hashtbl.replace found (l.src, l.dst, l.time, l.cost) ();
        extend l.src l.dst l.time l.cost
      end)
    legs;
  List.sort compare (Hashtbl.fold (fun a () acc -> a :: acc) found [])

let leg_fact l = Printf.sprintf "singleleg(%s, %s, %d, %d)." l.src l.dst l.time l.cost
let edb_text legs = String.concat "\n" (List.map leg_fact legs) ^ "\n"

(* The Example 1.1 program with its two limits as parameters. *)
let program ?(tmax = 240) ?(cmax = 150) () =
  Printf.sprintf
    {|r1: cheaporshort(S, D, T, C) :- flight(S, D, T, C), T <= %d.
r2: cheaporshort(S, D, T, C) :- flight(S, D, T, C), C <= %d.
r3: flight(Src, Dst, Time, Cost) :- singleleg(Src, Dst, Time, Cost), Cost > 0, Time > 0.
r4: flight(S, D, T, C) :- flight(S, D1, T1, C1), flight(D1, D, T2, C2),
                          T = T1 + T2 + 30, C = C1 + C2.
#query cheaporshort.
|}
    tmax cmax

(* ----- answer strings ----- *)

(* The argument list of a ground fact's printed form ["p(a, 1, 2/3)"], as
   strings; the predicate name is dropped because rewrites may rename the
   query predicate.  [None] for anything that is not a ground fact. *)
let args_of_fact_string s =
  match (String.index_opt s '(', String.rindex_opt s ')') with
  | Some i, Some j when j = String.length s - 1 && i < j && not (String.contains s ';') ->
      let inner = String.sub s (i + 1) (j - i - 1) in
      if inner = "" then Some []
      else Some (List.map String.trim (String.split_on_char ',' inner))
  | _ -> None

let answer_of_args = function
  | [ s; d; t; c ] -> (
      match (int_of_string_opt t, int_of_string_opt c) with
      | Some t, Some c -> Some (s, d, t, c)
      | _ -> None)
  | _ -> None

(* Served answers as walk tuples, sorted; [None] if any string is not a
   ground 4-ary flight answer. *)
let answers_of_strings strs =
  let rec go acc = function
    | [] -> Some (List.sort compare acc)
    | s :: rest -> (
        match Option.bind (args_of_fact_string s) answer_of_args with
        | Some a -> go (a :: acc) rest
        | None -> None)
  in
  go [] strs
