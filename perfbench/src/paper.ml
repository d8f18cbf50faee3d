(* The paper's programs with small databases and their worked answers.

   Each expected answer set is computed here from the program's meaning,
   without the engine: the walk enumerator for Example 1.1, reachability
   along b2 chains for D.1 and D.2, a nested loop for Example 4.1, and the
   answers worked by hand for Example 6.1 and the backward Fibonacci
   query.  The scheduling program answers with constraint facts, so it is
   checked point by point on an integer grid instead. *)

type expected =
  | Tuples of string list list  (** the query's ground answers, as argument lists *)
  | Points of (Cql_datalog.Term.const list * bool) list
      (** grid points of the query predicate, each with whether it is an answer *)

type entry = { name : string; source : string; edb : string; expected : expected }

let flights_legs =
  [
    { Walk.src = "madison"; dst = "chicago"; time = 50; cost = 100 };
    { Walk.src = "chicago"; dst = "seattle"; time = 230; cost = 90 };
    { Walk.src = "chicago"; dst = "newyork"; time = 110; cost = 160 };
    { Walk.src = "newyork"; dst = "boston"; time = 45; cost = 60 };
    { Walk.src = "seattle"; dst = "anchorage"; time = 200; cost = 210 };
  ]

let walk_tuples answers =
  List.map (fun (s, d, t, c) -> [ s; d; string_of_int t; string_of_int c ]) answers

let flights =
  {
    name = "flights";
    source = Walk.program ();
    edb = Walk.edb_text flights_legs;
    expected = Tuples (walk_tuples (Walk.answers flights_legs));
  }

(* D.1 / D.2 over [sources] b1 sources, each at the head of a b2 chain of
   [seg] steps: a1(i, 100 i + k) for k = 1..seg, and the query keeps i <= 4. *)
let sources = 12
let seg = 5

let segments_edb =
  String.concat "\n"
    (List.concat
       (List.init sources (fun i ->
            Printf.sprintf "b1(%d, %d)." i (100 * i)
            :: List.init seg (fun j ->
                   Printf.sprintf "b2(%d, %d)." ((100 * i) + j) ((100 * i) + j + 1)))))

let segments_answers =
  List.concat
    (List.init (min sources 5) (fun i ->
         List.init seg (fun k -> [ string_of_int i; string_of_int ((100 * i) + k + 1) ])))

let d1 =
  {
    name = "d1";
    source =
      {|r1: q(X, Y) :- a1(X, Y), X <= 4.
r2: a1(X, Y) :- b1(X, Z), a2(Z, Y).
r3: a2(X, Y) :- b2(X, Y).
r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|};
    edb = segments_edb;
    expected = Tuples segments_answers;
  }

let d2 =
  {
    name = "d2";
    source =
      {|r1: q(X, Y) :- a1(X, Y).
r2: a1(X, Y) :- b1(X, Z), X <= 4, a2(Z, Y).
r3: a2(X, Y) :- b2(X, Y).
r4: a2(X, Y) :- b2(X, Z), a2(Z, Y).
#query q.
|};
    edb = segments_edb;
    expected = Tuples segments_answers;
  }

(* Example 4.1: b1(i mod 10, i / 2) and b2(i) for i < 30. *)
let ex41_b1 = List.init 30 (fun i -> (i mod 10, i / 2))
let ex41_b2 = List.init 30 Fun.id

let ex41 =
  {
    name = "ex41";
    source =
      {|r1: q(X) :- p1(X, Y), p2(Y), X + Y <= 6, X >= 2.
r2: p1(X, Y) :- b1(X, Y).
r3: p2(X) :- b2(X).
#query q.
|};
    edb =
      String.concat "\n"
        (List.map (fun (x, y) -> Printf.sprintf "b1(%d, %d)." x y) ex41_b1
        @ List.map (Printf.sprintf "b2(%d).") ex41_b2);
    expected =
      Tuples
        (List.filter_map
           (fun (x, y) ->
             if List.mem y ex41_b2 && x + y <= 6 && x >= 2 then Some [ string_of_int x ]
             else None)
           ex41_b1
        |> List.sort_uniq compare);
  }

(* Example 6.1: r2 gives p(20, 1), p(5, 2) and p(40, 9); r3 gives
   q(20, 30, 7) and q(40, 30, 7), so r1 gives p(X, Y) for X in {20, 40}
   and every p(W, Y) with W > 7, that is Y in {1, 9}; the query keeps
   X > 10. *)
let ex61 =
  {
    name = "ex61";
    source =
      {|r1: p(X, Y) :- U > 10, q(X, U, V), W > V, p(W, Y).
r2: p(X, Y) :- u(X, Y).
r3: q(X, Y, Z) :- q1(X, U), q2(W, Y), q3(U, W, Z).
?- X > 10, p(X, Y).
|};
    edb = "u(20, 1). u(5, 2). u(40, 9).\nq1(20, 3). q1(40, 3). q2(4, 30). q3(3, 4, 7).\n";
    expected = Tuples [ [ "20"; "1" ]; [ "20"; "9" ]; [ "40"; "1" ]; [ "40"; "9" ] ];
  }

(* Example 1.2: fib(4) = 5 is the only N with fib(N) = 5. *)
let fib =
  {
    name = "fib";
    source =
      {|r1: fib(0, 1).
r2: fib(1, 1).
r3: fib(N, X1 + X2) :- N > 1, fib(N - 1, X1), fib(N - 2, X2).
?- fib(N, 5).
|};
    edb = "";
    expected = Tuples [ [ "4" ] ];
  }

(* Meeting slots: persons P1 and P2 are both free on [S, E] when each has
   a calendar window [LO, HI] with LO <= S < E <= HI; a slot is long enough
   when E - S >= 2 and S <= 12. *)
let calendar = [ ("alice", 9, 12); ("alice", 14, 18); ("bob", 10, 16); ("carol", 8, 10) ]
let persons = [ "alice"; "bob"; "carol" ]

let free p s e = List.exists (fun (q, lo, hi) -> q = p && lo <= s && s < e && e <= hi) calendar

let scheduling =
  {
    name = "scheduling";
    source =
      {|r1: slot(P1, P2, S, E) :- avail(P1, S, E), avail(P2, S, E).
r2: avail(P, S, E) :- calendar(P, LO, HI), S >= LO, E <= HI, S < E.
r3: longenough(P1, P2, S, E) :- slot(P1, P2, S, E), E - S >= 2, S <= 12.
#query longenough.
|};
    edb =
      String.concat "\n"
        (List.map (fun (p, lo, hi) -> Printf.sprintf "calendar(%s, %d, %d)." p lo hi) calendar);
    expected =
      Points
        (List.concat_map
           (fun p1 ->
             List.concat_map
               (fun p2 ->
                 List.concat
                   (List.init 21 (fun s ->
                        List.init 21 (fun e ->
                            let q i = Cql_datalog.Term.Num (Cql_num.Rat.of_int i) in
                            ( [ Cql_datalog.Term.Sym p1; Sym p2; q s; q e ],
                              free p1 s e && free p2 s e && e - s >= 2 && s <= 12 )))))
               persons)
           persons);
  }

let all = [ flights; d1; d2; ex41; ex61; fib; scheduling ]
