(* Tests of the benchmark's own pieces: the independent flights answers,
   the summary statistics, the CQLOPT_* guard, and a run that must fail
   when its expected answers are wrong. *)

open Perfbench

let leg src dst time cost = { Walk.src; dst; time; cost }

(* examples/programs/flights_edb.cql *)
let example =
  [
    leg "madison" "chicago" 50 100;
    leg "chicago" "seattle" 230 90;
    leg "chicago" "newyork" 110 160;
    leg "newyork" "boston" 45 60;
    leg "seattle" "anchorage" 200 210;
  ]

let walk_example () =
  (* worked by hand: every single leg has T <= 240; of the two-leg walks
     madison-chicago-newyork (50 + 110 + 30 = 190) and
     chicago-newyork-boston (110 + 45 + 30 = 185) are short enough, while
     madison-chicago-seattle (310 min, $190) and chicago-seattle-anchorage
     (460 min, $300) are neither; no three-leg walk qualifies *)
  let expected =
    List.sort compare
      [
        ("madison", "chicago", 50, 100);
        ("chicago", "seattle", 230, 90);
        ("chicago", "newyork", 110, 160);
        ("newyork", "boston", 45, 60);
        ("seattle", "anchorage", 200, 210);
        ("madison", "newyork", 190, 260);
        ("chicago", "boston", 185, 220);
      ]
  in
  Alcotest.(check (list (pair (pair string string) (pair int int))))
    "seven answers"
    (List.map (fun (s, d, t, c) -> ((s, d), (t, c))) expected)
    (List.map (fun (s, d, t, c) -> ((s, d), (t, c))) (Walk.answers example))

let walk_cycle () =
  (* a two-city cycle of 100 min / $10 legs: a walk of k legs costs 10 k,
     so walks of up to 15 legs are cheap enough, from either city *)
  let answers = Walk.answers [ leg "a" "b" 100 10; leg "b" "a" 100 10 ] in
  Alcotest.(check int) "30 walks" 30 (List.length answers);
  Alcotest.(check bool)
    "15 legs" true
    (List.mem ("a", "b", (100 * 15) + (30 * 14), 150) answers);
  Alcotest.(check bool) "16 legs" false (List.exists (fun (_, _, _, c) -> c > 150) answers)

let walk_limits () =
  Alcotest.(check int) "non-positive legs are dropped" 0
    (List.length (Walk.answers [ leg "a" "b" 0 10; leg "b" "c" 10 (-1) ]));
  Alcotest.(check int) "tighter limits" 4
    (List.length (Walk.answers ~tmax:180 ~cmax:100 example))

let answer_strings () =
  Alcotest.(check (option (list (pair (pair string string) (pair int int)))))
    "parsed"
    (Some [ (("a", "b"), (1, 2)); (("c", "d"), (30, 4)) ])
    (Option.map
       (List.map (fun (s, d, t, c) -> ((s, d), (t, c))))
       (Walk.answers_of_strings [ "cheaporshort(c, d, 30, 4)"; "q(a, b, 1, 2)" ]));
  Alcotest.(check bool) "constraint fact" true
    (Walk.answers_of_strings [ "q(a, b, $3, 2; $3 <= 4)" ] = None);
  Alcotest.(check (option (list string))) "nullary" (Some []) (Walk.args_of_fact_string "q()")

let close = Alcotest.float 1e-9

let stats () =
  Alcotest.check close "odd median" 2. (Stats.median [ 3.; 1.; 2. ]);
  Alcotest.check close "even median" 2.5 (Stats.median [ 4.; 1.; 3.; 2. ]);
  (* statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25] *)
  let q1, q2, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.check close "q1" 2.75 q1;
  Alcotest.check close "q2" 5.5 q2;
  Alcotest.check close "q3" 8.25 q3;
  (* statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] *)
  let q1, _, q3 = Stats.quartiles [ 2.; 1. ] in
  Alcotest.check close "two samples q1" 0.75 q1;
  Alcotest.check close "two samples q3" 2.25 q3;
  let hundred = List.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p99 of 1..100" 99. (Stats.percentile 99. hundred);
  let ten = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p99 of 1..10" 10. (Stats.percentile 99. ten);
  Alcotest.check close "p50" 50. (Stats.percentile 50. hundred);
  Alcotest.check close "geomean" 4. (Stats.geomean [ 1.; 4.; 16. ]);
  Alcotest.check_raises "geomean of a zero"
    (Invalid_argument "Stats.geomean: non-positive sample") (fun () ->
      ignore (Stats.geomean [ 1.; 0. ]))

let guard () =
  Alcotest.(check (list string))
    "only CQLOPT_ variables" [ "CQLOPT_JOBS"; "CQLOPT_NO_INTERVAL" ]
    (Record.offending
       [| "PATH=/bin"; "CQLOPT_JOBS=2"; "XCQLOPT_TRACE=1"; "CQLOPT_NO_INTERVAL="; "HOME=/h" |]);
  Alcotest.(check (list string)) "clean environment" [] (Record.offending [| "PATH=/bin" |])

let ctx () = Common.make_ctx ~seed:7 ~seconds:0.01 ~traced:false

let query_run_checks () =
  let good = ctx () in
  ignore (Wl_query.run good ());
  Alcotest.(check int) "correct run" 0 good.Common.mismatches;
  let bad = ctx () in
  ignore (Wl_query.run bad ~corrupt:true ());
  Alcotest.(check bool) "a corrupted expectation fails the run" true (bad.Common.mismatches > 0)

let () =
  Alcotest.run "perfbench"
    [
      ( "walk",
        [
          Alcotest.test_case "flights example" `Quick walk_example;
          Alcotest.test_case "cycle" `Quick walk_cycle;
          Alcotest.test_case "limits" `Quick walk_limits;
          Alcotest.test_case "answer strings" `Quick answer_strings;
        ] );
      ("stats", [ Alcotest.test_case "median quartiles percentile geomean" `Quick stats ]);
      ("guard", [ Alcotest.test_case "CQLOPT_ variables" `Quick guard ]);
      ("checks", [ Alcotest.test_case "corrupted expected answers" `Quick query_run_checks ]);
    ]
