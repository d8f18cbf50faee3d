(* query-flights: the paper's Example 1.1 query, pushed by pred,qrp and
   evaluated to fixpoint over seeded single-leg networks, one query at a
   time with cold caches, as a fresh `cqlopt eval` has them.  The fixpoint
   takes nearly all the time, so engine changes show here and rewrite-only
   changes should not. *)

open Cql_datalog
open Cql_eval

let networks = 20
let cities = 10
let legs_per_city = 3

(* answer counts every network is drawn into *)
let band = (290, 310)

type input = { edb_text : string; expected : Walk.answer list }

let gen st = Inputs.network st ~prefix:"c" ~cities ~out:legs_per_city

(* The candidate chosen for network [i]: found by rejection, before set-up
   is timed. *)
let key seed i = Inputs.band_key [| seed; 1; i |] gen ~lo:(fst band) ~hi:(snd band)

let input_of key =
  let legs = Inputs.of_key key gen in
  { edb_text = Walk.edb_text legs; expected = Walk.answers legs }

let program_text = Walk.program ()

type outcome = {
  prog : Program.t;
  report : Cql_core.Rewrite.report;
  edb : Fact.t list;
  res : Engine.result;
  answers : Fact.t list;
  rewrite_ms : float;
  fixpoint_alloc_mb : float;
}

(* One query: parse the program and the EDB text, push the constraints,
   compile, evaluate to fixpoint, return the sorted answers. *)
let query edb_text =
  let p, edb =
    Span.span "datalog.parse" (fun () ->
        ( Parser.program_of_string program_text,
          List.map Fact.of_fact_rule (Parser.facts_of_string edb_text) ))
  in
  let (prog, report), rewrite_ms = Clock.time (fun () -> Pipeline.run Pipeline.Pred_qrp p) in
  let compiled = Span.span "eval.compile" (fun () -> Engine.compile_plans prog) in
  let a0 = Common.allocated_mb () in
  let res = Span.span "eval.fixpoint" (fun () -> Engine.run ~jobs:1 ~compiled prog ~edb) in
  let fixpoint_alloc_mb = Common.allocated_mb () -. a0 in
  let answers = List.sort Fact.compare (Engine.answers res prog) in
  { prog; report; edb; res; answers; rewrite_ms; fixpoint_alloc_mb }

(* The answers, checked against the walk enumerator. *)
let check ctx (input : input) o =
  if not (Engine.stats o.res).Engine.reached_fixpoint then
    Common.mismatch ctx "query" "evaluation stopped before its fixpoint"
  else
    match Walk.answers_of_strings (List.map Fact.to_string o.answers) with
    | Some got when got = input.expected -> ()
    | Some got ->
        Common.mismatch ctx "query"
          (Printf.sprintf "%d answers, the walk enumerator finds %d" (List.length got)
             (List.length input.expected))
    | None -> Common.mismatch ctx "query" "an answer is not a ground flight"

(* The domain pool, on this workload's first network: every workload
   reports these the same way. *)
let par_layers seed =
  let o = Span.with_op 0 (fun () -> query (input_of (key seed 0)).edb_text) in
  [
    ("par.pool_start_ms", Metrics.pool_start_ms ());
    ("par.fixpoint_jobs_ratio", Metrics.fixpoint_jobs_ratio o.prog ~edb:o.edb);
  ]

(* The network set-up warms up on: the same for every seed, so that set-up
   does the same work whatever the seed (queries on the seeded networks
   take from 50 to 75 ms). *)
let warmup_key = lazy (key 0 0)

let run (ctx : Common.ctx) ?(corrupt = false) () =
  let keys = List.init networks (key ctx.seed) and warmup = Lazy.force warmup_key in
  let setup () =
    let ins = List.map input_of keys in
    let ins =
      (* a corrupted expectation must make the run fail *)
      if corrupt then List.map (fun i -> { i with expected = List.tl i.expected }) ins else ins
    in
    Common.cold_start ();
    ignore (query (Walk.edb_text (Inputs.of_key warmup gen)));
    ins
  in
  let ins, setup_s = Common.repeated_setup setup in
  let ins = Array.of_list ins in
  let acc = Metrics.acc () and cal = Calib.create () in
  let raw = ref [] in
  let times = ref [] and rewrites = Array.make networks [] in
  let round_sums = ref [] and alloc = ref 0. and ops = ref 0 in
  let gcs = ref (0, 0) in
  Common.run_rounds ctx (fun () ->
        let sum = ref 0. in
        Array.iteri
          (fun i input ->
            Common.cold_start ();
            Calib.tick cal;
            if ctx.traced then Cql_constr.Solver_stats.reset ();
            Common.attempted ctx "query";
            incr ops;
            let a0 = Common.allocated_mb () and g0 = Common.gc_counts () in
            let o, raw_ms =
              Span.with_op !ops (fun () -> Clock.time (fun () -> query input.edb_text))
            in
            raw := raw_ms :: !raw;
            (* the rewrite runs first: the slowdown measured before the op
               is the one that applies to it *)
            let rewrite_ms = Calib.scale cal o.rewrite_ms in
            let ms = Calib.after cal raw_ms in
            alloc := !alloc +. (Common.allocated_mb () -. a0);
            gcs := Common.add_gc !gcs g0;
            times := ms :: !times;
            sum := !sum +. ms;
            rewrites.(i) <- rewrite_ms :: rewrites.(i);
            if ctx.traced then begin
              acc.Metrics.ops <- acc.Metrics.ops + 1;
              Metrics.add_solver acc;
              Metrics.add_rewrite acc o.prog o.report;
              Metrics.add_engine acc ~edb:o.edb o.res;
              acc.Metrics.fixpoint_alloc_mb <-
                acc.Metrics.fixpoint_alloc_mb +. o.fixpoint_alloc_mb
            end;
            check ctx input o)
          ins;
        round_sums := !sum :: !round_sums);
  let n = float_of_int !ops in
  let query_ms = Stats.median !times in
  Calib.print cal;
  Printf.printf "raw: query_ms=%.4f\n" (Stats.median !raw);
  let e2e =
    [
      ("setup_s", setup_s);
      ("query_ms", query_ms);
      ("alloc_mb_per_op", !alloc /. n);
      ("peak_rss_mb", Common.peak_rss_mb ());
      ("pass_s", Stats.median !round_sums /. 1000.);
      ( "rewrite_geomean_ms",
        Stats.geomean (Array.to_list (Array.map Stats.median rewrites)) );
      ("eval_ms", query_ms);
      ("eval_cold_ms", query_ms);
      ("update_ms", query_ms);
      ("requests_per_s", float_of_int networks /. (Stats.median !round_sums /. 1000.));
    ]
  in
  let layers =
    if not ctx.traced then []
    else begin
      let per_op name = Span.total_ms name /. n in
      let own =
        Metrics.of_acc acc
        @ [
            ("datalog.parse_ms", per_op "datalog.parse");
            ("core.pred_ms", per_op "core.pred");
            ("core.qrp_ms", per_op "core.qrp");
            ("eval.compile_ms", per_op "eval.compile");
            ("eval.fixpoint_ms", per_op "eval.fixpoint");
            ("gc.minor_per_op", float_of_int (fst !gcs) /. n);
            ("gc.major_per_op", float_of_int (snd !gcs) /. n);
          ]
      in
      own @ par_layers ctx.seed
    end
  in
  (e2e, layers)
