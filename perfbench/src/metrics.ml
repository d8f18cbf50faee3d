(* Every metric the benchmark prints, with its unit.  BENCHMARK.json lists
   the same names; the untraced run prints every end-to-end metric and the
   traced run every per-layer metric, on every workload. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("query_ms", "ms");
    ("alloc_mb_per_op", "MB");
    ("peak_rss_mb", "MB");
    ("pass_s", "s");
    ("rewrite_geomean_ms", "ms");
    ("eval_ms", "ms");
    ("eval_cold_ms", "ms");
    ("update_ms", "ms");
    ("requests_per_s", "1/s");
  ]

let per_layer =
  [
    ("datalog.parse_ms", "ms");
    ("core.pred_ms", "ms");
    ("core.qrp_ms", "ms");
    ("core.magic_ms", "ms");
    ("core.out_rules", "count");
    ("core.out_disjuncts", "count");
    ("constr.sat_checks", "count");
    ("constr.implies_checks", "count");
    ("constr.project_calls", "count");
    ("constr.simplex_runs", "count");
    ("constr.fm_eliminations", "count");
    ("constr.int_omega_eliminations", "count");
    ("constr.int_bb_nodes", "count");
    ("constr.interval_decided_share", "ratio");
    ("constr.memo_hit_rate", "ratio");
    ("eval.compile_ms", "ms");
    ("eval.fixpoint_ms", "ms");
    ("eval.fixpoint_alloc_mb", "MB");
    ("eval.derivations", "count");
    ("eval.iterations", "count");
    ("eval.subsumed_share", "ratio");
    ("store.index_probes", "count");
    ("store.candidates_per_probe", "count");
    ("store.subsumptions_avoided", "count");
    ("maintain.insert_ms", "ms");
    ("maintain.retract_ms", "ms");
    ("maintain.over_deleted", "count");
    ("maintain.rederived", "count");
    ("maintain.view_live_mb", "MB");
    ("serve.respond_ms", "ms");
    ("serve.transport_ms", "ms");
    ("serve.plan_cache_hit_rate", "ratio");
    ("serve.eval_p99_ms", "ms");
    ("serve.update_p99_ms", "ms");
    ("par.pool_start_ms", "ms");
    ("par.fixpoint_jobs_ratio", "ratio");
    ("gc.minor_per_op", "count");
    ("gc.major_per_op", "count");
  ]

(* ----- per-op accumulation of the program's own counters (traced run) ----- *)

open Cql_constr
open Cql_eval

type acc = {
  mutable ops : int;
  mutable solver : (string * float) list;  (** summed solver counters *)
  mutable memo_hits : int;
  mutable memo_lookups : int;
  mutable engine : (string * float) list;  (** summed engine figures *)
  mutable runs : int;  (** engine runs folded into [engine] *)
  mutable rules : int;
  mutable disjuncts : int;
  mutable rewrites : int;
  mutable fixpoint_alloc_mb : float;
}

let acc () =
  {
    ops = 0;
    solver = [];
    memo_hits = 0;
    memo_lookups = 0;
    engine = [];
    runs = 0;
    rules = 0;
    disjuncts = 0;
    rewrites = 0;
    fixpoint_alloc_mb = 0.;
  }

let add_to l k v =
  let old = Option.value (List.assoc_opt k l) ~default:0. in
  (k, old +. v) :: List.remove_assoc k l

let get l k = Option.value (List.assoc_opt k l) ~default:0.

(* Fold the solver counters since the last [Solver_stats.reset] into [a]. *)
let add_solver a =
  let s = Solver_stats.snapshot () in
  let f = float_of_int in
  List.iter
    (fun (k, v) -> a.solver <- add_to a.solver k (f v))
    [
      ("sat_checks", s.Solver_stats.sat_checks);
      ("implies_checks", s.implies_checks + s.implies_atom_checks + s.cset_implies_checks);
      ("project_calls", s.project_calls);
      ("simplex_runs", s.simplex_runs);
      ("fm_eliminations", s.fm_eliminations);
      ("int_omega_eliminations", s.int_omega_eliminations);
      ("int_bb_nodes", s.int_bb_nodes);
      ( "interval_decided",
        s.interval_sat_hits + s.interval_implies_hits + s.interval_disjoint_hits );
      ("interval_bails", s.interval_bails);
    ];
  a.memo_hits <- a.memo_hits + Solver_stats.total_hits s;
  a.memo_lookups <- a.memo_lookups + Solver_stats.total_hits s + Solver_stats.total_misses s;
  Solver_stats.reset ()

let add_rewrite a (p : Cql_datalog.Program.t) report =
  a.rewrites <- a.rewrites + 1;
  a.rules <- a.rules + List.length p.Cql_datalog.Program.rules;
  a.disjuncts <- a.disjuncts + Pipeline.pushed_disjuncts report

let add_engine a ~edb res =
  let s = Engine.stats res in
  let edb_facts = List.length (List.sort_uniq Fact.compare edb) in
  let f = float_of_int in
  a.runs <- a.runs + 1;
  List.iter
    (fun (k, v) -> a.engine <- add_to a.engine k v)
    [
      ("derivations", f s.Engine.derivations);
      ("iterations", f s.Engine.iterations);
      ("subsumed", f (s.Engine.derivations - (s.Engine.facts_added - edb_facts)));
      ("index_probes", f s.Engine.index_probes);
      ("index_hits", f s.Engine.index_hits);
      ("subsumptions_avoided", f s.Engine.subsumptions_avoided);
    ]

let ratio num den = if den > 0. then num /. den else 0.

(* Per-layer figures of the solver and the rewriter, per op. *)
let solver_layers a =
  let per_op x = ratio x (float_of_int a.ops) in
  let s = get a.solver in
  [
    ("core.out_rules", ratio (float_of_int a.rules) (float_of_int a.rewrites));
    ("core.out_disjuncts", ratio (float_of_int a.disjuncts) (float_of_int a.rewrites));
    ("constr.sat_checks", per_op (s "sat_checks"));
    ("constr.implies_checks", per_op (s "implies_checks"));
    ("constr.project_calls", per_op (s "project_calls"));
    ("constr.simplex_runs", per_op (s "simplex_runs"));
    ("constr.fm_eliminations", per_op (s "fm_eliminations"));
    ("constr.int_omega_eliminations", per_op (s "int_omega_eliminations"));
    ("constr.int_bb_nodes", per_op (s "int_bb_nodes"));
    ( "constr.interval_decided_share",
      ratio (s "interval_decided") (s "interval_decided" +. s "interval_bails") );
    ("constr.memo_hit_rate", ratio (float_of_int a.memo_hits) (float_of_int a.memo_lookups));
  ]

(* Per-layer figures of the engine and the store, per engine run. *)
let engine_layers a =
  let e = get a.engine and runs = float_of_int a.runs in
  [
    ("eval.fixpoint_alloc_mb", ratio a.fixpoint_alloc_mb runs);
    ("eval.derivations", ratio (e "derivations") runs);
    ("eval.iterations", ratio (e "iterations") runs);
    ("eval.subsumed_share", ratio (e "subsumed") (e "derivations"));
    ("store.index_probes", ratio (e "index_probes") runs);
    ("store.candidates_per_probe", ratio (e "index_hits") (e "index_probes"));
    ("store.subsumptions_avoided", ratio (e "subsumptions_avoided") runs);
  ]

let of_acc a = solver_layers a @ engine_layers a

(* ----- the domain pool, measured the same way on every workload ----- *)

let pool_start_ms () =
  let jobs = Cql_par.Pool.recommended_jobs () in
  Stats.median
    (List.init 9 (fun _ ->
         snd (Clock.time (fun () -> Cql_par.Pool.shutdown (Cql_par.Pool.create ~jobs)))))

(* Fixpoint time at the recommended job count over fixpoint time at one
   job, interleaved pairs on the same input. *)
let fixpoint_jobs_ratio ?compiled prog ~edb =
  let jobs = Cql_par.Pool.recommended_jobs () in
  let time j =
    Common.cold_start ();
    snd (Clock.time (fun () -> ignore (Engine.run ~jobs:j ?compiled prog ~edb)))
  in
  let pairs = List.init 5 (fun _ -> (time 1, time jobs)) in
  ratio (Stats.median (List.map snd pairs)) (Stats.median (List.map fst pairs))
