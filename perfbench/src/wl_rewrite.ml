(* rewrite-corpus: cold rewrites of the paper's programs under every
   Section 7 pipeline that applies to them, and of a seeded corpus of
   generated programs in the decidable, linear and integer modes.  Each op
   parses one program text and rewrites it with empty solver caches; the
   answers that check an op's output are computed outside the timed
   region, so the rewriter and the constraint solver do nearly all the
   timed work. *)

open Cql_constr
open Cql_datalog
open Cql_eval

(* generated cases per mode, and the budget a case is evaluated under *)
let cases_per_mode = 60
let case_iterations = 25
let case_derivations = 20_000

(* The iteration budget of the constraint-generation fixpoints when a
   generated case is rewritten.  The paper's programs keep the program's
   default budget (50).  A generated case whose constraints never converge
   can cost far more with every iteration: seed 34's int-35 (a recursive
   sum, under Z) takes 0.2 s under 10 iterations, 16 s under 20 and more
   than 120 s under 30, so under the default a run would not end on that
   seed.  Under 10 iterations the slowest generated rewrite of seeds 1 to
   400 took 0.3 s. *)
let generated_max_iters = 10

type check =
  | Paper of Paper.expected
  | Generated of { mode : Cql_gen.Generate.mode }

type entry = {
  label : string;  (** program/pipeline *)
  source : string;
  edb : Fact.t list;
  pipeline : Pipeline.t;
  domain : Cdomain.t;
  max_iters : int option;  (** the rewrite's iteration budget; the default when absent *)
  check : check;
  mutable reference : Program.t option;  (** the checked output, once known *)
}

let edb_of text = List.map Fact.of_fact_rule (Parser.facts_of_string text)

(* The query's answers with the predicate name dropped: rewrites may
   rename the query predicate, never its arguments. *)
let answer_args facts =
  List.map
    (fun f ->
      let s = Fact.to_string f in
      match String.index_opt s '(' with
      | Some i -> String.sub s i (String.length s - i)
      | None -> "")
    facts
  |> List.sort_uniq compare

(* the evaluations that check outputs, for the traced run's engine figures *)
let checks = Metrics.acc ()

let evaluate prog edb =
  let compiled = Span.span "eval.compile" (fun () -> Engine.compile_plans prog) in
  let a0 = Common.allocated_mb () in
  let res =
    Span.span "eval.fixpoint" (fun () ->
        Engine.run ~jobs:1 ~max_iterations:case_iterations ~max_derivations:case_derivations
          ~compiled prog ~edb)
  in
  if !Span.enabled then begin
    checks.Metrics.fixpoint_alloc_mb <-
      checks.Metrics.fixpoint_alloc_mb +. (Common.allocated_mb () -. a0);
    Metrics.add_engine checks ~edb res
  end;
  ((Engine.stats res).Engine.reached_fixpoint, Engine.answers res prog, res)

(* One op: parse the program text and rewrite it. *)
let rewrite (e : entry) =
  Cdomain.with_domain e.domain (fun () ->
      let p = Span.span "datalog.parse" (fun () -> Parser.program_of_string e.source) in
      Pipeline.run ?max_iters:e.max_iters e.pipeline p)

type verdict =
  | Checked
  | Vacuous  (** a generated case that misses its fixpoint within the budget *)
  | Wrong of string

(* Check a rewritten program against the entry's independent answers. *)
let check_output (e : entry) prog =
  let of_reason = function None -> Checked | Some why -> Wrong why in
  Cdomain.with_domain e.domain (fun () ->
      match e.check with
      | Paper (Paper.Tuples expected) -> (
          (* backward Fibonacci diverges under all four pipelines that
             apply; a run stopped by the budget must already hold exactly
             the worked answers *)
          let _, answers, _ = evaluate prog e.edb in
          of_reason
          @@
          match
            List.map (fun f -> Walk.args_of_fact_string (Fact.to_string f)) answers
            |> List.sort_uniq compare
          with
          | got when got = List.map Option.some (List.sort_uniq compare expected) -> None
          | got ->
              let n = List.length in
              Some (Printf.sprintf "%d answers, %d worked" (n got) (n expected)))
      | Paper (Paper.Points points) ->
          let fixpoint, answers, _ = evaluate prog e.edb in
          of_reason
          @@
          if not fixpoint then Some "the rewritten program does not reach its fixpoint"
          else
            List.find_map
              (fun (point, member) ->
                let covers a = Fact.subsumes a (Fact.ground (Fact.pred a) point) in
                let covered = List.exists covers answers in
                if covered = member then None
                else
                  let point = List.map (Format.asprintf "%a" Term.pp_const) point in
                  Some
                    (Printf.sprintf "grid point (%s) %s" (String.concat ", " point)
                       (if member then "is missing" else "is not an answer")))
              points
      | Generated { mode } -> (
          let orig = Parser.program_of_string e.source in
          let f0, a0, _ = evaluate orig e.edb in
          let f1, a1, _ = evaluate prog e.edb in
          if not (f0 && f1) then Vacuous
          else if answer_args a0 <> answer_args a1 then
            Wrong
              (Printf.sprintf "rewritten answers (%d) differ from the original's (%d)"
                 (List.length a1) (List.length a0))
          else
            match mode with
            | Cql_gen.Generate.Int -> (
                (* the equivalence is checked; this part may go unchecked *)
                (* Z is inside Q: every integer answer is a rational one *)
                let fq, aq, _ = Cdomain.with_domain Cdomain.Q (fun () -> evaluate orig e.edb) in
                if not fq then Checked
                else
                  let q = answer_args aq in
                  match List.find_opt (fun a -> not (List.mem a q)) (answer_args a1) with
                  | Some a -> Wrong ("integer answer " ^ a ^ " has no rational counterpart")
                  | None -> Checked)
            | _ -> Checked))

let paper_entries () =
  List.concat_map
    (fun (pe : Paper.entry) ->
      List.map
        (fun pipeline ->
          {
            label = pe.Paper.name ^ "/" ^ Pipeline.to_string pipeline;
            source = pe.Paper.source;
            edb = edb_of pe.Paper.edb;
            pipeline;
            domain = Cdomain.Q;
            max_iters = None;
            check = Paper pe.Paper.expected;
            reference = None;
          })
        Pipeline.all)
    Paper.all

let generated_entries seed =
  let rng = Cql_gen.Rng.create seed in
  List.concat_map
    (fun mode ->
      List.concat
        (List.init cases_per_mode (fun i ->
             let prog, edb =
               Cql_gen.Generate.case (Cql_gen.Rng.split rng) (Cql_gen.Generate.default mode)
             in
             let source = Program.to_string prog in
             List.map
               (fun pipeline ->
                 {
                   label =
                     Printf.sprintf "%s-%d/%s" (Cql_gen.Generate.mode_to_string mode) i
                       (Pipeline.to_string pipeline);
                   source;
                   edb;
                   pipeline;
                   domain = (if mode = Cql_gen.Generate.Int then Cdomain.Z else Cdomain.Q);
                   max_iters = Some generated_max_iters;
                   check = Generated { mode };
                   reference = None;
                 })
               Pipeline.all)))
    [ Cql_gen.Generate.Decidable; Linear; Int ]

(* GMT applies only to programs whose bcf-adorned form is groundable
   (Definition 6.1); every other pipeline applies to every program with a
   query. *)
let applies (e : entry) =
  e.pipeline <> Pipeline.Gmt
  || Cdomain.with_domain e.domain (fun () ->
         let p = Parser.program_of_string e.source in
         Cql_core.Gmt.groundable
           (Cql_core.Gmt.adorn_bcf ~query_adornment:(Pipeline.all_free p) p))

let op_kind = "rewrite"

(* Time one op and check its output: against the independent answers the
   first time an entry is rewritten, and for equality up to renaming with
   that checked output after. *)
let timed_op ctx cal acc tally opid (e : entry) =
  Common.cold_start ();
  Calib.tick cal;
  if ctx.Common.traced then Solver_stats.reset ();
  Common.attempted ctx op_kind;
  let a0 = Common.allocated_mb () and g0 = Common.gc_counts () in
  match Span.with_op opid (fun () -> Clock.time (fun () -> rewrite e)) with
  | exception ex ->
      Common.failed ctx op_kind;
      Printf.eprintf "perfbench: %s raised %s\n%!" e.label (Printexc.to_string ex);
      None
  | (prog, report), raw_ms ->
      let ms = Calib.after cal raw_ms in
      let alloc = Common.allocated_mb () -. a0 and gcs = Common.add_gc (0, 0) g0 in
      if ctx.Common.traced then begin
        (* the op's own solver work, before the check evaluates anything *)
        acc.Metrics.ops <- acc.Metrics.ops + 1;
        Metrics.add_solver acc;
        Metrics.add_rewrite acc prog report
      end;
      (match e.reference with
      | Some r when Program.equal_mod_renaming prog r -> ()
      | Some _ -> Common.mismatch ctx e.label "the rewrite differs from its checked output"
      | None -> (
          match check_output e prog with
          | Wrong why -> Common.mismatch ctx e.label why
          | v ->
              tally e v;
              e.reference <- Some prog));
      Some (ms, alloc, gcs)

let run (ctx : Common.ctx) () =
  let entries, setup_s =
    Common.repeated_setup (fun () ->
        List.filter applies (paper_entries () @ generated_entries ctx.seed))
  in
  let entries = Array.of_list entries in
  let times = Array.make (Array.length entries) [] in
  let all_times = ref [] and ops = ref 0 and gcs = ref (0, 0) and acc = Metrics.acc () in
  let cal = Calib.create () in
  (* entries whose first output was checked, and generated ones whose check
     was vacuous, per group *)
  let verdicts = Hashtbl.create 4 in
  let tally e v =
    let group =
      match e.check with
      | Paper _ -> "paper"
      | Generated { mode } -> Cql_gen.Generate.mode_to_string mode
    in
    let checked, vacuous =
      match Hashtbl.find_opt verdicts group with
      | Some c -> c
      | None ->
          let c = (ref 0, ref 0) in
          Hashtbl.replace verdicts group c;
          c
    in
    incr (if v = Vacuous then vacuous else checked)
  in
  (* sums over the paper's programs only: a generated case now and then
     takes a second where the others take a fraction of a millisecond, so a
     sum over the generated corpus would measure which seed drew one *)
  let paper_alloc = ref 0. and paper_ops = ref 0 in
  let is_paper e = match e.check with Paper _ -> true | Generated _ -> false in
  let paper_entries = Array.fold_left (fun n e -> if is_paper e then n + 1 else n) 0 entries in
  Common.run_rounds ctx (fun () ->
        Array.iteri
          (fun i e ->
            incr ops;
            match timed_op ctx cal acc tally !ops e with
            | None -> ()
            | Some (ms, a, (minor, major)) ->
                times.(i) <- ms :: times.(i);
                all_times := ms :: !all_times;
                gcs := (fst !gcs + minor, snd !gcs + major);
                if is_paper e then begin
                  paper_alloc := !paper_alloc +. a;
                  incr paper_ops
                end)
          entries);
  let n = float_of_int (List.length !all_times) and paper_n = float_of_int !paper_ops in
  let median_op = Stats.median !all_times in
  (* one pass over the paper's programs: the sum of each entry's median, as
     a run gets through only three or four passes *)
  let pass_s =
    let sum = ref 0. in
    Array.iteri
      (fun i e ->
        if is_paper e && times.(i) <> [] then sum := !sum +. Stats.median times.(i))
      entries;
    !sum /. 1000.
  in
  Calib.print cal;
  (* the entries that take most of a round *)
  Array.to_list (Array.mapi (fun i e -> (e, times.(i))) entries)
  |> List.filter_map (fun (e, t) -> if t = [] then None else Some (Stats.median t, e.label))
  |> List.sort (fun a b -> compare b a)
  |> List.filteri (fun i _ -> i < 5)
  |> List.iter (fun (ms, label) -> Printf.printf "slowest: %s median %.1f ms\n" label ms);
  Hashtbl.fold (fun g (c, v) l -> (g, !c, !v) :: l) verdicts []
  |> List.sort compare
  |> List.iter (fun (g, c, v) ->
         Printf.printf "checks: %s checked=%d vacuous=%d (missed the fixpoint budget)\n" g c v);
  let e2e =
    [
      ("setup_s", setup_s);
      ("query_ms", median_op);
      ("alloc_mb_per_op", !paper_alloc /. paper_n);
      ("peak_rss_mb", Common.peak_rss_mb ());
      ("pass_s", pass_s);
      ( "rewrite_geomean_ms",
        Stats.geomean
          (List.filter_map
             (function [] -> None | t -> Some (Stats.median t))
             (Array.to_list times)) );
      ("eval_ms", median_op);
      ("eval_cold_ms", median_op);
      ("update_ms", median_op);
      ("requests_per_s", float_of_int paper_entries /. pass_s);
    ]
  in
  let layers =
    if not ctx.traced then []
    else
      let per_op name = Span.total_ms name /. n in
      let per_check name = Span.total_ms name /. float_of_int (max 1 checks.Metrics.runs) in
      let own =
      [
        ("datalog.parse_ms", per_op "datalog.parse");
        ("core.pred_ms", per_op "core.pred");
        ("core.qrp_ms", per_op "core.qrp");
        ("core.magic_ms", per_op "core.magic");
        ("eval.compile_ms", per_check "eval.compile");
        ("eval.fixpoint_ms", per_check "eval.fixpoint");
        ("gc.minor_per_op", float_of_int (fst !gcs) /. n);
        ("gc.major_per_op", float_of_int (snd !gcs) /. n);
      ]
      @ Metrics.solver_layers acc
      @ Metrics.engine_layers checks
      in
      own @ Wl_query.par_layers ctx.seed
  in
  (e2e, layers)
