(* The rewrite pipelines of the paper's Section 7, as the benchmark runs
   them: through the program's top-level entry points
   [Rewrite.constraint_rewrite], [Rewrite.sequence], [Rewrite.optimal] and
   [Gmt.pipeline], traced or not.  The traced run times each phase by the
   program's own [Obs] spans around the phase functions, which it turns on
   for the length of one rewrite. *)

open Cql_datalog
open Cql_core

type t = Pred_qrp | Qrp_mg | Mg_qrp | Pred_qrp_mg | Gmt

let all = [ Pred_qrp; Qrp_mg; Mg_qrp; Pred_qrp_mg; Gmt ]

let to_string = function
  | Pred_qrp -> "pred,qrp"
  | Qrp_mg -> "qrp,mg"
  | Mg_qrp -> "mg,qrp"
  | Pred_qrp_mg -> "pred,qrp,mg"
  | Gmt -> "gmt"

let query (p : Program.t) =
  match p.Program.query with Some q -> q | None -> invalid_arg "pipeline: no query predicate"

let all_free p = String.make (Program.arity p (query p)) 'f'
let mg p = Rewrite.Magic { adornment = all_free p; constraint_magic = true }

(* Total disjuncts of the constraint sets the rewrite pushed. *)
let pushed_disjuncts (r : Rewrite.report) =
  let count cs = List.fold_left (fun n (_, c) -> n + Cql_constr.Cset.num_disjuncts c) 0 cs in
  let pred = Option.map (fun x -> x.Pred_constraints.constraints) r.Rewrite.pred_constraints in
  let qrp = Option.map (fun x -> x.Qrp.constraints) r.Rewrite.qrp_constraints in
  count (Option.value pred ~default:[]) + count (Option.value qrp ~default:[])

let no_report = { Rewrite.pred_constraints = None; qrp_constraints = None }

(* [max_iters] is the iteration budget of the constraint-generation
   fixpoints, the program's default when absent; GMT runs none. *)
let rewrite ?max_iters t p =
  match t with
  | Pred_qrp -> Rewrite.constraint_rewrite ?max_iters p
  | Qrp_mg -> Rewrite.sequence ?max_iters [ Rewrite.Qrp; mg p ] p
  | Mg_qrp -> Rewrite.sequence ?max_iters [ mg p; Rewrite.Qrp ] p
  | Pred_qrp_mg -> Rewrite.optimal ?max_iters ~adornment:(all_free p) p
  | Gmt -> (Gmt.pipeline ~query_adornment:(all_free p) p, no_report)

(* The program's phase spans and the layer each is counted in.  No phase
   span encloses another. *)
let phases =
  [
    ("rewrite.pred_constraints", "core.pred");
    ("rewrite.qrp.gen", "core.qrp");
    ("rewrite.qrp.propagate", "core.qrp");
    ("rewrite.magic", "core.magic");
    ("gmt.pipeline", "core.magic");
  ]

module Obs = Cql_obs.Obs

(* The run's rewrite.  When spans are recorded, the rewrite runs with the
   program's tracing on and each phase span becomes one of the benchmark's
   spans, inside the span open around the call. *)
let run ?max_iters t p =
  if not !Span.enabled then rewrite ?max_iters t p
  else begin
    Obs.reset ();
    Obs.set_enabled true;
    let r =
      Fun.protect ~finally:(fun () -> Obs.set_enabled false) (fun () -> rewrite ?max_iters t p)
    in
    List.iter
      (fun (ev : Obs.event) ->
        match List.assoc_opt ev.Obs.name phases with
        | Some layer ->
            Span.add layer ~start_ns:ev.Obs.start_ns
              ~end_ns:(Int64.add ev.Obs.start_ns ev.Obs.dur_ns)
        | None -> ())
      (Obs.events ());
    Obs.reset ();
    r
  end
