(* perfbench: one command that runs a named workload for a fixed time,
   checks every answer against an independent computation and prints
   every metric by name with its unit.

     main.exe --workload query-flights|rewrite-corpus|serve-mix
              --seed N --seconds S --trace 0|1

   The last line of standard output is the JSON result; the lines before
   it are the run record.  See perfbench/README.md. *)

open Perfbench

let workloads =
  [
    ("query-flights", fun ctx -> Wl_query.run ctx ());
    ("rewrite-corpus", fun ctx -> Wl_rewrite.run ctx ());
    ("serve-mix", fun ctx -> Wl_serve.run ctx ());
  ]

let usage () =
  prerr_endline
    "usage: main.exe --workload query-flights|rewrite-corpus|serve-mix --seed N --seconds S \
     --trace 0|1";
  exit 2

let parse_args argv =
  let rec go acc = function
    | [] -> acc
    | k :: v :: rest when String.starts_with ~prefix:"--" k -> go ((k, v) :: acc) rest
    | _ -> usage ()
  in
  let kv = go [] (List.tl (Array.to_list argv)) in
  let get k = match List.assoc_opt k kv with Some v -> v | None -> usage () in
  let workload = get "--workload" in
  let seed = match int_of_string_opt (get "--seed") with Some s -> s | None -> usage () in
  let seconds =
    match float_of_string_opt (get "--seconds") with Some s when s > 0. -> s | _ -> usage ()
  in
  let traced = match get "--trace" with "0" -> false | "1" -> true | _ -> usage () in
  (workload, seed, seconds, traced)

let json_number v = Printf.sprintf "%.17g" v

(* seconds of serve-mix a traced run of another workload adds *)
let probe_seconds = 2.

let () =
  let workload, seed, seconds, traced = parse_args Sys.argv in
  let run = match List.assoc_opt workload workloads with Some r -> r | None -> usage () in
  (match Record.offending (Unix.environment ()) with
  | [] -> ()
  | vars ->
      Printf.eprintf "perfbench: refusing to run with %s set: each selects another program\n"
        (String.concat ", " vars);
      exit 2);
  Record.print_header ~workload ~seed ~seconds ~traced;
  Span.enabled := traced;
  let ctx = Common.make_ctx ~seed ~seconds ~traced in
  let h0 = Record.host () in
  let e2e, layers = run ctx in
  let spans = Span.take () in
  (* per-layer metrics this workload does not measure come from a short
     serve-mix probe with the same seed *)
  let layers, spans =
    let measured (name, _) = List.mem_assoc name layers in
    if traced && not (List.for_all measured Metrics.per_layer) then begin
      let probe = Common.make_ctx ~seed ~seconds:probe_seconds ~traced in
      let _, probed = Wl_serve.run probe () in
      let probe_failed = List.fold_left (fun n (_, _, f) -> n + f) 0 (Common.op_totals probe) in
      ctx.Common.mismatches <- ctx.Common.mismatches + probe.Common.mismatches + probe_failed;
      let missing = List.filter (fun m -> not (measured m)) probed in
      Printf.printf "probe: %s from %g s of serve-mix\n"
        (String.concat " " (List.map fst missing))
        probe_seconds;
      (layers @ missing, spans @ Span.take ())
    end
    else (layers, spans)
  in
  let h1 = Record.host () in
  Record.print_host_delta h0 h1;
  let ops = Common.op_totals ctx in
  Record.print_ops ops;
  if traced then begin
    (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    let path = Printf.sprintf "perfbench/out/spans-%s-%d.ndjson" workload seed in
    Span.write path spans;
    Printf.printf "spans: %s\n" path;
    (* the end-to-end figures of the traced run, for the tracing overhead *)
    List.iter (fun (k, v) -> Printf.printf "traced: %s=%s\n" k (json_number v)) e2e
  end;
  let wanted, got = if traced then (Metrics.per_layer, layers) else (Metrics.end_to_end, e2e) in
  let metrics =
    List.map
      (fun (name, unit) ->
        match List.assoc_opt name got with
        | Some v when Float.is_finite v ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) unit
        | _ ->
            Printf.eprintf "perfbench: metric %s was not measured\n" name;
            exit 1)
      wanted
  in
  let attempted = List.fold_left (fun n (_, a, _) -> n + a) 0 ops in
  let failed = List.fold_left (fun n (_, _, f) -> n + f) 0 ops in
  let correct = ctx.Common.mismatches = 0 in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " metrics);
  exit (if correct then 0 else 1)
