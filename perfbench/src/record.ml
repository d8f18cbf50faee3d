(* The run record printed before the result: what ran, where, and how busy
   the host was meanwhile. *)

let guard_prefix = "CQLOPT_"

(* Environment entries that would silently select another program: each
   CQLOPT_* variable changes jobs, the interpreter, the interval tier or
   tracing. *)
let offending env =
  Array.to_list env
  |> List.filter (fun kv -> String.starts_with ~prefix:guard_prefix kv)
  |> List.map (fun kv ->
         match String.index_opt kv '=' with Some i -> String.sub kv 0 i | None -> kv)

(* The commit of the checkout, read from .git without running git; a
   checkout without .git reports "unknown". *)
let commit () =
  match Common.read_file ".git/HEAD" with
  | None -> "unknown"
  | Some head -> (
      let head = String.trim head in
      match String.split_on_char ' ' head with
      | [ "ref:"; r ] -> (
          match Common.read_file (".git/" ^ r) with
          | Some c -> String.trim c
          | None -> (
              match Common.read_file ".git/packed-refs" with
              | None -> "unknown"
              | Some packed ->
                  List.find_map
                    (fun line ->
                      match String.split_on_char ' ' (String.trim line) with
                      | [ c; r' ] when r' = r -> Some c
                      | _ -> None)
                    (String.split_on_char '\n' packed)
                  |> Option.value ~default:"unknown"))
      | _ -> head)

let date () =
  let t = Unix.gmtime (Unix.time ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.Unix.tm_year + 1900) (t.Unix.tm_mon + 1)
    t.Unix.tm_mday t.Unix.tm_hour t.Unix.tm_min t.Unix.tm_sec

(* (steal, total) jiffies of the whole host from the first line of
   /proc/stat. *)
let cpu_jiffies () =
  match Common.read_file "/proc/stat" with
  | None -> None
  | Some s -> (
      match String.split_on_char '\n' s with
      | line :: _ -> (
          match List.filter (( <> ) "") (String.split_on_char ' ' line) with
          | "cpu" :: fields ->
              let v = List.filter_map int_of_string_opt fields in
              let total = List.fold_left ( + ) 0 v in
              Some ((match List.nth_opt v 7 with Some st -> st | None -> 0), total)
          | _ -> None)
      | [] -> None)

let load1 () =
  match Common.read_file "/proc/loadavg" with
  | Some s -> (
      match String.split_on_char ' ' s with x :: _ -> float_of_string_opt x | [] -> None)
  | None -> None

type host = { jiffies : (int * int) option; load : float option }

let host () = { jiffies = cpu_jiffies (); load = load1 () }

let print_header ~workload ~seed ~seconds ~traced =
  Printf.printf "run: workload=%s seed=%d seconds=%g trace=%d\n" workload seed seconds
    (if traced then 1 else 0);
  Printf.printf "machine: commit=%s nproc=%d ocaml=%s date=%s\n" (commit ())
    (Domain.recommended_domain_count ()) Sys.ocaml_version (date ())

let print_host_delta h0 h1 =
  let steal =
    match (h0.jiffies, h1.jiffies) with
    | Some (s0, t0), Some (s1, t1) when t1 > t0 ->
        Printf.sprintf "%d jiffies (%.2f%% of host cpu time)" (s1 - s0)
          (100. *. float_of_int (s1 - s0) /. float_of_int (t1 - t0))
    | _ -> "unavailable"
  in
  let load = function Some l -> Printf.sprintf "%.2f" l | None -> "?" in
  Printf.printf "host: steal=%s load1 %s -> %s\n" steal (load h0.load) (load h1.load)

let print_ops ops =
  List.iter (fun (kind, a, f) -> Printf.printf "ops: %s attempted=%d failed=%d\n" kind a f) ops
