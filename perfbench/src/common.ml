(* What every workload shares: the run context, per-kind op accounting,
   answer-check failures, process-wide allocation and memory readings. *)

type ctx = {
  seed : int;
  seconds : float;
  traced : bool;
  mutable mismatches : int;  (** ops whose output failed its check *)
  kinds : (string, int ref * int ref) Hashtbl.t;  (** kind -> attempted, failed *)
  lock : Mutex.t;  (** serve-mix clients account from two threads *)
}

let make_ctx ~seed ~seconds ~traced =
  {
    seed;
    seconds;
    traced;
    mismatches = 0;
    kinds = Hashtbl.create 8;
    lock = Mutex.create ();
  }

let locked ctx f = Mutex.protect ctx.lock f

let counters ctx kind =
  match Hashtbl.find_opt ctx.kinds kind with
  | Some c -> c
  | None ->
      let c = (ref 0, ref 0) in
      Hashtbl.replace ctx.kinds kind c;
      c

let attempted ctx kind = locked ctx (fun () -> incr (fst (counters ctx kind)))
let failed ctx kind = locked ctx (fun () -> incr (snd (counters ctx kind)))

(* An op whose output disagrees with the independent expectation: the run
   is incorrect.  The first few are described on stderr. *)
let mismatch ctx kind detail =
  locked ctx (fun () ->
      ctx.mismatches <- ctx.mismatches + 1;
      if ctx.mismatches <= 5 then
        Printf.eprintf "perfbench: %s: wrong output: %s\n%!" kind detail)

let op_totals ctx =
  Hashtbl.fold (fun kind (a, f) acc -> (kind, !a, !f) :: acc) ctx.kinds []
  |> List.sort compare

(* ----- process-wide readings ----- *)

(* Words allocated by every domain of the process.  Live domains report
   their counts as of their last minor collection, so the figure lags by
   at most one minor heap per domain. *)
let allocated_mb () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words)
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

let gc_counts () =
  let s = Gc.quick_stat () in
  (s.Gc.minor_collections, s.Gc.major_collections)

(* [add_gc (minor, major) g0] adds the collections since reading [g0]. *)
let add_gc (minor, major) (m0, j0) =
  let m1, j1 = gc_counts () in
  (minor + m1 - m0, major + j1 - j0)

(* A one-shot op starts as a fresh process would: empty solver caches and
   a compacted heap.  Called outside the timed region. *)
let cold_start () =
  Cql_constr.Memo.clear_all ();
  Gc.compact ()

let read_file path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      Fun.protect ~finally:(fun () -> close_in ic) (fun () -> Some (In_channel.input_all ic))

(* [VmHWM] of this process, in MB. *)
let peak_rss_mb () =
  match read_file "/proc/self/status" with
  | None -> nan
  | Some s ->
      List.find_map
        (fun line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ ->
                  Option.map (fun kb -> float_of_int kb /. 1024.) (int_of_string_opt kb)
              | [] -> None)
          | _ -> None)
        (String.split_on_char '\n' s)
      |> Option.value ~default:nan

(* times set-up runs in one run *)
let setup_repeats = 15

(* CPU time of the whole process, every thread, in milliseconds. *)
let cpu_ms () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1000.

(* Run [f] [setup_repeats] times and keep the last result and the median
   set-up time in seconds, at the reference speed of {!Calib}.  Set-up is
   timed in CPU time of the whole process, not wall time: on a shared host
   the daemon's set-up took from 350 to 910 ms of wall time between runs,
   rising with the host's steal time (the time a core waits for the host),
   while the requests timed in the same runs moved by 5%.  Steal is not
   CPU time, and work that set-up moves to other threads still counts.
   The calibration kernel is timed the same way, three times before every
   repeat, and the median CPU time is divided by the kernel's median
   slowdown.  [teardown] releases each discarded result, outside the
   timing. *)
let repeated_setup ?(teardown = ignore) f =
  let kernels = ref [] and times = ref [] and last = ref None in
  let cpu_time g =
    let c0 = cpu_ms () in
    let r = g () in
    (r, cpu_ms () -. c0)
  in
  for i = 1 to setup_repeats do
    for _ = 1 to 3 do
      kernels := snd (cpu_time Calib.kernel) :: !kernels
    done;
    let r, ms = cpu_time f in
    times := ms :: !times;
    if i < setup_repeats then teardown r else last := Some r
  done;
  let cpu = Stats.median !times and slowdown = Stats.median !kernels /. Calib.reference_ms in
  Printf.printf "setup: %d repeats, median cpu %.2f ms, kernel median cpu slowdown %.4f\n"
    setup_repeats cpu slowdown;
  (Option.get !last, cpu /. slowdown /. 1000.)

(* Ops run in whole rounds until [seconds] have passed. *)
let run_rounds ctx round =
  let t0 = Clock.now_ns () in
  round ();
  while Clock.ms_since t0 < ctx.seconds *. 1000. do
    round ()
  done
