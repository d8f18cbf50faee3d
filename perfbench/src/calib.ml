(* The host's speed, measured the way the program runs.

   On a shared host the same CPU-bound OCaml loop takes anywhere between
   52 and 86 ms from one 5-second window to the next, with or without
   steal time, so raw wall times move by a quarter between runs of
   identical work.  A calibration kernel that owes nothing to the program
   (the walk enumerator on a fixed network: hashing, lists, allocation)
   runs just before timed ops, at most every [interval_ms]; each op's time
   is divided by the kernel's latest slowdown against [reference_ms], the
   kernel's median on the 2-core host this was written on.  Figures are
   then milliseconds at that reference speed; the run record prints the
   run's median slowdown.  No change to the program can move the kernel. *)

let reference_ms = 2.5
let interval_ms = 50.

let network =
  lazy (Inputs.network (Inputs.rng 0 0) ~prefix:"k" ~cities:10 ~out:3)

type t = { mutable ratio : float; mutable last_ns : int64; mutable ratios : float list }

let create () = { ratio = 1.; last_ns = 0L; ratios = [] }

let kernel () =
  let net = Lazy.force network in
  snd
    (Clock.time (fun () ->
         for _ = 1 to 10 do
           ignore (Sys.opaque_identity (Walk.answers net))
         done))

let measure c =
  c.ratio <- kernel () /. reference_ms;
  c.ratios <- c.ratio :: c.ratios;
  c.last_ns <- Clock.now_ns ()

(* Measure the host's speed if the last measurement is older than
   [interval_ms]. *)
let tick c =
  if c.last_ns = 0L || Clock.ms_since c.last_ns >= interval_ms then measure c

(* [scale c ms] is [ms] at the reference speed. *)
let scale c ms = ms /. c.ratio

(* [after c ms] scales an op of [ms] that just ended: an op longer than
   [interval_ms] is scaled by the mean of the slowdowns measured before and
   after it, since the host's speed may change while it runs; the second
   measurement also serves the next op. *)
let after c ms =
  if ms < interval_ms then scale c ms
  else begin
    let before = c.ratio in
    measure c;
    ms /. ((before +. c.ratio) /. 2.)
  end

(* The run's median slowdown against the reference. *)
let slowdown c = match c.ratios with [] -> 1. | l -> Stats.median l

let print c =
  Printf.printf "calibration: %d kernel runs, median slowdown %.4f\n" (List.length c.ratios)
    (slowdown c)
