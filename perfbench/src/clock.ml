let now_ns () = Monotonic_clock.now ()
let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

(* [time f] is [f ()] with its wall time in milliseconds. *)
let time f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_since t0)
