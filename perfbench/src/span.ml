(* The benchmark's own spans, recorded around each public call into a layer
   in the traced run only.  A span has a name, a start and an end, the span
   that was open around it in the same thread, and the id of the op it
   belongs to.  Spans stay in memory until the run ends. *)

type t = { id : int; parent : int; op : int; name : string; start_ns : int64; end_ns : int64 }

let enabled = ref false
let lock = Mutex.create ()
let recorded : t list ref = ref []
let next_id = ref 1

(* open span stack and current op, per thread *)
let stacks : (int, int list * int) Hashtbl.t = Hashtbl.create 4

let state () =
  Option.value (Hashtbl.find_opt stacks (Thread.id (Thread.self ()))) ~default:([], 0)

let set_state s = Hashtbl.replace stacks (Thread.id (Thread.self ())) s

(* [with_op id f] attributes the spans [f] opens to op [id]. *)
let with_op id f =
  if not !enabled then f ()
  else begin
    let stack, prev = Mutex.protect lock state in
    Mutex.protect lock (fun () -> set_state (stack, id));
    Fun.protect ~finally:(fun () -> Mutex.protect lock (fun () -> set_state (stack, prev))) f
  end

let span name f =
  if not !enabled then f ()
  else begin
    let id, parent =
      Mutex.protect lock (fun () ->
          let stack, op = state () in
          let id = !next_id in
          incr next_id;
          set_state (id :: stack, op);
          (id, match stack with p :: _ -> p | [] -> 0))
    in
    let start_ns = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let end_ns = Clock.now_ns () in
        Mutex.protect lock (fun () ->
            let stack, op = state () in
            set_state ((match stack with _ :: s -> s | [] -> []), op);
            recorded := { id; parent; op; name; start_ns; end_ns } :: !recorded))
      f
  end

(* [add name ~start_ns ~end_ns] records a span timed elsewhere on the
   monotonic clock, inside the span open in this thread. *)
let add name ~start_ns ~end_ns =
  if !enabled then
    Mutex.protect lock (fun () ->
        let stack, op = state () in
        let id = !next_id in
        incr next_id;
        let parent = match stack with p :: _ -> p | [] -> 0 in
        recorded := { id; parent; op; name; start_ns; end_ns } :: !recorded)

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

(* The spans recorded so far, which are then forgotten. *)
let take () =
  Mutex.protect lock (fun () ->
      let l = List.rev !recorded in
      recorded := [];
      l)
let dur_ms s = Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e6

(* Durations in milliseconds of every span called [name]. *)
let durations name =
  List.filter_map (fun s -> if s.name = name then Some (dur_ms s) else None) (all ())

let total_ms name = Stats.sum (durations name)

let write path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"op\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.parent s.op s.name s.start_ns s.end_ns)
        spans)
