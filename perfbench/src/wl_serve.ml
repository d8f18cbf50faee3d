(* serve-mix: an in-process cqlserved on a Unix socket with two workers,
   driven by two connections in a closed loop (each caller waits for its
   reply).  Each connection runs whole rounds of a seeded mix: warm evals
   from several tenants (plan-cache hits), evals of program text the daemon
   has not seen (rewrite, compile, evaluate), and insert/retract/query on
   the connection's own flights view, whose EDB is large but split into
   small regions so that one update touches few derivations.  Writes run
   beside reads, so a gain for evals that costs updates shows, and so does
   the reverse.  Every answer is checked against the walk enumerator; for
   the views the benchmark keeps its own copy of the EDB. *)

open Cql_datalog
open Cql_eval
open Cql_serve

let workers = 2
let connections = 2

(* The flights view of each connection: regions of cities r<k>c<i>, each
   with one short leg out of every city and [region_long] long legs per
   city, which the pushed query never extends: the EDB is large while an
   update to one region touches few derivations. *)
let regions = 40
let region_cities = 4
let region_long = 3
let region_band = (10, 11)

(* the networks evals run over, built the same way *)
let net_cities = 6
let net_long = 2
let net_band = (16, 18)

(* warm evals: every limit pair against every small network *)
let warm_limits = [ (240, 150); (200, 120); (260, 170); (220, 140) ]
let warm_networks = 6
let tenants = 4

type kind = Warm | Cold of string | Insert | Retract | Query

let kind_name = function
  | Warm -> "eval"
  | Cold _ -> "eval_cold"
  | Insert -> "insert"
  | Retract -> "retract"
  | Query -> "query"

(* one round of one connection *)
let round_kinds =
  [ Warm; Warm; Warm; Warm; Cold "pred,qrp"; Cold "optimal"; Insert; Retract; Query ]

type network = { legs : Walk.leg list; text : string }

type inputs = {
  nets : network array;  (** the small networks evals run over *)
  warm_expected : (int * int, Walk.answer list) Hashtbl.t;  (** limits, net -> answers *)
  views : Walk.leg list array array;  (** connection -> region -> initial legs *)
}

(* A network of one short leg out of each city, drawn until the walk
   enumerator finds the band's answers among them, plus [long] long legs
   per city drawn after them from the same state. *)
let short ~prefix ~cities st = Inputs.network st ~prefix ~cities ~out:1

let short_key key ~prefix ~cities ~band:(lo, hi) =
  Inputs.band_key key (short ~prefix ~cities) ~lo ~hi

let mixed key ~prefix ~cities ~long =
  Inputs.of_key key (fun st ->
      let s = short ~prefix ~cities st in
      s @ Inputs.network ~kind:Inputs.long st ~prefix ~cities ~out:long)

let region_prefix r = Printf.sprintf "r%dc" r

(* The candidates chosen for every network and region, found by rejection
   before set-up is timed. *)
type keys = { net_keys : int array array; view_keys : int array array array }

let make_keys seed =
  {
    net_keys =
      Array.init warm_networks (fun i ->
          short_key [| seed; 3; i |] ~prefix:"s" ~cities:net_cities ~band:net_band);
    view_keys =
      Array.init connections (fun c ->
          Array.init regions (fun r ->
              short_key [| seed; 10 + c; r |] ~prefix:(region_prefix r) ~cities:region_cities
                ~band:region_band));
  }

let make_inputs keys =
  let nets =
    Array.map
      (fun key ->
        let legs = mixed key ~prefix:"s" ~cities:net_cities ~long:net_long in
        { legs; text = Walk.edb_text legs })
      keys.net_keys
  in
  let warm_expected = Hashtbl.create 32 in
  List.iteri
    (fun li (tmax, cmax) ->
      Array.iteri
        (fun ni n -> Hashtbl.replace warm_expected (li, ni) (Walk.answers ~tmax ~cmax n.legs))
        nets)
    warm_limits;
  let views =
    Array.map
      (Array.mapi (fun r key ->
           mixed key ~prefix:(region_prefix r) ~cities:region_cities ~long:region_long))
      keys.view_keys
  in
  { nets; warm_expected; views }

(* ----- the benchmark's copy of a view ----- *)

type view_copy = {
  legs : Walk.leg list array;  (** per region, a multiset *)
  answers : Walk.answer list array;  (** per region *)
  inserted : Walk.leg Queue.t;  (** legs inserted and not yet retracted *)
}

let copy_of regions_legs =
  {
    legs = Array.copy regions_legs;
    answers = Array.map Walk.answers regions_legs;
    inserted = Queue.create ();
  }

let region_of (l : Walk.leg) = Scanf.sscanf l.Walk.src "r%dc" Fun.id

let apply_update v ~retract (l : Walk.leg) =
  let r = region_of l in
  let rec remove_one = function
    | [] -> []
    | x :: xs -> if x = l then xs else x :: remove_one xs
  in
  v.legs.(r) <- (if retract then remove_one v.legs.(r) else l :: v.legs.(r));
  v.answers.(r) <- Walk.answers v.legs.(r)

let view_expected v = List.sort compare (List.concat (Array.to_list v.answers))

(* ----- one connection ----- *)

let view_name = "legs"
let view_tenant c = Printf.sprintf "w%d" c
let program_text = Walk.program ()

type sample = { kind : kind; ms : float; rewrite_ms : float option }

type conn = {
  id : int;
  client : Client.t;
  view : view_copy;
  st : Random.State.t;
  mutable serial : int;
  mutable samples : sample list;
  mutable completed : int list;  (** requests answered per round, newest first *)
  mutable log : (kind * Json.t) list;  (** requests sent, newest first (traced run) *)
}

let fresh_leg st r =
  let a = Random.State.int st region_cities in
  let b = (a + 1 + Random.State.int st (region_cities - 1)) mod region_cities in
  {
    Walk.src = Printf.sprintf "r%dc%d" r a;
    dst = Printf.sprintf "r%dc%d" r b;
    time = Inputs.range st 25 130;
    cost = Inputs.range st 15 90;
  }

(* One op, prepared before its round starts: the request and the answers
   it must return. *)
type prepared = { kind : kind; req : Json.t; expected : Walk.answer list }

let prepare inputs conn kind =
  let st = conn.st in
  conn.serial <- conn.serial + 1;
  let req, expected =
    match kind with
    | Warm ->
        let li = Random.State.int st (List.length warm_limits) in
        let ni = Random.State.int st warm_networks in
        let tmax, cmax = List.nth warm_limits li in
        ( Protocol.eval_request_json
            ~tenant:(Printf.sprintf "t%d" (Random.State.int st tenants))
            ~edb:inputs.nets.(ni).text ~program:(Walk.program ~tmax ~cmax ()) (),
          Hashtbl.find inputs.warm_expected (li, ni) )
    | Cold pipeline ->
        (* limits the daemon has not seen with this text: the request serial
           makes the text new *)
        let tmax = Inputs.range st 180 300 and cmax = Inputs.range st 100 200 in
        let ni = Random.State.int st warm_networks in
        let program =
          Walk.program ~tmax ~cmax () ^ Printf.sprintf "%% request %d.%d\n" conn.id conn.serial
        in
        ( Protocol.eval_request_json ~tenant:(view_tenant conn.id) ~pipeline
            ~edb:inputs.nets.(ni).text ~program (),
          Walk.answers ~tmax ~cmax inputs.nets.(ni).legs )
    | Insert ->
        let l = fresh_leg st (Random.State.int st regions) in
        Queue.push l conn.view.inserted;
        apply_update conn.view ~retract:false l;
        ( Protocol.update_request_json ~tenant:(view_tenant conn.id) ~retract:false
            ~view:view_name ~facts:(Walk.leg_fact l) (),
          view_expected conn.view )
    | Retract ->
        let l = Queue.pop conn.view.inserted in
        apply_update conn.view ~retract:true l;
        ( Protocol.update_request_json ~tenant:(view_tenant conn.id) ~retract:true
            ~view:view_name ~facts:(Walk.leg_fact l) (),
          view_expected conn.view )
    | Query ->
        ( Protocol.query_request_json ~tenant:(view_tenant conn.id) ~view:view_name (),
          view_expected conn.view )
  in
  if !Span.enabled then conn.log <- (kind, req) :: conn.log;
  { kind; req; expected }

(* Send one prepared request and time its round trip: nothing else. *)
let send cal conn op =
  let resp, raw_ms =
    Span.span ("serve.request." ^ kind_name op.kind) (fun () ->
        Clock.time (fun () -> Client.request conn.client op.req))
  in
  (op, resp, Calib.scale cal raw_ms)

let float_member k j =
  match Json.member k j with
  | Some (Json.Float f) -> Some f
  | Some (Json.Int i) -> Some (float_of_int i)
  | _ -> None

(* Check a reply against the answers prepared for it and keep its sample;
   [true] when the daemon answered the request. *)
let check ctx cal conn (op, resp, ms) =
  let name = kind_name op.kind in
  Common.attempted ctx name;
  match resp with
  | Error msg ->
      Common.failed ctx name;
      Printf.eprintf "perfbench: %s failed: %s\n%!" name msg;
      false
  | Ok j when not (Client.is_ok j) ->
      Common.failed ctx name;
      Printf.eprintf "perfbench: %s failed: %s\n%!" name
        (Option.value (Client.error_message j) ~default:"?");
      false
  | Ok j ->
      (match Walk.answers_of_strings (Client.answers j) with
      | Some got when got = op.expected -> ()
      | Some got ->
          Common.mismatch ctx name
            (Printf.sprintf "%d answers, the walk enumerator finds %d" (List.length got)
               (List.length op.expected))
      | None -> Common.mismatch ctx name "an answer is not a ground flight");
      let rewrite_ms =
        match op.kind with
        | Cold _ -> Option.map (Calib.scale cal) (float_member "rewrite_ms" j)
        | _ -> None
      in
      conn.samples <- { kind = op.kind; ms; rewrite_ms } :: conn.samples;
      true

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

(* The two connections run their rounds in lock step.  Each prepares its
   round's requests and their expected answers, both wait, and the last to
   arrive measures the host's speed while the daemon is idle (so the
   calibration kernel neither competes with requests nor slows down when
   they use more CPU) and starts the round.  Both then only send; when both
   are done the round ends, and each checks its replies before preparing the
   next round.  A round's wall time and allocation are the program's alone:
   the round trips, with the daemon's work and the client's decoding. *)
type lockstep = {
  lock : Mutex.t;
  turn : Condition.t;
  cal : Calib.t;
  started : int64;
  mutable arrived : int;
  mutable generation : int;
  mutable go_on : bool;
  mutable round_start : int64;
  mutable round_alloc0 : float;
  mutable round_gc0 : int * int;
  mutable rounds_ms : float list;  (** round wall times at the reference speed, newest first *)
  mutable alloc_mb : float;  (** allocated inside rounds *)
  mutable gcs : int * int;  (** collections inside rounds *)
  mutable rss_mb : float option;  (** peak RSS once [rss_rounds] rounds have run *)
}

let lockstep cal =
  let now = Clock.now_ns () in
  {
    lock = Mutex.create ();
    turn = Condition.create ();
    cal;
    started = now;
    arrived = 0;
    generation = 0;
    go_on = true;
    round_start = now;
    round_alloc0 = 0.;
    round_gc0 = (0, 0);
    rounds_ms = [];
    alloc_mb = 0.;
    gcs = (0, 0);
    rss_mb = None;
  }

(* Each update leaves heap behind in the view, so the peak RSS grows with
   the number of rounds a run gets through, which the host's speed decides;
   it is read after a fixed number of rounds instead (or at the end of a
   run too short to reach them). *)
let rss_rounds = 60

(* Wait until both connections arrive; the last to arrive runs [f] first. *)
let barrier ls f =
  Mutex.protect ls.lock (fun () ->
      ls.arrived <- ls.arrived + 1;
      if ls.arrived = connections then begin
        f ();
        ls.arrived <- 0;
        ls.generation <- ls.generation + 1;
        Condition.broadcast ls.turn
      end
      else begin
        let g = ls.generation in
        while ls.generation = g do
          Condition.wait ls.turn ls.lock
        done
      end;
      ls.go_on)

let start_round ls =
  ignore
    (barrier ls (fun () ->
         Calib.measure ls.cal;
         ls.round_alloc0 <- Common.allocated_mb ();
         ls.round_gc0 <- Common.gc_counts ();
         ls.round_start <- Clock.now_ns ()))

(* Ends the round; [false] once the run has lasted its seconds. *)
let end_round ctx ls =
  barrier ls (fun () ->
      ls.rounds_ms <- Calib.scale ls.cal (Clock.ms_since ls.round_start) :: ls.rounds_ms;
      ls.alloc_mb <- ls.alloc_mb +. (Common.allocated_mb () -. ls.round_alloc0);
      ls.gcs <- Common.add_gc ls.gcs ls.round_gc0;
      if List.length ls.rounds_ms = rss_rounds then ls.rss_mb <- Some (Common.peak_rss_mb ());
      ls.go_on <- Clock.ms_since ls.started < ctx.Common.seconds *. 1000.)

let connection_loop ctx ls inputs conn =
  let rec go () =
    let ops = List.map (prepare inputs conn) (shuffle conn.st round_kinds) in
    start_round ls;
    let replies = List.map (send ls.cal conn) ops in
    let go_on = end_round ctx ls in
    let answered = List.filter (check ctx ls.cal conn) replies in
    conn.completed <- List.length answered :: conn.completed;
    if go_on then go ()
  in
  go ()

(* ----- set-up ----- *)

type daemon = { server : Server.t; conns : conn array }

let socket_path () = Printf.sprintf "perfbench/out/serve-%d.sock" (Unix.getpid ())

let start ctx inputs =
  (try Unix.mkdir "perfbench/out" 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let socket = socket_path () in
  let server =
    Server.start { (Server.default_config ~socket_path:socket) with Server.workers }
  in
  let connect c =
    match Client.connect_retry socket with
    | Error msg -> failwith msg
    | Ok client ->
        let view = copy_of inputs.views.(c) in
        let st = Inputs.rng ctx.Common.seed (20 + c) in
        let conn =
          { id = c; client; view; st; serial = 0; samples = []; completed = []; log = [] }
        in
        let edb = String.concat "" (List.map Walk.edb_text (Array.to_list inputs.views.(c))) in
        (match
           Client.materialize client ~tenant:(view_tenant c) ~view:view_name ~edb
             ~program:program_text ()
         with
        | Ok j when Client.is_ok j -> (
            match Walk.answers_of_strings (Client.answers j) with
            | Some got when got = view_expected view -> ()
            | _ -> Common.mismatch ctx "materialize" "answers differ from the enumerator's")
        | Ok j -> failwith (Option.value (Client.error_message j) ~default:"materialize failed")
        | Error msg -> failwith msg);
        conn
  in
  let conns = Array.init connections connect in
  (* warm-up: every warm program once, and two updates per view so that
     every round has a leg to retract *)
  let cal = Calib.create () in
  Array.iter
    (fun conn ->
      List.iter
        (fun kind -> ignore (check ctx cal conn (send cal conn (prepare inputs conn kind))))
        [ Warm; Warm; Warm; Warm; Insert; Insert; Query ];
      conn.samples <- [])
    conns;
  { server; conns }

let stop d =
  Array.iter (fun c -> Client.close c.client) d.conns;
  Server.stop d.server;
  Server.wait d.server

(* ----- the traced run's in-process replay ----- *)

let str k j = Option.value (Option.bind (Json.member k j) Json.to_str) ~default:""
let edb_of text = List.map Fact.of_fact_rule (Parser.facts_of_string text)

let pipeline_of = function "optimal" -> Pipeline.Pred_qrp_mg | _ -> Pipeline.Pred_qrp

(* Replay the first [limit] requests of connection 0 in this thread, through
   the public layers the daemon calls, one span per layer: the parser, the
   rewrite phases, plan compilation, the fixpoint, and Engine.insert /
   retract on a view built as the daemon builds it.  Returns the per-layer
   figures per replayed request. *)
let replay (inputs : inputs) log ~limit =
  let acc = Metrics.acc () in
  let plan text =
    let prog, _ = Pipeline.rewrite Pipeline.Pred_qrp (Parser.program_of_string text) in
    (prog, Engine.compile_plans prog)
  in
  let plans = Hashtbl.create 8 in
  List.iter
    (fun (tmax, cmax) ->
      let text = Walk.program ~tmax ~cmax () in
      Hashtbl.replace plans text (plan text))
    warm_limits;
  let view_prog, view_compiled = plan program_text in
  let edb = String.concat "" (List.map Walk.edb_text (Array.to_list inputs.views.(0))) in
  (* the view is reachable only through [vw], so that dropping it frees it *)
  let vw =
    ref
      (Some
         (fst (Engine.materialize ~jobs:1 ~compiled:view_compiled view_prog ~edb:(edb_of edb))))
  in
  let over_deleted = ref 0 and rederived = ref 0 and updates = ref 0 in
  Cql_constr.Solver_stats.reset ();
  List.iteri
    (fun i (kind, req) ->
      if i < limit then begin
        acc.Metrics.ops <- acc.Metrics.ops + 1;
        Span.with_op (i + 1) (fun () ->
            match kind with
            | Warm | Cold _ ->
                let program = str "program" req in
                let p, edb =
                  Span.span "datalog.parse" (fun () ->
                      (Parser.program_of_string program, edb_of (str "edb" req)))
                in
                let prog, compiled =
                  match kind with
                  | Cold pipeline ->
                      let prog, report = Pipeline.run (pipeline_of pipeline) p in
                      Metrics.add_rewrite acc prog report;
                      (prog, Span.span "eval.compile" (fun () -> Engine.compile_plans prog))
                  | _ -> Hashtbl.find plans program
                in
                let a0 = Common.allocated_mb () in
                let res =
                  Span.span "eval.fixpoint" (fun () -> Engine.run ~jobs:1 ~compiled prog ~edb)
                in
                acc.Metrics.fixpoint_alloc_mb <-
                  acc.Metrics.fixpoint_alloc_mb +. (Common.allocated_mb () -. a0);
                Metrics.add_engine acc ~edb res
            | Insert | Retract ->
                let view = Option.get !vw in
                let facts = Span.span "datalog.parse" (fun () -> edb_of (str "facts" req)) in
                let ms =
                  if kind = Insert then
                    Span.span "maintain.insert" (fun () -> Engine.insert view facts)
                  else Span.span "maintain.retract" (fun () -> Engine.retract view facts)
                in
                incr updates;
                over_deleted := !over_deleted + ms.Engine.m_over_deleted;
                rederived := !rederived + ms.Engine.m_rederived
            | Query -> ignore (Engine.view_answers (Option.get !vw)));
        Metrics.add_solver acc
      end)
    log;
  (* the live heap the view holds after the stream *)
  Gc.compact ();
  let with_view = (Gc.stat ()).Gc.live_words in
  Option.iter Engine.close_view !vw;
  vw := None;
  Gc.compact ();
  let without = (Gc.stat ()).Gc.live_words in
  let n = float_of_int acc.Metrics.ops and u = float_of_int (max 1 !updates) in
  let per_op name = Span.total_ms name /. n in
  let mean name =
    match Span.durations name with [] -> 0. | l -> Stats.sum l /. float_of_int (List.length l)
  in
  Metrics.of_acc acc
  @ [
      ("datalog.parse_ms", per_op "datalog.parse");
      ("core.pred_ms", per_op "core.pred");
      ("core.qrp_ms", per_op "core.qrp");
      ("core.magic_ms", per_op "core.magic");
      ("eval.compile_ms", per_op "eval.compile");
      ("eval.fixpoint_ms", per_op "eval.fixpoint");
      ("maintain.insert_ms", mean "maintain.insert");
      ("maintain.retract_ms", mean "maintain.retract");
      ("maintain.over_deleted", float_of_int !over_deleted /. u);
      ("maintain.rederived", float_of_int !rederived /. u);
      ( "maintain.view_live_mb",
        float_of_int (with_view - without) *. float_of_int (Sys.word_size / 8) /. 1e6 );
    ]

(* requests of the traced run replayed in-process *)
let replay_limit = 270

let int_member path j =
  let member j k = Option.bind j (Json.member k) in
  Option.bind (List.fold_left member (Some j) path) Json.to_int

let run (ctx : Common.ctx) () =
  let keys = make_keys ctx.seed in
  let (inputs, d), setup_s =
    Common.repeated_setup
      ~teardown:(fun (_, d) -> stop d)
      (fun () ->
        let inputs = make_inputs keys in
        (inputs, start ctx inputs))
  in
  let cal = Calib.create () in
  let ls = lockstep cal in
  let threads =
    Array.map (fun conn -> Thread.create (connection_loop ctx ls inputs) conn) d.conns
  in
  Array.iter Thread.join threads;
  Calib.print cal;
  let gcs = ls.gcs in
  let samples = List.concat_map (fun c -> c.samples) (Array.to_list d.conns) in
  let ms_of pred = List.filter_map (fun (s : sample) -> if pred s.kind then Some s.ms else None) samples in
  let all = ms_of (fun _ -> true) in
  let warm = ms_of (( = ) Warm) in
  let updates = ms_of (function Insert | Retract -> true | _ -> false) in
  let n = float_of_int (List.length all) in
  (* requests answered in each round, over the round's wall time *)
  let answered_per_s =
    List.mapi
      (fun r ms ->
        let answered = Array.fold_left (fun k c -> k + List.nth c.completed r) 0 d.conns in
        float_of_int answered /. (ms /. 1000.))
      ls.rounds_ms
  in
  let rewrite_by_pipeline =
    List.filter_map
      (fun p ->
        let cold = List.filter (fun (s : sample) -> s.kind = Cold p) samples in
        match List.filter_map (fun s -> s.rewrite_ms) cold with
        | [] -> None
        | l -> Some (Stats.median l))
      [ "pred,qrp"; "optimal" ]
  in
  let e2e =
    [
      ("setup_s", setup_s);
      ("query_ms", Stats.median (ms_of (( = ) Query)));
      ("alloc_mb_per_op", ls.alloc_mb /. n);
      ("peak_rss_mb", Option.value ls.rss_mb ~default:(Common.peak_rss_mb ()));
      ("pass_s", Stats.median ls.rounds_ms /. 1000.);
      ("rewrite_geomean_ms", Stats.geomean rewrite_by_pipeline);
      ("eval_ms", Stats.median warm);
      ("eval_cold_ms", Stats.median (ms_of (function Cold _ -> true | _ -> false)));
      ("update_ms", Stats.median updates);
      ("requests_per_s", Stats.median answered_per_s);
    ]
  in
  let layers =
    if not ctx.traced then []
    else begin
      let hit_rate =
        match Client.stats d.conns.(0).client with
        | Ok j -> (
            let get k = int_member [ "plan_cache"; k ] j in
            match (get "hits", get "misses") with
            | Some h, Some m when h + m > 0 -> float_of_int h /. float_of_int (h + m)
            | _ -> 0.)
        | Error _ -> 0.
      in
      (* Server.respond on the warm-eval frames the sockets carried, at the
         reference speed like the round trips *)
      let warm_frames =
        List.filter_map
          (fun (k, req) -> if k = Warm then Some (Json.to_string req) else None)
          d.conns.(0).log
      in
      let respond =
        List.filteri (fun i _ -> i < 200) warm_frames
        |> List.map (fun payload ->
               Calib.tick cal;
               Calib.after cal
                 (snd (Clock.time (fun () -> ignore (Server.respond d.server payload)))))
      in
      let respond_ms = Stats.median respond in
      [
        ("serve.respond_ms", respond_ms);
        ("serve.transport_ms", Stats.median warm -. respond_ms);
        ("serve.plan_cache_hit_rate", hit_rate);
        ("serve.eval_p99_ms", Stats.percentile 99. warm);
        ("serve.update_p99_ms", Stats.percentile 99. updates);
        ("gc.minor_per_op", float_of_int (fst gcs) /. n);
        ("gc.major_per_op", float_of_int (snd gcs) /. n);
      ]
    end
  in
  stop d;
  let layers =
    if not ctx.traced then []
    else
      let replayed = replay inputs (List.rev d.conns.(0).log) ~limit:replay_limit in
      layers @ replayed @ Wl_query.par_layers ctx.seed
  in
  (e2e, layers)
