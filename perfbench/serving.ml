(* The in-process socket server both serve workloads drive, and the
   traced replay of one request through its layers. *)

module Json = Tgd_serve.Json
module Server = Tgd_serve.Server
module Transport = Tgd_net.Transport
module Dispatcher = Tgd_net.Dispatcher
module Admission = Tgd_net.Admission

let config ~workers =
  { Transport.default_config with
    Transport.dispatcher = { Dispatcher.default_config with Dispatcher.workers }
  }

type t = { srv : Transport.t; conns : Client.conn array; cfg : Transport.config }

let start ~workers ~clients path =
  let cfg = config ~workers in
  let srv = Transport.start cfg (Transport.Unix_sock path) in
  { srv; cfg; conns = Array.init clients (fun _ -> Client.connect path) }

let stop t =
  Array.iter Client.close t.conns;
  ignore (Transport.stop t.srv)

let dispatcher t = Transport.dispatcher t.srv

(* Chunk counters of the server's pool, from the [stats] op's view. *)
let pool_counters t =
  let pool = Json.member "pool" (Dispatcher.stats_json (dispatcher t)) in
  let get k =
    match Option.bind pool (Json.member k) with
    | Some v -> Option.value (Json.as_float v) ~default:0.
    | None -> 0.
  in
  (get "chunks", get "chunks_stolen", get "merge_time_s")

let pool_layers ~ops (c0, s0, m0) (c1, s1, m1) =
  let n = float_of_int (max 1 ops) in
  [ ("pool.chunks", (c1 -. c0) /. n);
    ("pool.stolen_frac", if c1 > c0 then (s1 -. s0) /. (c1 -. c0) else 0.);
    ("pool.merge_ms", 1e3 *. (m1 -. m0) /. n)
  ]

(* A request as the traced replay needs it. *)
type replay = {
  line : string;             (** the request line sent over the socket *)
  sigma : string;            (** its rule set, surface syntax *)
  rest : unit -> unit;       (** parses the rest of the request *)
  engine : string;           (** span name of the engine call *)
  run : unit -> unit;        (** the engine call [Server.handle] makes *)
}

(* One traced request on the first connection: the socket round trip, then
   its layers replayed in-process (see {!Trace}).  Every fourth request
   also sends a malformed line, which the transport answers by itself:
   that round trip is the transport's own cost.  Returns the round-trip
   latency and the reply. *)
let traced_step t r ~rid rp =
  let open Trace in
  let sock = fresh r in
  let t0 = Unix.gettimeofday () in
  let resp_line = Client.roundtrip t.conns.(0) rp.line in
  let t1 = Unix.gettimeofday () in
  record r ~id:sock ~parent:(-1) ~rid "socket.rtt" t0 t1;
  let req =
    span r ~rid ~parent:sock "json.decode" (fun () ->
        match Json.of_string rp.line with
        | Ok j -> j
        | Error e -> failwith e)
  in
  let disp = fresh r in
  let resp =
    span r ~rid ~parent:sock ~id:disp "dispatcher.handle" (fun () ->
        Dispatcher.handle ~conn:1000 (dispatcher t) req)
  in
  ignore
    (span r ~rid ~parent:disp "admission.decide" (fun () ->
         Admission.decide t.cfg.Transport.dispatcher.Dispatcher.admission
           ~queue_depth:0 req));
  let server = fresh r in
  ignore
    (span r ~rid ~parent:disp ~id:server "server.handle" (fun () ->
         Server.handle t.cfg.Transport.dispatcher.Dispatcher.server req));
  let prog = fresh r in
  ignore
    (span r ~rid ~parent:server ~id:prog "parse.program" (fun () ->
         ignore
           (span r ~rid ~parent:prog "parse.sigma" (fun () ->
                ignore (Tgd_parse.Parse.tgds rp.sigma)));
         rp.rest ()));
  ignore (span r ~rid ~parent:server rp.engine rp.run);
  ignore
    (span r ~rid ~parent:sock "json.encode" (fun () -> Json.to_string resp));
  if rid mod 4 = 0 then
    ignore
      (span r ~rid "transport.probe" (fun () ->
           Client.roundtrip t.conns.(0) "x"));
  (t1 -. t0, resp_line)

(* Per-layer metrics of the serve path from the span table.  The
   residual is the end-to-end p50 ([p50_us], every connection busy) the
   layers do not account for; the overhead compares the traced round
   trip with an untraced one on a single connection. *)
let layer_spans rows ~p50_us ~single_p50_us ~traced_p50_us =
  let tot = Trace.total_us rows and self = Trace.self_us rows in
  let transport = tot "transport.probe" in
  let explained =
    transport +. tot "json.decode" +. tot "json.encode"
    +. tot "dispatcher.handle"
  in
  [ ("transport.self_us", transport);
    ("json.decode_us", tot "json.decode");
    ("json.encode_us", tot "json.encode");
    ("parse.sigma_us", tot "parse.sigma");
    ("admission.decide_us", tot "admission.decide");
    ("dispatcher.hop_us", self "dispatcher.handle");
    ("server.handle_us", tot "server.handle");
    ("parse.program_ms", tot "parse.program" /. 1e3);
    ("json.encode_ms", tot "json.encode" /. 1e3);
    ("residual_us", p50_us -. explained);
    ( "trace.overhead_pct",
      if single_p50_us > 0. then
        100. *. (traced_p50_us -. single_p50_us) /. single_p50_us
      else 0. )
  ]

(* A timed closed-loop phase on [threads] connections, with the phase's
   counter-based layer metrics. *)
let timed t ~threads ~secs step =
  let a = Phase.snap () and p0 = pool_counters t in
  let o, ws =
    Phase.with_windows (fun () ->
        Client.closed_loop ~threads ~deadline:(Host.now () +. secs) (step t))
  in
  let d = Phase.diff a (Phase.snap ()) in
  let ops = Client.attempted o in
  (o, d, ws, Phase.layer_counters ~ops d @ pool_layers ~ops p0 (pool_counters t))

(* The whole run of a serve workload after set-up.  Untraced: one timed
   phase on every connection.  Traced: the same phase for a third of the
   time (counters, p99, the p50 the breakdown must explain), then one
   connection untraced and one connection traced, a third each, so the
   tracing overhead compares like with like.  [replay i] gives request
   [i]'s replay and its answer check; [engine_layers rows] the
   workload's own span metrics. *)
let run t ~clients ~seconds ~trace ~params ~setup_s ~setup_failed ~step
    ~replay ~engine_layers =
  let result =
    if not trace then begin
      let o, d, ws, _ =
        timed t ~threads:clients ~secs:(float_of_int seconds) step
      in
      Phase.untraced ~params ~setup_s ~setup_failed o d ws
    end
    else begin
      let third = float_of_int seconds /. 3. in
      let o, d, _, counters = timed t ~threads:clients ~secs:third step in
      let o1, _, _, _ = timed t ~threads:1 ~secs:third step in
      let r = Trace.recorder () in
      let traced =
        Client.closed_loop ~threads:1 ~limit:4000
          ~deadline:(Host.now () +. third) (fun _ i ->
            let rp, check = replay i in
            let dt, resp = traced_step t r ~rid:i rp in
            (dt, check resp))
      in
      let rows = Trace.table r.Trace.spans in
      let us xs = 1e6 *. Sample.median xs.Client.latencies in
      let layers =
        layer_spans rows ~p50_us:(us o) ~single_p50_us:(us o1)
          ~traced_p50_us:(us traced)
        @ counters @ engine_layers rows
        @ [ ("latency.p99_ms", 1e3 *. Sample.percentile o.Client.latencies 99.) ]
      in
      let all = [ o; o1; traced ] in
      let sum f = List.fold_left (fun a x -> a + f x) 0 all in
      { Report.params;
        attempted = sum Client.attempted;
        ok = sum (fun x -> x.Client.ok);
        failed = sum (fun x -> x.Client.failed) + setup_failed;
        steal = d.Phase.steal;
        metrics = Layers.fill layers;
        notes =
          [ ("traced_requests", float_of_int (Client.attempted traced));
            ("single_p50_us", us o1)
          ];
        spans = r.Trace.spans
      }
    end
  in
  stop t;
  result
