(* entail_hot: warm entailment requests over the socket.

   K seeded chain ontologies x G goals, half of them disproved.  Set-up
   starts the server and primes every request, so each timed request is
   a warm-cache hit: the engine does almost nothing and the cost sits in
   the edge layers (transport, codec, parsing, admission, fair queue,
   pool hop). *)

open Tgd_syntax
module Json = Tgd_serve.Json
module Entailment = Tgd_chase.Entailment
module Parse = Tgd_parse.Parse

let ontologies = 16
let goals = 8
let chain = 8
let setup_reps = 9
let budget = Tgd_engine.Budget.limits ~rounds:64 ~facts:20_000

type template = {
  line : string;
  sigma : string;
  goal : string;
  parsed : Tgd.t list * Tgd.t;
  expect : string;       (** "proved" or "disproved" *)
  expect_line : string;  (** the byte-exact reply *)
}

let e i = Relation.make (Printf.sprintf "E%d" i) 2

let build rng =
  let seed_tag = Rename.tag rng 3 in
  let cases =
    List.concat
      (List.init ontologies (fun o ->
           let tag = seed_tag ^ Rename.counter_tag 2 o in
           let name r = r ^ "_" ^ tag in
           let sigma =
             Tgd_workload.Families.linear_chain chain
             |> Rename.tgds name |> Rename.shuffle rng |> Rename.tgds_text
           in
           let rel i = Relation.name (Rename.rel name (e i)) in
           (* reachable along the chain: proved; against it: disproved *)
           List.init goals (fun g ->
               let j = 2 + (2 * (g / 2)) in
               let goal =
                 if g mod 2 = 0 then
                   Printf.sprintf "%s(x, y) -> %s(x, y)." (rel 0) (rel j)
                 else Printf.sprintf "%s(x, y) -> %s(x, y)." (rel j) (rel 0)
               in
               (sigma, goal))))
  in
  Rename.shuffle rng cases
  |> List.mapi (fun k (sigma, goal) ->
         let parsed = (Parse.tgds_exn sigma, Parse.tgd_exn goal) in
         let expect =
           Entailment.answer_to_string
             (Entailment.entails ~memo:false ~budget (fst parsed) (snd parsed))
         in
         let reply =
           Json.Obj
             [ ("id", Json.Int k);
               ("ok", Json.Bool true);
               ("result", Json.Obj [ ("answer", Json.String expect) ])
             ]
         in
         { line =
             Json.to_string
               (Json.Obj
                  [ ("id", Json.Int k);
                    ("op", Json.String "entail");
                    ("tgds", Json.String sigma);
                    ("goal", Json.String goal)
                  ]);
           sigma;
           goal;
           parsed;
           expect;
           expect_line = Json.to_string reply
         })
  |> Array.of_list

(* The reply is byte-identical to the oracle's, or at least carries the
   oracle's answer under the request's id. *)
let check tpl k resp =
  resp = tpl.expect_line
  ||
  match Json.of_string resp with
  | Error _ -> false
  | Ok j ->
    Json.member "id" j = Some (Json.Int k)
    && Json.member "ok" j = Some (Json.Bool true)
    && Option.bind (Json.member "result" j) (Json.member "answer")
       = Some (Json.String tpl.expect)

let run ~rng ~seconds ~trace ~clients ~sock =
  let tpls = build rng in
  let n = Array.length tpls in
  let disproved =
    Array.fold_left (fun a t -> if t.expect = "disproved" then a + 1 else a) 0 tpls
  in
  if disproved <> n / 2 then
    failwith (Printf.sprintf "oracle: %d of %d goals disproved" disproved n);
  let step srv tid i =
    let k = i mod n in
    let dt, resp = Client.timed srv.Serving.conns.(tid) tpls.(k).line in
    (dt, check tpls.(k) k resp)
  in
  let setup_failed = ref 0 in
  let setup_s, srv =
    Phase.setup ~reps:setup_reps
      (fun () ->
        Tgd_net.Warm.reset ();
        let srv = Serving.start ~workers:clients ~clients sock in
        let prime =
          Client.closed_loop ~threads:clients ~limit:n ~deadline:infinity
            (step srv)
        in
        setup_failed := !setup_failed + prime.Client.failed + (n - Client.attempted prime);
        srv)
      Serving.stop
  in
  let params =
    [ ("ontologies", string_of_int ontologies);
      ("goals", string_of_int goals);
      ("chain", string_of_int chain);
      ("requests", string_of_int n);
      ("clients", string_of_int clients);
      ("workers", string_of_int clients);
      ("setup_reps", string_of_int setup_reps)
    ]
  in
  let replay i =
    let k = i mod n in
    let tpl = tpls.(k) in
    ( { Serving.line = tpl.line;
        sigma = tpl.sigma;
        rest = (fun () -> ignore (Parse.tgd_exn tpl.goal));
        engine = "entailment.entails";
        run =
          (fun () ->
            ignore
              (Entailment.entails ~budget (fst tpl.parsed) (snd tpl.parsed)))
      },
      check tpl k )
  in
  Serving.run srv ~clients ~seconds ~trace ~params ~setup_s
    ~setup_failed:!setup_failed ~step ~replay ~engine_layers:(fun rows ->
      [ ("entailment.hit_us", Trace.total_us rows "entailment.entails") ])
