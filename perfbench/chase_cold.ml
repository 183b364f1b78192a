(* chase_cold: cold chase requests over the socket.

   Every request carries its own renamed copy of
   [Families.layered_existential] and [layered_instance] facts, so no
   request can hit a cache.  Semi-naive firing, parsing a large payload
   and encoding a ~2k-fact reply dominate; the edge layers are under 1%
   of the time.  Set-up starts the server and sends one warm-up request
   per connection: server start alone takes well under a millisecond,
   below what a run can resolve. *)

open Tgd_syntax
open Tgd_instance
module Json = Tgd_serve.Json
module Chase = Tgd_chase.Chase
module Parse = Tgd_parse.Parse
module Families = Tgd_workload.Families

let copies = 8
let depth = 3
let chain = 24

(* Known by construction for 8 copies x 3 layers x chain 24. *)
let expect_facts = 2112
let expect_fired = 1920
let expect_rounds = 5

let setup_reps = 9
let budget = Tgd_engine.Budget.limits ~rounds:64 ~facts:20_000
let tag_width = 5

type inputs = {
  line : Rename.template;   (** request line after its id *)
  sigma : Rename.template;  (** surface syntax *)
  facts : Rename.template;
  reference : Rename.template list;  (** the reference chase's facts *)
}

(* Labelled nulls are numbered by a process-wide counter: compare fact
   sets with every [_nK] collapsed to [_n]. *)
let normalize f =
  let b = Buffer.create (String.length f) and n = String.length f in
  let i = ref 0 in
  while !i < n do
    if f.[!i] = '_' && !i + 2 < n && f.[!i + 1] = 'n'
       && f.[!i + 2] >= '0' && f.[!i + 2] <= '9'
    then begin
      Buffer.add_string b "_n";
      i := !i + 2;
      while !i < n && f.[!i] >= '0' && f.[!i] <= '9' do incr i done
    end
    else begin
      Buffer.add_char b f.[!i];
      incr i
    end
  done;
  Buffer.contents b

let build rng =
  let seed_tag = Rename.tag rng 3 in
  let rels r = Rename.marked (r ^ "_" ^ seed_tag) in
  let consts c = c ^ "_" ^ seed_tag in
  let sigma =
    Families.layered_existential ~copies ~depth
    |> Rename.tgds rels |> Rename.shuffle rng
  in
  let facts =
    Instance.fact_list (Families.layered_instance ~copies ~depth ~chain)
    |> List.map (Rename.fact ~rels ~consts)
    |> Rename.shuffle rng
  in
  let r =
    Chase.restricted ~budget sigma
      (Instance.of_facts (Tgd_core.Rewrite.schema_of sigma) facts)
  in
  let got =
    (Instance.fact_count r.Chase.instance, r.Chase.fired, r.Chase.rounds)
  in
  if got <> (expect_facts, expect_fired, expect_rounds)
     || r.Chase.outcome <> Chase.Terminated
  then
    failwith
      (let f, d, n = got in
       Printf.sprintf "reference chase: %d facts, %d fired, %d rounds" f d n);
  let sigma_text = Rename.tgds_text sigma
  and facts_text = Rename.facts_text facts in
  let body =
    Json.to_string
      (Json.Obj
         [ ("op", Json.String "chase");
           ("tgds", Json.String sigma_text);
           ("facts", Json.String facts_text)
         ])
  in
  { line =
      Rename.template ~sep:"\\u0001" (String.sub body 1 (String.length body - 1));
    sigma = Rename.template sigma_text;
    facts = Rename.template facts_text;
    reference =
      List.map
        (fun f -> Rename.template (Fact.to_string f))
        (Instance.fact_list r.Chase.instance)
  }

let tag i = Rename.counter_tag tag_width i
let line inp i = "{\"id\":" ^ string_of_int i ^ "," ^ Rename.instantiate inp.line (tag i)

(* The offset just past the first [pat] in [s]. *)
let after s pat =
  let n = String.length pat in
  let rec matches i k = k = n || (s.[i + k] = pat.[k] && matches i (k + 1)) in
  let rec find i =
    if i + n > String.length s then None
    else if matches i 0 then Some (i + n)
    else find (i + 1)
  in
  find 0

(* The value after ["key":] in a reply line. *)
let field s key =
  Option.map
    (fun start ->
      let stop = ref start in
      while !stop < String.length s && not (List.mem s.[!stop] [ ','; '}'; ']' ]) do
        incr stop
      done;
      String.sub s start (!stop - start))
    (after s ("\"" ^ key ^ "\":"))

(* The strings of the reply's [facts] array (fact strings carry no
   escapes). *)
let reply_facts s =
  match after s "\"facts\":[" with
  | None -> []
  | Some start ->
    let acc = ref [] and i = ref start in
    while !i < String.length s && s.[!i] <> ']' do
      if s.[!i] = '"' then begin
        let j = String.index_from s (!i + 1) '"' in
        acc := String.sub s (!i + 1) (j - !i - 1) :: !acc;
        i := j + 1
      end
      else incr i
    done;
    !acc

(* Every reply: outcome and counts.  Every eighth: the whole fact set
   against the reference chase under the request's renaming. *)
let check inp i resp =
  field resp "ok" = Some "true"
  && field resp "outcome" = Some "\"terminated\""
  && field resp "fact_count" = Some (string_of_int expect_facts)
  && field resp "fired" = Some (string_of_int expect_fired)
  && field resp "rounds" = Some (string_of_int expect_rounds)
  && (i mod 8 <> 0
     ||
     let sorted l = List.sort String.compare (List.map normalize l) in
     sorted (reply_facts resp)
     = sorted (List.map (fun t -> Rename.instantiate t (tag i)) inp.reference))

let run ~rng ~seconds ~trace ~clients ~sock =
  let inp = build rng in
  (* one renaming per request for the whole run, warm-up included *)
  let next = Atomic.make 0 in
  let step srv tid _ =
    let i = Atomic.fetch_and_add next 1 in
    let dt, resp = Client.timed srv.Serving.conns.(tid) (line inp i) in
    (dt, check inp i resp)
  in
  let setup_failed = ref 0 in
  let setup_s, srv =
    Phase.setup ~reps:setup_reps
      (fun () ->
        let srv = Serving.start ~workers:clients ~clients sock in
        let warm =
          Client.closed_loop ~threads:clients ~limit:clients
            ~deadline:infinity (step srv)
        in
        setup_failed :=
          !setup_failed + warm.Client.failed + (clients - Client.attempted warm);
        srv)
      Serving.stop
  in
  let params =
    [ ("copies", string_of_int copies);
      ("depth", string_of_int depth);
      ("chain", string_of_int chain);
      ("facts", string_of_int expect_facts);
      ("fired", string_of_int expect_fired);
      ("rounds", string_of_int expect_rounds);
      ("clients", string_of_int clients);
      ("workers", string_of_int clients);
      ("setup_reps", string_of_int setup_reps)
    ]
  in
  let replay _ =
    let i = Atomic.fetch_and_add next 1 in
    let sigma = Rename.instantiate inp.sigma (tag i)
    and facts = Rename.instantiate inp.facts (tag i) in
    let parsed = Parse.tgds_exn sigma and prog = Parse.program_exn facts in
    let db =
      Instance.of_facts
        (Schema.union (Tgd_core.Rewrite.schema_of parsed) prog.Parse.schema)
        prog.Parse.facts
    in
    ( { Serving.line = line inp i;
        sigma;
        rest = (fun () -> ignore (Parse.program facts));
        engine = "chase.restricted";
        run = (fun () -> ignore (Chase.restricted ~budget parsed db))
      },
      check inp i )
  in
  Serving.run srv ~clients ~seconds ~trace ~params ~setup_s ~setup_failed:!setup_failed
    ~step ~replay ~engine_layers:(fun _ -> [])
