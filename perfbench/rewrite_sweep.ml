(* rewrite_sweep: the paper's Algorithm 1 (G-to-L) in-process.

   One caller runs [Rewrite.g_to_l] with the CLI's defaults (caps, and
   jobs = 1) on a renamed [Families.layered] per op.  Memos are cleared
   between ops, as every CLI process starts empty, so the entailment
   memo is write-heavy here where entail_hot only reads it.  The traced
   run also sweeps at jobs = the client count, where screening goes
   through the pool in cost-sized chunks (the serve workloads make
   one-item hops).  The timed phase stays at jobs = 1: on two cores the
   pooled sweep is no faster, and keeping every core busy exposes it to
   the host's steal far more than one busy domain is. *)

module Rewrite = Tgd_core.Rewrite
module Candidates = Tgd_core.Candidates
module Entailment = Tgd_chase.Entailment
module Chase = Tgd_chase.Chase
module Budget = Tgd_engine.Budget
module Pool = Tgd_engine.Pool

let copies = 2
let depth = 2
let setup_reps = 9

(* Known by construction for 2 copies x 2 layers. *)
let expect_enumerated = 6370

type reference = { size : int; entailed : int }

let clear () =
  Entailment.clear_memos ();
  Chase.clear_memo ()

let config jobs = { Rewrite.default_config with Rewrite.jobs }

(* The op's inputs: the family renamed with the op's tag, in the seed's
   rule order. *)
let inputs rng =
  let seed_tag = Rename.tag rng 3 in
  let base = Tgd_workload.Families.layered ~copies ~depth in
  let order = Rename.shuffle rng (List.init (List.length base) Fun.id) in
  fun i ->
    let renamed =
      Rename.tgds (fun r -> r ^ "_" ^ seed_tag ^ Rename.counter_tag 5 i) base
      |> Array.of_list
    in
    List.map (fun k -> renamed.(k)) order

let report = function
  | Budget.Complete r -> Some r
  | Budget.Truncated _ -> None

let check reference r =
  match r with
  | Some r -> (
    r.Rewrite.candidates_enumerated = expect_enumerated
    && r.Rewrite.candidates_entailed = reference.entailed
    &&
    match r.Rewrite.outcome with
    | Rewrite.Rewritable s -> List.length s = reference.size
    | _ -> false)
  | None -> false

(* Chunk counters of the warm pool the sweeps borrow; jobs = 1 uses none. *)
let pool_counters jobs =
  if jobs > 1 then Pool.counters (Pool.warm ~jobs ())
  else
    { Pool.batches = 0; chunks = 0; chunks_stolen = 0; chunk_items = 0;
      merge_time_s = 0. }

type op = {
  t0 : float;
  t1 : float;
  ok : bool;
  chases : int;
  pool : Pool.counters;  (** this op's chunk traffic *)
  rep : Rewrite.report option;
}

(* One sweep from empty memos, as a CLI process starts with; only the
   sweep itself is timed. *)
let op ~jobs reference sigma =
  clear ();
  let p0 = pool_counters jobs in
  let t0 = Host.now () in
  let rep = report (Rewrite.g_to_l ~config:(config jobs) sigma) in
  let t1 = Host.now () in
  let p1 = pool_counters jobs in
  { t0;
    t1;
    ok = check reference rep;
    chases = snd (Entailment.memo_sizes ());
    pool =
      { Pool.batches = p1.Pool.batches - p0.Pool.batches;
        chunks = p1.Pool.chunks - p0.Pool.chunks;
        chunks_stolen = p1.Pool.chunks_stolen - p0.Pool.chunks_stolen;
        chunk_items = p1.Pool.chunk_items - p0.Pool.chunk_items;
        merge_time_s = p1.Pool.merge_time_s -. p0.Pool.merge_time_s
      };
    rep
  }

(* Sweeps until [deadline], on op indices from [next]. *)
let loop ~jobs ~deadline reference sigma_of next f =
  let ops = ref [] in
  while Host.now () < deadline do
    let i = !next in
    incr next;
    let o = f (fun () -> op ~jobs reference (sigma_of i)) in
    ops := o :: !ops
  done;
  List.rev !ops

let outcome ops =
  let arr f l = Array.of_list (List.map f l) in
  Client.outcome
    ~latencies:(arr (fun o -> o.t1 -. o.t0) ops)
    ~ends:(arr (fun o -> o.t1) ops)
    ~bad:(arr (fun o -> o.t1) (List.filter (fun o -> not o.ok) ops))
    ()

let run ~rng ~seconds ~trace ~clients =
  let sigma_of = inputs rng in
  let reference =
    clear ();
    match report (Rewrite.g_to_l ~config:(config 1) (sigma_of 0)) with
    | Some { Rewrite.outcome = Rewrite.Rewritable s; candidates_entailed; _ } ->
      { size = List.length s; entailed = candidates_entailed }
    | _ -> failwith "reference rewriting is not Rewritable"
  in
  let next = ref 1 in
  let setup_failed = ref 0 in
  let setup_s, () =
    Phase.setup ~reps:setup_reps
      (fun () ->
        let o = op ~jobs:1 reference (sigma_of !next) in
        incr next;
        if not o.ok then incr setup_failed)
      ignore
  in
  let params =
    [ ("copies", string_of_int copies);
      ("depth", string_of_int depth);
      ("candidates", string_of_int expect_enumerated);
      ("entailed", string_of_int reference.entailed);
      ("rewriting_size", string_of_int reference.size);
      ("jobs", "1");
      ("traced_pool_jobs", string_of_int clients);
      ("setup_reps", string_of_int setup_reps)
    ]
  in
  let phase ~jobs secs f =
    let a = Phase.snap () in
    let ops, ws =
      Phase.with_windows (fun () ->
          loop ~jobs ~deadline:(Host.now () +. secs) reference sigma_of next f)
    in
    let o = outcome ops in
    (ops, o, Phase.diff a (Phase.snap ()), ws)
  in
  let result =
    if not trace then begin
      let _, o, d, ws = phase ~jobs:1 (float_of_int seconds) (fun f -> f ()) in
      Phase.untraced ~params ~setup_s ~setup_failed:!setup_failed o d ws
    end
    else begin
      let secs = float_of_int seconds in
      let ops, o, d, _ = phase ~jobs:1 (0.4 *. secs) (fun f -> f ()) in
      let pooled, on, _, _ = phase ~jobs:clients (0.3 *. secs) (fun f -> f ()) in
      let r = Trace.recorder () in
      let rid = ref 0 in
      let _, ot, _, _ =
        phase ~jobs:1 (0.3 *. secs) (fun f ->
            incr rid;
            let o = f () in
            let root = Trace.fresh r in
            Trace.record r ~id:root ~parent:(-1) ~rid:!rid "rewrite.g_to_l" o.t0
              o.t1;
            (* the candidate space Algorithm 1 screens, enumerated alone *)
            let sigma = sigma_of (!next - 1) in
            let n, m = Rewrite.class_bounds sigma in
            ignore
              (Trace.span r ~rid:!rid ~parent:root "candidates.enum" (fun () ->
                   Candidates.count
                     (Candidates.linear ~caps:Candidates.default_caps
                        (Rewrite.schema_of sigma) ~n ~m)));
            o)
      in
      let rows = Trace.table r.Trace.spans in
      let ms xs = 1e3 *. Sample.median xs.Client.latencies in
      let n_ops = max 1 (List.length ops) in
      let reps = List.filter_map (fun o -> o.rep) ops in
      let mean f =
        List.fold_left (fun a x -> a +. f x) 0. reps
        /. float_of_int (max 1 (List.length reps))
      in
      let n_pooled = max 1 (List.length pooled) in
      let pool f = List.fold_left (fun a o -> a + f o.pool) 0 pooled in
      let chunks = pool (fun c -> c.Pool.chunks) in
      let layers =
        [ ("candidates.enum_ms", Trace.total_us rows "candidates.enum" /. 1e3);
          ( "rewrite.skipped_frac",
            mean (fun r ->
                float_of_int r.Rewrite.candidates_skipped
                /. float_of_int (max 1 r.Rewrite.candidates_enumerated)) );
          ("rewrite.entailed", mean (fun r -> float_of_int r.Rewrite.candidates_entailed));
          ( "entailment.chases",
            float_of_int (List.fold_left (fun a o -> a + o.chases) 0 ops)
            /. float_of_int n_ops );
          ("pool.chunks", float_of_int chunks /. float_of_int n_pooled);
          ( "pool.stolen_frac",
            Phase.ratio (pool (fun c -> c.Pool.chunks_stolen)) chunks );
          ( "pool.merge_ms",
            1e3
            *. List.fold_left (fun a o -> a +. o.pool.Pool.merge_time_s) 0. pooled
            /. float_of_int n_pooled );
          ("pool.parallel_eff", ms o /. (float_of_int clients *. ms on));
          ("latency.p99_ms", 1e3 *. Sample.percentile o.Client.latencies 99.);
          ("residual_us", 1e3 *. (ms o -. (Trace.total_us rows "rewrite.g_to_l" /. 1e3)));
          ("trace.overhead_pct", 100. *. (Trace.total_us rows "rewrite.g_to_l" /. 1e3 -. ms o) /. ms o)
        ]
        (* engine counters of the sweeps alone, from their reports *)
        @ Phase.layer_counters ~ops:n_ops
            { d with
              Phase.st =
                List.fold_left
                  (fun acc r ->
                    Tgd_engine.Stats.add ~into:acc r.Rewrite.stats;
                    acc)
                  (Tgd_engine.Stats.create ()) reps
            }
      in
      let all = [ o; on; ot ] in
      let sum f = List.fold_left (fun a x -> a + f x) 0 all in
      { Report.params;
        attempted = sum Client.attempted;
        ok = sum (fun x -> x.Client.ok);
        failed = sum (fun x -> x.Client.failed) + !setup_failed;
        steal = d.Phase.steal;
        metrics = Layers.fill layers;
        notes =
          [ ("pooled_p50_ms", ms on); ("traced_ops", float_of_int (Client.attempted ot)) ];
        spans = r.Trace.spans
      }
    end
  in
  clear ();
  result
