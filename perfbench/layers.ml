(* The metric catalogue: what one run reports, with units.

   [moves] records, for each per-layer metric, the end-to-end metric and
   workload it should move; it is copied into every traced result. *)

let end_to_end =
  [ ("setup_s", "s");
    ("ok_per_s", "1/s");
    ("p50_ms", "ms");
    ("p90_ms", "ms");
    ("cpu_ms_per_op", "ms");
    ("peak_rss_mb", "MB")
  ]

type metric = { name : string; unit : string; better : string; moves : string }

let m name unit better moves = { name; unit; better; moves }

let per_layer =
  [ m "transport.self_us" "us" "lower" "p50_ms, ok_per_s on entail_hot";
    m "json.decode_us" "us" "lower" "p50_ms, ok_per_s on entail_hot";
    m "json.encode_us" "us" "lower" "p50_ms, ok_per_s on entail_hot";
    m "parse.sigma_us" "us" "lower" "p50_ms on entail_hot";
    m "admission.decide_us" "us" "lower" "p50_ms on entail_hot";
    m "dispatcher.hop_us" "us" "lower"
      "p50_ms, ok_per_s, cpu_ms_per_op on entail_hot; no change on chase_cold";
    m "server.handle_us" "us" "lower" "p50_ms on entail_hot";
    m "entailment.hit_us" "us" "lower" "p50_ms on entail_hot";
    m "warm.hit_ratio" "ratio" "higher" "p50_ms on entail_hot (must stay 1.0)";
    m "parse.program_ms" "ms" "lower" "p50_ms on chase_cold";
    m "json.encode_ms" "ms" "lower" "p50_ms on chase_cold";
    m "chase.match_ms" "ms" "lower" "p50_ms, cpu_ms_per_op on chase_cold";
    m "chase.fire_ms" "ms" "lower" "p50_ms, cpu_ms_per_op on chase_cold";
    m "chase.merge_ms" "ms" "lower" "p50_ms, cpu_ms_per_op on chase_cold";
    m "chase.fired" "count" "lower" "p50_ms, cpu_ms_per_op on chase_cold";
    m "chase.probes" "count" "lower" "p50_ms, cpu_ms_per_op on chase_cold";
    m "gc.minor_mb_per_op" "MB" "lower"
      "cpu_ms_per_op on chase_cold and rewrite_sweep";
    m "gc.major_per_op" "count" "lower"
      "cpu_ms_per_op on chase_cold and rewrite_sweep";
    m "candidates.enum_ms" "ms" "lower" "p50_ms on rewrite_sweep";
    m "rewrite.skipped_frac" "ratio" "higher" "p50_ms on rewrite_sweep";
    m "rewrite.entailed" "count" "lower" "p50_ms on rewrite_sweep";
    m "entailment.memo_hit_ratio" "ratio" "higher"
      "cpu_ms_per_op on rewrite_sweep";
    m "entailment.chases" "count" "lower" "cpu_ms_per_op on rewrite_sweep";
    m "pool.chunks" "count" "lower" "ok_per_s, cpu_ms_per_op on rewrite_sweep";
    m "pool.stolen_frac" "ratio" "lower"
      "ok_per_s, cpu_ms_per_op on rewrite_sweep";
    m "pool.merge_ms" "ms" "lower" "ok_per_s, cpu_ms_per_op on rewrite_sweep";
    m "pool.parallel_eff" "ratio" "higher"
      "ok_per_s, cpu_ms_per_op on rewrite_sweep";
    m "gc.top_heap_mb" "MB" "lower" "peak_rss_mb on rewrite_sweep";
    m "latency.p99_ms" "ms" "lower" "none: reported, not gated";
    m "residual_us" "us" "lower" "none: end-to-end p50 the breakdown misses";
    m "trace.overhead_pct" "%" "lower" "none: traced minus untraced p50"
  ]

(* Every per-layer metric, taking [measured] where given and 0 for the
   layers this workload's path does not cross. *)
let fill measured =
  List.map
    (fun m ->
      (m.name, Option.value (List.assoc_opt m.name measured) ~default:0.))
    per_layer
