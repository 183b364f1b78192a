(* Instruments read around a timed phase: host steal, GC, engine
   counters, warm-cache counters and peak memory. *)

module Stats = Tgd_engine.Stats
module Memo = Tgd_engine.Memo

type snap = {
  jiffies : int * int;
  gc : Gc.stat;
  stats : Stats.t;
  warm : Memo.counters;
  chases : int;
  peak_rss_mb : float;
}

let snap () =
  { jiffies = Host.cpu_jiffies ();
    gc = Gc.quick_stat ();
    stats = Stats.copy (Stats.global ());
    warm = Tgd_net.Warm.counters ();
    chases = snd (Tgd_chase.Entailment.memo_sizes ());
    peak_rss_mb = Host.peak_rss_mb ()
  }

type delta = {
  steal : float;
  minor_mb : float;
  majors : int;
  top_heap_mb : float;
  st : Stats.t;   (** engine counters over the phase *)
  warm_hits : int;
  warm_misses : int;
  new_chases : int;
  peak_rss_mb : float;  (** process peak so far, read as the phase ends *)
}

let word_mb = float_of_int (Sys.word_size / 8) /. 1e6

let diff a b =
  { steal = Host.steal_share a.jiffies b.jiffies;
    minor_mb = (b.gc.Gc.minor_words -. a.gc.Gc.minor_words) *. word_mb;
    majors = b.gc.Gc.major_collections - a.gc.Gc.major_collections;
    top_heap_mb = float_of_int b.gc.Gc.top_heap_words *. word_mb;
    st = Stats.diff b.stats a.stats;
    warm_hits = b.warm.Memo.hits - a.warm.Memo.hits;
    warm_misses = b.warm.Memo.misses - a.warm.Memo.misses;
    new_chases = b.chases - a.chases;
    peak_rss_mb = b.peak_rss_mb
  }

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

(* The items the host stole least from: those with a steal share of at
   most 2%, or, when fewer than a third are that quiet, at most the
   share of the least-stolen third. *)
let least_stolen steal items =
  let shares = List.sort Float.compare (List.map steal items) in
  let k = (List.length items - 1) / 3 in
  let limit = Float.max 0.02 (List.nth shares k) in
  List.filter (fun x -> steal x <= limit) items

(* Set-up repeated [reps] times; the last result is kept and every
   earlier one torn down.  Reported: the median over the least-stolen
   repeats. *)
let setup ~reps once teardown =
  let rec go k times =
    let j0 = Host.cpu_jiffies () and t0 = Host.now () in
    let v = once () in
    let dt = Host.now () -. t0 in
    let times = (dt, Host.steal_share j0 (Host.cpu_jiffies ())) :: times in
    if k >= reps then (times, v)
    else begin
      teardown v;
      go (k + 1) times
    end
  in
  let times, v = go 1 [] in
  (Sample.median_list (List.map fst (least_stolen snd times)), v)

(* Host-steal windows.  On a shared VM the host takes whole seconds of
   CPU from the guest at a time, and this program slows far more than
   the stolen share when it does.  A sampler thread cuts the timed phase
   into windows of about a second and records each window's steal share
   and process CPU; the end-to-end metrics are taken over the
   least-stolen windows. *)
type window = { w0 : float; w1 : float; steal : float; cpu : float }

let with_windows f =
  let sample () = (Host.now (), Host.cpu_jiffies (), Host.cpu_s ()) in
  let samples = ref [ sample () ] and stop = Atomic.make false in
  let sampler =
    Thread.create
      (fun () ->
        let last = ref (Host.now ()) in
        while not (Atomic.get stop) do
          Thread.delay 0.1;
          if Host.now () -. !last >= 1. then begin
            samples := sample () :: !samples;
            last := Host.now ()
          end
        done)
      ()
  in
  let v =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Thread.join sampler)
      f
  in
  let s = Array.of_list (List.rev (sample () :: !samples)) in
  ( v,
    Array.init
      (Array.length s - 1)
      (fun k ->
        let t0, j0, c0 = s.(k) and t1, j1, c1 = s.(k + 1) in
        { w0 = t0; w1 = t1; steal = Host.steal_share j0 j1; cpu = c1 -. c0 }) )

let span w = w.w1 -. w.w0

(* End-to-end metrics of a timed phase, over its selected windows. *)
let end_to_end ~setup_s (o : Client.outcome) d ws =
  let sel = least_stolen (fun w -> w.steal) (Array.to_list ws) in
  let inside t = List.exists (fun w -> t > w.w0 && t <= w.w1) sel in
  let lat = Sample.buf () in
  Array.iteri
    (fun i l -> if inside o.Client.ends.(i) then Sample.push lat l)
    o.Client.latencies;
  let lat = Sample.to_array lat in
  let n = Array.length lat in
  let bad = Array.fold_left (fun a t -> if inside t then a + 1 else a) 0 o.Client.bad in
  let dur = List.fold_left (fun a w -> a +. span w) 0. sel
  and cpu = List.fold_left (fun a w -> a +. w.cpu) 0. sel in
  let total = Array.fold_left (fun a w -> a +. span w) 0. ws in
  ( [ ("setup_s", setup_s);
      ("ok_per_s", float_of_int (n - bad) /. dur);
      ("p50_ms", 1e3 *. Sample.percentile lat 50.);
      ("p90_ms", 1e3 *. Sample.percentile lat 90.);
      ("cpu_ms_per_op", 1e3 *. cpu /. float_of_int (max 1 n));
      ("peak_rss_mb", d.peak_rss_mb)
    ],
    [ ("measured_share", dur /. total);
      ("measured_ops", float_of_int n);
      ("p90_tail_samples", float_of_int (Sample.beyond lat 90.))
    ] )

(* The result of an untraced run: one timed phase. *)
let untraced ~params ~setup_s ~setup_failed (o : Client.outcome) (d : delta) ws =
  let metrics, notes = end_to_end ~setup_s o d ws in
  { Report.params;
    attempted = Client.attempted o;
    ok = o.Client.ok;
    failed = o.Client.failed + setup_failed;
    steal = d.steal;
    metrics;
    notes;
    spans = []
  }

(* Counter-based per-layer metrics of a phase of [ops] operations. *)
let layer_counters ~ops d =
  let per x = x /. float_of_int (max 1 ops) in
  let st = d.st in
  [ ("warm.hit_ratio", ratio d.warm_hits (d.warm_hits + d.warm_misses));
    ("chase.match_ms", per (1e3 *. st.Stats.match_time));
    ("chase.fire_ms", per (1e3 *. st.Stats.fire_time));
    ("chase.merge_ms", per (1e3 *. st.Stats.merge_time));
    ("chase.fired", per (float_of_int st.Stats.fired));
    ("chase.probes", per (float_of_int st.Stats.probes));
    ("gc.minor_mb_per_op", per d.minor_mb);
    ("gc.major_per_op", per (float_of_int d.majors));
    ("entailment.memo_hit_ratio", Stats.hit_rate st);
    ("entailment.chases", per (float_of_int d.new_chases));
    ("gc.top_heap_mb", d.top_heap_mb)
  ]
