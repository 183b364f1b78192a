(* NDJSON socket clients and the closed loop that drives them.

   Each client thread owns one connection and sends its next request only
   after the previous reply arrived.  Latencies go into per-thread
   buffers; the shared request counter is the only contended state. *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let close c = try Unix.close c.fd with Unix.Unix_error (_, _, _) -> ()

let roundtrip c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  input_line c.ic

type outcome = {
  latencies : float array;  (** seconds, one per answered request *)
  ends : float array;       (** completion times, aligned with [latencies] *)
  bad : float array;        (** completion times of the failed requests *)
  ok : int;
  failed : int;
}

let attempted o = o.ok + o.failed

(* An outcome from per-request samples: [bad] holds the completion
   times of the wrong answers; [lost] requests raised or never reported,
   and count as failed too. *)
let outcome ?(lost = 0) ~latencies ~ends ~bad () =
  let failed = Array.length bad + lost in
  { latencies; ends; bad; ok = Array.length latencies - Array.length bad;
    failed }

(* Run [threads] closed-loop callers until [deadline] (or until [limit]
   requests were issued).  Thread [tid] calls [step tid i] for each
   global request index [i]; [step] returns the request's latency and
   whether its answer was correct. *)
let closed_loop ~threads ?(limit = max_int) ~deadline step =
  let next = Atomic.make 0 in
  let results = Array.make threads None in
  let body tid =
    let lat = Sample.buf () and ends = Sample.buf () and bad = Sample.buf () in
    let errors = ref 0 in
    let rec loop () =
      if Unix.gettimeofday () < deadline then begin
        let i = Atomic.fetch_and_add next 1 in
        if i < limit then begin
          let dt, good = step tid i in
          let now = Unix.gettimeofday () in
          Sample.push lat dt;
          Sample.push ends now;
          if not good then Sample.push bad now;
          loop ()
        end
      end
    in
    (try loop () with e ->
       Fmt.epr "client %d: %s@." tid (Printexc.to_string e);
       incr errors);
    results.(tid) <- Some (lat, ends, bad, !errors)
  in
  let ths = List.init threads (fun tid -> Thread.create body tid) in
  List.iter Thread.join ths;
  let parts = Array.to_list results |> List.filter_map Fun.id in
  let cat f = Sample.concat (List.map f parts) in
  outcome
    ~latencies:(cat (fun (l, _, _, _) -> l))
    ~ends:(cat (fun (_, e, _, _) -> e))
    ~bad:(cat (fun (_, _, b, _) -> b))
    ~lost:
      (threads - List.length parts
      + List.fold_left (fun a (_, _, _, e) -> a + e) 0 parts)
    ()

(* One timed request on connection [c]: latency and the reply line. *)
let timed c line =
  let t0 = Unix.gettimeofday () in
  let resp = roundtrip c line in
  (Unix.gettimeofday () -. t0, resp)
