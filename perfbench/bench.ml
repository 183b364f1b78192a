(* The repository benchmark.

     bench --workload NAME --seed N --seconds S --trace 0|1

   runs one workload (entail_hot, chase_cold, rewrite_sweep) from its
   seed for S seconds and prints the end-to-end metrics (--trace 0) or
   the per-layer breakdown (--trace 1).  The last line of standard output
   is the JSON summary; the exit code is 0 only when every answer was
   checked correct.  Run it through perfbench/run.py, which builds it. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME entail_hot | chase_cold | rewrite_sweep");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench --workload NAME --seed N --seconds S --trace 0|1";
  let rng = Random.State.make [| !seed |] in
  let trace = !trace = 1 and seconds = max 1 !seconds in
  (* at most as many closed-loop callers as cores, each waiting for its
     reply; capped so a large host keeps the same shape of work *)
  let clients = max 1 (min 4 Host.nproc) in
  Report.mkdir_p Report.results_dir;
  let sock =
    Filename.concat Report.results_dir (Printf.sprintf "b%d.sock" (Unix.getpid ()))
  in
  let result =
    match !workload with
    | "entail_hot" -> Entail_hot.run ~rng ~seconds ~trace ~clients ~sock
    | "chase_cold" -> Chase_cold.run ~rng ~seconds ~trace ~clients ~sock
    | "rewrite_sweep" -> Rewrite_sweep.run ~rng ~seconds ~trace ~clients
    | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
  in
  (try Sys.remove sock with Sys_error _ -> ());
  let correct =
    Report.emit ~workload:!workload ~seed:!seed ~seconds ~trace result
  in
  exit (if correct then 0 else 1)
