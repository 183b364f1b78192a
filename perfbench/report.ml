(* The result of one run: the header, a readable table, the raw result
   file under perfbench/results/, and the one-line JSON summary that
   ends standard output. *)

let results_dir = Filename.concat "perfbench" "results"

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

type result = {
  params : (string * string) list;  (** workload parameters *)
  attempted : int;
  ok : int;
  failed : int;   (** wrong answers and errors, set-up checks included *)
  steal : float;  (** host steal share over the timed phase *)
  metrics : (string * float) list;
  notes : (string * float) list;  (** extra figures for the raw file *)
  spans : Trace.span list;
}

let json_float x = if Float.is_finite x then Printf.sprintf "%.17g" x else "0"

let json_str s = Printf.sprintf "%S" s

let obj fields =
  "{" ^ String.concat "," (List.map (fun (k, v) -> json_str k ^ ":" ^ v) fields)
  ^ "}"

let unit_of ~trace name =
  if trace then
    match List.find_opt (fun m -> m.Layers.name = name) Layers.per_layer with
    | Some m -> m.Layers.unit
    | None -> "?"
  else Option.value (List.assoc_opt name Layers.end_to_end) ~default:"?"

(* Exactly the catalogue's metrics for the mode, in catalogue order;
   a metric the workload never set is an error in the benchmark. *)
let select ~trace metrics =
  let names =
    if trace then List.map (fun m -> m.Layers.name) Layers.per_layer
    else List.map fst Layers.end_to_end
  in
  List.map
    (fun n ->
      match List.assoc_opt n metrics with
      | Some v -> (n, v)
      | None -> failwith ("metric not measured: " ^ n))
    names

let emit ~workload ~seed ~seconds ~trace r =
  let metrics = select ~trace r.metrics in
  let correct = r.failed = 0 && r.attempted > 0 in
  let header =
    [ ("workload", json_str workload);
      ("seed", string_of_int seed);
      ("seconds", string_of_int seconds);
      ("trace", string_of_bool trace);
      ("git_sha", json_str (Host.git_sha ()));
      ("src_digest", json_str (Host.src_digest ()));
      ("nproc", string_of_int Host.nproc);
      ("ocaml", json_str Sys.ocaml_version);
      ("date", json_str (Host.date ()));
      ("steal_share", json_float r.steal);
      ("params", obj (List.map (fun (k, v) -> (k, json_str v)) r.params))
    ]
  in
  Printf.printf "# header %s\n" (obj header);
  Printf.printf "%-28s %16s  %s\n" "metric" "value" "unit";
  List.iter
    (fun (n, v) -> Printf.printf "%-28s %16.4f  %s\n" n v (unit_of ~trace n))
    metrics;
  List.iter (fun (n, v) -> Printf.printf "%-28s %16.4f\n" ("(" ^ n ^ ")") v) r.notes;
  Printf.printf "attempted %d  ok %d  failed %d\n" r.attempted r.ok r.failed;
  if r.spans <> [] then
    Format.printf "@.self time per span (%s)@.%a@." workload Trace.pp_table
      (Trace.table r.spans);
  let metric_json =
    obj
      (List.map
         (fun (n, v) ->
           ( n,
             obj [ ("value", json_float v); ("unit", json_str (unit_of ~trace n)) ]
           ))
         metrics)
  in
  let summary =
    obj
      [ ("correct", string_of_bool correct);
        ("attempted", string_of_int r.attempted);
        ("failed", string_of_int r.failed);
        ("metrics", metric_json)
      ]
  in
  mkdir_p results_dir;
  let stem =
    Printf.sprintf "%s-seed%d-trace%d-%d" workload seed (Bool.to_int trace)
      (Unix.getpid ())
  in
  let raw =
    obj
      ([ ("header", obj header);
         ("ok", string_of_int r.ok);
         ("summary", summary);
         ("notes", obj (List.map (fun (n, v) -> (n, json_float v)) r.notes))
       ]
      @
      if trace then
        [ ( "moves",
            obj
              (List.map
                 (fun m -> (m.Layers.name, json_str m.Layers.moves))
                 Layers.per_layer) )
        ]
      else [])
  in
  let oc = open_out (Filename.concat results_dir (stem ^ ".json")) in
  output_string oc raw;
  output_char oc '\n';
  close_out oc;
  if r.spans <> [] then
    Trace.dump
      (Filename.concat results_dir
         (Printf.sprintf "spans-%s-seed%d.jsonl" workload seed))
      r.spans;
  print_endline summary;
  correct
