(* Spans recorded around the benchmark's calls into each layer.

   A traced request is replayed through nested public calls: the socket
   round trip first, then the layers below it one after another
   (decode, Dispatcher.handle, Admission.decide, Server.handle, the
   parse and engine calls, encode).  A span's parent is the layer whose
   call contains it in the program, so a layer's self time is its
   duration minus the durations of its children.  Spans stay in memory
   and are written when the run ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a root *)
  rid : int;     (** request id shared by every span of one request *)
  name : string;
  t0 : float;
  t1 : float;
}

type recorder = { mutable next : int; mutable spans : span list }

let recorder () = { next = 0; spans = [] }

let fresh r =
  r.next <- r.next + 1;
  r.next

let record r ~id ~parent ~rid name t0 t1 =
  r.spans <- { id; parent; rid; name; t0; t1 } :: r.spans

(* Run [f] as span [name] under [parent], with id [id] when its
   children need it before it ends. *)
let span r ~rid ?(parent = -1) ?id name f =
  let id = match id with Some id -> id | None -> fresh r in
  let t0 = Unix.gettimeofday () in
  let v = f () in
  record r ~id ~parent ~rid name t0 (Unix.gettimeofday ());
  v

let dur s = s.t1 -. s.t0

(* Self time of every span: its duration minus its children's. *)
let self_times spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          (dur s +. Option.value (Hashtbl.find_opt child s.parent) ~default:0.))
    spans;
  List.map
    (fun s ->
      (s, dur s -. Option.value (Hashtbl.find_opt child s.id) ~default:0.))
    spans

type row = { name : string; count : int; total_us : float; self_us : float }

(* Per-name medians of total and self time, in first-seen order. *)
let table spans =
  let by = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun ((s : span), self) ->
      match Hashtbl.find_opt by s.name with
      | Some (tot, sf) -> Hashtbl.replace by s.name (dur s :: tot, self :: sf)
      | None ->
        order := s.name :: !order;
        Hashtbl.replace by s.name ([ dur s ], [ self ]))
    (self_times spans);
  List.rev_map
    (fun name ->
      let tot, sf = Hashtbl.find by name in
      { name;
        count = List.length tot;
        total_us = 1e6 *. Sample.median_list tot;
        self_us = 1e6 *. Sample.median_list sf
      })
    !order
  |> List.rev

let find rows name = List.find_opt (fun r -> r.name = name) rows
let total_us rows name = match find rows name with Some r -> r.total_us | None -> 0.
let self_us rows name = match find rows name with Some r -> r.self_us | None -> 0.

let pp_table ppf rows =
  Fmt.pf ppf "%-24s %8s %12s %12s@." "span" "count" "p50 total us" "p50 self us";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-24s %8d %12.1f %12.1f@." r.name r.count r.total_us r.self_us)
    rows

let dump path spans =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"parent\":%d,\"rid\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}\n"
            s.id s.parent s.rid s.name s.t0 s.t1)
        (List.sort (fun a b -> Float.compare a.t0 b.t0) spans))
