(* Host and process instruments: the run header (what ran where), process
   CPU and peak memory, and the host's steal share from /proc/stat. *)

let nproc = Domain.recommended_domain_count ()

let now = Unix.gettimeofday

let read_file path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file -> List.rev acc
    in
    Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> go [])

(* The commit, read from .git without running git; benchmark checkouts
   carry no .git, so [src_digest] identifies the code there. *)
let git_sha () =
  match read_file ".git/HEAD" with
  | None -> "none"
  | Some head -> (
    let head = String.trim head in
    match String.index_opt head ' ' with
    | Some i when String.sub head 0 i = "ref:" -> (
      let r = String.sub head (i + 1) (String.length head - i - 1) in
      match read_file (Filename.concat ".git" r) with
      | Some sha -> String.trim sha
      | None ->
        List.find_map
          (fun l ->
            match String.split_on_char ' ' l with
            | [ sha; name ] when name = r -> Some sha
            | _ -> None)
          (read_lines ".git/packed-refs")
        |> Option.value ~default:"unknown")
    | _ -> head)

(* Digest of every OCaml source under lib/, in path order. *)
let src_digest () =
  let rec walk dir =
    match Sys.readdir dir with
    | exception Sys_error _ -> []
    | names ->
      Array.sort compare names;
      List.concat_map
        (fun n ->
          let p = Filename.concat dir n in
          if Sys.is_directory p then walk p
          else if Filename.check_suffix n ".ml" || Filename.check_suffix n ".mli"
          then [ p ]
          else [])
        (Array.to_list names)
  in
  let buf = Buffer.create 4096 in
  List.iter
    (fun p ->
      Buffer.add_string buf p;
      Option.iter (Buffer.add_string buf) (read_file p))
    (walk "lib");
  Digest.to_hex (Digest.string (Buffer.contents buf))

let date () =
  let t = Unix.gmtime (now ()) in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (t.tm_year + 1900)
    (t.tm_mon + 1) t.tm_mday t.tm_hour t.tm_min t.tm_sec

(* Process CPU (user + sys, all threads and domains), seconds. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let status_kb field =
  List.find_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i when String.sub l 0 i = field ->
        String.sub l (i + 1) (String.length l - i - 1)
        |> String.trim |> String.split_on_char ' ' |> List.hd
        |> int_of_string_opt
      | _ -> None)
    (read_lines "/proc/self/status")

(* Peak resident set (VmHWM), MB; 0 where /proc is unavailable. *)
let peak_rss_mb () =
  match status_kb "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.
  | None -> 0.

(* Aggregate [cpu] jiffies of /proc/stat as (steal, total). *)
let cpu_jiffies () =
  match read_lines "/proc/stat" with
  | l :: _ when String.length l > 4 && String.sub l 0 4 = "cpu " ->
    let fields =
      String.split_on_char ' ' l
      |> List.filter (fun s -> s <> "" && s <> "cpu")
      |> List.filter_map int_of_string_opt
    in
    (* user nice system idle iowait irq softirq steal [guest guest_nice];
       guest time is already counted in user *)
    let total = List.filteri (fun i _ -> i < 8) fields |> List.fold_left ( + ) 0 in
    let steal = match List.nth_opt fields 7 with Some s -> s | None -> 0 in
    (steal, total)
  | _ -> (0, 0)

let steal_share (s0, t0) (s1, t1) =
  if t1 <= t0 then 0. else float_of_int (s1 - s0) /. float_of_int (t1 - t0)
