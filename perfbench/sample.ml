(* Latency samples and order statistics. *)

(* A float buffer growing in fixed chunks, one per client thread (no
   locking).  Fixed chunks keep its memory proportional to the samples
   taken, so the process's peak RSS does not jump at powers of two. *)
let chunk = 16384

type buf = { mutable full : float array list; mutable cur : float array; mutable len : int }

let buf () = { full = []; cur = Array.make chunk 0.; len = 0 }

let push b x =
  if b.len = chunk then begin
    b.full <- b.cur :: b.full;
    b.cur <- Array.make chunk 0.;
    b.len <- 0
  end;
  b.cur.(b.len) <- x;
  b.len <- b.len + 1

let to_array b = Array.concat (List.rev (Array.sub b.cur 0 b.len :: b.full))
let concat bufs = Array.concat (List.map to_array bufs)

(* Linear-interpolation percentile, [p] in [0, 100]; 0 on no samples. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.floor rank) in
    let hi = min (n - 1) (lo + 1) in
    let frac = rank -. float_of_int lo in
    s.(lo) +. (frac *. (s.(hi) -. s.(lo)))
  end

let median xs = percentile xs 50.
let median_list l = median (Array.of_list l)

(* Samples strictly above the [p]th percentile: the guide's "at least ten
   samples beyond" check for the highest percentile reported. *)
let beyond xs p =
  let v = percentile xs p in
  Array.fold_left (fun acc x -> if x > v then acc + 1 else acc) 0 xs
