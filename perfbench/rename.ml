(* Seeded presentation of the workload inputs.

   The seed picks fixed-length tags that rename relations and constants
   and permutes rule, fact and request order; the amount of work never
   depends on it.  Per-request relation renaming goes through text
   templates: the input is printed once with a marker after every
   relation name, and a request is the pieces joined with its tag, so
   building a request costs a concatenation, not a reprint. *)

open Tgd_syntax
module Print = Tgd_parse.Print

let letters = "abcdefghijklmnopqrstuvwxyz"

(* [n] random lowercase letters. *)
let tag rng n = String.init n (fun _ -> letters.[Random.State.int rng 26])

(* Fixed-width base-36 rendering of a request counter. *)
let counter_tag width i =
  let digits = "0123456789abcdefghijklmnopqrstuvwxyz" in
  String.init width (fun k ->
      let p = width - 1 - k in
      let rec pow acc j = if j = 0 then acc else pow (acc * 36) (j - 1) in
      digits.[i / pow 1 p mod 36])

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let rel f r = Relation.make (f (Relation.name r)) (Relation.arity r)
let atom f a = Atom.make_arr (rel f (Atom.rel a)) (Atom.args_arr a)

let tgds f sigma =
  List.map
    (fun t ->
      Tgd.make ~body:(List.map (atom f) (Tgd.body t))
        ~head:(List.map (atom f) (Tgd.head t)))
    sigma

let constant g = function Constant.Named s -> Constant.named (g s) | c -> c

let fact ~rels ~consts f =
  Fact.make (rel rels (Fact.rel f)) (List.map (constant consts) (Fact.tuple f))

(* Marks the end of every relation name in template text. *)
let marker = '\001'
let marked name = name ^ String.make 1 marker

type template = string list

(* Split [text] at every occurrence of [sep] (default: the raw marker;
   JSON-escaped text carries it as ["\\u0001"]). *)
let template ?(sep = String.make 1 marker) text : template =
  let n = String.length sep in
  let rec go start i acc =
    if i + n > String.length text then
      List.rev (String.sub text start (String.length text - start) :: acc)
    else if String.sub text i n = sep then
      go (i + n) (i + n) (String.sub text start (i - start) :: acc)
    else go start (i + 1) acc
  in
  go 0 0 []

let instantiate (t : template) tag = String.concat tag t

let tgds_text sigma = String.concat "\n" (List.map Print.tgd sigma)
let facts_text facts = String.concat "\n" (List.map Print.fact facts)
