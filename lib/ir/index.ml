(* Operations on affine index expressions.

   Indices are kept in a normal form: terms sorted by ascending depth,
   zero coefficients dropped.  All transformations that change loop
   structure (tiling, interchange, fusion shifts) are expressed as depth
   remappings over these terms. *)

open Types

let normalize (terms : (int * int) list) offset : index =
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (c, d) ->
      let prev = try Hashtbl.find tbl d with Not_found -> 0 in
      Hashtbl.replace tbl d (prev + c))
    terms;
  let terms =
    Hashtbl.fold (fun d c acc -> if c = 0 then acc else (c, d) :: acc) tbl []
  in
  let terms = List.sort (fun (_, d1) (_, d2) -> compare d1 d2) terms in
  { terms; offset }

let const n : index = { terms = []; offset = n }
let iter ?(coeff = 1) depth : index = normalize [ (coeff, depth) ] 0
let zero : index = const 0

let add a b = normalize (a.terms @ b.terms) (a.offset + b.offset)

let scale k a =
  normalize (List.map (fun (c, d) -> (c * k, d)) a.terms) (k * a.offset)

let equal (a : index) (b : index) = a.terms = b.terms && a.offset = b.offset

(* Coefficient of the iterator at [depth] (0 when absent). *)
let coeff_of depth (a : index) =
  try fst (List.find (fun (_, d) -> d = depth) a.terms) with Not_found -> 0

let depends_on depth a = coeff_of depth a <> 0
let depths a = List.map snd a.terms
let is_const a = a.terms = []

(* Apply a depth substitution: each term [c * {d}] becomes [c * f d] where
   [f d] is itself an index.  Used by tiling ({d} -> k*{d} + {d+1}),
   interchange (swap two depths) and fusion (shift depths). *)
let subst (f : int -> index) (a : index) : index =
  List.fold_left
    (fun acc (c, d) -> add acc (scale c (f d)))
    (const a.offset) a.terms

(* Shift all iterator depths >= [from] by [delta]. *)
let shift_depths ~from ~delta a =
  subst (fun d -> if d >= from then iter (d + delta) else iter d) a

(* Evaluate the index under an environment giving each depth's current
   iteration value. *)
let eval (env : int array) (a : index) : int =
  List.fold_left (fun acc (c, d) -> acc + (c * env.(d))) a.offset a.terms

(* Range [lo, hi] of values the index can take when iterator [d] ranges
   over [0, sizes d - 1]. Used by bounds validation. *)
let value_range (sizes : int -> int) (a : index) : int * int =
  List.fold_left
    (fun (lo, hi) (c, d) ->
      let extent = sizes d - 1 in
      if c >= 0 then (lo, hi + (c * extent)) else (lo + (c * extent), hi))
    (a.offset, a.offset) a.terms

(* [string_of_int] without its C call for the single digits printed IR
   is full of (iterator depths, small coefficients) — the printer's hot
   path.  A literal, so program start-up pays nothing for it. *)
let digits = [| "0"; "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8"; "9" |]

let int_str n = if n >= 0 && n < 10 then digits.(n) else string_of_int n

let add_to_buffer b (a : index) =
  let int n = Buffer.add_string b (int_str n) in
  match a.terms with
  | [] -> int a.offset
  | terms ->
      List.iteri
        (fun i (c, d) ->
          if i > 0 then Buffer.add_char b '+';
          if c <> 1 then begin
            int c;
            Buffer.add_char b '*'
          end;
          Buffer.add_char b '{';
          int d;
          Buffer.add_char b '}')
        terms;
      if a.offset > 0 then begin
        Buffer.add_char b '+';
        int a.offset
      end
      else if a.offset < 0 then begin
        Buffer.add_char b '-';
        int (-a.offset)
      end

let to_string (a : index) =
  let b = Buffer.create 16 in
  add_to_buffer b a;
  Buffer.contents b
