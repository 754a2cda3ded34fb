(* Human-readable textual form of the IR (Figure 3b of the paper).

   Scopes print as their iteration count with annotation suffixes
   ([1024:v], [64:b]); child relationship is rendered with vertical bars.
   Buffer declarations precede the body:

     buffer_name dtype [dim1, dim2:N] location -> array1, array2

   The output of {!program} parses back with {!Parser.program}
   (round-trip property tested in the suite). *)

open Types

let binop_str = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Max -> "max"
  | Min -> "min"

let unop_str = function
  | Exp -> "exp"
  | Log -> "log"
  | Sqrt -> "sqrt"
  | Neg -> "neg"
  | Recip -> "recip"
  | Relu -> "relu"

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else if f = Float.neg_infinity then "-inf"
  else if f = Float.infinity then "inf"
  else Printf.sprintf "%.17g" f

let access_str (a : access) =
  if a.idx = [] then a.array
  else begin
    let b = Buffer.create 32 in
    Buffer.add_string b a.array;
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        Index.add_to_buffer b x)
      a.idx;
    Buffer.add_char b ']';
    Buffer.contents b
  end

(* Expressions print bottom-up.  An expression's text is its rendering
   at precedence 0 paired with the precedence it binds at: additive 1,
   multiplicative 2, and [max_int] for atoms and call forms, which never
   need parentheses.  [un_text]/[bin_text] build a node's text from its
   operands' texts, so a caller that already holds those (the
   canonicalizer's operand sort) composes instead of re-printing. *)
let un_text op (s, _) = (String.concat "" [ unop_str op; "("; s; ")" ], max_int)

let bin_text op (s1, q1) (s2, q2) =
  match op with
  | Max | Min ->
      (String.concat "" [ binop_str op; "("; s1; ","; s2; ")" ], max_int)
  | Add | Sub | Mul | Div ->
      let p = match op with Add | Sub -> 1 | _ -> 2 in
      let at prec s q = if q < prec then "(" ^ s ^ ")" else s in
      (String.concat " " [ at p s1 q1; binop_str op; at (p + 1) s2 q2 ], p)

let rec expr_text (e : expr) =
  match e with
  | Ref a -> (access_str a, max_int)
  | IterVal i -> (
      (* A plain iterator reference prints as {d} (the paper's "index as
         value"); a general affine index uses the idx(...) function form
         so the parser can reconstruct it. *)
      match (i.terms, i.offset) with
      | [ (1, d) ], 0 -> ("{" ^ Index.int_str d ^ "}", max_int)
      | _ -> (Printf.sprintf "idx(%s)" (Index.to_string i), max_int))
  | Const c -> (float_str c, max_int)
  | Un (op, e) -> un_text op (expr_text e)
  | Bin (op, e1, e2) -> bin_text op (expr_text e1) (expr_text e2)

let expr_str ?(prec = 0) (e : expr) =
  let s, q = expr_text e in
  if q < prec then "(" ^ s ^ ")" else s

let stmt_str (s : stmt) = access_str s.dst ^ " = " ^ expr_str s.rhs

let scope_header (s : scope) =
  let base = Index.int_str s.size in
  let base =
    match (annot_suffix s.annot, s.ssr) with
    | None, false -> base
    | Some f, false -> base ^ ":" ^ f
    | None, true -> base ^ ":ssr"
    | Some f, true -> String.concat "" [ base; ":"; f; ",ssr" ]
  in
  match s.guard with
  | None -> base
  | Some n -> base ^ "/" ^ Index.int_str n

let buffer_str (b : buffer) =
  let dim_str d r = if r then Index.int_str d ^ ":N" else Index.int_str d in
  let shape = String.concat ", " (List.map2 dim_str b.shape b.reuse) in
  let base =
    String.concat ""
      [ b.bname; " "; dtype_name b.dtype; " ["; shape; "] ";
        location_name b.loc ]
  in
  if b.arrays = [ b.bname ] then base
  else base ^ " -> " ^ String.concat ", " b.arrays

let body_lines (nodes : node list) : string list =
  let rec go indent nodes =
    List.concat_map
      (fun n ->
        match n with
        | Stmt s -> [ indent ^ stmt_str s ]
        | Scope sc -> (indent ^ scope_header sc) :: go (indent ^ "| ") sc.body)
      nodes
  in
  go "" nodes

let header_lines (p : program) : string list =
  List.map buffer_str p.buffers
  @ [
      "inputs: " ^ String.concat ", " p.inputs;
      "outputs: " ^ String.concat ", " p.outputs;
    ]

let program (p : program) : string =
  String.concat "\n" (header_lines p @ body_lines p.body) ^ "\n"

(* Body-only rendering, used as the state text fed to the PerfLLM
   embedding and in progress displays. *)
let body (p : program) : string = String.concat "\n" (body_lines p.body)

let pp fmt p = Format.pp_print_string fmt (program p)
