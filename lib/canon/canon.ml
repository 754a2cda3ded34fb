(* Canonicalization of scheduled programs (see canon.mli for the
   contract).

   The passes run in an order chosen so that each one's decisions are
   invariant under the incidental differences the later passes erase:

   1. commutative operand sort + sibling sort, both keyed on a printed
      form with every non-interface array name replaced by "@" — so two
      alpha-variants of the same program make identical decisions;
   2. alpha-renaming of non-interface arrays, ordered by a structural
      occurrence signature (also name-erased) so the numbering does not
      depend on the incidental sibling order the input arrived in;
   3. a second sibling sort on the full renamed text, to break ties the
      erased keys could not see;
   4. buffer declarations sorted by canonical name.

   Every sibling swap is guarded by the reorder move's safety condition
   (Dep.nodes_independent: no array written by one sibling and accessed
   by the other, aliasing included) — so the canonical program is
   semantically equal to (and reachable by legal moves from) the input.

   Cost: passes 1 and 3 each build the tree bottom-up once and print
   every statement once; pass 3 reuses pass 1's scope headers.  A
   node's key is its printed text, concatenated from its children's
   texts rather than re-printed, and forced only when a sibling list of
   two or more compares it (or an ancestor's text needs it).  Pass 3's
   top-level texts are the body of the digested text.

   [Memo] (at the end) wraps [fingerprint] for one search run: a
   structural table of raw programs answers repeats, and on a miss the
   statement printers of passes 1 and 3 go through tables of their own,
   since most statements of a new program sit in subtrees the run has
   already printed. *)

open Ir.Types
module SS = Set.Make (String)
module SM = Map.Make (String)

let version = 1

let io_set (p : Ir.Prog.t) : SS.t =
  List.fold_left (fun s a -> SS.add a s) SS.empty (p.inputs @ p.outputs)

let erase io a = if SS.mem a io then a else "@"

(* ------------------------------------------------------------------ *)
(* Commutative operand order                                           *)
(* ------------------------------------------------------------------ *)

(* [e] with the operands of every commutative node ordered by their
   printed text (array names printed through [name]), together with
   its own text — computed bottom-up, each subexpression printed
   once. *)
let rec sorted_expr name (e : expr) : expr * (string * int) =
  match e with
  | Ref a ->
      (e, (Ir.Printer.access_str { a with array = name a.array }, max_int))
  | IterVal _ | Const _ -> (e, Ir.Printer.expr_text e)
  | Un (op, x) ->
      let x, tx = sorted_expr name x in
      (Un (op, x), Ir.Printer.un_text op tx)
  | Bin (op, a, b) ->
      let a, ta = sorted_expr name a and b, tb = sorted_expr name b in
      let (a, ta), (b, tb) =
        match op with
        | (Add | Mul | Max | Min) when String.compare (fst tb) (fst ta) < 0 ->
            ((b, tb), (a, ta))
        | _ -> ((a, ta), (b, tb))
      in
      (Bin (op, a, b), Ir.Printer.bin_text op ta tb)

(* The statement with sorted operands and its printed text. *)
let sorted_stmt name (s : stmt) =
  let rhs, (text, _) = sorted_expr name s.rhs in
  ( { s with rhs },
    Ir.Printer.access_str { s.dst with array = name s.dst.array }
    ^ " = " ^ text )

(* ------------------------------------------------------------------ *)
(* Sibling sort                                                        *)
(* ------------------------------------------------------------------ *)

(* A node of a sorted tree, printed with the pass's array naming.
   [text] is the subtree's lines exactly as Printer prints them inside
   the whole program, indentation included.  Siblings share their
   indentation, and prefixing every line of two texts with the same
   string never changes how they compare, so these keys order siblings
   as their texts at indent "" would.  [acc] is the storage the subtree
   writes and reads, as buffer names: two arrays conflict exactly when
   Ir.Prog.arrays_alias says so. *)
type tnode = {
  node : node;
  line : string;  (** scope header, or statement text; unindented *)
  kids : tnode list;
  text : string Lazy.t;
  acc : (SS.t * SS.t) Lazy.t;  (** (writes, reads) *)
}

(* The buffer holding an array: two arrays alias exactly when theirs
   agree. *)
let storage p a = (Ir.Prog.buffer_of_array p a).bname

let independent (w1, r1) (w2, r2) =
  SS.disjoint w1 w2 && SS.disjoint w1 r2 && SS.disjoint r1 w2

let leaf storage indent (s : stmt) line =
  {
    node = Stmt s;
    line;
    kids = [];
    text = lazy (indent ^ line);
    acc =
      lazy
        ( SS.singleton (storage s.dst.array),
          List.fold_left
            (fun r (a : access) -> SS.add (storage a.array) r)
            SS.empty (Ir.Prog.expr_refs s.rhs) );
  }

let scope_node indent (sc : scope) line kids =
  {
    node = Scope { sc with body = List.map (fun k -> k.node) kids };
    line;
    kids;
    text =
      lazy
        (String.concat "\n"
           ((indent ^ line) :: List.map (fun k -> Lazy.force k.text) kids));
    acc =
      lazy
        (List.fold_left
           (fun (w, r) k ->
             let w', r' = Lazy.force k.acc in
             (SS.union w w', SS.union r r'))
           (SS.empty, SS.empty) kids);
  }

(* Bubble sort constrained to independent adjacent pairs.  Each accepted
   swap removes exactly one key inversion, so the loop terminates; each
   is a legal reorder move, so semantics are preserved.  A list of fewer
   than two never compares, so its keys stay unforced. *)
let sort_siblings = function
  | ([] | [ _ ]) as l -> l
  | l ->
      let arr = Array.of_list l in
      let changed = ref true in
      while !changed do
        changed := false;
        for i = 0 to Array.length arr - 2 do
          let a = arr.(i) and b = arr.(i + 1) in
          if
            String.compare (Lazy.force b.text) (Lazy.force a.text) < 0
            && independent (Lazy.force a.acc) (Lazy.force b.acc)
          then begin
            arr.(i) <- b;
            arr.(i + 1) <- a;
            changed := true
          end
        done
      done;
      Array.to_list arr

(* Pass 1 over the input body: [stmt] maps each statement to its
   canonical form and text; siblings are sorted bottom-up. *)
let rec sort_body storage stmt indent nodes =
  sort_siblings
    (List.map
       (function
         | Stmt s ->
             let s, line = stmt s in
             leaf storage indent s line
         | Scope sc ->
             scope_node indent sc (Ir.Printer.scope_header sc)
               (sort_body storage stmt (indent ^ "| ") sc.body))
       nodes)

(* Pass 3: the same over pass 1's tree, whose scope headers carry
   over. *)
let rec resort storage stmt indent tns =
  sort_siblings
    (List.map
       (fun t ->
         match t.node with
         | Stmt s ->
             let s, line = stmt s in
             leaf storage indent s line
         | Scope sc ->
             scope_node indent sc t.line
               (resort storage stmt (indent ^ "| ") t.kids))
       tns)

(* ------------------------------------------------------------------ *)
(* Pass 2: alpha-renaming of non-interface arrays                      *)
(* ------------------------------------------------------------------ *)

(* Occurrence signature of an array: the multiset of name-erased local
   contexts it appears in.  A context is the ancestor scope-header
   chain, the erased statement text, and the role path inside the
   statement ("d" for destination, an operand path inside the rhs).
   Signatures are invariant under alpha-renaming (erased) and under
   sibling reorder (no sibling positions enter the context), so the
   numbering they induce is stable across the spellings we collapse.
   [body] is pass 1's tree, whose statement texts are erased. *)
let occurrence_signatures io (body : tnode list) =
  let sigs = Hashtbl.create 16 and first_use = Hashtbl.create 16 in
  let note ctx a =
    if not (SS.mem a io) then begin
      if not (Hashtbl.mem first_use a) then
        Hashtbl.add first_use a (Hashtbl.length first_use);
      Hashtbl.replace sigs a
        (ctx :: Option.value ~default:[] (Hashtbl.find_opt sigs a))
    end
  in
  let rec walk chain tns =
    List.iter
      (fun t ->
        match t.node with
        | Scope _ ->
            walk
              (match chain with
              | None -> Some t.line
              | Some c -> Some (c ^ "|" ^ t.line))
              t.kids
        | Stmt s ->
            let ctx =
              String.concat ""
                [ Option.value ~default:"" chain; "#"; t.line; "#" ]
            in
            note (ctx ^ "d") s.dst.array;
            let rec go path e =
              match e with
              | Ref a -> note (ctx ^ path) a.array
              | Bin (_, x, y) ->
                  go (path ^ "0") x;
                  go (path ^ "1") y
              | Un (_, x) -> go (path ^ "u") x
              | IterVal _ | Const _ -> ()
            in
            go "r" s.rhs)
      tns
  in
  walk None body;
  (sigs, first_use)

(* Canonical name for slot [i], avoiding collision with any name we are
   not renaming. *)
let fresh_name taken i =
  let rec go c = if SS.mem c taken then go ("_" ^ c) else c in
  go ("_c" ^ Ir.Index.int_str i)

(* Every non-interface array, whether or not the body references it,
   numbered by (signature, first use, declaration order). *)
let renaming io (p : Ir.Prog.t) body : string SM.t =
  let decl_order = ref SM.empty and counter = ref 0 in
  List.iter
    (fun (b : buffer) ->
      List.iter
        (fun a ->
          if (not (SS.mem a io)) && not (SM.mem a !decl_order) then begin
            decl_order := SM.add a !counter !decl_order;
            incr counter
          end)
        (b.bname :: b.arrays))
    p.buffers;
  let sigs, first_use = occurrence_signatures io body in
  let keyed =
    SM.fold
      (fun a decl acc ->
        let signature =
          match Hashtbl.find_opt sigs a with
          | Some l -> String.concat "\x00" (List.sort String.compare l)
          | None -> "" (* declared but unused: sorts first, decl order ties *)
        in
        let use =
          Option.value ~default:max_int (Hashtbl.find_opt first_use a)
        in
        ((signature, use, decl), a) :: acc)
      !decl_order []
  in
  let ordered =
    List.sort
      (fun ((s1, u1, d1), _) ((s2, u2, d2), _) ->
        match String.compare s1 s2 with
        | 0 -> ( match Int.compare u1 u2 with 0 -> Int.compare d1 d2 | c -> c)
        | c -> c)
      keyed
  in
  List.fold_left
    (fun (m, i) (_, a) -> (SM.add a (fresh_name io i) m, i + 1))
    (SM.empty, 0) ordered
  |> fst

let rename m name =
  match SM.find_opt name m with Some n -> n | None -> name

let rename_access m (a : access) = { a with array = rename m a.array }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(* The canonical program and pass 3's top-level nodes, whose texts are
   its printed body.  [erased io] prints a statement for pass 1 (array
   names outside [io] erased) and [renamed] one of pass 3 (already
   renamed); both sort commutative operands as they print. *)
let canonical ~erased ~renamed (p : Ir.Prog.t) : Ir.Prog.t * tnode list =
  let io = io_set p in
  (* pass 1: commutative operands, then erased-key sibling sort *)
  let sorted = sort_body (storage p) (erased io) "" p.body in
  (* pass 2: alpha-rename by structural signature *)
  let m = renaming io p sorted in
  let buffers =
    p.buffers
    |> List.map (fun (b : buffer) ->
           {
             b with
             bname = rename m b.bname;
             arrays = List.map (rename m) b.arrays;
           })
    |> List.stable_sort (fun (a : buffer) b -> String.compare a.bname b.bname)
  in
  (* pass 3: re-sort on the full renamed text — first commutative
     operands (the erased keys of pass 1 cannot order two distinct
     temporaries with identical access shapes, e.g. [_c1[i] * _c2[i]]),
     then siblings.  The independence checks see the renamed buffer
     table. *)
  let renamed_prog = { p with buffers; body = [] } in
  let stmt (s : stmt) =
    renamed
      {
        dst = rename_access m s.dst;
        rhs = Ir.Prog.expr_map_access (rename_access m) s.rhs;
      }
  in
  let top = resort (storage renamed_prog) stmt "" sorted in
  ({ renamed_prog with body = List.map (fun t -> t.node) top }, top)

let erased_stmt io = sorted_stmt (erase io)
let renamed_stmt = sorted_stmt Fun.id

let canonicalize p =
  fst (canonical ~erased:erased_stmt ~renamed:renamed_stmt p)

let digest ((canonical : Ir.Prog.t), top) =
  let text =
    String.concat "\n"
      (Ir.Printer.header_lines canonical
      @ List.map (fun t -> Lazy.force t.text) top)
    ^ "\n"
  in
  Digest.to_hex
    (Digest.string (Printf.sprintf "perfdojo-canon-%d\n%s" version text))

let fingerprint (p : Ir.Prog.t) : string =
  digest (canonical ~erased:erased_stmt ~renamed:renamed_stmt p)

let equal a b = String.equal (fingerprint a) (fingerprint b)

(* ------------------------------------------------------------------ *)
(* Per-run memo                                                        *)
(* ------------------------------------------------------------------ *)

(* Structural hash and equality over raw IR.  Equality tries [==] first
   at every node: a move's result shares its untouched subtrees with
   its input.  Floats compare by their bits, so [Const 0.0] and
   [Const (-0.0)] (printed "0" and "-0") stay apart, as they must. *)
module Raw = struct
  let mix h x = (h lxor x) * 0x100000001b3
  let str h s = mix h (Hashtbl.hash s)
  let int_list h l = List.fold_left mix h l

  let index h (i : index) =
    List.fold_left (fun h (c, d) -> mix (mix h c) d) (mix h i.offset) i.terms

  let access h (a : access) = List.fold_left index (str h a.array) a.idx

  let rec expr h = function
    | Ref a -> access (mix h 1) a
    | IterVal i -> index (mix h 2) i
    | Const f -> mix (mix h 3) (Hashtbl.hash f)
    | Bin (op, a, b) -> expr (expr (mix (mix h 4) (Hashtbl.hash op)) a) b
    | Un (op, x) -> expr (mix (mix h 5) (Hashtbl.hash op)) x

  let stmt h (s : stmt) = expr (access h s.dst) s.rhs

  let rec node h = function
    | Stmt s -> stmt (mix h 6) s
    | Scope sc ->
        let h = mix (mix (mix h 7) sc.size) (Hashtbl.hash sc.annot) in
        let h = mix (mix h (Bool.to_int sc.ssr)) (Hashtbl.hash sc.guard) in
        List.fold_left node h sc.body

  let buffer h (b : buffer) =
    let h = mix (str h b.bname) (Hashtbl.hash (b.dtype, b.loc)) in
    let h = int_list (int_list h b.shape) (List.map Bool.to_int b.reuse) in
    List.fold_left str h b.arrays

  let prog (p : Ir.Prog.t) =
    let h = List.fold_left buffer 0 p.buffers in
    let h = List.fold_left str (List.fold_left str h p.inputs) p.outputs in
    Hashtbl.hash (List.fold_left node h p.body)

  let index_eq (a : index) (b : index) =
    a == b
    || a.offset = b.offset
       && List.equal (fun (c, d) (c', d') -> c = c' && d = d') a.terms b.terms

  let access_eq (a : access) (b : access) =
    a == b || (String.equal a.array b.array && List.equal index_eq a.idx b.idx)

  let rec expr_eq a b =
    a == b
    ||
    match (a, b) with
    | Ref x, Ref y -> access_eq x y
    | IterVal x, IterVal y -> index_eq x y
    | Const x, Const y ->
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
    | Bin (o, x, y), Bin (o', x', y') -> o = o' && expr_eq x x' && expr_eq y y'
    | Un (o, x), Un (o', x') -> o = o' && expr_eq x x'
    | _ -> false

  let stmt_eq (a : stmt) (b : stmt) =
    a == b || (access_eq a.dst b.dst && expr_eq a.rhs b.rhs)

  let rec node_eq a b =
    a == b
    ||
    match (a, b) with
    | Stmt x, Stmt y -> stmt_eq x y
    | Scope x, Scope y ->
        x == y
        || x.size = y.size && x.annot = y.annot && x.ssr = y.ssr
           && Option.equal Int.equal x.guard y.guard
           && List.equal node_eq x.body y.body
    | _ -> false

  let buffer_eq (a : buffer) (b : buffer) =
    a == b
    || String.equal a.bname b.bname
       && a.dtype = b.dtype && a.loc = b.loc
       && List.equal Int.equal a.shape b.shape
       && List.equal Bool.equal a.reuse b.reuse
       && List.equal String.equal a.arrays b.arrays

  let prog_eq (a : Ir.Prog.t) (b : Ir.Prog.t) =
    a == b
    || List.equal String.equal a.inputs b.inputs
       && List.equal String.equal a.outputs b.outputs
       && List.equal buffer_eq a.buffers b.buffers
       && List.equal node_eq a.body b.body
end

(* Table keys carry their hash, computed before the memo's lock is
   taken. *)
type 'a keyed = { hash : int; key : 'a }

module Prog_tbl = Hashtbl.Make (struct
  type t = Ir.Prog.t keyed

  let hash k = k.hash
  let equal a b = a.hash = b.hash && Raw.prog_eq a.key b.key
end)

module Stmt_tbl = Hashtbl.Make (struct
  type t = stmt keyed

  let hash k = k.hash
  let equal a b = a.hash = b.hash && Raw.stmt_eq a.key b.key
end)

module Memo = struct
  type t = {
    lock : Mutex.t;
    progs : string Prog_tbl.t;
    mutable erased : (SS.t * (stmt * string) Stmt_tbl.t) list;
        (** pass-1 statements, one table per interface array set *)
    renamed : (stmt * string) Stmt_tbl.t;  (** pass-3 statements *)
    mutable hits : int;
  }

  let create () =
    {
      lock = Mutex.create ();
      progs = Prog_tbl.create 64;
      erased = [];
      renamed = Stmt_tbl.create 64;
      hits = 0;
    }

  let locked t f = Mutex.protect t.lock f
  let hits t = locked t (fun () -> t.hits)

  (* [print s] through [tbl]: a pure function, so a racing miss only
     recomputes the same answer. *)
  let memo_stmt t tbl print (s : stmt) =
    let k = { hash = Hashtbl.hash (Raw.stmt 0 s); key = s } in
    match locked t (fun () -> Stmt_tbl.find_opt tbl k) with
    | Some r -> r
    | None ->
        let r = print s in
        locked t (fun () -> Stmt_tbl.replace tbl k r);
        r

  let erased t io =
    let tbl =
      locked t (fun () ->
          match List.find_opt (fun (io', _) -> SS.equal io io') t.erased with
          | Some (_, tbl) -> tbl
          | None ->
              let tbl = Stmt_tbl.create 64 in
              t.erased <- (io, tbl) :: t.erased;
              tbl)
    in
    memo_stmt t tbl (erased_stmt io)

  let fingerprint t (p : Ir.Prog.t) =
    let k = { hash = Raw.prog p; key = p } in
    let known =
      locked t (fun () ->
          let r = Prog_tbl.find_opt t.progs k in
          if Option.is_some r then t.hits <- t.hits + 1;
          r)
    in
    match known with
    | Some fp -> fp
    | None ->
        let fp =
          digest
            (canonical ~erased:(erased t)
               ~renamed:(memo_stmt t t.renamed renamed_stmt)
               p)
        in
        locked t (fun () -> Prog_tbl.replace t.progs k fp);
        fp
end
