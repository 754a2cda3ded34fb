(* Program-state embedding E(k) (§3.1).

   The paper uses an LLM to encode the PerfDojo textual representation
   into a numerical vector.  We substitute a deterministic hashed
   character-n-gram bag-of-features embedding of the same text, augmented
   with a few structural features (scope annotations, buffer locations,
   nesting depth).  The RL formulation only requires E(·) to be a stable,
   discriminative encoding of program text — see DESIGN.md for the
   substitution note. *)

let ngram_dims = 48
let struct_dims = 16
let dim = ngram_dims + struct_dims

let embed (prog : Ir.Prog.t) : float array =
  let v = Array.make dim 0.0 in
  let text = Ir.Printer.program prog in
  (* hashed 3-grams with a sign hash (feature hashing): 64-bit FNV-1a
     over the three bytes at [i], hashed in place so no 3-gram is ever
     copied out of [text].  The bound [n - 4] skips the final 3-gram;
     it is pinned as it is, because every feature vector — and so every
     surrogate ranking and recorded trajectory — depends on it. *)
  let n = String.length text in
  let byte h j =
    Int64.mul
      (Int64.logxor h (Int64.of_int (Char.code (String.unsafe_get text j))))
      0x100000001b3L
  in
  for i = 0 to n - 4 do
    let h = byte (byte (byte 0xcbf29ce484222325L i) (i + 1)) (i + 2) in
    let b =
      Int64.to_int
        (Int64.rem (Int64.logand h Int64.max_int) (Int64.of_int ngram_dims))
    in
    let sign = if Int64.logand h 1L = 1L then 1.0 else -1.0 in
    v.(b) <- v.(b) +. sign
  done;
  (* L2-normalize the n-gram block *)
  let norm = ref 0.0 in
  for i = 0 to ngram_dims - 1 do
    norm := !norm +. (v.(i) *. v.(i))
  done;
  let norm = sqrt (Float.max !norm 1e-12) in
  for i = 0 to ngram_dims - 1 do
    v.(i) <- v.(i) /. norm
  done;
  (* structural features, squashed to [0, 1] ranges *)
  let squash x = x /. (1.0 +. x) in
  let count = Array.make 8 0 in
  let max_depth = ref 0 in
  let scopes = ref 0 in
  Ir.Prog.iter_nodes
    (fun p node ->
      match node with
      | Ir.Types.Scope sc ->
          incr scopes;
          max_depth := max !max_depth (List.length p);
          let slot =
            match sc.annot with
            | Ir.Types.Seq -> 0
            | Ir.Types.Unroll -> 1
            | Ir.Types.Par -> 2
            | Ir.Types.Vec -> 3
            | Ir.Types.GpuGrid -> 4
            | Ir.Types.GpuBlock -> 5
            | Ir.Types.GpuWarp -> 6
            | Ir.Types.Frep -> 7
          in
          count.(slot) <- count.(slot) + 1;
          if sc.ssr then count.(7) <- count.(7) + 1
      | Ir.Types.Stmt _ -> ())
    prog;
  for i = 0 to 7 do
    v.(ngram_dims + i) <- squash (float_of_int count.(i))
  done;
  v.(ngram_dims + 8) <- squash (float_of_int !max_depth);
  v.(ngram_dims + 9) <- squash (float_of_int !scopes);
  let locs = Array.make 4 0 in
  List.iter
    (fun (b : Ir.Types.buffer) ->
      let slot =
        match b.loc with
        | Ir.Types.Heap -> 0
        | Ir.Types.Stack -> 1
        | Ir.Types.Shared -> 2
        | Ir.Types.Register -> 3
      in
      locs.(slot) <- locs.(slot) + 1;
      if List.exists (fun r -> r) b.reuse then
        v.(ngram_dims + 14) <- v.(ngram_dims + 14) +. 0.25)
    prog.buffers;
  for i = 0 to 3 do
    v.(ngram_dims + 10 + i) <- squash (float_of_int locs.(i))
  done;
  v.(ngram_dims + 15) <- squash (float_of_int (List.length prog.buffers));
  v

(* The action representation: concatenation of the embeddings before and
   after the transformation (§3.1); the stop action concatenates two
   identical embeddings. *)
let action_pair (before : float array) (after : float array) : float array =
  Array.append before after
