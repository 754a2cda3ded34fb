(* Writes the golden fingerprint corpus test_canon.ml checks against.

     dune exec test/gen_canon_golden.exe > test/canon_golden.txt

   The corpus is every Table-3 and Snitch-micro kernel's small root plus
   seeded random walks of 0–8 moves under the CPU, Snitch and
   composite-enabled CPU action sets.  Each state is stored as printed
   IR together with its [Canon.fingerprint], so the test needs neither
   the kernels nor the move engine to reproduce it: it parses the text
   and compares digests byte for byte.  Regenerate only when the
   canonical form is meant to change — and then bump [Canon.version]. *)

let target name = List.assoc name Machine.Desc.known_targets

let action_sets =
  let plain = Perfdojo.Ctx.default in
  let all = Perfdojo.Ctx.with_composites [ "all" ] plain in
  [
    ("cpu", Perfdojo.caps_of ~ctx:plain (target "x86"));
    ("snitch", Perfdojo.caps_of ~ctx:plain (target "snitch"));
    ("composites", Perfdojo.caps_of ~ctx:all (target "x86"));
  ]

let walks_per_set = 2

(* A walk of [steps] uniformly chosen moves; a move that refuses to
   apply is skipped. *)
let walk caps rng steps p0 =
  let p = ref p0 in
  for _ = 1 to steps do
    match Transform.Xforms.all caps !p with
    | [] -> ()
    | insts -> (
        let i = List.nth insts (Util.Rng.int rng (List.length insts)) in
        match i.Transform.Xforms.apply !p with
        | q -> p := q
        | exception _ -> ())
  done;
  !p

let corpus () =
  List.concat
    (List.mapi
       (fun ki (e : Kernels.entry) ->
         let root = e.build_small () in
         (e.label ^ " root", root)
         :: List.concat
              (List.mapi
                 (fun si (set, caps) ->
                   List.init walks_per_set (fun w ->
                       let rng =
                         Util.Rng.create ((ki * 97) + (si * 31) + (w * 13) + 1)
                       in
                       let steps = Util.Rng.int rng 9 in
                       ( Printf.sprintf "%s %s walk%d %d moves" e.label set w
                           steps,
                         walk caps rng steps root )))
                 action_sets))
       (Kernels.table3 @ Kernels.snitch_micro))

let () =
  print_string
    "# Golden Canon.fingerprint corpus (canon version 1).\n\
     # Each record: a '== LABEL FINGERPRINT' line, then the state's\n\
     # printed IR.  Written by test/gen_canon_golden.exe.\n";
  List.iter
    (fun (label, p) ->
      let text = Ir.Printer.program p in
      let fp = Canon.fingerprint p in
      if not (String.equal fp (Canon.fingerprint (Ir.Parser.program text)))
      then failwith (label ^ ": fingerprint does not survive print/parse");
      Printf.printf "== %s %s\n%s" label fp text)
    (corpus ())
