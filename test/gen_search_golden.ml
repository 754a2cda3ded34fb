(* Writes the golden trajectory file test_search.ml checks against.

     dune exec test/gen_search_golden.exe > test/search_golden.txt

   The cases live in search_golden.ml.  Regenerate only when a search
   trajectory is meant to change, and say so in the change log: the file
   exists to prove that internal rewrites of the search and replay paths
   leave every trajectory byte-identical. *)

let () =
  print_string Search_golden.header;
  List.iter (fun (_, line) -> print_endline line) (Search_golden.cases ())
