(* Paired with mli_paired.mli: the missing-mli rule must stay silent. *)

let exposed = 1
