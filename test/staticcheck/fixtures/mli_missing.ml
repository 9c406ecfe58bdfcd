(* No interface file: the missing-mli rule must flag this unit. *)

let exposed = 1
