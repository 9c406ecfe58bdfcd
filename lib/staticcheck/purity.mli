(** Rule (3): determinism and print hygiene, typed.

    [determinism]/[no-print]/[no-blanket-catch] over resolved
    identifiers: [Unix.gettimeofday] is caught through any alias, a
    string literal or comment mentioning it is not, and a
    [try ... with _ ->] is recognised from the typedtree.

    [check_prints] is false for terminal-facing directories (the
    [util] exemption, see {!Staticcheck}). *)

val check :
  file:string -> check_prints:bool -> Typedtree.structure -> Site.t list
