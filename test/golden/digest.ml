(* [digest.exe BENCH ID...] runs [BENCH -j 1 ID] once per experiment id
   and prints one "ID MD5" line per run, the MD5 taken over the run's
   whole stdout.  Fails when a run exits non-zero. *)

let () =
  match Array.to_list Sys.argv with
  | _ :: bench :: ids ->
    List.iter
      (fun id ->
        let ic = Unix.open_process_args_in bench [| bench; "-j"; "1"; id |] in
        let out = In_channel.input_all ic in
        match Unix.close_process_in ic with
        | Unix.WEXITED 0 -> Printf.printf "%s %s\n" id (Digest.to_hex (Digest.string out))
        | _ -> failwith (Printf.sprintf "%s -j 1 %s failed" bench id))
      ids
  | _ -> failwith "usage: digest.exe BENCH ID..."
