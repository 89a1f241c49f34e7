(* The benchmark harness's links into the retired native engine. *)

let key = Paris.digest

type stats = {
  mem_hits : int;
  disk_hits : int;
  builds : int;
  codegen_ms : float;
  build_ms : float;
}

let stats () =
  { mem_hits = 0; disk_hits = 0; builds = 0; codegen_ms = 0.; build_ms = 0. }
