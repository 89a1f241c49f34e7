(** What is left of the retired native engine's emitter: the names the
    benchmark harness ([perfbench/ucbench.ml]) still links.
    [`Native] now runs on the fast kernels (see {!Machine}). *)

(** {!Paris.digest}.  Kept for the benchmark harness until a benchmark
    change drops it. *)
val key : Paris.program -> string

type stats = {
  mem_hits : int;
  disk_hits : int;
  builds : int;
  codegen_ms : float;
  build_ms : float;
}

(** Always zero: nothing is built.  Kept for the benchmark harness until
    a benchmark change drops it. *)
val stats : unit -> stats
