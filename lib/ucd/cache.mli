(** Content-addressed artifact cache for the batch service.

    Three layers, each with hit/miss counters:
    - parsed ASTs, keyed by source digest (in-memory);
    - lowered Paris IR, keyed by (source digest, options) (in-memory);
    - full run results, keyed by the job digest (in-memory, and persisted
      to [dir] when one is given, so a second batch over the same jobs is
      served entirely from disk).

    All operations are thread-safe; one cache is shared by every domain
    of a {!Pool}.  Timed-out results must not be stored (wall-clock
    outcomes are not content); {!Runner} enforces this.

    Disk artifacts are checksummed on write; a truncated or corrupt
    artifact is quarantined to [<digest>.corrupt] (counted in
    {!stats.corruptions}) and treated as a miss, so a damaged cache
    never aborts a sweep.  Write failures are counted and warned about
    once, then the cache degrades to memory-only for those entries. *)

type t

type stats = {
  ast_hits : int;
  ast_misses : int;
  ir_hits : int;
  ir_misses : int;
  run_hits : int;
  run_misses : int;
  corruptions : int;  (** damaged artifacts quarantined to [.corrupt] *)
  write_failures : int;  (** disk writes that could not complete *)
}

(** [create ?dir ()] makes a cache; with [dir], run results are also
    written to and read from [dir] (created if missing). *)
val create : ?dir:string -> unit -> t

(** [memo_ast t ~source_digest f] returns the cached AST or computes,
    stores and returns [f ()]. *)
val memo_ast :
  t -> source_digest:string -> (unit -> Uc.Ast.program) -> Uc.Ast.program

(** [memo_ir t ~source_digest ~options_key f] likewise for lowered IR. *)
val memo_ir :
  t ->
  source_digest:string ->
  options_key:string ->
  (unit -> Uc.Codegen.compiled) ->
  Uc.Codegen.compiled

(** Look up a finished run by job digest (memory first, then disk). *)
val find_run : t -> string -> Report.result option

(** Record a finished run under its job digest. *)
val store_run : t -> string -> Report.result -> unit

(** Install a chaos hook consulted once per disk write; returning
    [true] makes that write fail as if the disk were full, exercised
    through the ordinary write-failure counting/warning path.  The
    in-memory entry is still stored.  Used by the serve daemon's
    [--chaos disk=N] injection. *)
val set_write_fault : t -> (unit -> bool) -> unit

val stats : t -> stats
val pp_stats : Format.formatter -> stats -> unit

(** [publish t obs] mirrors the cumulative {!stats} counters into [obs]
    as ["ucd.cache."]-prefixed counts ([ast_hits], [ir_misses],
    [corruptions], …).  Call once after a batch; the scope's counters
    are monotonic, so publishing twice doubles them.  A no-op on a
    disabled scope. *)
val publish : t -> Obs.t -> unit
