(** Structured results and telemetry for batch jobs. *)

type status =
  | Done  (** compiled and ran to [Halt] *)
  | Failed of string  (** front-end or machine error, fuel exhaustion … *)
  | Timeout of float  (** wall-clock deadline exceeded (seconds allowed) *)
  | Faulted of string
      (** quarantined: every attempt died with a transient
          [Machine.Fault]; the last fault message *)

type result = {
  job_name : string;
  digest : string;
  options : string;  (** {!Job.options_stamp} of the job *)
  engine : string;  (** {!Job.engine_string} of the job's engine *)
  engine_effective : string;
      (** the engine that actually executed ({!Cm.Machine.effective_engine}):
          differs from [engine] only for [native], which runs on [fast].
          [""] (rendered as [engine]) for rows that never ran a machine *)
  seed : int;
  tuned : bool;
      (** the job ran under an auto-tuned layout ({!Job.t}[.tune]);
          emitted in rows only when true, so untuned rows render
          byte-identically to earlier versions *)
  status : status;
  simulated_seconds : float;  (** 0 when the job did not finish; partial
                                  progress for in-flight timeouts *)
  metrics : (string * float) list;
      (** deterministic machine counters ({!Cm.Cost.metrics}) for runs
          that executed ([Done]/[Timeout]); [[]] otherwise.  Canonical
          content: engine-identical and unaffected by telemetry, so it
          is safe to cache and to compare across runs *)
  output : string list;  (** lines produced by [print] *)
  wall_seconds : float;  (** time to produce this result in this process *)
  from_cache : bool;
  attempts : int;  (** executions tried; 1 = succeeded first try *)
  fault_trace : string list;  (** transient fault messages, in order *)
}

(** Deterministic identity of a result: everything except the wall time
    and cache provenance.  Byte-identical for a given job digest whether
    the result was recomputed or served from the cache. *)
val canonical_json : result -> string

(** One JSON line of telemetry: the canonical fields plus [wall_seconds]
    and [cache] provenance. *)
val json_line : result -> string

(** The {!json_line} object as a JSON value (the wire representation a
    serve [report] frame carries). *)
val to_json : result -> Jsonu.t

(** Inverse of {!to_json}: a served row re-renders byte-identically on
    the client side ({!canonical_json} included), so `ucc submit` can
    prove its rows equal `ucc batch`'s. *)
val of_json : Jsonu.t -> (result, string) Stdlib.result

type summary = {
  total : int;
  ok : int;
  failed : int;
  timeout : int;
  faulted : int;
  cache_hits : int;
  simulated_total : float;
  wall_total : float;  (** sum of per-job wall times (cpu-ish seconds) *)
  elapsed : float;  (** batch wall-clock, set by the caller *)
}

val summarize : elapsed:float -> result list -> summary
val json_of_summary : summary -> string
val pp_summary : Format.formatter -> summary -> unit
