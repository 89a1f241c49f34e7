(** Executes jobs against a shared cache, one result per job.

    Fault isolation: a job whose front end raises [Uc.Loc.Error], whose
    machine raises [Cm.Machine.Error] (including fuel exhaustion), or
    that fails in any other way is reported as [Report.Failed]; the
    exception never escapes.

    Robustness policy (the {!policy} record):
    - execution proceeds in {e fuel slices} and the wall-clock deadline
      is enforced {e between} slices, so a slow job yields
      [Report.Timeout] within one slice of its limit instead of holding
      a pool worker until it finishes (timeouts are never cached);
    - a run that dies with a transient [Cm.Machine.Fault] is retried up
      to [retries] extra times (per-job [Job.retries] overrides) with
      capped exponential backoff and deterministic seeded jitter,
      optionally resuming from the last checkpointed slice; the attempt
      count and fault trace land in the report row;
    - when every attempt faults, the job is quarantined as
      [Report.Faulted] — it never takes the pool down.

    Fault-bearing jobs ([Job.faults <> None]) are computed fresh every
    time: their outcome depends on the retry policy, which is not
    content, so caching them would let policy leak into cached results. *)

type policy = {
  retries : int;  (** default extra attempts after a transient fault *)
  fuel_slice : int;  (** instructions per slice (deadline granularity) *)
  resume : bool;  (** resume retries from the last checkpoint *)
  backoff_base : float;  (** first retry delay, seconds *)
  backoff_cap : float;  (** upper bound on any retry delay, seconds *)
}

(** retries 0, fuel_slice 100k, resume on, backoff 10ms doubling capped
    at 250ms. *)
val default_policy : policy

(** The retry sleep for attempt [attempt] (from 0): [min cap (base * 2^attempt)]
    scaled into [\[0.5, 1.5)] by a hash of ([seed], [attempt]); 0 when
    [base <= 0].  Job retries use the policy's base and cap with the
    job's seed; {!Client}'s redial uses it too. *)
val backoff_delay : base:float -> cap:float -> seed:int -> attempt:int -> float

(** Run one job: cache lookup, else compile (via the staged
    {!Uc.Compile} API, memoizing AST and IR) and execute under the
    policy.

    [obs] (default {!Obs.null}) receives the job lifecycle: a ["job"]
    span around the whole unit of work, ["job.cache"] (hit/miss/bypass),
    ["job.attempt"], ["job.retry"] and ["job.done"] points, the
    ["ucd.slices"]/["ucd.retries"] counters, and — via
    {!Cm.Machine.publish} — the machine's ["cm."] statistics.  One scope
    may be shared by every pool worker; telemetry never changes results
    (the report row, including its [metrics], is identical with a null
    scope).

    [ckpt] seeds the resume point with a previously captured
    {!Uc.Compile.checkpoint} blob (journal recovery): the first attempt
    restores from it, falling back to a fresh start when the blob's
    program digest no longer matches (source changed across the
    restart).  [on_checkpoint] receives every per-slice checkpoint blob
    as it is taken — supplying it forces per-slice checkpointing even
    for fault-free jobs, which is how the serve daemon journals resume
    points.  Checkpoint-interrupt-resume yields byte-identical rows
    (PR 3 invariant), so neither parameter can change a result. *)
val run_job :
  ?policy:policy ->
  ?obs:Obs.t ->
  ?ckpt:string ->
  ?on_checkpoint:(string -> unit) ->
  cache:Cache.t ->
  Job.t ->
  Report.result

(** The [Report.Failed] row for a job whose execution raised something
    {!run_job} does not absorb ([Out_of_memory], [Stack_overflow] …).
    {!run_jobs} and the serve daemon use it so a crashing job still
    yields a result — and releases its admission slot — instead of
    vanishing. *)
val crash_result : Job.t -> exn -> Report.result

(** Run a batch on a domain pool ({!Pool.map}); results are returned in
    submission order.  [obs] is shared by all workers. *)
val run_jobs :
  ?domains:int ->
  ?queue_bound:int ->
  ?policy:policy ->
  ?obs:Obs.t ->
  cache:Cache.t ->
  Job.t list ->
  Report.result list
