let now () = Unix.gettimeofday ()

type policy = {
  retries : int;
  fuel_slice : int;
  resume : bool;
  backoff_base : float;
  backoff_cap : float;
}

let default_policy =
  {
    retries = 0;
    fuel_slice = 100_000;
    resume = true;
    backoff_base = 0.01;
    backoff_cap = 0.25;
  }

(* Capped exponential backoff with deterministic, seeded jitter: the
   sleep for attempt [k] is [min cap (base * 2^k)] scaled into
   [0.5, 1.5) by a hash of (seed, attempt), so colliding retries from a
   fleet of identical jobs (or clients) spread out, reproducibly. *)
let backoff_delay ~base ~cap ~seed ~attempt =
  if base <= 0. then 0.
  else begin
    let capped = Float.min cap (base *. (2. ** float_of_int attempt)) in
    let h = ((seed * 1103515245) + 12345 + (attempt * 40503)) land 0x3FFFFFFF in
    let frac = float_of_int (h land 0xFFFF) /. 65536. in
    capped *. (0.5 +. frac)
  end

let compute ~policy ~t0 ~obs ?ckpt ?on_checkpoint cache (job : Job.t) digest =
  let source_digest = Digest.to_hex (Digest.string job.Job.source) in
  let options_key = Job.options_stamp job in
  let finish ?(attempts = 1) ?(trace = []) ?(metrics = []) ?(effective = "")
      status simulated output =
    {
      Report.job_name = job.Job.name;
      digest;
      options = options_key;
      engine = Job.engine_string job.Job.engine;
      (* "" = no machine ever ran (front-end failures); Report renders
         that as [engine] *)
      engine_effective = effective;
      seed = job.Job.seed;
      tuned = job.Job.tune;
      status;
      simulated_seconds = simulated;
      metrics;
      output;
      wall_seconds = 0.;
      from_cache = false;
      attempts;
      fault_trace = trace;
    }
  in
  try
    let ast =
      Cache.memo_ast cache ~source_digest (fun () ->
          Uc.Compile.parse_source ~obs job.Job.source)
    in
    let compiled =
      Cache.memo_ir cache ~source_digest ~options_key (fun () ->
          let prepared = Uc.Compile.prepare ~obs ast in
          let layouts =
            if job.Job.tune then
              Some
                (Uc.Layoutsel.search ~options:job.Job.options prepared)
                  .Uc.Layoutsel.table
            else None
          in
          Uc.Compile.lower_prepared ?layouts ~options:job.Job.options ~obs
            prepared)
    in
    let deadline_over () =
      match job.Job.deadline with
      | Some limit -> now () -. t0 > limit
      | None -> false
    in
    let retries = Option.value job.Job.retries ~default:policy.retries in
    (* the last checkpoint of a surviving slice, shared across attempts
       so a retry can resume instead of replaying from scratch; a
       caller-supplied blob (journal recovery) seeds it, and the
       restore path's Machine.Error fallback below covers a stale blob
       whose program digest no longer matches *)
    let last_ckpt = ref ckpt in
    let rec attempt_run attempt trace =
      if Obs.enabled obs then
        Obs.point obs "job.attempt"
          ~attrs:
            [
              ("name", Obs.Json.Str job.Job.name);
              ("attempt", Obs.Json.Int (attempt + 1));
            ];
      let plan =
        Option.map (Cm.Fault.instantiate ~attempt) job.Job.faults
      in
      let t =
        match !last_ckpt with
        | Some data when policy.resume -> (
            try
              Uc.Compile.restore_compiled ~engine:job.Job.engine ?faults:plan
                ~obs compiled data
            with Cm.Machine.Error _ ->
              Uc.Compile.start_compiled ~seed:job.Job.seed ?fuel:job.Job.fuel
                ~engine:job.Job.engine ?faults:plan ~obs compiled)
        | _ ->
            Uc.Compile.start_compiled ~seed:job.Job.seed ?fuel:job.Job.fuel
              ~engine:job.Job.engine ?faults:plan ~obs compiled
      in
      (* the deadline is enforced between fuel slices: a slow job stops
         within one slice of its limit instead of holding the worker *)
      let rec slices () =
        if deadline_over () then `Deadline
        else
          match Uc.Compile.step t ~fuel_slice:policy.fuel_slice with
          | `Done -> `Finished
          | `More ->
              Obs.count obs "ucd.slices" 1;
              if
                policy.resume
                && (job.Job.faults <> None || on_checkpoint <> None)
              then begin
                let blob = Uc.Compile.checkpoint t in
                last_ckpt := Some blob;
                (* durability hook: the serve daemon journals the blob
                   so a restarted daemon resumes mid-run *)
                Option.iter (fun f -> f blob) on_checkpoint
              end;
              slices ()
      in
      let machine_metrics () =
        Cm.Machine.publish t.Uc.Compile.machine;
        Cm.Cost.metrics (Uc.Compile.meter t)
      in
      (* which engine actually executed: `native` resolves to `fast`,
         every other engine to itself *)
      let effective () =
        Job.engine_string
          (Cm.Machine.effective_engine t.Uc.Compile.machine)
      in
      match slices () with
      | `Finished ->
          if deadline_over () then
            (* finished, but past the limit: keep the old post-hoc
               verdict so a deadline is never beaten by luck *)
            let limit = Option.get job.Job.deadline in
            finish ~attempts:(attempt + 1) ~trace:(List.rev trace)
              ~metrics:(machine_metrics ()) ~effective:(effective ())
              (Report.Timeout limit)
              (Uc.Compile.elapsed_seconds t)
              (Uc.Compile.output t)
          else
            finish ~attempts:(attempt + 1) ~trace:(List.rev trace)
              ~metrics:(machine_metrics ()) ~effective:(effective ())
              Report.Done
              (Uc.Compile.elapsed_seconds t)
              (Uc.Compile.output t)
      | `Deadline ->
          let limit = Option.get job.Job.deadline in
          finish ~attempts:(attempt + 1) ~trace:(List.rev trace)
            ~metrics:(machine_metrics ()) ~effective:(effective ())
            (Report.Timeout limit)
            (Uc.Compile.elapsed_seconds t)
            (Uc.Compile.output t)
      | exception Cm.Machine.Error msg ->
          (* same rendering as the outer handler, but [t] is in scope
             here so the row records which engine actually errored *)
          finish ~attempts:(attempt + 1) ~trace:(List.rev trace)
            ~effective:(effective ())
            (Report.Failed ("machine: " ^ msg))
            0. []
      | exception Cm.Machine.Fault msg ->
          let trace = msg :: trace in
          if attempt >= retries then
            (* quarantined: the fault outlived its retry budget *)
            finish ~attempts:(attempt + 1) ~trace:(List.rev trace)
              ~effective:(effective ()) (Report.Faulted msg) 0. []
          else begin
            Obs.count obs "ucd.retries" 1;
            if Obs.enabled obs then
              Obs.point obs "job.retry"
                ~attrs:
                  [
                    ("name", Obs.Json.Str job.Job.name);
                    ("fault", Obs.Json.Str msg);
                  ];
            let delay =
              backoff_delay ~base:policy.backoff_base ~cap:policy.backoff_cap
                ~seed:job.Job.seed ~attempt
            in
            if delay > 0. then Unix.sleepf delay;
            attempt_run (attempt + 1) trace
          end
    in
    attempt_run 0 []
  with
  | Uc.Loc.Error (loc, msg) ->
      finish (Report.Failed (Format.asprintf "%a: %s" Uc.Loc.pp loc msg)) 0. []
  | Cm.Machine.Error msg -> finish (Report.Failed ("machine: " ^ msg)) 0. []
  | Uc.Interp.Runtime_error msg ->
      finish (Report.Failed ("runtime: " ^ msg)) 0. []
  | Failure msg -> finish (Report.Failed msg) 0. []
  | Not_found -> finish (Report.Failed "internal lookup failure") 0. []

let status_string = function
  | Report.Done -> "ok"
  | Report.Failed _ -> "failed"
  | Report.Timeout _ -> "timeout"
  | Report.Faulted _ -> "faulted"

let run_job ?(policy = default_policy) ?(obs = Obs.null) ?ckpt ?on_checkpoint
    ~cache (job : Job.t) =
  let t0 = now () in
  let digest = Job.digest job in
  (* fault-bearing runs are policy-dependent (retry budget, resume), so
     they are computed fresh every time, like timeouts *)
  let cacheable = job.Job.faults = None in
  Obs.with_span obs "job"
    ~attrs:
      [ ("name", Obs.Json.Str job.Job.name); ("digest", Obs.Json.Str digest) ]
    (fun () ->
      let cached = if cacheable then Cache.find_run cache digest else None in
      if Obs.enabled obs then
        Obs.point obs "job.cache"
          ~attrs:
            [
              ("name", Obs.Json.Str job.Job.name);
              ( "result",
                Obs.Json.Str
                  (if not cacheable then "bypass"
                   else match cached with Some _ -> "hit" | None -> "miss") );
            ];
      let r =
        match cached with
        | Some r ->
            { r with Report.from_cache = true; wall_seconds = now () -. t0 }
        | None ->
            let r = compute ~policy ~t0 ~obs ?ckpt ?on_checkpoint cache job digest in
            let wall = now () -. t0 in
            (match r.Report.status with
            | Report.Timeout _ | Report.Faulted _ -> ()
            | _ when not cacheable -> ()
            | _ -> Cache.store_run cache digest r);
            { r with Report.wall_seconds = wall }
      in
      if Obs.enabled obs then
        Obs.point obs "job.done"
          ~attrs:
            [
              ("name", Obs.Json.Str job.Job.name);
              ("status", Obs.Json.Str (status_string r.Report.status));
              ("attempts", Obs.Json.Int r.Report.attempts);
              ("cache", Obs.Json.Bool r.Report.from_cache);
            ];
      r)

(* a worker-level surprise (Out_of_memory, Stack_overflow …) rendered
   as a report row, so a crashing job never kills a batch or leaks a
   serve admission slot *)
let crash_result (job : Job.t) exn =
  {
    Report.job_name = job.Job.name;
    digest = Job.digest job;
    options = Job.options_stamp job;
    engine = Job.engine_string job.Job.engine;
    engine_effective = "";
    seed = job.Job.seed;
    tuned = job.Job.tune;
    status = Report.Failed (Printexc.to_string exn);
    simulated_seconds = 0.;
    metrics = [];
    output = [];
    wall_seconds = 0.;
    from_cache = false;
    attempts = 1;
    fault_trace = [];
  }

let run_jobs ?domains ?queue_bound ?policy ?obs ~cache jobs =
  List.map2
    (fun (job : Job.t) outcome ->
      match outcome with
      | Ok r -> r
      | Error exn -> crash_result job exn)
    jobs
    (Pool.map ?domains ?queue_bound ?obs
       (fun job -> run_job ?policy ?obs ~cache job)
       jobs)
