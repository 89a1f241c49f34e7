(* The `ucc serve` daemon: a compile-and-run service over Unix-domain
   (and optionally TCP) sockets speaking the Proto JSON-lines protocol.

   Thread/domain architecture:

   - one accept thread multiplexing the listeners and a self-pipe (the
     shutdown wakeup);
   - two threads per connection: a reader (parses frames, runs the
     dispatch loop) and a writer (drains the session outbox to the
     socket) — one writer per socket means reply and trace lines never
     interleave mid-frame;
   - a Pool.service of worker domains executing jobs through the
     ordinary Runner, so caching, fault quarantine, checkpoint slicing
     and deadline enforcement apply to served jobs unchanged.

   Admission control happens on the reader thread, before the queue:
   a draining server answers [shutting_down], a tenant past its
   in-flight quota [quota], a low-priority submission past the 3/4
   queue watermark [overloaded], and a full queue [overloaded] (the
   non-blocking Pool.try_submit path) — a client is never blocked by
   someone else's backlog, it gets a typed reply instead.

   Graceful shutdown (signal handler or a [drain] frame): stop
   accepting, reject new submissions, drain in-flight jobs bounded by
   [drain_timeout], flush every outbox, notify clients, exit 0 (1 if
   the timeout expired with jobs still running). *)

type config = {
  socket_path : string option;
  tcp_port : int option;
  domains : int;
  queue_bound : int;
  quotas : (string * int) list;
  default_quota : int option;
  drain_timeout : float;
  flush_timeout : float;
  policy : Runner.policy;
  max_frame : int;
  outbox_capacity : int;
  recent_results : int;
  journal : bool;  (* write-ahead job journal (needs a cache_dir) *)
  journal_fsync : bool;  (* fsync after every journal record *)
  chaos : Chaos.spec option;  (* seeded service-level fault injection *)
  verbose : bool;
}

let default_config =
  {
    socket_path = Some "ucd.sock";
    tcp_port = None;
    domains = 2;
    queue_bound = 16;
    quotas = [];
    default_quota = None;
    drain_timeout = 30.;
    flush_timeout = 5.;
    policy = Runner.default_policy;
    max_frame = Proto.default_max_frame;
    outbox_capacity = 4096;
    recent_results = 256;
    journal = true;
    journal_fsync = false;
    chaos = None;
    verbose = false;
  }

type job_state = Queued | Running | Done of Report.result | Cancelled

type job_entry = {
  job_id : int;
  digest : string;
  owner : Session.t option;
      (* None: requeued from the journal, its submitter is gone until
         it resubmits by digest and attaches as a watcher *)
  mutable watchers : Session.t list;
      (* sessions that resubmitted this in-flight digest: each gets the
         report frame, none holds a quota slot *)
  job : Job.t;
  mutable ckpt : string option;  (* latest journaled checkpoint blob *)
  mutable state : job_state;
}

(* a job that left the live table: only its outcome, digest and its
   owner's session id survive, so completed jobs retain neither their
   source nor their Session.t (a disconnected session must be
   collectable) *)
type finished = {
  fin_owner : int;  (* 0: recovered job, no owner session *)
  fin_digest : string;
  fin_state : string;  (* "done" | "faulted" | "cancelled" *)
  fin_row : Jsonu.t option;
}

type conn = {
  conn_fd : Unix.file_descr;
  conn_privileged : bool;  (* accepted on the unix socket, not TCP *)
  mutable conn_session : Session.t option;
  mutable conn_writer : Thread.t option;
}

type t = {
  cfg : config;
  cache : Cache.t;
  pool : Pool.service;
  registry : Session.registry;
  obs : Obs.t;  (* daemon-side scope (ucc serve --trace/--metrics) *)
  journal : Journal.t option;  (* write-ahead job journal *)
  chaos : Chaos.t option;  (* instantiated chaos plan *)
  started_at : float;
  jobs : (int, job_entry) Hashtbl.t;  (* queued/running only *)
  by_digest : (string, job_entry) Hashtbl.t;  (* live jobs, same lock *)
  recent : (int, finished) Hashtbl.t;  (* last [recent_results] outcomes *)
  recent_by_digest : (string, int) Hashtbl.t;  (* digest -> recent id *)
  recovered_terminal : (string, string) Hashtbl.t;
      (* journal-replayed terminal digests (status string) whose rows
         are gone: answers status_digest after a restart *)
  recent_order : int Queue.t;
  jobs_lock : Mutex.t;
  mutable next_job : int;
  mutable jobs_done : int;
  mutable jobs_cancelled : int;
  mutable jobs_recovered : int;
  listeners : (Unix.file_descr * bool) list;  (* fd, privileged *)
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  state_lock : Mutex.t;
  exit_cond : Condition.t;
  mutable draining : bool;
  mutable shutdown_reason : string;
  mutable exit_code : int option;
  conns_lock : Mutex.t;
  mutable conns : (conn * Thread.t) list;  (* connection, reader thread *)
  mutable accept_thread : Thread.t option;
}

let locked lock f =
  Mutex.lock lock;
  match f () with
  | v ->
      Mutex.unlock lock;
      v
  | exception e ->
      Mutex.unlock lock;
      raise e

let logf t fmt =
  Printf.ksprintf
    (fun msg -> if t.cfg.verbose then Printf.eprintf "ucd: %s\n%!" msg)
    fmt

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off = if off < n then go (off + Unix.write fd b off (n - off)) in
  go 0

(* pre-session replies (hello errors) go straight to the socket: the
   writer thread does not exist yet *)
let write_msg fd msg =
  try write_all fd (Proto.server_line msg ^ "\n") with _ -> ()

let is_draining t = locked t.state_lock (fun () -> t.draining)

(* Write-ahead: journal records precede the client-visible effects they
   describe.  Append failures degrade to non-durable (warned inside
   Journal), never to a dead daemon. *)
let journal_append t entry =
  match t.journal with None -> () | Some j -> Journal.append j entry

(* ---- job execution ---- *)

(* jobs_lock held: move a job out of the live table into the bounded
   recent window backing status queries, evicting the oldest outcome
   once the window is full *)
let retire t (entry : job_entry) ~state ~row =
  Hashtbl.remove t.jobs entry.job_id;
  Hashtbl.remove t.by_digest entry.digest;
  Hashtbl.replace t.recent entry.job_id
    {
      fin_owner =
        (match entry.owner with Some s -> s.Session.id | None -> 0);
      fin_digest = entry.digest;
      fin_state = state;
      fin_row = row;
    };
  Hashtbl.replace t.recent_by_digest entry.digest entry.job_id;
  Queue.push entry.job_id t.recent_order;
  while Queue.length t.recent_order > t.cfg.recent_results do
    let old = Queue.pop t.recent_order in
    (match Hashtbl.find_opt t.recent old with
    | Some f ->
        if Hashtbl.find_opt t.recent_by_digest f.fin_digest = Some old then
          Hashtbl.remove t.recent_by_digest f.fin_digest
    | None -> ());
    Hashtbl.remove t.recent old
  done

let terminal_state (r : Report.result) =
  match r.Report.status with Report.Faulted _ -> "faulted" | _ -> "done"

let journal_terminal_entry (entry : job_entry) (r : Report.result) =
  match r.Report.status with
  | Report.Faulted _ -> Journal.Faulted { digest = entry.digest }
  | Report.Done -> Journal.Done_ { digest = entry.digest; status = "ok" }
  | Report.Failed _ ->
      Journal.Done_ { digest = entry.digest; status = "failed" }
  | Report.Timeout _ ->
      Journal.Done_ { digest = entry.digest; status = "timeout" }

let deliver_report t (entry : job_entry) r =
  let row = Report.to_json r in
  let watchers =
    locked t.jobs_lock (fun () ->
        entry.state <- Done r;
        t.jobs_done <- t.jobs_done + 1;
        retire t entry ~state:(terminal_state r) ~row:(Some row);
        entry.watchers)
  in
  (* the journal learns the outcome before any client does: a crash
     after this line cannot resurrect a job a client saw finish *)
  journal_append t (journal_terminal_entry entry r);
  (* release the owner's quota slot (watchers hold none) BEFORE the
     report frame is enqueued: a client that resubmits the moment it
     sees the report must never race the release and bounce off its
     own still-occupied slot *)
  Option.iter
    (fun sess -> Session.finished t.registry sess ~completed:true)
    entry.owner;
  let recipients =
    (match entry.owner with Some s -> [ s ] | None -> []) @ List.rev watchers
  in
  List.iter
    (fun sess ->
      ignore (Session.send sess (Proto.Report { job = entry.job_id; row })))
    recipients

let rec job_task t (entry : job_entry) () =
  let run_it =
    locked t.jobs_lock (fun () ->
        match entry.state with
        | Queued ->
            entry.state <- Running;
            true
        | _ -> false)
  in
  if run_it then
    (* chaos: worker-crash simulation — throw the job back on the queue
       with no report, exactly what a killed worker would leave behind;
       the journal's accepted record is what keeps it alive *)
    match t.chaos with
    | Some ch when Chaos.fires_crash ch ~obs:t.obs -> (
        locked t.jobs_lock (fun () ->
            if entry.state = Running then entry.state <- Queued);
        match Pool.try_submit t.pool (job_task t entry) with
        | `Accepted -> ()
        | `Overloaded | `Closed ->
            (* no room to requeue: run it here — a simulated crash must
               never turn into a genuinely lost job *)
            job_task t entry ())
    | _ -> begin
        journal_append t (Journal.Started { digest = entry.digest });
        (* live trace subscription: a dedicated scope whose sink forwards
           each event to the owner's droppable outbox lane; otherwise the
           job runs against the daemon's own scope (Obs.null by default) *)
        let job_obs =
          match entry.owner with
          | Some owner when Session.trace_enabled owner ->
              let scope = Obs.create ~clock:Unix.gettimeofday () in
              Obs.add_sink scope (fun ev ->
                  ignore
                    (Session.send_trace owner ~job:entry.job_id
                       (Obs.event_json ev)));
              scope
          | _ -> t.obs
        in
        (* per-slice checkpoints flow into the journal so a restarted
           daemon resumes mid-run instead of replaying from scratch *)
        let on_checkpoint =
          match t.journal with
          | None -> None
          | Some _ ->
              Some
                (fun blob ->
                  entry.ckpt <- Some blob;
                  journal_append t
                    (Journal.Checkpointed { digest = entry.digest; ckpt = blob }))
        in
        let r =
          try
            Runner.run_job ~policy:t.cfg.policy ~obs:job_obs ?ckpt:entry.ckpt
              ?on_checkpoint ~cache:t.cache entry.job
          with exn ->
            (* the pool worker swallows exceptions, so a crash that escaped
               run_job (Out_of_memory, Stack_overflow …) must still turn
               into a report here — otherwise the job stays Running forever
               and the tenant's in-flight slot leaks *)
            Runner.crash_result entry.job exn
        in
        deliver_report t entry r
      end

(* ---- submission ---- *)

let job_of_submit (s : Proto.submit) =
  Job.resolve ~name:s.Proto.name ~source:s.Proto.source (Proto.spec_of_submit s)

let reject t sess ~client_ref code msg =
  Session.note_rejected sess;
  Obs.count t.obs ("serve.rejected." ^ Proto.code_string code) 1;
  ignore (Session.send sess (Proto.Rejected { client_ref; code; msg }))

let handle_submit t sess (s : Proto.submit) =
  let client_ref = s.Proto.client_ref in
  if is_draining t then
    reject t sess ~client_ref Proto.Shutting_down "server is draining"
  else
    match job_of_submit s with
    | Error msg -> reject t sess ~client_ref Proto.Bad_request msg
    | Ok job -> (
        let digest = Job.digest job in
        (* exactly-once: resubmitting an in-flight digest (reconnected
           client, or a job requeued from the journal) joins the
           existing job as a watcher instead of duplicating it — no
           quota slot, no queue slot, one report frame per ack *)
        let joined =
          locked t.jobs_lock (fun () ->
              match Hashtbl.find_opt t.by_digest digest with
              | Some e ->
                  e.watchers <- sess :: e.watchers;
                  Some e.job_id
              | None -> None)
        in
        match joined with
        | Some id ->
            Obs.count t.obs "serve.resumed" 1;
            ignore
              (Session.send sess (Proto.Resumed { client_ref; job = id; digest }))
        | None -> (
            (* low-priority watermark: the last quarter of the queue is
               reserved for normal/high traffic, so background tenants
               shed first under pressure *)
            let st = Pool.service_stats t.pool in
            if
              sess.Session.priority = Proto.Low
              && st.Pool.queue_depth >= st.Pool.queue_bound * 3 / 4
            then
              reject t sess ~client_ref Proto.Overloaded
                (Printf.sprintf
                   "low-priority watermark: queue %d/%d" st.Pool.queue_depth
                   st.Pool.queue_bound)
            else
              match Session.admit t.registry sess with
              | Error msg -> reject t sess ~client_ref Proto.Quota msg
              | Ok () -> (
                  let entry =
                    locked t.jobs_lock (fun () ->
                        let id = t.next_job in
                        t.next_job <- id + 1;
                        let e =
                          {
                            job_id = id;
                            digest;
                            owner = Some sess;
                            watchers = [];
                            job;
                            ckpt = None;
                            state = Queued;
                          }
                        in
                        Hashtbl.replace t.jobs id e;
                        Hashtbl.replace t.by_digest digest e;
                        e)
                  in
                  let unwind () =
                    locked t.jobs_lock (fun () ->
                        Hashtbl.remove t.jobs entry.job_id;
                        Hashtbl.remove t.by_digest digest);
                    Session.finished t.registry sess ~completed:false
                  in
                  match Pool.try_submit t.pool (job_task t entry) with
                  | `Accepted ->
                      (* write-ahead: journal the acceptance before the
                         client hears it, so every acked job survives a
                         SIGKILL *)
                      journal_append t
                        (Journal.Accepted
                           {
                             digest;
                             name = s.Proto.name;
                             tenant = sess.Session.tenant;
                             submit = Proto.submit_obj s;
                           });
                      Obs.count t.obs "serve.accepted" 1;
                      ignore
                        (Session.send sess
                           (Proto.Accepted
                              { client_ref; job = entry.job_id; digest }))
                  | `Overloaded ->
                      unwind ();
                      (* re-sample: [st] predates admission *)
                      let st = Pool.service_stats t.pool in
                      reject t sess ~client_ref Proto.Overloaded
                        (Printf.sprintf "queue full (%d/%d)" st.Pool.queue_depth
                           st.Pool.queue_bound)
                  | `Closed ->
                      unwind ();
                      reject t sess ~client_ref Proto.Shutting_down
                        "server is draining")))

(* ---- the rest of the dispatch surface ---- *)

let owns sess (e : job_entry) =
  match e.owner with
  | Some o -> o.Session.id = sess.Session.id
  | None -> false

let owned_entry t sess job =
  locked t.jobs_lock (fun () ->
      match Hashtbl.find_opt t.jobs job with
      | Some e when owns sess e -> Some e
      | _ -> None)

let state_reply (e : job_entry) =
  match e.state with
  | Queued -> ("queued", None)
  | Running -> ("running", None)
  | Cancelled -> ("cancelled", None)
  | Done r -> (terminal_state r, Some (Report.to_json r))

let handle_status t sess job =
  let reply =
    locked t.jobs_lock (fun () ->
        match Hashtbl.find_opt t.jobs job with
        | Some e when owns sess e -> Some (state_reply e)
        | Some _ -> None
        | None -> (
            match Hashtbl.find_opt t.recent job with
            | Some f when f.fin_owner = sess.Session.id ->
                Some (f.fin_state, f.fin_row)
            | _ -> None))
  in
  match reply with
  | Some (state, row) ->
      ignore (Session.send sess (Proto.Status_reply { job; state; row }))
  | None ->
      ignore
        (Session.send sess
           (Proto.Error
              {
                code = Proto.Unknown_job;
                msg =
                  Printf.sprintf
                    "job %d is not yours, never existed or was evicted \
                     (server keeps the last %d outcomes)"
                    job t.cfg.recent_results;
              }))

(* Status by content digest: unlike job ids, digests survive a daemon
   restart, and holding one proves the caller could reconstruct the job
   anyway — so the lookup is deliberately not owner-gated.  Resolution
   order: live table, recent window, disk cache (rows persist across
   restarts), then journal-replayed terminal digests whose rows are
   gone. *)
let handle_status_digest t sess digest =
  let live =
    locked t.jobs_lock (fun () ->
        match Hashtbl.find_opt t.by_digest digest with
        | Some e -> Some (state_reply e)
        | None -> (
            match Hashtbl.find_opt t.recent_by_digest digest with
            | Some id -> (
                match Hashtbl.find_opt t.recent id with
                | Some f -> Some (f.fin_state, f.fin_row)
                | None -> None)
            | None -> None))
  in
  let state, row =
    match live with
    | Some r -> r
    | None -> (
        match Cache.find_run t.cache digest with
        | Some r ->
            ( terminal_state r,
              Some (Report.to_json { r with Report.from_cache = true }) )
        | None -> (
            match
              locked t.jobs_lock (fun () ->
                  Hashtbl.find_opt t.recovered_terminal digest)
            with
            | Some s -> ((if s = "ok" then "done" else s), None)
            | None -> ("unknown", None)))
  in
  ignore (Session.send sess (Proto.Digest_reply { digest; state; row }))

let handle_cancel t sess job =
  match owned_entry t sess job with
  | None -> ignore (Session.send sess (Proto.Cancel_reply { job; ok = false }))
  | Some e ->
      let ok =
        locked t.jobs_lock (fun () ->
            match e.state with
            | Queued ->
                e.state <- Cancelled;
                t.jobs_cancelled <- t.jobs_cancelled + 1;
                retire t e ~state:"cancelled" ~row:None;
                true
            | _ -> false)
      in
      (* the queued thunk still runs, sees Cancelled, and does nothing;
         release the admission slot now *)
      if ok then begin
        journal_append t (Journal.Done_ { digest = e.digest; status = "cancelled" });
        Session.finished t.registry sess ~completed:false
      end;
      ignore (Session.send sess (Proto.Cancel_reply { job; ok }))

let stats_json t =
  let cache = Cache.stats t.cache in
  let jobs_total, done_, cancelled =
    locked t.jobs_lock (fun () ->
        (t.next_job - 1, t.jobs_done, t.jobs_cancelled))
  in
  Jsonu.Obj
    [
      ( "server",
        Jsonu.Obj
          [
            ("version", Jsonu.Int Proto.version);
            ("draining", Jsonu.Bool (is_draining t));
            ("jobs_submitted", Jsonu.Int jobs_total);
            ("jobs_done", Jsonu.Int done_);
            ("jobs_cancelled", Jsonu.Int cancelled);
          ] );
      ("pool", Jsonu.Obj (Pool.stats_fields (Pool.service_stats t.pool)));
      ("sessions", Jsonu.Obj (Session.registry_fields t.registry));
      ( "cache",
        Jsonu.Obj
          [
            ("ast_hits", Jsonu.Int cache.Cache.ast_hits);
            ("ast_misses", Jsonu.Int cache.Cache.ast_misses);
            ("ir_hits", Jsonu.Int cache.Cache.ir_hits);
            ("ir_misses", Jsonu.Int cache.Cache.ir_misses);
            ("run_hits", Jsonu.Int cache.Cache.run_hits);
            ("run_misses", Jsonu.Int cache.Cache.run_misses);
            ("corruptions", Jsonu.Int cache.Cache.corruptions);
            ("write_failures", Jsonu.Int cache.Cache.write_failures);
          ] );
    ]

(* The read-only operational snapshot behind `ucc status`: uptime, pool
   and queue depth, journal lag, per-tenant quota usage.  Deliberately
   allowed on TCP — it cannot change anything. *)
let server_status_json t =
  let st = Pool.service_stats t.pool in
  let submitted, done_, cancelled, recovered =
    locked t.jobs_lock (fun () ->
        (t.next_job - 1, t.jobs_done, t.jobs_cancelled, t.jobs_recovered))
  in
  let journal =
    match t.journal with
    | None -> Jsonu.Obj [ ("enabled", Jsonu.Bool false) ]
    | Some j ->
        let s = Journal.stats j in
        Jsonu.Obj
          [
            ("enabled", Jsonu.Bool true);
            ("fsync", Jsonu.Bool t.cfg.journal_fsync);
            ("appended", Jsonu.Int s.Journal.appended);
            ("lag", Jsonu.Int (Journal.lag j));
            ("write_failures", Jsonu.Int s.Journal.write_failures);
            ("replayed", Jsonu.Int s.Journal.s_replayed);
            ("corrupt", Jsonu.Int s.Journal.s_corrupt);
            ("requeued", Jsonu.Int s.Journal.s_requeued);
          ]
  in
  let tenants =
    List.map
      (fun (tenant, in_flight, quota) ->
        Jsonu.Obj
          ([
             ("tenant", Jsonu.Str tenant);
             ("in_flight", Jsonu.Int in_flight);
           ]
          @ match quota with Some q -> [ ("quota", Jsonu.Int q) ] | None -> []))
      (Session.tenant_usage t.registry)
  in
  Jsonu.Obj
    [
      ("version", Jsonu.Int Proto.version);
      ("uptime_seconds", Jsonu.Float (Unix.gettimeofday () -. t.started_at));
      ("draining", Jsonu.Bool (is_draining t));
      ( "jobs",
        Jsonu.Obj
          [
            ("submitted", Jsonu.Int submitted);
            ("done", Jsonu.Int done_);
            ("cancelled", Jsonu.Int cancelled);
            ("recovered", Jsonu.Int recovered);
          ] );
      ( "pool",
        Jsonu.Obj
          [
            ("queue_depth", Jsonu.Int st.Pool.queue_depth);
            ("queue_bound", Jsonu.Int st.Pool.queue_bound);
            ("busy", Jsonu.Int st.Pool.busy);
            ("idle", Jsonu.Int st.Pool.idle);
          ] );
      ("journal", journal);
      ( "chaos",
        Jsonu.Str
          (match t.chaos with Some c -> Chaos.canonical c | None -> "off") );
      ("tenants", Jsonu.List tenants);
    ]

(* ---- shutdown ---- *)

let request_shutdown ?(reason = "shutdown requested") t =
  let first =
    locked t.state_lock (fun () ->
        if t.draining then false
        else begin
          t.draining <- true;
          t.shutdown_reason <- reason;
          true
        end)
  in
  if first then (try ignore (Unix.write t.wake_w (Bytes.of_string "x") 0 1) with _ -> ());
  first

let handle_drain t sess =
  (* quotas isolate tenants for submission, but drain terminates the
     whole daemon: only connections on the unix socket (operator-owned
     by filesystem permissions) may request it — any TCP client could
     otherwise shut the server down for everyone *)
  if not sess.Session.privileged then begin
    Obs.count t.obs "serve.rejected.denied" 1;
    ignore
      (Session.send sess
         (Proto.Error
            {
              code = Proto.Denied;
              msg = "drain is operator-only: connect over the unix socket";
            }))
  end
  else begin
    let st = Pool.service_stats t.pool in
    ignore
      (Session.send sess
         (Proto.Draining { in_flight = st.Pool.queue_depth + st.Pool.busy }));
    ignore (request_shutdown ~reason:"drain requested by client" t)
  end

(* ---- per-connection threads ---- *)

let writer_thread t sess fd =
  let rec loop () =
    match Session.outbox_pop sess with
    | None -> ()
    | Some line -> (
        (* chaos: slow-reader stall — the writer sleeps as if the
           client stopped draining its socket, backing pressure up
           through the outbox *)
        (match t.chaos with
        | Some ch -> (
            match Chaos.fires_slow ch ~obs:t.obs with
            | Some d -> Thread.delay d
            | None -> ())
        | None -> ());
        (* chaos: torn frame — emit a prefix of the line, then tear the
           connection down; the client sees a truncated frame exactly
           as it would after a mid-write daemon crash *)
        let torn =
          match t.chaos with
          | Some ch -> Chaos.fires_frame ch ~obs:t.obs
          | None -> false
        in
        if torn then begin
          (try write_all fd (String.sub line 0 (max 1 (String.length line / 2)))
           with _ -> ());
          Session.close_outbox sess;
          (try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ());
          loop ()  (* drain the closed lane so producers never block *)
        end
        else
          match write_all fd (line ^ "\n") with
          | () -> loop ()
          | exception _ ->
              (* client gone: close the lane so producers stop, and keep
                 draining so a blocked push can never deadlock *)
              Session.close_outbox sess;
              loop ())
  in
  loop ();
  (* flushing done (or futile): end the conversation; the reader sees
     EOF, cleans up, and owns the close *)
  try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()

let dispatch t sess = function
  | Proto.Submit s -> handle_submit t sess s
  | Proto.Status job -> handle_status t sess job
  | Proto.Status_digest digest -> handle_status_digest t sess digest
  | Proto.Cancel job -> handle_cancel t sess job
  | Proto.Trace enable ->
      Session.set_trace sess enable;
      ignore (Session.send sess (Proto.Trace_reply enable))
  | Proto.Stats ->
      ignore (Session.send sess (Proto.Stats_reply (stats_json t)))
  | Proto.Server_status ->
      ignore
        (Session.send sess (Proto.Server_status_reply (server_status_json t)))
  | Proto.Drain -> handle_drain t sess
  | Proto.Hello _ ->
      ignore
        (Session.send sess
           (Proto.Error
              { code = Proto.Protocol; msg = "hello after handshake" }))
  | Proto.Bye -> ()  (* handled by the loop *)

let reader_thread t conn =
  let fd = conn.conn_fd in
  let r = Proto.reader ~max_frame:t.cfg.max_frame fd in
  (* handshake: the first frame must be a version-matching hello *)
  let handshake () =
    match Proto.read_frame r with
    | `Eof -> None
    | `Oversized ->
        write_msg fd
          (Proto.Error { code = Proto.Oversized; msg = "hello frame too large" });
        None
    | `Frame line -> (
        match Proto.client_of_line line with
        | Ok (Proto.Hello { version; tenant; priority }) ->
            if version <> Proto.version then begin
              write_msg fd
                (Proto.Error
                   {
                     code = Proto.Version_mismatch;
                     msg =
                       Printf.sprintf "server speaks version %d, client %d"
                         Proto.version version;
                   });
              None
            end
            else begin
              let sess =
                Session.attach ~privileged:conn.conn_privileged t.registry
                  ~tenant ~priority ~outbox_capacity:t.cfg.outbox_capacity
              in
              conn.conn_session <- Some sess;
              let w = Thread.create (fun () -> writer_thread t sess fd) () in
              conn.conn_writer <- Some w;
              ignore
                (Session.send sess
                   (Proto.Welcome
                      {
                        version = Proto.version;
                        session = sess.Session.id;
                        server = "ucd/1";
                      }));
              Some sess
            end
        | Ok _ ->
            write_msg fd
              (Proto.Error
                 { code = Proto.Protocol; msg = "first frame must be hello" });
            None
        | Error (code, msg) ->
            write_msg fd (Proto.Error { code; msg });
            None)
  in
  (match handshake () with
  | None -> ()
  | Some sess ->
      Obs.count t.obs "serve.sessions" 1;
      logf t "session %d: tenant %s connected" sess.Session.id
        sess.Session.tenant;
      let rec loop () =
        match Proto.read_frame r with
        | `Eof -> ()
        | `Oversized ->
            (* the offending frame was discarded at a newline boundary,
               so the stream stays in sync; reject and carry on *)
            ignore
              (Session.send sess
                 (Proto.Error
                    {
                      code = Proto.Oversized;
                      msg =
                        Printf.sprintf "frame exceeds %d bytes" t.cfg.max_frame;
                    }));
            loop ()
        | `Frame line ->
            (* chaos: socket reset — drop the connection before the
               frame is processed, as if the network died; the client
               must reconnect and resubmit by digest *)
            let reset =
              match t.chaos with
              | Some ch -> Chaos.fires_reset ch ~obs:t.obs
              | None -> false
            in
            if reset then begin
              Session.close_outbox sess;
              try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()
            end
            else (
              match Proto.client_of_line line with
              | Ok Proto.Bye -> ()
              | Ok msg ->
                  dispatch t sess msg;
                  loop ()
              | Error e ->
                  (match Proto.bad_frame_reply line e with
                  | Proto.Rejected { client_ref; code; msg } ->
                      reject t sess ~client_ref code msg
                  | reply -> ignore (Session.send sess reply));
                  loop ())
      in
      loop ();
      logf t "session %d: disconnected" sess.Session.id;
      Session.detach t.registry sess);
  (* reap the writer (detach closed the outbox, so it terminates after
     flushing), then own the close *)
  Option.iter Thread.join conn.conn_writer;
  (try Unix.close fd with _ -> ());
  locked t.conns_lock (fun () ->
      t.conns <- List.filter (fun (c, _) -> c != conn) t.conns)

(* ---- accept loop and lifecycle ---- *)

let accept_loop t =
  let rec loop () =
    match
      Unix.select (t.wake_r :: List.map fst t.listeners) [] [] (-1.)
    with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | ready, _, _ ->
        if List.mem t.wake_r ready then ()  (* shutdown *)
        else begin
          List.iter
            (fun (lfd, privileged) ->
              if List.mem lfd ready then
                match Unix.accept lfd with
                | fd, _ ->
                    Obs.count t.obs "serve.connections" 1;
                    let conn =
                      {
                        conn_fd = fd;
                        conn_privileged = privileged;
                        conn_session = None;
                        conn_writer = None;
                      }
                    in
                    let th = Thread.create (fun () -> reader_thread t conn) () in
                    locked t.conns_lock (fun () ->
                        t.conns <- (conn, th) :: t.conns)
                | exception Unix.Unix_error (_, _, _) -> ())
            t.listeners;
          loop ()
        end
  in
  loop ();
  (* ---- graceful drain ---- *)
  logf t "%s: draining" t.shutdown_reason;
  List.iter (fun (fd, _) -> try Unix.close fd with _ -> ()) t.listeners;
  (match t.cfg.socket_path with
  | Some p -> ( try Unix.unlink p with _ -> ())
  | None -> ());
  Pool.close t.pool;
  let drained = Pool.drain ~timeout:t.cfg.drain_timeout t.pool in
  if not drained then
    logf t "drain timeout (%.1fs) expired with jobs still running"
      t.cfg.drain_timeout;
  (* every in-flight report has been pushed; say goodbye and flush *)
  List.iter
    (fun sess ->
      ignore (Session.send sess (Proto.Shutdown { msg = t.shutdown_reason }));
      Session.close_outbox sess)
    (Session.all t.registry);
  (* wake pre-handshake connections stuck in read (no outbox, no
     goodbye owed to them) *)
  locked t.conns_lock (fun () ->
      List.iter
        (fun (c, _) ->
          if c.conn_session = None then
            try Unix.shutdown c.conn_fd Unix.SHUTDOWN_ALL with _ -> ())
        t.conns);
  (* bounded flush: give every writer [flush_timeout] to push its
     goodbye, then force-disconnect the stragglers — a client that
     stopped reading leaves its writer blocked in write and its reader
     blocked in read, and must not wedge shutdown (the shutdown wakes
     both with an error) *)
  let flush_deadline = Unix.gettimeofday () +. t.cfg.flush_timeout in
  let rec await_flush () =
    if locked t.conns_lock (fun () -> t.conns <> []) then
      if Unix.gettimeofday () < flush_deadline then begin
        Thread.delay 0.05;
        await_flush ()
      end
      else begin
        logf t "flush timeout (%.1fs): force-disconnecting stalled clients"
          t.cfg.flush_timeout;
        locked t.conns_lock (fun () ->
            List.iter
              (fun (c, _) ->
                try Unix.shutdown c.conn_fd Unix.SHUTDOWN_ALL with _ -> ())
              t.conns)
      end
  in
  await_flush ();
  let conns = locked t.conns_lock (fun () -> t.conns) in
  List.iter (fun (_, th) -> Thread.join th) conns;
  Pool.publish t.pool t.obs;
  Cache.publish t.cache t.obs;
  (* the journal outlives the daemon (that is its point); close the fd
     and mirror its counters before exiting *)
  Option.iter
    (fun j ->
      Journal.publish j t.obs;
      Journal.close j)
    t.journal;
  locked t.state_lock (fun () ->
      t.exit_code <- Some (if drained then 0 else 1);
      Condition.broadcast t.exit_cond)

let listen_unix path =
  (* a stale socket file from a dead daemon would make bind fail;
     replace it (two live daemons on one path is an operator error the
     second bind cannot detect portably) *)
  (try if Sys.file_exists path then Unix.unlink path with _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  fd

let listen_tcp port =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.SO_REUSEADDR true;
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen fd 64;
  fd

let start ?(obs = Obs.null) ?cache_dir cfg =
  (* a dead client's socket must never kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with _ -> ());
  (* unix-socket connections are operator-trusted (the path's
     filesystem permissions gate them); TCP ones are not *)
  let listeners =
    (match cfg.socket_path with
    | Some p -> [ (listen_unix p, true) ]
    | None -> [])
    @ (match cfg.tcp_port with
      | Some p -> [ (listen_tcp p, false) ]
      | None -> [])
  in
  if listeners = [] then
    invalid_arg "Server.start: no socket_path and no tcp_port";
  let wake_r, wake_w = Unix.pipe () in
  let cache =
    match cache_dir with
    | Some dir -> Cache.create ~dir ()
    | None -> Cache.create ()
  in
  let chaos =
    Option.map
      (fun spec ->
        let c = Chaos.instantiate spec in
        Cache.set_write_fault cache (fun () -> Chaos.fires_disk c ~obs);
        c)
      cfg.chaos
  in
  (* replay the journal before accepting anything: a `done` record
     whose cached report vanished is resurrected and recomputed
     (determinism makes the recomputed row byte-identical) *)
  let journal, replay =
    match (cache_dir, cfg.journal) with
    | Some dir, true -> (
        match
          Journal.recover ~fsync:cfg.journal_fsync ~dir
            ~keep:(fun ~digest ~status ->
              status = "ok" && Cache.find_run cache digest = None)
            ()
        with
        | Ok (j, rp) -> (Some j, rp)
        | Error msg ->
            Printf.eprintf
              "ucd: warning: journal disabled: %s; continuing without \
               durability\n\
               %!"
              msg;
            (None, Journal.{ pending = []; finished = []; replayed = 0; corrupt = 0 }))
    | _ ->
        (None, Journal.{ pending = []; finished = []; replayed = 0; corrupt = 0 })
  in
  let t =
    {
      cfg;
      cache;
      pool = Pool.service ~domains:cfg.domains ~queue_bound:cfg.queue_bound ();
      registry =
        Session.registry ~quotas:cfg.quotas ?default_quota:cfg.default_quota ();
      obs;
      journal;
      chaos;
      started_at = Unix.gettimeofday ();
      jobs = Hashtbl.create 64;
      by_digest = Hashtbl.create 64;
      recent = Hashtbl.create 64;
      recent_by_digest = Hashtbl.create 64;
      recovered_terminal = Hashtbl.create 16;
      recent_order = Queue.create ();
      jobs_lock = Mutex.create ();
      next_job = 1;
      jobs_done = 0;
      jobs_cancelled = 0;
      jobs_recovered = 0;
      listeners;
      wake_r;
      wake_w;
      state_lock = Mutex.create ();
      exit_cond = Condition.create ();
      draining = false;
      shutdown_reason = "";
      exit_code = None;
      conns_lock = Mutex.create ();
      conns = [];
      accept_thread = None;
    }
  in
  (* journal-replayed terminal digests whose rows are gone still answer
     status_digest queries *)
  List.iter
    (fun (digest, status) -> Hashtbl.replace t.recovered_terminal digest status)
    replay.Journal.finished;
  (* requeue every accepted-but-unfinished job, resuming from its
     latest checkpoint; clients reattach by resubmitting the digest *)
  List.iter
    (fun (p : Journal.pending) ->
      match
        Result.bind (Proto.submit_of_json p.Journal.p_submit) job_of_submit
      with
      | Error msg ->
          (* unreplayable (e.g. a corpus name the binary no longer
             knows): journal it terminal so it stops haunting replays *)
          Printf.eprintf
            "ucd: warning: cannot requeue journaled job %s (%s); marking \
             failed\n\
             %!"
            p.Journal.p_digest msg;
          Option.iter
            (fun j ->
              Journal.append j
                (Journal.Done_ { digest = p.Journal.p_digest; status = "failed" }))
            journal;
          Hashtbl.replace t.recovered_terminal p.Journal.p_digest "failed"
      | Ok job ->
          let entry =
            locked t.jobs_lock (fun () ->
                let id = t.next_job in
                t.next_job <- id + 1;
                t.jobs_recovered <- t.jobs_recovered + 1;
                let e =
                  {
                    job_id = id;
                    digest = p.Journal.p_digest;
                    owner = None;
                    watchers = [];
                    job;
                    ckpt = p.Journal.p_ckpt;
                    state = Queued;
                  }
                in
                Hashtbl.replace t.jobs id e;
                Hashtbl.replace t.by_digest e.digest e;
                e)
          in
          (* blocking submit: recovery may requeue more than the queue
             bound, and rejecting would lose accepted work *)
          ignore (Pool.submit t.pool (job_task t entry)))
    replay.Journal.pending;
  if replay.Journal.pending <> [] || replay.Journal.corrupt > 0 then
    logf t "journal replay: %d record(s), %d requeued, %d corrupt"
      replay.Journal.replayed
      (List.length replay.Journal.pending)
      replay.Journal.corrupt;
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let wait t =
  locked t.state_lock (fun () ->
      while t.exit_code = None do
        Condition.wait t.exit_cond t.state_lock
      done;
      Option.get t.exit_code)

let stop ?reason t =
  ignore (request_shutdown ?reason t);
  let code = wait t in
  Option.iter Thread.join t.accept_thread;
  (try Unix.close t.wake_r with _ -> ());
  (try Unix.close t.wake_w with _ -> ());
  Pool.shutdown t.pool;
  code

let stats t = stats_json t
