let default_domains () = max 1 (Domain.recommended_domain_count () - 1)

(* ---- bounded blocking queue ---- *)

type 'a queue = {
  lock : Mutex.t;
  not_empty : Condition.t;
  not_full : Condition.t;
  empty_and_idle : Condition.t;  (* signalled when depth and busy hit 0 *)
  buf : 'a Queue.t;
  bound : int;
  mutable closed : bool;
  (* health counters, all under [lock] *)
  mutable pushed : int;  (* accepted into the queue *)
  mutable blocked : int;  (* blocking pushes that had to wait *)
  mutable rejected : int;  (* non-blocking pushes refused: queue full *)
  mutable max_depth : int;  (* high-water mark of the queue length *)
  mutable busy : int;  (* workers currently running a task *)
}

let q_create bound =
  {
    lock = Mutex.create ();
    not_empty = Condition.create ();
    not_full = Condition.create ();
    empty_and_idle = Condition.create ();
    buf = Queue.create ();
    bound;
    closed = false;
    pushed = 0;
    blocked = 0;
    rejected = 0;
    max_depth = 0;
    busy = 0;
  }

let q_accept_locked q x =
  Queue.push x q.buf;
  q.pushed <- q.pushed + 1;
  if Queue.length q.buf > q.max_depth then q.max_depth <- Queue.length q.buf;
  Condition.signal q.not_empty

(* Blocking push: waits for room; [false] only once the queue is
   closed. *)
let q_push q x =
  Mutex.lock q.lock;
  if Queue.length q.buf >= q.bound && not q.closed then
    q.blocked <- q.blocked + 1;
  while Queue.length q.buf >= q.bound && not q.closed do
    Condition.wait q.not_full q.lock
  done;
  let accepted = not q.closed in
  if accepted then q_accept_locked q x;
  Mutex.unlock q.lock;
  accepted

(* admission-control path: never blocks, never queues past the bound *)
let q_try_push q x =
  Mutex.lock q.lock;
  let r =
    if q.closed then `Closed
    else if Queue.length q.buf >= q.bound then begin
      q.rejected <- q.rejected + 1;
      `Overloaded
    end
    else begin
      q_accept_locked q x;
      `Accepted
    end
  in
  Mutex.unlock q.lock;
  r

let q_close q =
  Mutex.lock q.lock;
  q.closed <- true;
  Condition.broadcast q.not_empty;
  (* a blocking push waiting for room must notice the close too *)
  Condition.broadcast q.not_full;
  Mutex.unlock q.lock

(* None once the queue is closed and drained *)
let q_pop q =
  Mutex.lock q.lock;
  let rec wait () =
    match Queue.take_opt q.buf with
    | Some x ->
        q.busy <- q.busy + 1;
        Condition.signal q.not_full;
        Mutex.unlock q.lock;
        Some x
    | None ->
        if q.closed then begin
          Mutex.unlock q.lock;
          None
        end
        else begin
          Condition.wait q.not_empty q.lock;
          wait ()
        end
  in
  wait ()

(* a worker finished the task it popped *)
let q_task_done q =
  Mutex.lock q.lock;
  q.busy <- q.busy - 1;
  if q.busy = 0 && Queue.is_empty q.buf then
    Condition.broadcast q.empty_and_idle;
  Mutex.unlock q.lock

(* ---- health snapshot ---- *)

type stats = {
  domains : int;
  queue_bound : int;
  queue_depth : int;
  busy : int;
  idle : int;
  submitted : int;
  completed : int;
  blocked_pushes : int;
  rejected_pushes : int;
  max_depth : int;
}

let q_stats ~domains ~completed q =
  Mutex.lock q.lock;
  let s =
    {
      domains;
      queue_bound = q.bound;
      queue_depth = Queue.length q.buf;
      busy = q.busy;
      idle = domains - q.busy;
      submitted = q.pushed;
      completed;
      blocked_pushes = q.blocked;
      rejected_pushes = q.rejected;
      max_depth = q.max_depth;
    }
  in
  Mutex.unlock q.lock;
  s

(* Mirror the cumulative counters into a telemetry scope.  Counters are
   monotonic on the scope side, so publish once per pool lifetime (the
   same contract as {!Cache.publish}). *)
let publish_stats (s : stats) obs =
  if Obs.enabled obs then begin
    Obs.count obs "ucd.pool.domains" s.domains;
    Obs.count obs "ucd.pool.queue_bound" s.queue_bound;
    Obs.count obs "ucd.pool.submitted" s.submitted;
    Obs.count obs "ucd.pool.completed" s.completed;
    Obs.count obs "ucd.pool.blocked_pushes" s.blocked_pushes;
    Obs.count obs "ucd.pool.rejected_pushes" s.rejected_pushes;
    Obs.count obs "ucd.pool.max_depth" s.max_depth
  end

let stats_fields (s : stats) =
  [
    ("domains", Obs.Json.Int s.domains);
    ("queue_bound", Obs.Json.Int s.queue_bound);
    ("queue_depth", Obs.Json.Int s.queue_depth);
    ("busy", Obs.Json.Int s.busy);
    ("idle", Obs.Json.Int s.idle);
    ("submitted", Obs.Json.Int s.submitted);
    ("completed", Obs.Json.Int s.completed);
    ("blocked_pushes", Obs.Json.Int s.blocked_pushes);
    ("rejected_pushes", Obs.Json.Int s.rejected_pushes);
    ("max_depth", Obs.Json.Int s.max_depth);
  ]

(* ---- one-shot batch map ---- *)

let map ?domains ?queue_bound ?(obs = Obs.null) f items =
  let n = List.length items in
  let domains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  if n = 0 then []
  else if domains = 1 then
    (* degenerate case: no domains spawned, same isolation contract *)
    List.map (fun x -> try Ok (f x) with exn -> Error exn) items
  else begin
    let queue = q_create (match queue_bound with
      | Some b -> max 1 b
      | None -> 4 * domains)
    in
    let results =
      Array.make n (Error (Failure "ucd: job never ran") : ('b, exn) result)
    in
    let completed = Atomic.make 0 in
    let worker () =
      let rec loop () =
        match q_pop queue with
        | None -> ()
        | Some (i, x) ->
            (* results slots are disjoint per index: no lock needed *)
            results.(i) <- (try Ok (f x) with exn -> Error exn);
            Atomic.incr completed;
            q_task_done queue;
            loop ()
      in
      loop ()
    in
    let workers =
      List.init (min domains n) (fun _ -> Domain.spawn worker)
    in
    List.iteri (fun i x -> ignore (q_push queue (i, x) : bool)) items;
    q_close queue;
    List.iter Domain.join workers;
    publish_stats
      (q_stats ~domains:(min domains n) ~completed:(Atomic.get completed) queue)
      obs;
    Array.to_list results
  end

(* ---- persistent service pool ---- *)

(* The long-running flavour the daemon sits on: a fixed set of worker
   domains fed task thunks through the same bounded queue, but with a
   non-blocking admission path ([try_submit]) so the caller can reject
   with a typed overloaded reply instead of stalling a client
   connection, plus drain/shutdown for graceful exit. *)

type service = {
  svc_queue : (unit -> unit) queue;
  svc_domains : unit Domain.t list;
  svc_ndomains : int;
  svc_completed : int Atomic.t;
  mutable svc_joined : bool;  (* protects against double shutdown *)
  svc_lock : Mutex.t;
}

type submit_outcome = [ `Accepted | `Overloaded | `Closed ]

let service ?domains ?queue_bound () =
  let ndomains =
    match domains with Some d -> max 1 d | None -> default_domains ()
  in
  let queue =
    q_create (match queue_bound with Some b -> max 1 b | None -> 4 * ndomains)
  in
  let completed = Atomic.make 0 in
  let worker () =
    let rec loop () =
      match q_pop queue with
      | None -> ()
      | Some task ->
          (* task isolation: a raising thunk never takes a worker down *)
          (try task () with _ -> ());
          Atomic.incr completed;
          q_task_done queue;
          loop ()
    in
    loop ()
  in
  {
    svc_queue = queue;
    svc_domains = List.init ndomains (fun _ -> Domain.spawn worker);
    svc_ndomains = ndomains;
    svc_completed = completed;
    svc_joined = false;
    svc_lock = Mutex.create ();
  }

let try_submit svc task = q_try_push svc.svc_queue task

(* Blocking admission, used by journal recovery at startup: the replay
   may requeue more jobs than the queue bound, and rejecting them would
   lose accepted work. *)
let submit svc task = q_push svc.svc_queue task

let service_stats svc =
  q_stats ~domains:svc.svc_ndomains ~completed:(Atomic.get svc.svc_completed)
    svc.svc_queue

let close svc = q_close svc.svc_queue

(* Wait until the queue is empty and every worker idle; Condition has no
   timed wait, so the deadline is enforced by a helper timer the waiters
   cannot miss (close/task_done broadcast on the relevant conditions and
   drain re-checks on every wakeup, with a coarse periodic broadcast so
   a timeout is noticed within [poll] seconds). *)
let drain ?(timeout = infinity) ?(poll = 0.05) svc =
  let q = svc.svc_queue in
  let deadline =
    if timeout = infinity then infinity else Unix.gettimeofday () +. timeout
  in
  let give_up = ref false in
  let ticker =
    if deadline = infinity then None
    else
      Some
        (Thread.create
           (fun () ->
             let rec tick () =
               let idle_now =
                 Mutex.lock q.lock;
                 let v = q.busy = 0 && Queue.is_empty q.buf in
                 Mutex.unlock q.lock;
                 v
               in
               if idle_now then ()
               else if Unix.gettimeofday () >= deadline then begin
                 Mutex.lock q.lock;
                 give_up := true;
                 Condition.broadcast q.empty_and_idle;
                 Mutex.unlock q.lock
               end
               else begin
                 Thread.delay poll;
                 tick ()
               end
             in
             tick ())
           ())
  in
  Mutex.lock q.lock;
  while (q.busy > 0 || not (Queue.is_empty q.buf)) && not !give_up do
    Condition.wait q.empty_and_idle q.lock
  done;
  let drained = q.busy = 0 && Queue.is_empty q.buf in
  Mutex.unlock q.lock;
  Option.iter Thread.join ticker;
  drained

let shutdown svc =
  close svc;
  Mutex.lock svc.svc_lock;
  let join_now = not svc.svc_joined in
  svc.svc_joined <- true;
  Mutex.unlock svc.svc_lock;
  if join_now then List.iter Domain.join svc.svc_domains

let publish svc obs = publish_stats (service_stats svc) obs
