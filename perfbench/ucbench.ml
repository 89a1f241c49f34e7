(* The UC job benchmark.  See README.md in this directory.

   ucbench run --workload W --seed N --seconds S --trace 0|1 --ucc PATH
   ucbench setup --workload W --seed N --ucc PATH   (one set-up sample)
   ucbench jobs --workload W --seed N               (job-list digest) *)

let now = Unix.gettimeofday
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* /proc/<pid>/stat utime + stime, in seconds (USER_HZ = 100 on Linux). *)
let cpu_of_pid pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let after = String.sub s (String.rindex s ')' + 2) (String.length s - String.rindex s ')' - 2) in
  let f = Array.of_list (String.split_on_char ' ' after) in
  (float_of_string f.(11) +. float_of_string f.(12)) /. 100.

(* Peak resident set (VmHWM), MB. *)
let peak_rss_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let line =
    List.find
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file path))
  in
  let kb =
    List.find_map int_of_string_opt
      (String.split_on_char ' ' (String.sub line 6 (String.length line - 6)))
  in
  float_of_int (Option.get kb) /. 1024.

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let median l =
  let a = Array.of_list (List.sort compare l) in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* nearest-rank percentile index into a sorted array of length n *)
let rank p n = max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1))

(* ---------------- per-layer ledger ---------------- *)

let ledger : (string, float ref * int ref) Hashtbl.t = Hashtbl.create 64
let ledger_lock = Mutex.create ()

let add name v =
  Mutex.protect ledger_lock (fun () ->
      match Hashtbl.find_opt ledger name with
      | Some (s, n) ->
          s := !s +. v;
          incr n
      | None -> Hashtbl.replace ledger name (ref v, ref 1))

let sum name = match Hashtbl.find_opt ledger name with Some (s, _) -> !s | None -> 0.
let count name = match Hashtbl.find_opt ledger name with Some (_, n) -> !n | None -> 0
let mean name = if count name = 0 then 0. else sum name /. float_of_int (count name)

let timed name f =
  let t0 = now () in
  let v = f () in
  let ms = 1000. *. (now () -. t0) in
  add name ms;
  (v, ms)

let engine_key = function
  | `Fast -> "fast"
  | `Native -> "native"
  | `Sharded _ -> "sharded2"
  | `Reference -> "reference"

(* Lowered programs whose Iropt output is compared with Uc.Compile.lower
   after the traced phase. *)
let iropt_checks : (Ucd.Job.t * Uc.Mapping.table option * string) list ref = ref []

(* decode + run on one engine; returns their sum *)
let run_stages engine seed prog =
  let m, t_decode =
    timed "decode.ms" (fun () ->
        let m = Cm.Machine.create ~seed ~engine prog in
        Cm.Machine.compile m;
        m)
  in
  (* native code is loaded (or built) before the run is timed: its cost
     is native.build_ms, not run time *)
  if engine = `Native then ignore (Cm.Machine.compile_native m);
  let ek = engine_key engine in
  let (), t_run = timed ("run.ms." ^ ek) (fun () -> Cm.Machine.run m) in
  let ic = float_of_int (Cm.Machine.icount m) in
  add ("icount." ^ ek) ic;
  add "machine.icount" ic;
  if engine = `Native && Cm.Machine.effective_engine m <> `Native then
    add "probe.fallbacks" 1.;
  t_decode +. t_run

(* The stage calls a job makes, timed one by one from outside the
   program.  [front] says whether the job itself pays the front end (a
   memo hit skips it); returns the sum of the stages on the job's path,
   and the lowered program for the probe. *)
let trace_stages ~front (job : Ucd.Job.t) =
  let options = job.Ucd.Job.options in
  let ast, t_parse =
    timed "parse.ms" (fun () -> Uc.Compile.parse_source job.Ucd.Job.source)
  in
  let layouts, t_tune =
    if job.Ucd.Job.tune then
      let r, ms =
        timed "tune.ms" (fun () ->
            Uc.Layoutsel.search ~options
              (Uc.Optimize.fold_program (Uc.Transform.apply ast)))
      in
      (Some r.Uc.Layoutsel.table, ms)
    else (None, 0.)
  in
  let c, t_lower =
    timed "lower.ms" (fun () ->
        Uc.Codegen.compile ?layouts
          ~options:{ options with Uc.Codegen.ir_opt = Cm.Iropt.off }
          (Uc.Optimize.fold_program (Uc.Transform.apply ast)))
  in
  let (prog, st), t_iropt =
    timed "iropt.ms" (fun () ->
        Cm.Iropt.run ~config:options.Uc.Codegen.ir_opt
          ~live_out_fields:
            (List.map (fun (_, m) -> m.Uc.Codegen.afield) c.Uc.Codegen.carrays)
          ~live_out_regs:
            (List.map (fun (_, m) -> m.Uc.Codegen.sreg) c.Uc.Codegen.cscalars)
          c.Uc.Codegen.prog)
  in
  add "iropt.instrs_in" (float_of_int st.Cm.Iropt.input_instrs);
  add "iropt.instrs_out" (float_of_int st.Cm.Iropt.output_instrs);
  let key = Cm.Codegen.key prog in
  Mutex.protect ledger_lock (fun () ->
      iropt_checks := (job, layouts, key) :: !iropt_checks);
  let run_ms = run_stages job.Ucd.Job.engine job.Ucd.Job.seed prog in
  let front_ms = t_parse +. t_tune +. t_lower +. t_iropt in
  ((if front then front_ms else 0.) +. run_ms, prog)

(* The wire form of a job, as `ucc submit` sends it. *)
let submit_frame (job : Ucd.Job.t) =
    {
      (Ucd.Proto.submit_defaults ~name:job.Ucd.Job.name
         ~source:(Ucd.Proto.Inline job.Ucd.Job.source))
      with
      Ucd.Proto.seed = Some job.Ucd.Job.seed;
      tune = job.Ucd.Job.tune;
    }

(* Row-side costs every job pays on the serve path, measured in-process
   on the workload's own frames: report rendering, the wire codec, and
   the journal records the daemon writes for one job. *)
let trace_row_costs journal (job : Ucd.Job.t) (row : Ucd.Report.result) =
  let us f =
    let t0 = now () in
    f ();
    1e6 *. (now () -. t0)
  in
  add "report.render_us" (us (fun () -> ignore (Ucd.Report.json_line row)));
  let sub = submit_frame job in
  add "proto.codec_us"
    (us (fun () ->
         let l1 = Ucd.Proto.client_line (Ucd.Proto.Submit sub) in
         ignore (Ucd.Proto.client_of_line l1);
         let l2 =
           Ucd.Proto.server_line
             (Ucd.Proto.Report { job = 1; row = Ucd.Report.to_json row })
         in
         ignore (Ucd.Proto.server_of_line l2)));
  let digest = row.Ucd.Report.digest in
  add "journal.append_us"
    (us (fun () ->
         Ucd.Journal.append journal
           (Ucd.Journal.Accepted
              {
                digest;
                name = job.Ucd.Job.name;
                tenant = "bench";
                submit = Ucd.Proto.submit_obj sub;
              });
         Ucd.Journal.append journal (Ucd.Journal.Started { digest });
         Ucd.Journal.append journal (Ucd.Journal.Done_ { digest; status = "ok" })))

(* ---------------- the serve daemon ---------------- *)

type daemon = { pid : int; sock : string; dir : string }

let start_daemon ~ucc ~work =
  let dir = Filename.concat work "daemon" in
  mkdir_p dir;
  let sock = Filename.concat work "ucd.sock" in
  let logf = Unix.openfile (Filename.concat work "daemon.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process ucc
      [| ucc; "serve"; "--socket"; sock; "-j"; "1"; "--cache-dir"; dir;
         "--max-queue"; "64" |]
      null logf logf
  in
  Unix.close logf;
  Unix.close null;
  let d = { pid; sock; dir } in
  let deadline = now () +. 60. in
  let rec wait () =
    match Ucd.Client.connect (Ucd.Client.Unix_path sock) with
    | Ok c -> Ucd.Client.close c
    | Error e ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith ("ucc serve exited during boot: " ^ e));
        if now () > deadline then failwith ("ucc serve did not come up: " ^ e);
        Unix.sleepf 0.002;
        wait ()
  in
  wait ();
  d

let stop_daemon d =
  (match Ucd.Client.connect (Ucd.Client.Unix_path d.sock) with
  | Ok c ->
      ignore (Ucd.Client.drain c);
      Ucd.Client.close c
  | Error _ -> ());
  let deadline = now () +. 30. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ()

let live_daemons : daemon list ref = ref []
let work_dirs : string list ref = ref []

let () =
  (* a terminated run still stops its daemon: exit runs at_exit *)
  List.iter
    (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> exit 1)))
    [ Sys.sigterm; Sys.sigint ];
  at_exit (fun () ->
      List.iter
        (fun d ->
          (try Unix.kill d.pid Sys.sigkill with _ -> ());
          try ignore (Unix.waitpid [] d.pid) with _ -> ())
        !live_daemons;
      List.iter (fun d -> try rm_rf d with _ -> ()) !work_dirs)

let json_field path j =
  List.fold_left
    (fun j k ->
      match j with
      | Ucd.Jsonu.Obj kvs -> (
          match List.assoc_opt k kvs with Some v -> v | None -> Ucd.Jsonu.Int 0)
      | _ -> Ucd.Jsonu.Int 0)
    j path

let json_num path j =
  match json_field path j with
  | Ucd.Jsonu.Int i -> float_of_int i
  | Ucd.Jsonu.Float f -> f
  | _ -> 0.

(* One closed-loop client of the daemon.  Submission [i] follows the
   seeded schedule of {!Gen}: fresh jobs, and resends of the client's
   own earlier fresh jobs. *)
type client = {
  id : int;
  conn : Ucd.Client.t;
  mutable next : int;
  mutable fresh : int;
  done_fresh : (int, Gen.wjob) Hashtbl.t;  (** completion order -> job *)
}

let submit_await c (w : Gen.wjob) =
  match Ucd.Client.send c.conn (Ucd.Proto.Submit (submit_frame w.Gen.job)) with
  | Error e -> Error e
  | Ok () ->
      let rec await () =
        match Ucd.Client.recv c.conn with
        | Ok (Ucd.Proto.Report { row; _ }) -> Ucd.Report.of_json row
        | Ok (Ucd.Proto.Rejected { msg; _ }) -> Error ("rejected: " ^ msg)
        | Ok (Ucd.Proto.Error { msg; _ }) -> Error msg
        | Ok _ -> await ()
        | Error e -> Error e
      in
      await ()

let note_done c w = Hashtbl.replace c.done_fresh (Hashtbl.length c.done_fresh) w

let next_serve_job ~seed c =
  let i = c.next in
  c.next <- i + 1;
  let n = Hashtbl.length c.done_fresh in
  if Gen.serve_is_repeat ~seed ~client:c.id i && n > 0 then
    let w = Hashtbl.find c.done_fresh (Gen.serve_repeat_pick ~seed ~client:c.id i n) in
    ({ w with Gen.pop = "repeat" }, false)
  else begin
    let w = Gen.serve_fresh ~seed ~client:c.id c.fresh in
    c.fresh <- c.fresh + 1;
    (w, true)
  end

(* ---------------- workloads ---------------- *)

type sample = {
  job : unit -> Gen.wjob;  (** regenerates the job: a run keeps no sources alive *)
  pop : string;
  outcome : Oracle.outcome;
  row : Ucd.Report.result option;  (** the whole row, kept in a traced half only *)
  t_end : float;
  wall : float;  (** seconds, submit to row *)
}

type env = {
  workload : string;
  seed : int;
  cache : Ucd.Cache.t;
  daemon : daemon option;
  clients : client list;
  mutable k : int;  (** next index into an in-process job list *)
  mutable rss_mb : float;  (** peak RSS once [rss_at] jobs were timed *)
}

(* Peak RSS is read once a fixed number of jobs has been timed, not at
   the end of the window: the daemon's memo grows with every distinct
   job, so an end-of-run reading would rise with throughput. *)
let rss_at = function "compile" -> 4000 | "execute" -> 150 | _ -> 1000

let note_rss env n =
  if n = rss_at env.workload then
    env.rss_mb <-
      peak_rss_mb (match env.daemon with Some d -> d.pid | None -> 0)

let failed_row (w : Gen.wjob) msg =
  Ucd.Runner.crash_result w.Gen.job (Failure msg)

let warm_compile = 1000
let warm_serve = 100

let setup ~ucc ~workload ~seed ~work =
  mkdir_p work;
  work_dirs := work :: !work_dirs;
  match workload with
  | "compile" ->
      let cache = Ucd.Cache.create () in
      for k = 1 to warm_compile do
        ignore (Ucd.Runner.run_job ~cache (Gen.compile_job ~seed (-k)).Gen.job)
      done;
      { workload; seed; cache; daemon = None; clients = []; k = 0; rss_mb = nan }
  | "execute" ->
      let cache = Ucd.Cache.create ~dir:(Filename.concat work "cache") () in
      for pos = 0 to Gen.exec_deck - 1 do
        ignore
          (Ucd.Runner.run_job ~cache (Gen.exec_job ~seed ~round:(-1) pos).Gen.job)
      done;
      { workload; seed; cache; daemon = None; clients = []; k = 0; rss_mb = nan }
  | "serve" ->
      let d = start_daemon ~ucc ~work in
      live_daemons := d :: !live_daemons;
      let clients =
        List.init 2 (fun id ->
            match
              Ucd.Client.connect ~tenant:(Printf.sprintf "c%d" id)
                (Ucd.Client.Unix_path d.sock)
            with
            | Ok conn -> { id; conn; next = 0; fresh = 0; done_fresh = Hashtbl.create 1024 }
            | Error e -> failwith ("connect: " ^ e))
      in
      let cache = Ucd.Cache.create () in
      let warm c =
        for _ = 1 to warm_serve do
          let w, fresh = next_serve_job ~seed c in
          match submit_await c w with
          | Ok row ->
              if fresh then begin
                note_done c w;
                Ucd.Cache.store_run cache row.Ucd.Report.digest row
              end
          | Error e -> failwith ("warm-up: " ^ e)
        done
      in
      List.iter Thread.join (List.map (fun c -> Thread.create warm c) clients);
      {
        workload; seed; cache; daemon = Some d;
        clients; k = 0; rss_mb = nan;
      }
  | w -> failwith ("unknown workload " ^ w)

let teardown env =
  List.iter (fun c -> Ucd.Client.close c.conn) env.clients;
  Option.iter
    (fun d ->
      stop_daemon d;
      live_daemons := List.filter (fun x -> x != d) !live_daemons)
    env.daemon

let job_at env k =
  if env.workload = "compile" then Gen.compile_job ~seed:env.seed k
  else Gen.exec_nth ~seed:env.seed k

(* The closed loop.  [traced] adds the ledger's stage calls after each
   in-process job; they are outside the job's own wall time but inside
   the phase, which is what trace.overhead measures.  Serve jobs are
   replayed after the phase instead ({!replay_serve}): the two client
   threads share one OCaml runtime lock, so stage calls made inline
   would inflate the other client's latency. *)
let measure env ~seconds ~traced =
  let t_start = now () in
  let deadline = t_start +. seconds in
  match env.daemon with
  | None ->
      let rss_base = env.k in
      let samples = ref [] in
      let last = ref t_start in
      while now () < deadline do
        let k = env.k in
        env.k <- k + 1;
        let w = job_at env k in
        let t0 = now () in
        (* compile jobs share nothing, so each gets a fresh cache: the
           heap stays flat however many jobs a run reaches *)
        let cache =
          if env.workload = "compile" then Ucd.Cache.create () else env.cache
        in
        let row = Ucd.Runner.run_job ~cache w.Gen.job in
        let t1 = now () in
        (* the caller's own share between two jobs: the in-process
           stand-in for the server's share on serve *)
        if traced then add "server.self_ms" (1000. *. (t0 -. !last));
        samples :=
          {
            job = (fun () -> job_at env k);
            pop = w.Gen.pop;
            outcome = Oracle.outcome row;
            row = (if traced then Some row else None);
            t_end = t1;
            wall = t1 -. t0;
          }
          :: !samples;
        note_rss env (env.k - rss_base);
        if traced then begin
          (* execute jobs find their lowered program in the memo, so the
             front end is off their path *)
          let front = env.workload = "compile" in
          let path, _ = trace_stages ~front w.Gen.job in
          add "stage.path_ms" path;
          add "job.wall_ms" (1000. *. (t1 -. t0));
          add "runner.self_ms" ((1000. *. (t1 -. t0)) -. path)
        end;
        last := now ()
      done;
      (List.rev !samples, now () -. t_start)
  | Some _ ->
      let lock = Mutex.create () in
      let samples = ref [] and n_timed = ref 0 in
      let client c =
        while now () < deadline do
          let w, fresh = next_serve_job ~seed:env.seed c in
          let t0 = now () in
          let row =
            match submit_await c w with Ok r -> r | Error e -> failed_row w e
          in
          let t1 = now () in
          if fresh then note_done c w;
          Mutex.protect lock (fun () ->
              samples :=
                {
                  job = (fun () -> w);
                  pop = w.Gen.pop;
                  outcome = Oracle.outcome row;
                  row = (if traced then Some row else None);
                  t_end = t1;
                  wall = t1 -. t0;
                }
                :: !samples;
              incr n_timed;
              note_rss env !n_timed);
          (* a traced run replays fresh jobs after the phase; untraced,
             the local cache just learns the row so a later replay of
             its resend is a hit, as on the daemon *)
          if fresh && not traced then
            Ucd.Cache.store_run env.cache row.Ucd.Report.digest row
        done
      in
      List.iter Thread.join (List.map (fun c -> Thread.create client c) env.clients);
      (List.rev !samples, now () -. t_start)

(* The ledger for serve: each traced job again, in-process and in
   completion order, against a local cache that mirrors the daemon's
   (a fresh job misses and pays every stage; a resend hits).  The
   daemon's share of a job is its client latency minus this local
   run_job time. *)
let replay_serve env samples =
  List.iter
    (fun s ->
      let job = (s.job ()).Gen.job in
      let fresh = s.pop = "fresh" in
      let path = if fresh then fst (trace_stages ~front:true job) else 0. in
      let t0 = now () in
      ignore (Ucd.Runner.run_job ~cache:env.cache job);
      let local = 1000. *. (now () -. t0) in
      add "stage.path_ms" path;
      add "job.wall_ms" (1000. *. s.wall);
      add "runner.self_ms" (local -. path);
      add "server.self_ms" ((1000. *. s.wall) -. local))
    (List.sort (fun a b -> compare a.t_end b.t_end) samples)

(* Where the traced jobs' wall time went, as shares of it. *)
let log_shares ~front_on_path =
  let wall = Float.max 1e-9 (sum "job.wall_ms") in
  let share name = 100. *. sum name /. wall in
  let front = share "parse.ms" +. share "lower.ms" +. share "iropt.ms" +. share "tune.ms" in
  let run = share "run.ms.fast" +. share "run.ms.native" +. share "run.ms.sharded2" in
  log "ledger over %d traced jobs (shares of job wall time): parse %.1f%%, \
       lower %.1f%%, iropt %.1f%%, tune %.1f%% (front end %.1f%%%s), decode \
       %.1f%%, run %.1f%% (fast %.1f%%), runner self %.1f%%, server self %.1f%%"
    (count "job.wall_ms") (share "parse.ms") (share "lower.ms") (share "iropt.ms")
    (share "tune.ms") front
    (if front_on_path then "" else ", off the path: memo hits")
    (share "decode.ms") run (share "run.ms.fast") (share "runner.self_ms")
    (share "server.self_ms")

(* jobs/s as the median over ten equal windows of the timed region, so
   one stall on a shared host moves one window, not the figure *)
let jobs_per_s samples t_start elapsed =
  let windows = 10 in
  let len = elapsed /. float_of_int windows in
  let counts = Array.make windows 0 in
  List.iter
    (fun s ->
      let i = int_of_float ((s.t_end -. t_start) /. len) in
      counts.(max 0 (min (windows - 1) i)) <- counts.(max 0 (min (windows - 1) i)) + 1)
    samples;
  let rates = Array.to_list (Array.map (fun c -> float_of_int c /. len) counts) in
  log "jobs/s per window: %s" (String.concat " " (List.map (Printf.sprintf "%.0f") rates));
  median rates

(* Percentile sanity: which population holds the p50 and p90 ranks, and
   whether a population gap sits next to them.  A gap is one step
   between neighbouring sorted job times, within 2% of the ranks around
   the percentile, that is larger than 5% of the percentile itself: a
   rank there would swing with the job mix (the bimodal trap of a 50%
   cache-hit mix or a 100x spread in job sizes). *)
let percentile_sanity samples =
  let a = Array.of_list (List.sort (fun x y -> compare x.wall y.wall) samples) in
  let n = Array.length a in
  let pops = Hashtbl.create 16 in
  Array.iter
    (fun s ->
      let l = Option.value ~default:[] (Hashtbl.find_opt pops s.pop) in
      Hashtbl.replace pops s.pop (s.wall :: l))
    a;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) pops []
  |> List.sort compare
  |> List.iter (fun (k, v) ->
         log "population %-28s %5d jobs, median %.3f ms" k (List.length v)
           (1000. *. median v));
  let win = max 2 (n / 50) in
  List.iter
    (fun p ->
      let r = rank p n in
      let lo = max 0 (r - win) and hi = min (n - 1) (r + win) in
      let step = ref 0. in
      for i = lo to hi - 1 do
        step := Float.max !step (a.(i + 1).wall -. a.(i).wall)
      done;
      let ok = !step <= 0.05 *. a.(r).wall in
      log "percentile p%.0f: rank %d of %d in %s; ranks %d..%d span %s %.3f ms .. %s %.3f ms, largest step %.1f%% %s"
        (100. *. p) (r + 1) n a.(r).pop (lo + 1) (hi + 1) a.(lo).pop
        (1000. *. a.(lo).wall) a.(hi).pop (1000. *. a.(hi).wall)
        (100. *. !step /. a.(r).wall)
        (if ok then "ok" else "ON A GAP"))
    [ 0.5; 0.9 ]

let pct samples p =
  let a = Array.of_list (List.sort compare (List.map (fun s -> s.wall) samples)) in
  1000. *. a.(rank p (Array.length a))

let job_list_digest ~workload ~seed =
  let n = 200 in
  let jobs =
    match workload with
    | "compile" -> List.init n (Gen.compile_job ~seed)
    | "execute" -> List.init n (Gen.exec_nth ~seed)
    | _ ->
        List.concat_map
          (fun client ->
            List.init (n / 2) (fun k -> Gen.serve_fresh ~seed ~client k))
          [ 0; 1 ]
  in
  (Gen.list_digest jobs, jobs)

(* ---------------- command line ---------------- *)

type args = {
  mutable cmd : string;
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable ucc : string;
}

let parse_args () =
  let a =
    { cmd = ""; workload = ""; seed = 1; seconds = 10.; trace = false; ucc = "" }
  in
  let rec go = function
    | "--workload" :: v :: r -> a.workload <- v; go r
    | "--seed" :: v :: r -> a.seed <- int_of_string v; go r
    | "--seconds" :: v :: r -> a.seconds <- float_of_string v; go r
    | "--trace" :: v :: r -> a.trace <- v = "1"; go r
    | "--ucc" :: v :: r -> a.ucc <- v; go r
    | v :: r when a.cmd = "" -> a.cmd <- v; go r
    | v :: _ -> failwith ("unexpected argument " ^ v)
    | [] -> ()
  in
  go (List.tl (Array.to_list Sys.argv));
  if not (List.mem a.workload [ "compile"; "execute"; "serve" ]) then
    failwith "--workload must be compile, execute or serve";
  a

let work_dir tag = Filename.concat "_perfbench_run" (Printf.sprintf "%s%d" tag (Unix.getpid ()))

(* One set-up sample in a fresh process: nothing the parent built (the
   per-process native-code memo, a warm heap, paged-in code) helps it. *)
let setup_sample a =
  let work = work_dir "setup" in
  let t0 = now () in
  let env = setup ~ucc:a.ucc ~workload:a.workload ~seed:a.seed ~work in
  let s = now () -. t0 in
  teardown env;
  rm_rf work;
  Printf.printf "setup_s %.9f\n" s

let child_setup a =
  let out = Filename.concat "_perfbench_run" (Printf.sprintf "out%d" (Unix.getpid ())) in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "setup"; "--workload"; a.workload; "--seed";
         string_of_int a.seed; "--ucc"; a.ucc |]
      Unix.stdin fd Unix.stderr
  in
  Unix.close fd;
  let _, st = Unix.waitpid [] pid in
  let text = read_file out in
  Sys.remove out;
  match (st, String.split_on_char ' ' (String.trim text)) with
  | Unix.WEXITED 0, [ "setup_s"; v ] -> float_of_string v
  | _ -> failwith "set-up sample failed"

let metric name unit v = Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v unit

let run a =
  if not (Oracle.self_test ()) then failwith "the row check failed its planted-bug self test";
  let digest, _ = job_list_digest ~workload:a.workload ~seed:a.seed in
  log "job list: workload %s seed %d digest %s (first 200 jobs)" a.workload a.seed digest;
  let setup_samples = if a.trace then [] else [ child_setup a; child_setup a ] in
  let work = work_dir "run" in
  let cg0 = Cm.Codegen.stats () in
  let t0 = now () in
  let env = setup ~ucc:a.ucc ~workload:a.workload ~seed:a.seed ~work in
  let setup_samples = (now () -. t0) :: setup_samples in
  let setup_s = median setup_samples in
  let cg1 = Cm.Codegen.stats () in
  log "setup_s samples: %s"
    (String.concat " " (List.map (Printf.sprintf "%.3f") setup_samples));
  let journal =
    match Ucd.Journal.recover ~dir:(Filename.concat work "journal") () with
    | Ok (j, _) -> j
    | Error e -> failwith e
  in
  let daemon_snapshot () =
    match env.daemon with
    | None -> None
    | Some d -> (
        match Ucd.Client.connect (Ucd.Client.Unix_path d.sock) with
        | Error _ -> None
        | Ok c ->
            let st = Ucd.Client.stats c and ss = Ucd.Client.server_status c in
            Ucd.Client.close c;
            let size =
              try (Unix.stat (Ucd.Journal.path ~dir:d.dir)).Unix.st_size with _ -> 0
            in
            match (st, ss) with
            | Ok st, Ok ss ->
                Some (st, ss, float_of_int size, cpu_of_pid d.pid)
            | _ -> None)
  in
  let phase_u = if a.trace then a.seconds /. 2. else a.seconds in
  let snap0 = daemon_snapshot () in
  let cache0 = Ucd.Cache.stats env.cache in
  let gc0 = Gc.quick_stat () and cpu0 = cpu_self () in
  let t_start = now () in
  let samples, elapsed = measure env ~seconds:phase_u ~traced:false in
  let cpu1 = cpu_self () and gc1 = Gc.quick_stat () in
  let snap1 = daemon_snapshot () in
  let cache1 = Ucd.Cache.stats env.cache in
  let n = List.length samples in
  let fn = float_of_int (max 1 n) in
  let daemon_cpu, rss =
    match (env.daemon, snap0, snap1) with
    | Some d, Some (_, _, _, c0), Some (_, _, _, c1) -> (c1 -. c0, peak_rss_mb d.pid)
    | _ -> (0., peak_rss_mb 0)
  in
  let rss = if Float.is_nan env.rss_mb then rss else env.rss_mb in
  let jps = jobs_per_s samples t_start elapsed in
  let traced_samples =
    if a.trace then begin
      let s, el = measure env ~seconds:(a.seconds /. 2.) ~traced:true in
      add "trace.jps" (float_of_int (List.length s) /. el);
      if env.daemon <> None then replay_serve env s;
      List.iter
        (fun s -> Option.iter (trace_row_costs journal (s.job ()).Gen.job) s.row)
        s;
      log_shares ~front_on_path:(a.workload <> "execute");
      s
    end
    else []
  in
  teardown env;
  (* the probe: price the engines and the layout search the workload's
     own jobs did not exercise, on a few of its programs *)
  let cg2 = Cm.Codegen.stats () in
  if a.trace then begin
    let probe = List.filteri (fun i _ -> i < 3) traced_samples in
    List.iter
      (fun s ->
        let job = (s.job ()).Gen.job in
        let _, prog = trace_stages ~front:true job in
        if count "tune.ms" = 0 then
          ignore
            (timed "tune.ms" (fun () ->
                 Uc.Layoutsel.search_source ~options:job.Ucd.Job.options job.Ucd.Job.source));
        List.iter
          (fun e ->
            if count ("run.ms." ^ engine_key e) = 0 || count ("probe." ^ engine_key e) > 0
            then begin
              add ("probe." ^ engine_key e) 1.;
              ignore (run_stages e job.Ucd.Job.seed prog)
            end)
          Gen.exec_engines)
      probe
  end;
  let cg3 = Cm.Codegen.stats () in
  let all = samples @ traced_samples in
  let failures = Oracle.check (List.map (fun s -> (s.job (), s.outcome)) all) in
  let failed = Oracle.failed_names failures in
  List.iteri
    (fun i (f : Oracle.failure) ->
      if i < 10 then log "check FAILED: %s: %s: %s" f.Oracle.name (Oracle.rule_name f.Oracle.rule) f.Oracle.detail)
    failures;
  (* Iropt stage fidelity: the ledger's lower + iropt must produce the
     very program Uc.Compile.lower does *)
  let iropt_bad =
    List.filter
      (fun ((job : Ucd.Job.t), layouts, key) ->
        let ast = Uc.Compile.parse_source job.Ucd.Job.source in
        Cm.Codegen.key
          (Uc.Compile.lower ?layouts ~options:job.Ucd.Job.options ast).Uc.Codegen.prog
        <> key)
      !iropt_checks
  in
  if iropt_bad <> [] then
    log "ledger FAILED: %d lowered program(s) differ from Uc.Compile.lower" (List.length iropt_bad);
  percentile_sanity samples;
  let attempted = List.length all in
  let nfailed = List.length failed in
  log "rows: %d attempted, %d failed the check" attempted nfailed;
  let metrics =
    if not a.trace then
      [
        metric "setup_s" "s" setup_s;
        metric "jobs_per_s" "1/s" jps;
        metric "job_ms_p50" "ms" (pct samples 0.5);
        metric "job_ms_p90" "ms" (pct samples 0.9);
        metric "cpu_ms_per_job" "ms" (1000. *. (cpu1 -. cpu0 +. daemon_cpu) /. fn);
        metric "peak_rss_mb" "MB" rss;
      ]
    else begin
      let per_build total builds =
        if builds = 0 then 0. else total /. float_of_int builds
      in
      (* native code built where this workload builds it: in set-up on
         execute, by the probe elsewhere *)
      let nb, ncg, nbuild =
        if a.workload = "execute" then
          (cg1.Cm.Codegen.builds - cg0.Cm.Codegen.builds,
           cg1.Cm.Codegen.codegen_ms -. cg0.Cm.Codegen.codegen_ms,
           cg1.Cm.Codegen.build_ms -. cg0.Cm.Codegen.build_ms)
        else
          (cg3.Cm.Codegen.builds - cg2.Cm.Codegen.builds,
           cg3.Cm.Codegen.codegen_ms -. cg2.Cm.Codegen.codegen_ms,
           cg3.Cm.Codegen.build_ms -. cg2.Cm.Codegen.build_ms)
      in
      let hits s = s.Cm.Codegen.mem_hits + s.Cm.Codegen.disk_hits in
      let lookups = hits cg3 - hits cg1 + cg3.Cm.Codegen.builds - cg1.Cm.Codegen.builds in
      let rows = List.filter_map (fun s -> s.row) traced_samples in
      let fallbacks =
        List.length
          (List.filter
             (fun (r : Ucd.Report.result) ->
               r.Ucd.Report.engine = "native"
               && r.Ucd.Report.engine_effective <> "native")
             rows)
        + int_of_float (sum "probe.fallbacks")
      in
      let meter key =
        List.fold_left
          (fun acc s ->
            acc +. Option.value ~default:0. (List.assoc_opt key s.Ucd.Report.metrics))
          0. rows
        /. float_of_int (max 1 (List.length rows))
      in
      let ns_per_instr ek =
        let ic = sum ("icount." ^ ek) in
        if ic = 0. then 0. else 1e6 *. sum ("run.ms." ^ ek) /. ic
      in
      let js = Ucd.Journal.stats journal in
      let jn = float_of_int (max 1 (count "journal.append_us")) in
      let records, bytes, run_hit, max_depth, rejected =
        match (snap0, snap1) with
        | Some (st0, ss0, b0, _), Some (st1, ss1, b1, _) ->
            let d path = json_num path st1 -. json_num path st0 in
            let hits = d [ "cache"; "run_hits" ] and miss = d [ "cache"; "run_misses" ] in
            ( (json_num [ "journal"; "appended" ] ss1 -. json_num [ "journal"; "appended" ] ss0) /. fn,
              (b1 -. b0) /. fn,
              hits /. Float.max 1. (hits +. miss),
              json_num [ "pool"; "max_depth" ] st1,
              json_num [ "pool"; "rejected_pushes" ] st1 )
        | _ ->
            let hits = cache1.Ucd.Cache.run_hits - cache0.Ucd.Cache.run_hits in
            let miss = cache1.Ucd.Cache.run_misses - cache0.Ucd.Cache.run_misses in
            ( float_of_int js.Ucd.Journal.appended /. jn,
              float_of_int js.Ucd.Journal.bytes /. jn,
              float_of_int hits /. float_of_int (max 1 (hits + miss)),
              0.,
              0. )
      in
      let alloc =
        (gc1.Gc.minor_words +. gc1.Gc.major_words -. gc1.Gc.promoted_words
        -. (gc0.Gc.minor_words +. gc0.Gc.major_words -. gc0.Gc.promoted_words))
        /. fn /. 1e6
      in
      let jps_u = jps and jps_t = sum "trace.jps" in
      [
        metric "parse.ms" "ms" (mean "parse.ms");
        metric "lower.ms" "ms" (mean "lower.ms");
        metric "iropt.ms" "ms" (mean "iropt.ms");
        metric "iropt.instrs_in" "count" (mean "iropt.instrs_in");
        metric "iropt.instrs_out" "count" (mean "iropt.instrs_out");
        metric "tune.ms" "ms" (mean "tune.ms");
        metric "decode.ms" "ms" (mean "decode.ms");
        metric "run.ms.fast" "ms" (mean "run.ms.fast");
        metric "run.ms.native" "ms" (mean "run.ms.native");
        metric "run.ms.sharded2" "ms" (mean "run.ms.sharded2");
        metric "run.ns_per_instr.fast" "ns" (ns_per_instr "fast");
        metric "run.ns_per_instr.native" "ns" (ns_per_instr "native");
        metric "run.ns_per_instr.sharded2" "ns" (ns_per_instr "sharded2");
        metric "machine.icount" "count" (mean "machine.icount");
        metric "meter.news_ops" "count" (meter "news_ops");
        metric "meter.router_ops" "count" (meter "router_ops");
        metric "native.codegen_ms" "ms" (per_build ncg nb);
        metric "native.build_ms" "ms" (per_build nbuild nb);
        metric "native.hit_ratio" "ratio"
          (if lookups = 0 then 0. else float_of_int (hits cg3 - hits cg1) /. float_of_int lookups);
        metric "native.fallbacks" "count" (float_of_int fallbacks);
        metric "runner.self_ms" "ms" (mean "runner.self_ms");
        metric "report.render_us" "us" (mean "report.render_us");
        metric "proto.codec_us" "us" (mean "proto.codec_us");
        metric "journal.append_us" "us" (mean "journal.append_us");
        metric "journal.records_per_job" "count" records;
        metric "journal.bytes_per_job" "bytes" bytes;
        metric "cache.run_hit_ratio" "ratio" run_hit;
        metric "pool.max_depth" "count" max_depth;
        metric "pool.rejected" "count" rejected;
        metric "server.self_ms" "ms" (mean "server.self_ms");
        metric "gc.alloc_mw_per_job" "MW" alloc;
        metric "trace.coverage" "ratio" (sum "stage.path_ms" /. Float.max 1e-9 (sum "job.wall_ms"));
        metric "trace.overhead" "ratio" (1. -. (jps_t /. jps_u));
        metric "fail_ratio" "ratio" (float_of_int nfailed /. float_of_int (max 1 attempted));
      ]
    end
  in
  Ucd.Journal.close journal;
  rm_rf work;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failures = [] && iropt_bad = [])
    attempted nfailed (String.concat ", " metrics)

let () =
  let a = try parse_args () with Failure m -> prerr_endline ("ucbench: " ^ m); exit 2 in
  mkdir_p "_perfbench_run";
  try
    match a.cmd with
    | "run" -> run a
    | "setup" -> setup_sample a
    | "jobs" ->
        let digest, jobs = job_list_digest ~workload:a.workload ~seed:a.seed in
        Printf.printf "%s\n" digest;
        List.iteri
          (fun i (w : Gen.wjob) ->
            if i < 10 then
              Printf.printf "%s %s\n" (Ucd.Job.digest w.Gen.job) w.Gen.job.Ucd.Job.name)
          jobs
    | c -> failwith ("unknown command " ^ c)
  with Failure m ->
    prerr_endline ("ucbench: " ^ m);
    exit 1
