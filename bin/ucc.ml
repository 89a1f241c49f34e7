(* ucc: the UC compiler driver.

   Subcommands:
     ucc check FILE        parse and type-check
     ucc ast FILE          parse and pretty-print the AST
     ucc paris FILE        dump the generated Paris IR
     ucc run FILE          compile and execute on the simulated CM
     ucc interp FILE       execute with the reference interpreter
     ucc examples          list the built-in corpus programs
     ucc show NAME         print a built-in corpus program *)

open Cmdliner

let read_source path =
  try
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Ok s
  with Sys_error msg -> Error msg

let with_source path f =
  match read_source path with
  | Error msg ->
      Printf.eprintf "ucc: %s\n" msg;
      1
  | Ok src -> (
      try f src with
      | Uc.Loc.Error (loc, msg) ->
          Printf.eprintf "%s:%s: error: %s\n" path
            (Format.asprintf "%a" Uc.Loc.pp loc)
            msg;
          1
      | Uc.Interp.Runtime_error msg ->
          Printf.eprintf "%s: runtime error: %s\n" path msg;
          1
      | Cm.Machine.Fault msg ->
          Printf.eprintf "%s: transient fault: %s\n" path msg;
          1
      | Cm.Machine.Error msg ->
          Printf.eprintf "%s: machine error: %s\n" path msg;
          1
      | Failure msg ->
          Printf.eprintf "%s: error: %s\n" path msg;
          1
      | Not_found ->
          Printf.eprintf "%s: error: no such array or scalar\n" path;
          1)

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"UC source file")

(* ---- job knobs (Ucd.Job.knobs) ---- *)

let knob key = Option.get (Ucd.Job.find key)
let blank_job = Ucd.Job.make ~name:"" ~source:"" ()

let value_text = function Ucd.Jsonu.Str s -> s | v -> Ucd.Jsonu.to_string v

(* Command-line flags for [knobs], folded from the table: --KEY for a
   flag knob, --KEY VALUE (parsed by its kind) for the rest, plus each
   knob's alias flag.  The term's value is the spec of the flags given;
   resolving it checks the values. *)
let spec_term knobs =
  (* --SWITCH binds [key] to [v] *)
  let switch sw key v doc =
    Term.(
      const (fun on -> if on then [ (key, v) ] else [])
      $ Arg.(value & flag & info [ sw ] ~doc))
  in
  let args (k : Ucd.Job.knob) =
    let main =
      if k.kind = Ucd.Job.Flag then switch k.key k.key (Ucd.Jsonu.Bool true) k.doc
      else
        let parse =
          Arg.conv'
            ( Ucd.Job.value_of_string k,
              fun ppf v -> Format.pp_print_string ppf (value_text v) )
        in
        Term.(
          const (Option.fold ~none:[] ~some:(fun v -> [ (k.key, v) ]))
          $ Arg.(
              value
              & opt (some parse) None
              & info [ k.key ] ~docv:k.docv ~doc:k.doc
                  ?absent:(Option.map value_text k.default)))
    in
    main :: List.map (fun (a, v, doc) -> switch a k.key v doc) (Option.to_list k.alias)
  in
  List.fold_left
    (fun acc t -> Term.(const ( @ ) $ acc $ t))
    (Term.const []) (List.concat_map args knobs)

(* the codegen knobs (those with a word in the options stamp), plus [keys] *)
let codegen_and keys =
  List.filter
    (fun (k : Ucd.Job.knob) -> k.label <> None || List.mem k.key keys)
    Ucd.Job.knobs

(* a spec that does not resolve is a one-line rejection, exit 1 *)
let with_job spec k =
  match Ucd.Job.apply spec blank_job with
  | Ok job -> k job
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1

(* `--retries N` is also the retry policy of `ucc batch`; N = 0 (the
   default) leaves each job on the policy instead of pinning it *)
let cli_retries spec =
  match Ucd.Job.lookup "retries" spec with
  | Some (Ucd.Jsonu.Int 0) -> (0, List.remove_assoc "retries" spec)
  | Some (Ucd.Jsonu.Int n) -> (n, spec)
  | _ -> (0, spec)

let stats_arg =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print machine statistics")

let ir_opt_stats_arg =
  Arg.(
    value & flag
    & info [ "ir-opt-stats" ]
        ~doc:"Print per-pass Paris-IR optimizer statistics (to stderr)")

(* ---- telemetry ---- *)

let trace_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a JSON-lines telemetry trace (compile phases, machine \
           events, job lifecycle).  $(docv) '-' or no value: stderr.  \
           Tracing never changes program results.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the aggregate telemetry table (counters and timings) to \
              stderr after the run")

(* One scope per invocation, created only when some surface wants it
   (--trace, --metrics, --ir-opt-stats); everything else runs against
   Obs.null and pays one branch per telemetry call site.  Returns the
   scope and a finisher that prints the requested tables and closes the
   trace file. *)
let make_obs ~trace ~metrics ~ir_opt_stats =
  if trace = None && (not metrics) && not ir_opt_stats then
    (Obs.null, fun () -> ())
  else begin
    let obs = Obs.create ~clock:Unix.gettimeofday () in
    let close_trace =
      match trace with
      | None -> fun () -> ()
      | Some "-" ->
          Obs.add_sink obs
            (Obs.jsonl_sink (fun line ->
                 output_string stderr (line ^ "\n")));
          fun () -> flush stderr
      | Some path ->
          let oc = open_out path in
          Obs.add_sink obs
            (Obs.jsonl_sink (fun line -> output_string oc (line ^ "\n")));
          fun () -> close_out oc
    in
    let finish () =
      if ir_opt_stats then begin
        let rows =
          List.filter
            (fun (k, _) -> String.length k >= 6 && String.sub k 0 6 = "iropt.")
            (Obs.table obs)
        in
        if rows = [] then Format.eprintf "ir-opt: disabled@."
        else
          List.iter
            (fun (k, v) ->
              Format.eprintf "%-32s %s@." k (Obs.Json.to_string v))
            rows
      end;
      if metrics then Format.eprintf "%a" Obs.pp_table obs;
      close_trace ()
    in
    (obs, finish)
  end

let profile_arg =
  Arg.(
    value & flag
    & info [ "profile" ]
        ~doc:
          "Print simulated time per region (the compiler emits one region \
           marker per source line)")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"PLAN" ~doc:(knob "faults").Ucd.Job.doc)

let retries_arg =
  Arg.(
    value & opt int 0
    & info [ "retries" ] ~docv:"N"
        ~doc:"Extra attempts after a transient fault")

(* a slice must make progress: below one instruction is a one-line
   rejection before any job runs *)
let fuel_slice_arg =
  let check k =
    if k >= 1 then `Ok k
    else `Error (false, Printf.sprintf "fuel slice must be at least 1 (got %d)" k)
  in
  Term.(
    ret
      (const check
      $ Arg.(
          value
          & opt int 100_000
          & info [ "fuel-slice" ] ~docv:"K"
              ~doc:
                "Instructions per execution slice (granularity of deadline \
                 checks and checkpoints)")))

let parse_faults_opt = function
  | None -> None
  | Some s -> (
      match Cm.Fault.parse s with
      | Ok spec -> Some spec
      | Error msg -> failwith (Printf.sprintf "bad fault plan %S: %s" s msg))

let arrays_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "arrays" ] ~docv:"NAMES" ~doc:"Global arrays to print after the run")

let scalars_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "scalars" ] ~docv:"NAMES" ~doc:"Global scalars to print after the run")

(* ---- check ---- *)

let check_cmd =
  let run path =
    with_source path (fun src ->
        let prog = Uc.Parser.parse_program src in
        let info = Uc.Sema.check ~eof:(Uc.Loc.end_of src) prog in
        Printf.printf "%s: ok (%d global arrays, %d index sets, %d functions)\n"
          path
          (List.length info.Uc.Sema.global_arrays)
          (List.length info.Uc.Sema.global_sets)
          (List.length info.Uc.Sema.funcs);
        0)
  in
  Cmd.v (Cmd.info "check" ~doc:"Parse and type-check a UC program")
    Term.(const run $ file_arg)

(* ---- ast ---- *)

let ast_cmd =
  let run path =
    with_source path (fun src ->
        let prog = Uc.Compile.parse_source src in
        print_string (Uc.Pretty.program_to_string prog);
        0)
  in
  Cmd.v (Cmd.info "ast" ~doc:"Pretty-print the parsed program")
    Term.(const run $ file_arg)

(* ---- paris ---- *)

let paris_cmd =
  let run path spec ir_opt_stats =
    with_job spec @@ fun { Ucd.Job.options; _ } ->
    with_source path (fun src ->
        let obs, finish = make_obs ~trace:None ~metrics:false ~ir_opt_stats in
        let compiled = Uc.Compile.compile_source ~options ~obs src in
        Format.printf "%a@." Cm.Paris.pp_program compiled.Uc.Codegen.prog;
        (* static footer: instruction census by hardware class and a
           straight-line cost estimate, so two dumps (say, --ir-opt on
           vs off) can be compared without running anything *)
        Format.printf "%a@." (Cm.Iropt.pp_static_summary ?params:None)
          compiled.Uc.Codegen.prog;
        finish ();
        0)
  in
  Cmd.v (Cmd.info "paris" ~doc:"Dump the generated Paris IR")
    Term.(const run $ file_arg $ spec_term (codegen_and []) $ ir_opt_stats_arg)

(* ---- cstar ---- *)

let cstar_cmd =
  let run path =
    with_source path (fun src ->
        print_string (Uc.Cstar_emit.emit_source src);
        0)
  in
  Cmd.v
    (Cmd.info "cstar"
       ~doc:"Translate to C* source (the 1990 compiler's target language)")
    Term.(const run $ file_arg)

(* ---- run ---- *)

let print_int_array name dims a =
  Printf.printf "%s =" name;
  (match dims with
  | [ _; cols ] ->
      Array.iteri
        (fun k v ->
          if k mod cols = 0 then Printf.printf "\n  ";
          Printf.printf "%6d" v)
        a;
      print_newline ()
  | _ ->
      Array.iter (Printf.printf " %d") a;
      print_newline ())

(* `ucc run` takes the codegen knobs and seed/engine/shards from the
   job-spec table; its fault plan and retries stay its own (they drive
   the attempt loop below, not a Job) *)
let run_cmd =
  let run path spec stats profile arrays scalars faults retries fuel_slice
      ir_opt_stats trace metrics =
    with_job spec @@ fun { Ucd.Job.options; seed; engine; _ } ->
    with_source path (fun src ->
        let fspec = parse_faults_opt faults in
        let obs, finish_obs = make_obs ~trace ~metrics ~ir_opt_stats in
        Fun.protect ~finally:finish_obs (fun () ->
        let compiled = Uc.Compile.compile_source ~options ~obs src in
        (* run in fuel slices so a transient fault can be retried with a
           freshly instantiated plan for the next attempt *)
        let rec attempt k =
          let plan = Option.map (Cm.Fault.instantiate ~attempt:k) fspec in
          let t =
            Uc.Compile.start_compiled ~seed ~engine ?faults:plan ~obs compiled
          in
          let rec slices () =
            match Uc.Compile.step t ~fuel_slice with
            | `Done -> t
            | `More -> slices ()
          in
          try slices ()
          with Cm.Machine.Fault msg when k < retries ->
            Printf.eprintf "%s: transient fault (attempt %d/%d): %s; retrying\n"
              path (k + 1) (retries + 1) msg;
            attempt (k + 1)
        in
        let t = attempt 0 in
        Cm.Machine.publish t.Uc.Compile.machine;
        List.iter print_endline (Uc.Compile.output t);
        List.iter
          (fun name ->
            let meta = Uc.Compile.meta t name in
            match meta.Uc.Codegen.aty with
            | Uc.Ast.Tint ->
                print_int_array name meta.Uc.Codegen.adims
                  (Uc.Compile.int_array t name)
            | Uc.Ast.Tfloat ->
                Printf.printf "%s =" name;
                Array.iter (Printf.printf " %g") (Uc.Compile.float_array t name);
                print_newline ())
          arrays;
        List.iter
          (fun name ->
            match Uc.Compile.scalar t name with
            | Cm.Paris.SInt i -> Printf.printf "%s = %d\n" name i
            | Cm.Paris.SFloat f -> Printf.printf "%s = %g\n" name f)
          scalars;
        Printf.printf "simulated elapsed time: %.6f s\n"
          (Uc.Compile.elapsed_seconds t);
        if stats then
          Format.printf "%a@." Cm.Cost.pp_meter (Uc.Compile.meter t);
        if profile then begin
          let total = Uc.Compile.elapsed_seconds t in
          print_endline "profile (simulated seconds by region; one per source line):";
          List.iter
            (fun (region, secs) ->
              Printf.printf "  %-16s %10.6f s  %5.1f%%\n" region secs
                (100.0 *. secs /. total))
            (Cm.Machine.regions t.Uc.Compile.machine)
        end;
        0))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Compile and execute on the simulated Connection Machine")
    Term.(
      const run $ file_arg
      $ spec_term (codegen_and [ "seed"; "engine"; "shards" ])
      $ stats_arg $ profile_arg $ arrays_arg $ scalars_arg $ faults_arg
      $ retries_arg $ fuel_slice_arg $ ir_opt_stats_arg $ trace_arg
      $ metrics_arg)

(* ---- interp ---- *)

let interp_cmd =
  let run path spec arrays scalars =
    with_job spec @@ fun { Ucd.Job.seed; _ } ->
    with_source path (fun src ->
        let prog = Uc.Compile.parse_source src in
        let r = Uc.Interp.run ~seed prog in
        List.iter print_endline (Uc.Interp.output r);
        List.iter
          (fun name ->
            print_int_array name [] (Uc.Interp.int_array r name))
          arrays;
        List.iter
          (fun name ->
            match Uc.Interp.scalar r name with
            | Uc.Interp.Vint i -> Printf.printf "%s = %d\n" name i
            | Uc.Interp.Vfloat f -> Printf.printf "%s = %g\n" name f)
          scalars;
        0)
  in
  Cmd.v
    (Cmd.info "interp" ~doc:"Execute with the reference interpreter")
    Term.(const run $ file_arg $ spec_term [ knob "seed" ] $ arrays_arg $ scalars_arg)

(* ---- corpus ---- *)

let examples_cmd =
  let run () =
    List.iter
      (fun (name, _) -> print_endline name)
      Uc_programs.Programs.all_named;
    0
  in
  Cmd.v
    (Cmd.info "examples" ~doc:"List the built-in corpus programs from the paper")
    Term.(const run $ const ())

let show_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"NAME")
  in
  let run name =
    match List.assoc_opt name Uc_programs.Programs.all_named with
    | Some src ->
        print_string src;
        0
    | None ->
        Printf.eprintf "ucc: unknown example %s (try 'ucc examples')\n" name;
        1
  in
  Cmd.v (Cmd.info "show" ~doc:"Print a built-in corpus program")
    Term.(const run $ name_arg)

(* ---- batch ---- *)

(* Manifest format, one job per line (# starts a comment): a corpus
   name or a file path, then [key=value] columns and bare flags, one per
   row of Ucd.Job.knobs (see Ucd.Job.of_manifest_line), applied over
   the command-line flags. *)

let batch_cmd =
  let manifest_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"MANIFEST"
          ~doc:"Job manifest (one job per line); the whole built-in corpus \
                when omitted")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Number of worker domains")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string "_ucd_cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"On-disk artifact cache ('none' disables persistence)")
  in
  let report_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "report" ] ~docv:"FILE"
          ~doc:"Write the JSON-lines report here instead of stdout")
  in
  let run manifest jobs cache_dir spec report stats fuel_slice trace metrics =
    try
      let obs, finish_obs =
        make_obs ~trace ~metrics ~ir_opt_stats:false
      in
      Fun.protect ~finally:finish_obs @@ fun () ->
      let retries, spec = cli_retries spec in
      (* the flags alone must resolve, even when no line uses them all *)
      Result.iter_error failwith (Ucd.Job.apply spec blank_job);
      let lines =
        match manifest with
        | None -> List.map fst Uc_programs.Programs.all_named
        | Some path -> (
            match read_source path with
            | Error msg -> failwith msg
            | Ok text -> String.split_on_char '\n' text)
      in
      let job_list =
        List.mapi (fun i l -> (i + 1, String.trim l)) lines
        |> List.filter_map (fun (i, l) ->
               match Ucd.Job.of_manifest_line ~defaults:spec l with
               | Ok job -> job
               | Error msg ->
                   failwith (Printf.sprintf "manifest line %d: %s" i msg))
      in
      let cache =
        if cache_dir = "none" then Ucd.Cache.create ()
        else Ucd.Cache.create ~dir:cache_dir ()
      in
      let policy =
        { Ucd.Runner.default_policy with retries; fuel_slice }
      in
      let t0 = Unix.gettimeofday () in
      let results =
        Ucd.Runner.run_jobs ~domains:jobs ~policy ~obs ~cache job_list
      in
      let elapsed = Unix.gettimeofday () -. t0 in
      Ucd.Cache.publish cache obs;
      let emit oc =
        List.iter
          (fun r -> output_string oc (Ucd.Report.json_line r ^ "\n"))
          results;
        output_string oc (Ucd.Report.json_of_summary
                            (Ucd.Report.summarize ~elapsed results) ^ "\n")
      in
      (match report with
      | None -> emit stdout
      | Some path ->
          let oc = open_out path in
          Fun.protect ~finally:(fun () -> close_out oc) (fun () -> emit oc));
      let summary = Ucd.Report.summarize ~elapsed results in
      Format.eprintf "batch: %a@." Ucd.Report.pp_summary summary;
      if stats then
        Format.eprintf "batch: %a@." Ucd.Cache.pp_stats (Ucd.Cache.stats cache);
      if
        summary.Ucd.Report.failed > 0
        || summary.Ucd.Report.timeout > 0
        || summary.Ucd.Report.faulted > 0
      then 2
      else 0
    with Failure msg ->
      Printf.eprintf "ucc batch: error: %s\n" msg;
      1
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Run many compile/run jobs concurrently with a content-addressed \
          artifact cache")
    Term.(
      const run $ manifest_arg $ jobs_arg $ cache_dir_arg
      $ spec_term Ucd.Job.knobs $ report_arg $ stats_arg $ fuel_slice_arg
      $ trace_arg $ metrics_arg)

(* ---- serve / submit ---- *)

let socket_arg =
  Arg.(
    value
    & opt string "ucd.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path")

let tcp_port_arg ~doc =
  Arg.(value & opt (some int) None & info [ "tcp" ] ~docv:"PORT" ~doc)

(* the daemon a client command talks to: --tcp PORT, else --socket PATH *)
let client_addr_term =
  let addr socket = function
    | Some port -> Ucd.Client.Tcp ("127.0.0.1", port)
    | None -> Ucd.Client.Unix_path socket
  in
  Term.(
    const addr $ socket_arg
    $ tcp_port_arg ~doc:"Connect to loopback TCP port $(docv) instead")

let serve_cmd =
  let jobs_arg =
    Arg.(
      value & opt int 2
      & info [ "jobs"; "j" ] ~docv:"N" ~doc:"Number of worker domains")
  in
  let max_queue_arg =
    Arg.(
      value & opt int 16
      & info [ "max-queue" ] ~docv:"N"
          ~doc:
            "Job queue capacity; submissions beyond it get a typed \
             $(b,overloaded) rejection instead of blocking")
  in
  let quota_arg =
    let quota_conv =
      let parse s =
        match String.index_opt s '=' with
        | Some i -> (
            let t = String.sub s 0 i in
            let n = String.sub s (i + 1) (String.length s - i - 1) in
            match int_of_string_opt n with
            | Some n when n >= 0 && t <> "" -> Ok (t, n)
            | _ -> Error (`Msg (Printf.sprintf "bad quota %S (want TENANT=N)" s)))
        | None -> Error (`Msg (Printf.sprintf "bad quota %S (want TENANT=N)" s))
      in
      let print fmt (t, n) = Format.fprintf fmt "%s=%d" t n in
      Arg.conv (parse, print)
    in
    Arg.(
      value & opt_all quota_conv []
      & info [ "quota" ] ~docv:"TENANT=N"
          ~doc:
            "Bound $(b,TENANT) to N in-flight jobs (repeatable; tenant \
             $(b,*) sets the default for unlisted tenants)")
  in
  let drain_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "drain-timeout" ] ~docv:"SECS"
          ~doc:
            "How long a graceful shutdown waits for in-flight jobs before \
             giving up (exit 1)")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt string "_ucd_cache"
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:"On-disk artifact cache ('none' disables persistence)")
  in
  let no_journal_arg =
    Arg.(
      value & flag
      & info [ "no-journal" ]
          ~doc:
            "Disable the write-ahead job journal (accepted jobs no longer \
             survive a daemon crash)")
  in
  let journal_fsync_arg =
    Arg.(
      value & flag
      & info [ "journal-fsync" ]
          ~doc:
            "fsync the journal after every record (survives kernel crashes, \
             at a latency cost)")
  in
  let chaos_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "chaos" ] ~docv:"PLAN"
          ~doc:
            "Seeded service-level fault injection, e.g. \
             $(b,seed=7;resets=3;frames=2;slow=5;disk=2;crash=3) — socket \
             resets, torn frames, slow-reader stalls, cache-disk write \
             failures and simulated worker crashes")
  in
  let run socket tcp jobs max_queue quotas drain_timeout cache_dir no_journal
      journal_fsync chaos_plan retries fuel_slice trace metrics =
    (* block INT/TERM before any thread exists so every thread inherits
       the mask and the signals can only be consumed by the dedicated
       sigwait thread below — a handler would never run while all
       threads sit in condition waits *)
    let masked =
      try
        ignore
          (Thread.sigmask Unix.SIG_BLOCK [ Sys.sigint; Sys.sigterm ]);
        true
      with _ -> false
    in
    let obs, finish_obs = make_obs ~trace ~metrics ~ir_opt_stats:false in
    Fun.protect ~finally:finish_obs @@ fun () ->
    let default_quota = List.assoc_opt "*" quotas in
    let quotas = List.filter (fun (t, _) -> t <> "*") quotas in
    let socket_path = if socket = "none" then None else Some socket in
    let chaos =
      match chaos_plan with
      | None -> Ok None
      | Some plan -> (
          match Ucd.Chaos.parse plan with
          | Ok spec -> Ok (Some spec)
          | Error msg ->
              Error (Printf.sprintf "bad --chaos plan %S: %s" plan msg))
    in
    match chaos with
    | Error msg ->
        Printf.eprintf "ucc serve: %s\n" msg;
        1
    | Ok chaos -> (
    let cfg =
      {
        Ucd.Server.socket_path;
        tcp_port = tcp;
        domains = jobs;
        queue_bound = max_queue;
        quotas;
        default_quota;
        drain_timeout;
        flush_timeout = Ucd.Server.default_config.Ucd.Server.flush_timeout;
        policy = { Ucd.Runner.default_policy with retries; fuel_slice };
        max_frame = Ucd.Proto.default_max_frame;
        outbox_capacity = 4096;
        recent_results =
          Ucd.Server.default_config.Ucd.Server.recent_results;
        journal = not no_journal;
        journal_fsync;
        chaos;
        verbose = true;
      }
    in
    let cache_dir = if cache_dir = "none" then None else Some cache_dir in
    match Ucd.Server.start ~obs ?cache_dir cfg with
    | exception Unix.Unix_error (e, _, arg) ->
        Printf.eprintf "ucc serve: cannot listen (%s): %s\n" arg
          (Unix.error_message e);
        1
    | exception Invalid_argument msg ->
        Printf.eprintf "ucc serve: %s\n" msg;
        1
    | srv ->
        Printf.eprintf "ucc serve: listening on%s%s (%d domains, queue %d)\n%!"
          (match socket_path with Some p -> " " ^ p | None -> "")
          (match tcp with
          | Some p -> Printf.sprintf " tcp:127.0.0.1:%d" p
          | None -> "")
          jobs max_queue;
        (* first signal: graceful drain; second: force exit nonzero *)
        if masked then
          ignore
            (Thread.create
               (fun () ->
                 let sigs = [ Sys.sigint; Sys.sigterm ] in
                 ignore (Thread.wait_signal sigs);
                 prerr_endline "ucc serve: signal: draining";
                 ignore (Ucd.Server.request_shutdown ~reason:"signal" srv);
                 ignore (Thread.wait_signal sigs);
                 prerr_endline "ucc serve: forced exit";
                 Stdlib.exit 130)
               ())
        else begin
          let signals = ref 0 in
          let on_signal _ =
            incr signals;
            if !signals = 1 then
              ignore (Ucd.Server.request_shutdown ~reason:"signal" srv)
            else Stdlib.exit 130
          in
          try
            Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal);
            Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
          with _ -> ()
        end;
        let code = Ucd.Server.wait srv in
        Printf.eprintf "ucc serve: %s\n%!"
          (if code = 0 then "drained cleanly"
           else "drain timeout expired with jobs in flight");
        code)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the compile-and-run daemon: sessions, per-tenant admission \
          control, a write-ahead job journal with crash recovery, and live \
          trace streaming over a Unix-domain (or loopback TCP) socket")
    Term.(
      const run $ socket_arg
      $ tcp_port_arg ~doc:"Also listen on loopback TCP port $(docv)"
      $ jobs_arg $ max_queue_arg $ quota_arg $ drain_timeout_arg
      $ cache_dir_arg $ no_journal_arg $ journal_fsync_arg $ chaos_arg
      $ retries_arg $ fuel_slice_arg $ trace_arg $ metrics_arg)

let submit_cmd =
  let file_arg =
    Arg.(
      value
      & pos 0 (some file) None
      & info [] ~docv:"FILE" ~doc:"UC source file to submit inline")
  in
  let corpus_arg =
    Arg.(
      value & flag
      & info [ "corpus" ]
          ~doc:"Submit every built-in corpus program (like $(b,ucc batch))")
  in
  let name_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "name" ] ~docv:"NAME"
          ~doc:"Job name for $(i,FILE) (default: its basename)")
  in
  let wait_arg =
    Arg.(
      value & flag
      & info [ "wait" ]
          ~doc:
            "Wait for results and print report rows (JSON lines, submission \
             order) to stdout")
  in
  let trace_flag =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Subscribe to the live trace stream; events for this session's \
             jobs print to stderr as JSON lines")
  in
  let tenant_arg =
    Arg.(
      value
      & opt string "anonymous"
      & info [ "tenant" ] ~docv:"NAME" ~doc:"Tenant identity for admission")
  in
  let priority_arg =
    Arg.(
      value
      & opt
          (enum
             [
               ("low", Ucd.Proto.Low);
               ("normal", Ucd.Proto.Normal);
               ("high", Ucd.Proto.High);
             ])
          Ucd.Proto.Normal
      & info [ "priority" ] ~docv:"CLASS"
          ~doc:
            "$(b,low), $(b,normal) or $(b,high); low-priority jobs shed \
             first under queue pressure")
  in
  let server_stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print server statistics (JSON) to stderr")
  in
  let drain_flag =
    Arg.(
      value & flag
      & info [ "drain" ]
          ~doc:"Ask the server to drain and shut down gracefully")
  in
  let reconnect_flag =
    Arg.(
      value & flag
      & info [ "reconnect" ]
          ~doc:
            "Survive daemon restarts and dropped connections: dial again \
             with capped backoff and resubmit unfinished jobs by content \
             digest (the server deduplicates in-flight digests, so nothing \
             runs twice)")
  in
  let run file addr corpus name wait_for_reports trace tenant priority
      want_stats want_drain reconnect spec =
    let fail msg =
      Printf.eprintf "ucc submit: error: %s\n" msg;
      1
    in
    (* resolved here, so a bad flag fails before any frame is sent and
       the wire carries the canonical spec (engine as sharded:N) *)
    let spec =
      Result.map Ucd.Job.to_spec (Ucd.Job.apply (snd (cli_retries spec)) blank_job)
    in
    let submit_of spec ~name ~source =
      { (Ucd.Proto.submit_defaults ~name ~source) with Ucd.Proto.spec }
    in
    let submits =
      match (file, corpus, spec) with
      | _, _, Error msg -> Error msg
      | Some _, true, _ -> Error "pass either FILE or --corpus, not both"
      | Some path, false, Ok spec -> (
          match read_source path with
          | Error msg -> Error msg
          | Ok source ->
              let name =
                match name with
                | Some n -> n
                | None ->
                    Filename.remove_extension (Filename.basename path)
              in
              Ok [ submit_of spec ~name ~source:(Ucd.Proto.Inline source) ])
      | None, true, Ok spec ->
          Ok
            (List.map
               (fun (n, _) -> submit_of spec ~name:n ~source:(Ucd.Proto.Corpus n))
               Uc_programs.Programs.all_named)
      | None, false, _ ->
          if want_stats || want_drain then Ok []
          else Error "nothing to do: pass FILE, --corpus, --stats or --drain"
    in
    let ( let* ) = Result.bind in
    (* frames the session does not consume: trace events stream to
       stderr, and a restart that --reconnect rides out is announced *)
    let on_frame = function
      | Ucd.Proto.Trace_event { job; event } ->
          Printf.eprintf "%s\n%!"
            (Ucd.Jsonu.to_string
               (Ucd.Jsonu.Obj [ ("job", Ucd.Jsonu.Int job); ("trace", event) ]))
      | Ucd.Proto.Shutdown { msg } when reconnect ->
          Printf.eprintf "ucc submit: server restarting: %s\n%!" msg
      | _ -> ()
    in
    let t0 = Unix.gettimeofday () in
    let session =
      let* submits = submits in
      let* conn, outcomes =
        Ucd.Client.submit_all ~tenant ~priority ~reconnect
          ~wait:wait_for_reports ~trace ~other:on_frame addr submits
      in
      Fun.protect ~finally:(fun () -> Ucd.Client.close conn) @@ fun () ->
      List.iter
        (function
          | Ucd.Client.Rejected { code; msg } ->
              Printf.eprintf "ucc submit: rejected (%s): %s\n%!"
                (Ucd.Proto.code_string code) msg
          | _ -> ())
        outcomes;
      let* () =
        if want_stats then
          let* stats = Ucd.Client.stats ~other:on_frame conn in
          Printf.eprintf "%s\n%!" (Ucd.Jsonu.to_string stats);
          Ok ()
        else Ok ()
      in
      let* () =
        if want_drain then
          let* in_flight = Ucd.Client.drain ~other:on_frame conn in
          Printf.eprintf "ucc submit: server draining (%d job(s) in flight)\n%!"
            in_flight;
          Ok ()
        else Ok ()
      in
      Ok outcomes
    in
    match session with
    | Error msg -> fail msg
    | Ok outcomes ->
        let results =
          List.filter_map
            (function
              | Ucd.Client.Row { row; result } ->
                  print_endline (Ucd.Jsonu.to_string row);
                  Some result
              | _ -> None)
            outcomes
        in
        let summary =
          Ucd.Report.summarize ~elapsed:(Unix.gettimeofday () -. t0) results
        in
        if wait_for_reports && results <> [] then
          Format.eprintf "submit: %a@." Ucd.Report.pp_summary summary;
        if
          List.exists
            (function Ucd.Client.Rejected _ -> true | _ -> false)
            outcomes
          || Ucd.Report.(summary.failed + summary.timeout + summary.faulted) > 0
        then 2
        else 0
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit jobs to a running $(b,ucc serve) daemon and stream back \
          reports and traces")
    Term.(
      const run $ file_arg $ client_addr_term $ corpus_arg $ name_arg $ wait_arg $ trace_flag $ tenant_arg
      $ priority_arg $ server_stats_flag $ drain_flag $ reconnect_flag
      $ spec_term Ucd.Job.knobs)

(* ---- tune ---- *)

(* Blank every map section out of [src] (spaces, newlines preserved so
   line numbers stay stable), using the token stream so comments and
   strings can't fool the scan. *)
let strip_map_sections src =
  let toks = Uc.Lexer.tokenize src in
  (* byte offset of each (line, col) *)
  let line_starts =
    let starts = ref [ 0 ] in
    String.iteri (fun i c -> if c = '\n' then starts := (i + 1) :: !starts) src;
    Array.of_list (List.rev !starts)
  in
  let offset_of (loc : Uc.Loc.t) =
    let line = min (max loc.Uc.Loc.line 1) (Array.length line_starts) in
    min (String.length src - 1) (line_starts.(line - 1) + loc.Uc.Loc.col - 1)
  in
  let buf = Bytes.of_string src in
  let n = Array.length toks in
  let stripped = ref false in
  let i = ref 0 in
  while !i < n do
    (match toks.(!i) with
    | Uc.Token.KW_MAP, start ->
        let j = ref (!i + 1) in
        while !j < n && fst toks.(!j) <> Uc.Token.LBRACE do incr j done;
        let depth = ref 0 and stop = ref None in
        while !j < n && !stop = None do
          (match fst toks.(!j) with
          | Uc.Token.LBRACE -> incr depth
          | Uc.Token.RBRACE ->
              decr depth;
              if !depth = 0 then stop := Some (snd toks.(!j))
          | _ -> ());
          incr j
        done;
        (match !stop with
        | Some close ->
            stripped := true;
            for k = offset_of start to offset_of close do
              if Bytes.get buf k <> '\n' then Bytes.set buf k ' '
            done
        | None -> ());
        i := !j
    | _ -> incr i)
  done;
  (Bytes.to_string buf, !stripped)

let layout_json = function
  | Uc.Mapping.Default -> Ucd.Jsonu.Str "default"
  | l -> Ucd.Jsonu.Str (Uc.Mapping.to_string l)

let tune_cmd =
  let apply_arg =
    Arg.(
      value & flag
      & info [ "apply" ]
          ~doc:
            "Rewrite $(docv) in place: existing map sections are removed \
             and the inferred one is appended")
  in
  let json_arg =
    Arg.(value & flag & info [ "json" ] ~doc:"Machine-readable JSON output")
  in
  let run path spec apply json =
    with_job spec @@ fun { Ucd.Job.options; _ } ->
    with_source path (fun src ->
        let r = Uc.Layoutsel.search_source ~options src in
        let raw_prog = Uc.Compile.parse_source src in
        let section = Uc.Mapping.emit_map_section raw_prog r.Uc.Layoutsel.table in
        (* the emitted section must re-parse to the same table before we
           print it, let alone write it back *)
        (match section with
        | Some text ->
            let stripped, _ = strip_map_sections src in
            let reparsed =
              Uc.Mapping.of_program
                (Uc.Parser.parse_program (stripped ^ "\n" ^ text))
            in
            if
              Uc.Mapping.table_to_string (Uc.Mapping.canonical reparsed)
              <> Uc.Mapping.table_to_string r.Uc.Layoutsel.table
            then
              failwith
                "internal error: emitted map section does not round-trip"
        | None -> ());
        if json then begin
          let open Ucd.Jsonu in
          let dp = r.Uc.Layoutsel.default_prediction in
          let cp = r.Uc.Layoutsel.chosen_prediction in
          print_endline
            (to_string
               (Obj
                  [
                    ("file", Str path);
                    ("digest", Str (Uc.Mapping.digest r.Uc.Layoutsel.table));
                    ("default_ns", Float r.Uc.Layoutsel.default_ns);
                    ("chosen_ns", Float r.Uc.Layoutsel.chosen_ns);
                    ( "default_ops",
                      Obj
                        [
                          ("router", Int dp.Uc.Commpat.p_router_ops);
                          ("news", Int dp.Uc.Commpat.p_news_ops);
                          ("exact", Bool dp.Uc.Commpat.p_exact);
                        ] );
                    ( "chosen_ops",
                      Obj
                        [
                          ("router", Int cp.Uc.Commpat.p_router_ops);
                          ("news", Int cp.Uc.Commpat.p_news_ops);
                          ("exact", Bool cp.Uc.Commpat.p_exact);
                        ] );
                    ( "arrays",
                      List
                        (List.map
                           (fun c ->
                             Obj
                               [
                                 ("name", Str c.Uc.Layoutsel.cname);
                                 ("layout", layout_json c.Uc.Layoutsel.clayout);
                                 ( "default_ns",
                                   Float c.Uc.Layoutsel.cdefault_ns );
                                 ("chosen_ns", Float c.Uc.Layoutsel.cchosen_ns);
                                 ("rationale", Str c.Uc.Layoutsel.crationale);
                               ])
                           r.Uc.Layoutsel.choices) );
                    ( "map_section",
                      match section with Some s -> Str s | None -> Str "" );
                  ]))
        end
        else begin
          let dp = r.Uc.Layoutsel.default_prediction in
          let cp = r.Uc.Layoutsel.chosen_prediction in
          Printf.printf "%s: predicted communication cost\n" path;
          Printf.printf "  default: %10.3f ms  (router %d, news %d%s)\n"
            (r.Uc.Layoutsel.default_ns /. 1e6)
            dp.Uc.Commpat.p_router_ops dp.Uc.Commpat.p_news_ops
            (if dp.Uc.Commpat.p_exact then "" else ", estimated");
          Printf.printf "  tuned:   %10.3f ms  (router %d, news %d%s)"
            (r.Uc.Layoutsel.chosen_ns /. 1e6)
            cp.Uc.Commpat.p_router_ops cp.Uc.Commpat.p_news_ops
            (if cp.Uc.Commpat.p_exact then "" else ", estimated");
          if r.Uc.Layoutsel.default_ns > 0. then
            Printf.printf "  [%.2fx]"
              (r.Uc.Layoutsel.default_ns
              /. Float.max r.Uc.Layoutsel.chosen_ns 1.);
          print_newline ();
          print_newline ();
          let w =
            List.fold_left
              (fun w c -> max w (String.length c.Uc.Layoutsel.cname))
              5 r.Uc.Layoutsel.choices
          in
          Printf.printf "  %-*s %-16s %s\n" w "array" "layout" "rationale";
          List.iter
            (fun c ->
              Printf.printf "  %-*s %-16s %s\n" w c.Uc.Layoutsel.cname
                (Uc.Mapping.to_string c.Uc.Layoutsel.clayout)
                c.Uc.Layoutsel.crationale)
            r.Uc.Layoutsel.choices;
          print_newline ();
          match section with
          | Some text -> print_string text
          | None ->
              print_endline
                "every array keeps the default layout; no map section needed"
        end;
        if apply then begin
          let stripped, had = strip_map_sections src in
          let new_src =
            match section with
            | Some text ->
                (* drop trailing blanks, keep one blank line before the
                   appended section *)
                String.concat ""
                  [ String.trim stripped; "\n\n"; text ]
            | None -> String.trim stripped ^ "\n"
          in
          if new_src <> src then begin
            let oc = open_out_bin path in
            output_string oc new_src;
            close_out oc;
            if not json then
              Printf.printf "%s: rewritten (%s%s)\n" path
                (match section with
                | Some _ -> "map section applied"
                | None -> "no map section")
                (if had then ", previous map sections removed" else "")
          end
          else if not json then Printf.printf "%s: already up to date\n" path
        end;
        0)
  in
  Cmd.v
    (Cmd.info "tune"
       ~doc:
         "Infer a data layout: analyze every parallel access statically, \
          search candidate layouts per array against the calibrated cost \
          model, and print the best map section with a predicted-cost table")
    Term.(const run $ file_arg $ spec_term (codegen_and []) $ apply_arg $ json_arg)

let status_cmd =
  let digest_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "digest" ] ~docv:"MD5"
          ~doc:
            "Instead of the server snapshot, look up one job by its content \
             digest (prints state, and the report row when available)")
  in
  let run addr digest =
    match Ucd.Client.connect addr with
    | Error msg ->
        Printf.eprintf "ucc status: error: %s\n" msg;
        1
    | Ok c -> (
        Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
        match digest with
        | Some d -> (
            match Ucd.Client.status_digest c d with
            | Error msg ->
                Printf.eprintf "ucc status: error: %s\n" msg;
                1
            | Ok (state, row) ->
                print_endline
                  (Ucd.Jsonu.to_string
                     (Ucd.Jsonu.Obj
                        ([
                           ("digest", Ucd.Jsonu.Str d);
                           ("state", Ucd.Jsonu.Str state);
                         ]
                        @
                        match row with
                        | Some r -> [ ("row", r) ]
                        | None -> [])));
                if state = "unknown" then 1 else 0)
        | None -> (
            match Ucd.Client.server_status c with
            | Error msg ->
                Printf.eprintf "ucc status: error: %s\n" msg;
                1
            | Ok j ->
                print_endline (Ucd.Jsonu.to_string j);
                0))
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Query a running $(b,ucc serve) daemon: uptime, pool and queue \
          depth, journal lag and per-tenant quota usage (JSON to stdout); \
          or one job's state by content digest")
    Term.(const run $ client_addr_term $ digest_arg)

let () =
  let doc = "UC compiler for the simulated Connection Machine" in
  let info = Cmd.info "ucc" ~version:"1.0" ~doc in
  exit (Cmd.eval' (Cmd.group info
    [ check_cmd; ast_cmd; paris_cmd; cstar_cmd; run_cmd; interp_cmd;
      examples_cmd; show_cmd; tune_cmd; batch_cmd; serve_cmd; submit_cmd;
      status_cmd ]))
