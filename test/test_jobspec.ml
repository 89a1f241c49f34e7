(* The job-spec table (Ucd.Job.knobs).  Every surface that builds a job
   — a batch manifest line, a wire frame, a journal record, Job.make —
   must yield the same job and digest; the digests and wire frames of a
   fixed grid must match job_spec_golden.tsv, recorded with the
   hand-written codecs the table replaced; and the report stamp must
   not depend on how a job ended. *)

let check = Alcotest.check
let corpus name = List.assoc name Uc_programs.Programs.all_named
let blank = Ucd.Job.make ~name:"" ~source:"" ()

let ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let job_of_submit (s : Ucd.Proto.submit) =
  Ucd.Job.resolve ~name:s.Ucd.Proto.name ~source:s.Ucd.Proto.source
    (Ucd.Proto.spec_of_submit s)

let frame_of_job ~name (job : Ucd.Job.t) =
  Ucd.Proto.client_line
    (Ucd.Proto.Submit
       {
         (Ucd.Proto.submit_defaults ~name ~source:(Ucd.Proto.Corpus name)) with
         Ucd.Proto.spec = Ucd.Job.to_spec job;
       })

(* ---- the table itself ---- *)

let test_defaults () =
  check Alcotest.int "a default job renders no knob" 0
    (List.length (Ucd.Job.to_spec blank));
  List.iter
    (fun (k : Ucd.Job.knob) ->
      Option.iter
        (fun d ->
          check Alcotest.bool
            (k.key ^ ": its default leaves a default job alone")
            true
            (Ucd.Job.apply [ (k.key, d) ] blank = Ok blank))
        k.default)
    Ucd.Job.knobs

(* ---- golden digests and frames ---- *)

(* [(before ^ after, engine)] for a frame carrying an engine field *)
let cut_engine frame =
  match Astring.String.cut ~sep:",\"engine\":\"" frame with
  | None -> (frame, None)
  | Some (before, rest) -> (
      match Astring.String.cut ~sep:"\"" rest with
      | Some (engine, after) -> (before ^ after, Some engine)
      | None -> Alcotest.failf "unterminated engine in %s" frame)

let test_golden () =
  let lines =
    In_channel.with_open_bin "job_spec_golden.tsv" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check Alcotest.bool "golden grid is populated" true (List.length lines > 200);
  List.iter
    (fun line ->
      match String.split_on_char '\t' line with
      | [ prog; spec; digest; frame ] ->
          let what = Printf.sprintf "%s [%s]" prog spec in
          let job =
            match ok what (Ucd.Job.of_manifest_line (prog ^ " " ^ spec)) with
            | Some job -> job
            | None -> Alcotest.failf "%s: no job" what
          in
          check Alcotest.string (what ^ ": digest") digest (Ucd.Job.digest job);
          (* the job's canonical frame; only a non-fast engine adds a
             field the golden frames predate *)
          let sent, engine = cut_engine (frame_of_job ~name:prog job) in
          check Alcotest.string (what ^ ": frame") frame sent;
          check
            Alcotest.(option string)
            (what ^ ": engine field")
            (if job.Ucd.Job.engine = `Fast then None
             else Some (Ucd.Job.engine_string job.Ucd.Job.engine))
            engine;
          (* a golden frame (an old journal line, say) still replays to
             its job *)
          (match Ucd.Proto.client_of_line frame with
          | Ok (Ucd.Proto.Submit s) ->
              check Alcotest.string (what ^ ": replayed digest")
                (Ucd.Job.digest { job with Ucd.Job.engine = `Fast })
                (Ucd.Job.digest (ok what (job_of_submit s)))
          | _ -> Alcotest.failf "%s: golden frame does not decode" what)
      | _ -> Alcotest.failf "malformed golden line %S" line)
    lines

(* ---- one job from every surface ---- *)

type draw = {
  prog : string;
  seed : int option;
  fuel : int option;
  deadline : float option;
  faults : string option;
  retries : int option;
  no_news : bool;
  no_procopt : bool;
  no_mappings : bool;
  no_cse : bool;
  ir_opt : string option;
  tune : bool;
  engine : Cm.Machine.engine option;
}

let plans = [ "seed=7;horizon=1000;router=1"; "chip@3#0"; "seed=2;horizon=50;news=2" ]

let gen =
  let open QCheck.Gen in
  fun st ->
    let opt g = if bool st then Some (g st) else None in
    {
      prog = oneofl (List.map fst Uc_programs.Programs.all_named) st;
      seed = opt (int_bound 100_000);
      fuel = opt (int_range 1 10_000_000);
      deadline = opt (oneofl [ 0.5; 5.; 60.25 ]);
      faults = opt (oneofl plans);
      retries = opt (int_bound 4);
      no_news = bool st;
      no_procopt = bool st;
      no_mappings = bool st;
      no_cse = bool st;
      ir_opt = opt (oneofl [ "off"; "on"; "constprop,dce"; "dce,peephole"; "getsend" ]);
      tune = bool st;
      engine =
        opt (oneofl [ `Fast; `Reference; `Native; `Sharded 1; `Sharded 3 ]);
    }

let manifest_line d =
  let opt key f = Option.map (fun v -> key ^ "=" ^ f v) in
  let flag key b = if b then Some key else None in
  String.concat " "
    (d.prog
    :: List.filter_map Fun.id
         [
           opt "seed" string_of_int d.seed;
           opt "fuel" string_of_int d.fuel;
           opt "deadline" (Printf.sprintf "%g") d.deadline;
           opt "faults" Fun.id d.faults;
           opt "retries" string_of_int d.retries;
           flag "no-news" d.no_news;
           flag "no-procopt" d.no_procopt;
           flag "no-mappings" d.no_mappings;
           flag "no-cse" d.no_cse;
           (match d.ir_opt with
           | Some "off" -> Some "no-ir-opt"
           | o -> opt "ir-opt" Fun.id o);
           (if d.tune then Some "tune=true" else None);
           Option.map
             (function
               | `Sharded n -> Printf.sprintf "engine=sharded shards=%d" n
               | e -> "engine=" ^ Ucd.Job.engine_string e)
             d.engine;
         ])

let submit_of d =
  let opt key f = Option.map (fun v -> (key, f v)) in
  let flag key b = if b then Some (key, Ucd.Jsonu.Bool true) else None in
  {
    (Ucd.Proto.submit_defaults ~name:d.prog ~source:(Ucd.Proto.Corpus d.prog)) with
    Ucd.Proto.seed = d.seed;
    tune = d.tune;
    spec =
      List.filter_map Fun.id
        [
          opt "fuel" (fun n -> Ucd.Jsonu.Int n) d.fuel;
          opt "deadline" (fun f -> Ucd.Jsonu.Float f) d.deadline;
          opt "faults" (fun p -> Ucd.Jsonu.Str p) d.faults;
          opt "retries" (fun n -> Ucd.Jsonu.Int n) d.retries;
          flag "no-news" d.no_news;
          flag "no-procopt" d.no_procopt;
          flag "no-mappings" d.no_mappings;
          flag "no-cse" d.no_cse;
          opt "ir-opt" (fun p -> Ucd.Jsonu.Str p) d.ir_opt;
          opt "engine" (fun e -> Ucd.Jsonu.Str (Ucd.Job.engine_string e)) d.engine;
        ];
  }

let make_job d =
  let ir_opt =
    Option.fold ~none:Cm.Iropt.default
      ~some:(fun p -> ok "ir-opt" (Cm.Iropt.config_of_string p))
      d.ir_opt
  in
  let options =
    {
      Uc.Codegen.news_opt = not d.no_news;
      procopt = not d.no_procopt;
      use_mappings = not d.no_mappings;
      cse = not d.no_cse;
      ir_opt;
    }
  in
  Ucd.Job.make ~options ?seed:d.seed ?fuel:d.fuel ?deadline:d.deadline
    ?faults:(Option.map (fun p -> ok "plan" (Cm.Fault.parse p)) d.faults)
    ?retries:d.retries ?engine:d.engine ~tune:d.tune ~name:d.prog
    ~source:(corpus d.prog) ()

(* the job [d] yields through each surface; [direct] is Job.make's *)
let surfaces d direct =
  let s = submit_of d in
  let via_wire =
    match Ucd.Proto.client_of_line (Ucd.Proto.client_line (Ucd.Proto.Submit s)) with
    | Ok (Ucd.Proto.Submit s) -> job_of_submit s
    | Ok _ -> Error "not a submit"
    | Error (_, msg) -> Error msg
  in
  let via_journal =
    let entry =
      Ucd.Journal.Accepted
        { digest = "d"; name = d.prog; tenant = "t"; submit = Ucd.Proto.submit_obj s }
    in
    match
      Result.bind
        (Ucd.Jsonu.of_string (Ucd.Jsonu.to_string (Ucd.Journal.entry_json entry)))
        Ucd.Journal.entry_of_json
    with
    | Ok (Ucd.Journal.Accepted { submit; _ }) ->
        Result.bind (Ucd.Proto.submit_of_json submit) job_of_submit
    | Ok _ -> Error "not an accepted record"
    | Error msg -> Error msg
  in
  let via_manifest =
    Result.bind (Ucd.Job.of_manifest_line (manifest_line d)) (function
      | Some j -> Ok j
      | None -> Error "no job")
  in
  [
    ("manifest line", via_manifest);
    ("wire frame", via_wire);
    ("journal record", via_journal);
    ( "to_spec round trip",
      Ucd.Job.resolve ~name:d.prog ~source:(Ucd.Proto.Corpus d.prog)
        (Ucd.Job.to_spec direct) );
  ]

let qcheck_surfaces_agree =
  QCheck.Test.make ~count:300 ~name:"manifest, wire, journal and Job.make agree"
    (QCheck.make ~print:manifest_line gen) (fun d ->
      let direct = make_job d in
      List.for_all
        (fun (what, r) ->
          match r with
          | Ok j when j = direct && Ucd.Job.digest j = Ucd.Job.digest direct ->
              true
          | Ok _ -> QCheck.Test.fail_reportf "%s: a different job" what
          | Error msg -> QCheck.Test.fail_reportf "%s: %s" what msg)
        (surfaces d direct))

(* ---- the report stamp ---- *)

let test_crash_stamp () =
  (* a crashed tuned job's row must carry the same options stamp as
     every other row of that job *)
  let job = Ucd.Job.make ~tune:true ~name:"q" ~source:(corpus "quickstart") () in
  let row = Ucd.Runner.run_job ~cache:(Ucd.Cache.create ()) job in
  let crashed = Ucd.Runner.crash_result job Stack_overflow in
  check Alcotest.string "crash row options = run row options"
    row.Ucd.Report.options crashed.Ucd.Report.options;
  check Alcotest.bool "the stamp names tune" true
    (Astring.String.is_suffix ~affix:" tune" crashed.Ucd.Report.options)

let () =
  Alcotest.run "jobspec"
    [
      ( "table",
        [
          Alcotest.test_case "defaults are the make defaults" `Quick test_defaults;
          Alcotest.test_case "golden digests and frames" `Quick test_golden;
          QCheck_alcotest.to_alcotest qcheck_surfaces_agree;
        ] );
      ( "stamp",
        [ Alcotest.test_case "crash row stamp matches" `Quick test_crash_stamp ] );
    ]
