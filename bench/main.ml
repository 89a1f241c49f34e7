(* Benchmark harness: regenerates every table and figure in the paper's
   evaluation (section 5), plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                    -- everything
     dune exec bench/main.exe -- fig6 a1         -- selected sections
     dune exec bench/main.exe -- -j 4            -- warm the figure sweeps
                                                    on a 4-domain Ucd pool
     dune exec bench/main.exe -- --json out.json -- also write per-figure
                                                    rows as JSON

   Times are simulated Connection Machine seconds from the cost model in
   Cm.Cost (a 16K-PE CM-2 driven by a SUN-4); the sequential baselines use
   the SUN-4 operation model in Seqc.Sun4.  The shapes - who wins, how the
   curves grow, where the crossover falls - are the reproduction targets;
   absolute times depend on the cost constants.

   With [-j N], every UC execution a figure needs is first submitted to a
   Ucd domain pool sharing one content-addressed cache; the sections then
   print their tables from cache hits, so the sweep is parallel while the
   output stays in order. *)

let seed = 20260705

let section id title =
  Printf.printf "\n=== %s: %s ===\n\n" id title

(* ---------------- Ucd-backed execution ---------------- *)

let cache = Ucd.Cache.create ()

let job_of ?options src =
  Ucd.Job.make ?options ~seed ~name:"bench" ~source:src ()

(* cached: identical (options, source, seed) pairs are simulated once *)
let run_uc_report ?options src =
  let r = Ucd.Runner.run_job ~cache (job_of ?options src) in
  match r.Ucd.Report.status with
  | Ucd.Report.Done -> r
  | Ucd.Report.Failed msg -> failwith ("bench job failed: " ^ msg)
  | Ucd.Report.Timeout _ -> failwith "bench job timed out"
  | Ucd.Report.Faulted msg -> failwith ("bench job faulted: " ^ msg)

let run_uc ?options src =
  (run_uc_report ?options src).Ucd.Report.simulated_seconds

let metric r name =
  match List.assoc_opt name r.Ucd.Report.metrics with
  | Some v -> v
  | None -> 0.0

(* the machine counters a figure row carries, from the report's metrics
   column; kept flat so compare.ml's row parser still applies *)
let metric_cols r =
  List.map
    (fun k -> (k, Ucd.Jsonu.Float (metric r k)))
    [ "pe_ops"; "news_ops"; "router_ops"; "router_messages" ]

(* uncached: for meter readings and for bechamel, which measures the
   simulator's own wall-clock and must not be served memoized results *)
let run_uc_direct ?options ?engine src =
  let t = Uc.Compile.run_source ?options ?engine ~seed src in
  Uc.Compile.elapsed_seconds t

let run_cstar (prog, _field) =
  let m = Cm.Machine.create ~seed prog in
  Cm.Machine.run m;
  Cm.Machine.elapsed_seconds m

(* ---------------- JSON row collection ---------------- *)

let json_rows : Ucd.Jsonu.t list ref = ref []

let emit_row sec fields =
  json_rows :=
    Ucd.Jsonu.Obj (("section", Ucd.Jsonu.Str sec) :: fields) :: !json_rows

let collected_rows () = List.rev !json_rows

(* ---------------- figure 6 ---------------- *)

let fig6_ns = [ 8; 16; 24; 32; 48; 64 ]

let fig6 () =
  section "F6" "Shortest path, O(N^2) parallelism: UC vs C* (elapsed seconds)";
  Printf.printf "%6s %12s %12s %8s\n" "rows" "UC" "C*" "UC/C*";
  List.iter
    (fun n ->
      let r =
        run_uc_report
          (Uc_programs.Programs.shortest_path_n2 ~deterministic:false ~n ())
      in
      let uc = r.Ucd.Report.simulated_seconds in
      let cs = run_cstar (Cstar.Programs.path_n2 ~deterministic:false ~n ()) in
      Printf.printf "%6d %12.4f %12.4f %8.2f\n" n uc cs (uc /. cs);
      emit_row "fig6"
        ([
           ("n", Ucd.Jsonu.Int n);
           ("uc", Ucd.Jsonu.Float uc);
           ("cstar", Ucd.Jsonu.Float cs);
         ]
        @ metric_cols r))
    fig6_ns

(* ---------------- figure 7 ---------------- *)

let fig7_ns = [ 5; 10; 15; 20; 25 ]

let fig7 () =
  section "F7"
    "Shortest path, O(N^3) parallelism: UC vs C* (elapsed seconds)";
  Printf.printf
    "%6s %12s %14s %16s\n" "rows" "UC" "C* (log iters)" "C* (appendix, N)";
  List.iter
    (fun n ->
      let log_iters =
        let rec go k p = if p >= n then max k 1 else go (k + 1) (p * 2) in
        go 0 1
      in
      let r =
        run_uc_report
          (Uc_programs.Programs.shortest_path_n3 ~deterministic:false ~n ())
      in
      let uc = r.Ucd.Report.simulated_seconds in
      let cs_log =
        run_cstar
          (Cstar.Programs.path_n3 ~deterministic:false ~iters:log_iters ~n ())
      in
      let cs_full =
        run_cstar (Cstar.Programs.path_n3 ~deterministic:false ~n ())
      in
      Printf.printf "%6d %12.4f %14.4f %16.4f\n" n uc cs_log cs_full;
      emit_row "fig7"
        ([
           ("n", Ucd.Jsonu.Int n);
           ("uc", Ucd.Jsonu.Float uc);
           ("cstar_log", Ucd.Jsonu.Float cs_log);
           ("cstar_full", Ucd.Jsonu.Float cs_full);
         ]
        @ metric_cols r))
    fig7_ns

(* ---------------- figure 8 ---------------- *)

let fig8_ns = [ 20; 40; 60; 80; 100; 120 ]

let fig8 () =
  section "F8"
    "Shortest path with obstacle: sequential C vs optimized C vs UC on the CM";
  Printf.printf "%6s %12s %12s %12s %8s\n" "rows" "seq C" "seq C -O" "UC (CM)"
    "sweeps";
  List.iter
    (fun n ->
      let plain = Seqc.Obstacle.run ~n () in
      let opt = Seqc.Obstacle.run ~optimized:true ~n () in
      let r = run_uc_report (Uc_programs.Programs.obstacle_grid ~n) in
      let uc = r.Ucd.Report.simulated_seconds in
      Printf.printf "%6d %12.3f %12.3f %12.3f %8d\n" n
        plain.Seqc.Obstacle.elapsed_seconds opt.Seqc.Obstacle.elapsed_seconds
        uc plain.Seqc.Obstacle.iterations;
      emit_row "fig8"
        ([
           ("n", Ucd.Jsonu.Int n);
           ("seqc", Ucd.Jsonu.Float plain.Seqc.Obstacle.elapsed_seconds);
           ("seqc_opt", Ucd.Jsonu.Float opt.Seqc.Obstacle.elapsed_seconds);
           ("uc", Ucd.Jsonu.Float uc);
           ("sweeps", Ucd.Jsonu.Int plain.Seqc.Obstacle.iterations);
         ]
        @ metric_cols r))
    fig8_ns

(* ---------------- table: conciseness ---------------- *)

let count_lines src =
  String.split_on_char '\n' src
  |> List.filter (fun l -> String.trim l <> "")
  |> List.length

let table_conciseness () =
  section "T1" "Program conciseness: UC vs C* source lines (section 5)";
  (* the C* line counts are those of the paper's appendix listings
     (figures 9 and 10), counted from the published text *)
  let uc_n2 = count_lines (Uc_programs.Programs.shortest_path_n2 ~n:32 ()) in
  let uc_n3 = count_lines (Uc_programs.Programs.shortest_path_n3 ~n:32 ()) in
  Printf.printf "%-28s %6s %14s\n" "program" "UC" "C* (appendix)";
  Printf.printf "%-28s %6d %14d\n" "shortest path O(N^2)" uc_n2 21;
  Printf.printf "%-28s %6d %14d\n" "shortest path O(N^3)" uc_n3 30;
  emit_row "conciseness"
    [
      ("program", Ucd.Jsonu.Str "shortest_path_n2");
      ("uc_lines", Ucd.Jsonu.Int uc_n2);
      ("cstar_lines", Ucd.Jsonu.Int 21);
    ];
  emit_row "conciseness"
    [
      ("program", Ucd.Jsonu.Str "shortest_path_n3");
      ("uc_lines", Ucd.Jsonu.Int uc_n3);
      ("cstar_lines", Ucd.Jsonu.Int 30);
    ];
  print_newline ();
  print_endline
    "The two UC programs differ only in the inner statement; the two C*";
  print_endline
    "programs differ structurally (the O(N^3) version must declare and";
  print_endline "initialise a separate three-dimensional XMED domain)."

(* ---------------- ablation A1: data mappings ---------------- *)

let a1_mapping () =
  section "A1"
    "Mapping ablation: stencil a[i] = a[i] + b[i+1] (section 4, ref [2])";
  let n = 4096 and steps = 32 in
  let run ~mapped ~news =
    let options = { Uc.Codegen.default_options with news_opt = news } in
    let t =
      Uc.Compile.run_source ~options ~seed
        (Uc_programs.Programs.stencil ~mapped ~n ~steps ())
    in
    (Uc.Compile.elapsed_seconds t, Uc.Compile.meter t)
  in
  let t_router, m_router = run ~mapped:false ~news:false in
  let t_news, m_news = run ~mapped:false ~news:true in
  let t_mapped, m_mapped = run ~mapped:true ~news:false in
  Printf.printf "%-42s %10s %8s %8s\n" "configuration" "seconds" "router" "news";
  let line label t (m : Cm.Cost.meter) =
    Printf.printf "%-42s %10.4f %8d %8d\n" label t m.Cm.Cost.router_ops
      m.Cm.Cost.news_ops;
    emit_row "a1"
      [
        ("configuration", Ucd.Jsonu.Str label);
        ("seconds", Ucd.Jsonu.Float t);
        ("router_ops", Ucd.Jsonu.Int m.Cm.Cost.router_ops);
        ("news_ops", Ucd.Jsonu.Int m.Cm.Cost.news_ops);
      ]
  in
  line "default mapping (router)" t_router m_router;
  line "default mapping + NEWS optimization" t_news m_news;
  line "permute (I) b[i+1] :- a[i]  (map section)" t_mapped m_mapped;
  Printf.printf "\nmap-section speedup over the default: %.2fx\n"
    (t_router /. t_mapped)

(* ---------------- T2: auto-tuned layouts (ucc tune) ---------------- *)

let t2_autotune () =
  section "T2"
    "Auto-layout search: `ucc tune` vs hand-tuned vs default (a1 stencil)";
  let n = 4096 and steps = 32 in
  let src = Uc_programs.Programs.stencil ~n ~steps () in
  let run ?layouts ~news () =
    let options = { Uc.Codegen.default_options with news_opt = news } in
    let prog = Uc.Compile.parse_source src in
    let t =
      Uc.Compile.run_compiled ~seed (Uc.Compile.lower ?layouts ~options prog)
    in
    (Uc.Compile.elapsed_seconds t, Uc.Compile.meter t)
  in
  let r = Uc.Layoutsel.search_source src in
  let auto = r.Uc.Layoutsel.table in
  let hand = [ ("b", Uc.Mapping.Shifted [| 1 |]) ] in
  let t_default, m_default = run ~news:true () in
  let t_hand, m_hand = run ~layouts:hand ~news:false () in
  let t_auto, m_auto = run ~layouts:auto ~news:false () in
  Printf.printf "%-42s %10s %8s %8s\n" "configuration" "seconds" "router" "news";
  let line label t (m : Cm.Cost.meter) =
    Printf.printf "%-42s %10.4f %8d %8d\n" label t m.Cm.Cost.router_ops
      m.Cm.Cost.news_ops;
    emit_row "t2"
      [
        ("configuration", Ucd.Jsonu.Str label);
        ("seconds", Ucd.Jsonu.Float t);
        ("router_ops", Ucd.Jsonu.Int m.Cm.Cost.router_ops);
        ("news_ops", Ucd.Jsonu.Int m.Cm.Cost.news_ops);
      ]
  in
  line "default layout (best options)" t_default m_default;
  line "hand-tuned map section" t_hand m_hand;
  line (Printf.sprintf "auto-tuned: %s" (Uc.Mapping.table_to_string auto))
    t_auto m_auto;
  Printf.printf
    "\npredicted: default %.3f ms, tuned %.3f ms; measured auto/hand gap: \
     %+.1f%%\n"
    (r.Uc.Layoutsel.default_ns /. 1e6)
    (r.Uc.Layoutsel.chosen_ns /. 1e6)
    (100. *. ((t_auto /. t_hand) -. 1.))

(* ---------------- ablation A2: processor optimization ---------------- *)

let a2_n = 2048
let no_procopt = { Uc.Codegen.default_options with procopt = false }

let a2_procopt () =
  section "A2" "Processor optimization: digit-count histogram (section 4)";
  let src = Uc_programs.Programs.digit_count ~n:a2_n in
  let on = run_uc src in
  let off = run_uc ~options:no_procopt src in
  Printf.printf "%-44s %10s\n" "configuration" "seconds";
  Printf.printf "%-44s %10.4f\n" "naive: 10 x N virtual processors" off;
  Printf.printf "%-44s %10.4f\n" "optimized: N processors, combining send" on;
  Printf.printf "\nspeedup: %.2fx\n" (off /. on);
  emit_row "a2"
    [
      ("off", Ucd.Jsonu.Float off);
      ("on", Ucd.Jsonu.Float on);
      ("speedup", Ucd.Jsonu.Float (off /. on));
    ]

(* ---------------- ablation A3: *solve vs *par ---------------- *)

let a3_n = 16

let a3_solve () =
  section "A3" "*solve convenience vs hand-refined *par (section 3.6)";
  let t_solve =
    run_uc
      (Uc_programs.Programs.shortest_path_solve ~deterministic:false ~n:a3_n ())
  in
  let t_par =
    run_uc
      (Uc_programs.Programs.shortest_path_n3 ~deterministic:false ~n:a3_n ())
  in
  Printf.printf "%-44s %10s\n" "program" "seconds";
  Printf.printf "%-44s %10.4f\n" "*solve (fixed point detected by compiler)"
    t_solve;
  Printf.printf "%-44s %10.4f\n" "seq/par refinement (figure 5)" t_par;
  Printf.printf "\noverhead of *solve: %.2fx\n" (t_solve /. t_par);
  emit_row "a3"
    [
      ("solve", Ucd.Jsonu.Float t_solve);
      ("par", Ucd.Jsonu.Float t_par);
      ("overhead", Ucd.Jsonu.Float (t_solve /. t_par));
    ]

(* ---------------- ablation A4: common sub-expressions ---------------- *)

let a4_n = 32
let no_cse = { Uc.Codegen.default_options with cse = false }

let a4_cse () =
  section "A4" "Code optimizations: common sub-expression detection (section 4)";
  let src =
    Uc_programs.Programs.shortest_path_n2 ~deterministic:false ~n:a4_n ()
  in
  let on = run_uc src in
  let off = run_uc ~options:no_cse src in
  Printf.printf "%-44s %10s\n" "configuration" "seconds";
  Printf.printf "%-44s %10.4f\n" "without CSE" off;
  Printf.printf "%-44s %10.4f\n" "with CSE" on;
  Printf.printf "\nspeedup: %.2fx\n" (off /. on);
  emit_row "a4"
    [
      ("off", Ucd.Jsonu.Float off);
      ("on", Ucd.Jsonu.Float on);
      ("speedup", Ucd.Jsonu.Float (off /. on));
    ]

(* ---------------- ablation A5: guarded stencils on the NEWS grid ------- *)

let a5_n = 60
let no_news = { Uc.Codegen.default_options with news_opt = false }

let a5_news () =
  section "A5"
    "Communication optimization: guarded neighbour access via NEWS (section 4)";
  let src = Uc_programs.Programs.obstacle_grid ~n:a5_n in
  let on = run_uc src in
  let off = run_uc ~options:no_news src in
  Printf.printf "%-52s %10s\n" "configuration" "seconds";
  Printf.printf "%-52s %10.4f\n" "router + masked evaluation of the guards" off;
  Printf.printf "%-52s %10.4f\n"
    "prefilled NEWS shifts, guards as flat selects" on;
  Printf.printf "\nspeedup: %.2fx\n" (off /. on);
  emit_row "a5"
    [
      ("off", Ucd.Jsonu.Float off);
      ("on", Ucd.Jsonu.Float on);
      ("speedup", Ucd.Jsonu.Float (off /. on));
    ]

(* ---------------- ablation A6: static solve scheduling ([14]) ---------- *)

let a6_schedule () =
  section "A6" "solve: static diagonal schedule vs fixed-point iteration ([14])";
  let n = 24 in
  let src = Uc_programs.Programs.wavefront ~n in
  let run ~schedule =
    let prog = Uc.Parser.parse_program src in
    ignore (Uc.Sema.check prog);
    let prog = Uc.Transform.apply ~schedule_solve:schedule prog in
    let prog = Uc.Optimize.fold_program prog in
    let compiled = Uc.Codegen.compile prog in
    let m = Cm.Machine.create ~seed compiled.Uc.Codegen.prog in
    Cm.Machine.run m;
    Cm.Machine.elapsed_seconds m
  in
  let scheduled = run ~schedule:true in
  let fixpoint = run ~schedule:false in
  Printf.printf "%-52s %10s\n" "translation" "seconds";
  Printf.printf "%-52s %10.4f\n"
    "general method: guarded *par to a fixed point" fixpoint;
  Printf.printf "%-52s %10.4f\n" "dependency order: seq over diagonals" scheduled;
  Printf.printf "\nspeedup: %.2fx\n" (fixpoint /. scheduled);
  emit_row "a6"
    [
      ("fixpoint", Ucd.Jsonu.Float fixpoint);
      ("scheduled", Ucd.Jsonu.Float scheduled);
      ("speedup", Ucd.Jsonu.Float (fixpoint /. scheduled));
    ]

(* ---------------- R1: recovery-machinery overhead ---------------- *)

(* What does robustness cost when nothing goes wrong?  The same program
   is executed (a) in one straight [run], (b) sliced into small fuel
   slices (deadline-enforcement granularity), and (c) sliced with a full
   checkpoint serialized after every slice (the resume-on-retry mode).
   The spread between the rows is the price of in-flight enforcement. *)
let r1_recovery () =
  section "R1" "Recovery machinery: wall-clock overhead on a fault-free run";
  let src = Uc_programs.Programs.obstacle_grid ~n:40 in
  let compiled = Uc.Compile.compile_source src in
  (* pick the slice so the run spans ~16 slices: enough checkpoints to
     measure, whatever the program's instruction count is *)
  let slice =
    let t = Uc.Compile.run_compiled ~seed compiled in
    max 1 (Cm.Machine.icount t.Uc.Compile.machine / 16)
  in
  let time f =
    (* best of 3: slicing overhead is small, so noise dominates a mean *)
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  let straight =
    time (fun () ->
        ignore (Uc.Compile.run_compiled ~seed compiled))
  in
  let sliced =
    time (fun () ->
        let t = Uc.Compile.start_compiled ~seed compiled in
        let rec go () =
          match Uc.Compile.step t ~fuel_slice:slice with
          | `Done -> ()
          | `More -> go ()
        in
        go ())
  in
  let ckpt_bytes = ref 0 in
  let checkpointed =
    time (fun () ->
        let t = Uc.Compile.start_compiled ~seed compiled in
        let rec go () =
          match Uc.Compile.step t ~fuel_slice:slice with
          | `Done -> ()
          | `More ->
              let data = Uc.Compile.checkpoint t in
              ckpt_bytes := String.length data;
              go ()
        in
        go ())
  in
  let restore_time =
    let t = Uc.Compile.start_compiled ~seed compiled in
    ignore (Uc.Compile.step t ~fuel_slice:slice);
    let data = Uc.Compile.checkpoint t in
    time (fun () ->
        ignore (Uc.Compile.restore_compiled compiled data))
  in
  Printf.printf "%-52s %12s\n" "configuration" "seconds";
  Printf.printf "%-52s %12.4f\n" "straight run (no slicing)" straight;
  Printf.printf "%-52s %12.4f\n"
    (Printf.sprintf "sliced, %d instructions per slice" slice)
    sliced;
  Printf.printf "%-52s %12.4f\n" "sliced + checkpoint after every slice"
    checkpointed;
  Printf.printf "%-52s %12.6f\n" "single restore from checkpoint" restore_time;
  Printf.printf "\nslicing overhead: %.1f%%; checkpointing overhead: %.1f%%; \
                 checkpoint size: %d bytes\n"
    (100. *. ((sliced /. straight) -. 1.))
    (100. *. ((checkpointed /. straight) -. 1.))
    !ckpt_bytes;
  emit_row "r1"
    [
      ("straight", Ucd.Jsonu.Float straight);
      ("sliced", Ucd.Jsonu.Float sliced);
      ("checkpointed", Ucd.Jsonu.Float checkpointed);
      ("restore", Ucd.Jsonu.Float restore_time);
      ("ckpt_bytes", Ucd.Jsonu.Int !ckpt_bytes);
    ]

(* ---------------- O2: telemetry overhead ---------------- *)

(* What does full tracing cost?  The fig8 obstacle program is run once
   with a null scope and once with a live scope feeding a JSON-lines
   sink (the --trace configuration); the wall-clock spread is the price
   of telemetry.  The simulated results are identical by construction
   (test_obs enforces it); this section measures the only thing that is
   allowed to change. *)
let o1_obs_overhead () =
  section "O2" "Telemetry: wall-clock cost of full tracing (fig8 program)";
  let n = 80 in
  let src = Uc_programs.Programs.obstacle_grid ~n in
  let time f =
    (* best of 5 (cf. R1): the overhead is small, so noise dominates *)
    let best = ref infinity in
    for _ = 1 to 5 do
      let t0 = Unix.gettimeofday () in
      f ();
      best := Float.min !best (Unix.gettimeofday () -. t0)
    done;
    !best
  in
  (* the whole `ucc run --trace` configuration, compile included, so the
     compile/iropt spans and the machine's hot paths are all in play *)
  let off = time (fun () -> ignore (Uc.Compile.run_source ~seed src)) in
  let events = ref 0 and trace_bytes = ref 0 in
  let on =
    time (fun () ->
        let buf = Buffer.create 65536 in
        let obs = Obs.create ~clock:Unix.gettimeofday () in
        Obs.add_sink obs
          (Obs.jsonl_sink (fun line ->
               Buffer.add_string buf line;
               Buffer.add_char buf '\n'));
        let t = Uc.Compile.run_source ~seed ~obs src in
        Cm.Machine.publish t.Uc.Compile.machine;
        events := List.length (Obs.events obs);
        trace_bytes := Buffer.length buf)
  in
  let overhead = on /. off in
  Printf.printf "%-52s %10s\n" "configuration" "seconds";
  Printf.printf "%-52s %10.4f\n" "telemetry off (Obs.null)" off;
  Printf.printf "%-52s %10.4f\n" "full tracing (counters + spans + JSONL sink)"
    on;
  Printf.printf "\ntracing overhead: %.1f%% (%d events, %d trace bytes)\n"
    (100. *. (overhead -. 1.))
    !events !trace_bytes;
  emit_row "obs"
    [
      ("off", Ucd.Jsonu.Float off);
      ("on", Ucd.Jsonu.Float on);
      ("overhead", Ucd.Jsonu.Float overhead);
      ("events", Ucd.Jsonu.Int !events);
    ]

(* ---------------- bechamel: simulator wall-clock ---------------- *)

let bechamel_bench () =
  section "B0" "Bechamel: wall-clock cost of the simulator itself (per run)";
  let open Bechamel in
  let tests =
    [
      Test.make ~name:"fig6:uc-n2 N=16"
        (Staged.stage (fun () ->
             ignore
               (run_uc_direct
                  (Uc_programs.Programs.shortest_path_n2 ~deterministic:false
                     ~n:16 ()))));
      Test.make ~name:"fig6:cstar-n2 N=16"
        (Staged.stage (fun () ->
             ignore
               (run_cstar (Cstar.Programs.path_n2 ~deterministic:false ~n:16 ()))));
      Test.make ~name:"fig7:uc-n3 N=10"
        (Staged.stage (fun () ->
             ignore
               (run_uc_direct
                  (Uc_programs.Programs.shortest_path_n3 ~deterministic:false
                     ~n:10 ()))));
      Test.make ~name:"fig7:cstar-n3 N=10"
        (Staged.stage (fun () ->
             ignore
               (run_cstar (Cstar.Programs.path_n3 ~deterministic:false ~n:10 ()))));
      Test.make ~name:"fig8:uc-obstacle N=20"
        (Staged.stage (fun () ->
             ignore (run_uc_direct (Uc_programs.Programs.obstacle_grid ~n:20))));
      (* same program through the reference interpreter: the gap between
         this row and the previous one is the pre-decoded engine's win *)
      Test.make ~name:"fig8:uc-obstacle-refengine N=20"
        (Staged.stage (fun () ->
             ignore
               (run_uc_direct ~engine:`Reference
                  (Uc_programs.Programs.obstacle_grid ~n:20))));
      Test.make ~name:"fig8:seqc N=20"
        (Staged.stage (fun () -> ignore (Seqc.Obstacle.run ~n:20 ())));
      Test.make ~name:"a1:stencil-mapped"
        (Staged.stage (fun () ->
             ignore
               (run_uc_direct
                  (Uc_programs.Programs.stencil ~mapped:true ~n:1024 ~steps:8 ()))));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let raw =
    Benchmark.all cfg
      Toolkit.Instance.[ monotonic_clock ]
      (Test.make_grouped ~name:"sim" ~fmt:"%s %s" tests)
  in
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name o acc -> (name, o) :: acc) results [] in
  List.iter
    (fun (name, o) ->
      match Analyze.OLS.estimates o with
      | Some (t :: _) ->
          Printf.printf "%-32s %12.3f ms/run\n" name (t /. 1e6);
          emit_row "bechamel"
            [
              ("test", Ucd.Jsonu.Str name);
              ("ms_per_run", Ucd.Jsonu.Float (t /. 1e6));
            ]
      | _ -> Printf.printf "%-32s %12s\n" name "n/a")
    (List.sort compare rows)

(* ---------------- S2 + N1: the wall-clock engine ladder ---------------- *)

(* The three figure programs at their largest sweep size, compiled once:
   the workload of both wall-clock engine sections.  Their rows carry
   section "scaling" or "native", and compare.ml reports them like
   bechamel/serve rows instead of requiring identity; the simulated
   results themselves are engine-identical (make ci-sharded and
   ci-native enforce that bit for bit). *)
let ladder_programs =
  lazy
    (List.map
       (fun (name, src) -> (name, Uc.Compile.compile_source src))
       [
         ( "fig6:uc-n2 N=64",
           Uc_programs.Programs.shortest_path_n2 ~deterministic:false ~n:64 ()
         );
         ( "fig7:uc-n3 N=25",
           Uc_programs.Programs.shortest_path_n3 ~deterministic:false ~n:25 ()
         );
         ("fig8:uc-obstacle N=120", Uc_programs.Programs.obstacle_grid ~n:120);
       ])

(* Wall seconds per run of one (program, engine) pair on the pre-compiled
   program (compile time excluded — the engine only changes execution),
   best of 3: scheduling noise dominates a mean at these run times.
   Memoized, so the two sections time each pair once and share the
   reference and fast baselines. *)
let ladder_times = Hashtbl.create 32

let ladder_time (name, compiled) engine =
  match Hashtbl.find_opt ladder_times (name, engine) with
  | Some t -> t
  | None ->
      let best = ref infinity in
      for _ = 1 to 3 do
        let t0 = Unix.gettimeofday () in
        ignore (Uc.Compile.run_compiled ~seed ~engine compiled);
        best := Float.min !best (Unix.gettimeofday () -. t0)
      done;
      Hashtbl.add ladder_times (name, engine) !best;
      !best

let ladder_header () =
  Printf.printf "%-26s %-12s %12s %9s\n" "program" "engine" "ms/run" "vs fast"

(* One ladder line and its row, as a speedup over the program's fast run. *)
let ladder_line sec prog engine =
  let t = ladder_time prog engine and fast = ladder_time prog `Fast in
  let name = fst prog and label = Ucd.Job.engine_string engine in
  Printf.printf "%-26s %-12s %12.3f %8.2fx\n" name label (1000. *. t)
    (fast /. t);
  emit_row sec
    [
      ("test", Ucd.Jsonu.Str (name ^ " " ^ label));
      ("ms_per_run", Ucd.Jsonu.Float (1000. *. t));
      ("speedup_vs_fast", Ucd.Jsonu.Float (fast /. t));
    ]

(* S2: the reference → fast → sharded ladder, then the shard-count
   sweep. *)
let scaling_shards = [ 1; 2; 4; 8 ]

let s2_scaling () =
  section "S2"
    "Scaling: sharded engine wall-clock at 1/2/4/8 shards (per run)";
  let ncores = Domain.recommended_domain_count () in
  (* the row compare.ml ignores (no ms_per_run) but readers need: the
     shard sweep only shows parallel speedup when the host has cores to
     run the worker team on.  On a 1-core host every borrow is denied
     and the chunks run inline — the sweep then measures the engine's
     overhead and its pre-decoded stream, not parallelism. *)
  emit_row "scaling" [ ("host_cores", Ucd.Jsonu.Int ncores) ];
  Printf.printf "host cores: %d%s\n\n" ncores
    (if ncores < 2 then
       "  (single core: worker borrows are denied, chunks run inline;\n\
       \   expect engine overhead, not parallel speedup)"
     else "");
  ladder_header ();
  List.iter
    (fun prog ->
      List.iter (ladder_line "scaling" prog)
        ([ `Reference; `Fast ] @ List.map (fun s -> `Sharded s) scaling_shards);
      print_newline ())
    (Lazy.force ladder_programs)

(* N1: the native rung on the same ladder, per-run times with a warm
   in-process code cache (a Dynlink'd module cannot be unloaded, so
   steady state is what any long-lived process sees), plus each
   program's one-time codegen/build cost and the code-cache hit rate of
   the timed sweep over it. *)
let n1_native () =
  section "N1"
    "Native codegen: wall-clock on the reference/fast/native ladder (per run)";
  match Cm.Codegen.available () with
  | Error why ->
      (* a toolchain-less host degrades, it doesn't fail: record the
         fact and keep the snapshot comparable *)
      Printf.printf "native compilation unavailable here (%s); ladder skipped\n"
        why;
      emit_row "native" [ ("available", Ucd.Jsonu.Bool false) ]
  | Ok () ->
      emit_row "native" [ ("available", Ucd.Jsonu.Bool true) ];
      ladder_header ();
      List.iter
        (fun ((name, compiled) as prog) ->
          (* pay the one-shot codegen+build outside the timed region and
             price it from the process-wide counter deltas *)
          let s0 = Cm.Codegen.stats () in
          let pre = Uc.Compile.start_compiled ~seed ~engine:`Native compiled in
          (match Cm.Machine.compile_native pre.Uc.Compile.machine with
          | Ok () -> ()
          | Error why -> Printf.printf "  (%s: fell back: %s)\n" name why);
          let s1 = Cm.Codegen.stats () in
          ladder_line "native" prog `Native;
          (* the timed sweep over the same program must be all cache
             hits: every machine after the first resolves its entry
             from the per-process memo (or the disk store, in a
             cache-dir'd batch) without emitting a line of source *)
          let s2 = Cm.Codegen.stats () in
          let h2 =
            (s2.Cm.Codegen.mem_hits - s1.Cm.Codegen.mem_hits)
            + (s2.Cm.Codegen.disk_hits - s1.Cm.Codegen.disk_hits)
          in
          let b2 = s2.Cm.Codegen.builds - s1.Cm.Codegen.builds in
          let hit_rate =
            if h2 + b2 = 0 then 1.0 else float_of_int h2 /. float_of_int (h2 + b2)
          in
          let codegen_ms = s1.Cm.Codegen.codegen_ms -. s0.Cm.Codegen.codegen_ms
          and build_ms = s1.Cm.Codegen.build_ms -. s0.Cm.Codegen.build_ms in
          Printf.printf
            "%-26s %-12s codegen %.1f ms, build %.1f ms, warm sweep %.0f%% \
             cache hit\n"
            name "native" codegen_ms build_ms (100. *. hit_rate);
          emit_row "native"
            [
              ("test", Ucd.Jsonu.Str (name ^ " codegen"));
              ("codegen_ms", Ucd.Jsonu.Float codegen_ms);
              ("build_ms", Ucd.Jsonu.Float build_ms);
              ("warm_hit_rate", Ucd.Jsonu.Float hit_rate);
            ];
          print_newline ())
        (Lazy.force ladder_programs)

(* ---------------- parallel prefetch ---------------- *)

(* ---------------- S1: the serve daemon under load ---------------- *)

(* The daemon measured from the outside: an in-process server on a temp
   socket, N concurrent closed-loop clients submitting corpus jobs with
   distinct seeds (every job a cache miss), p50/p99 submit→report
   latency and sustained jobs/sec; then a deliberately small queue
   pipelined far past capacity to measure overload shedding.  All
   figures are wall-clock, so the rows carry section "serve" — compare
   reports them like bechamel rows instead of requiring identity. *)
let s1_serve () =
  section "S1" "Serve daemon: sustained load, latency, overload shedding";
  let tmpsock tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucd_bench_%s_%d.sock" tag (Unix.getpid ()))
  in
  (* phase 1: sustained closed-loop load *)
  let clients = 4 and per_client = 25 and domains = 4 in
  let socket = tmpsock "load" in
  let srv =
    Ucd.Server.start
      {
        Ucd.Server.default_config with
        Ucd.Server.socket_path = Some socket;
        domains;
        queue_bound = 128;
      }
  in
  let latencies = Array.make (clients * per_client) nan in
  let failures = Atomic.make 0 in
  let worker ci () =
    match
      Ucd.Client.connect
        ~tenant:(Printf.sprintf "bench%d" ci)
        (Ucd.Client.Unix_path socket)
    with
    | Error _ -> Atomic.incr failures
    | Ok c ->
        Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
        for k = 0 to per_client - 1 do
          let t0 = Unix.gettimeofday () in
          let sub =
            {
              (Ucd.Proto.submit_defaults ~name:"matmul"
                 ~source:(Ucd.Proto.Corpus "matmul"))
              with
              Ucd.Proto.seed = Some ((1_000 * ci) + k);
            }
          in
          match Ucd.Client.send c (Ucd.Proto.Submit sub) with
          | Error _ -> Atomic.incr failures
          | Ok () ->
              let rec await () =
                match Ucd.Client.recv c with
                | Ok (Ucd.Proto.Report _) ->
                    latencies.((ci * per_client) + k) <-
                      Unix.gettimeofday () -. t0
                | Ok (Ucd.Proto.Rejected _) | Error _ ->
                    Atomic.incr failures
                | Ok _ -> await ()
              in
              await ()
        done
  in
  let t0 = Unix.gettimeofday () in
  let threads = List.init clients (fun ci -> Thread.create (worker ci) ()) in
  List.iter Thread.join threads;
  let elapsed = Unix.gettimeofday () -. t0 in
  ignore (Ucd.Server.stop srv);
  let sorted =
    Array.to_list latencies
    |> List.filter (fun l -> not (Float.is_nan l))
    |> List.sort compare
  in
  let completed = List.length sorted in
  let pct p =
    if sorted = [] then nan
    else List.nth sorted (min (completed - 1) (int_of_float (p *. float_of_int completed)))
  in
  let p50 = 1000. *. pct 0.50 and p99 = 1000. *. pct 0.99 in
  let jobs_per_sec = float_of_int completed /. elapsed in
  Printf.printf "%d clients x %d jobs (distinct seeds: every job a cache \
                 miss), %d domains:\n"
    clients per_client domains;
  Printf.printf "  completed %d/%d (%d failure(s)), %.1f jobs/s sustained\n"
    completed (clients * per_client) (Atomic.get failures) jobs_per_sec;
  Printf.printf "  submit->report latency: p50 %.2f ms, p99 %.2f ms\n" p50 p99;
  (* phase 2: overload shedding on a tiny queue *)
  let slow_source =
    "int i, acc;\nvoid main() { for (i = 0; i < 100000000; i = i + 1) acc = \
     acc + 1; }\n"
  in
  let socket2 = tmpsock "over" in
  let srv2 =
    Ucd.Server.start
      {
        Ucd.Server.default_config with
        Ucd.Server.socket_path = Some socket2;
        domains = 2;
        queue_bound = 4;
        drain_timeout = 60.;
      }
  in
  let offered = 24 in
  let accepted = ref 0 and rejected = ref 0 in
  (match Ucd.Client.connect (Ucd.Client.Unix_path socket2) with
  | Error e -> Printf.printf "  overload phase failed to connect: %s\n" e
  | Ok c ->
      Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
      for k = 1 to offered do
        ignore
          (Ucd.Client.send c
             (Ucd.Proto.Submit
                {
                  (Ucd.Proto.submit_defaults
                     ~name:(Printf.sprintf "slow%d" k)
                     ~source:(Ucd.Proto.Inline slow_source))
                  with
                  Ucd.Proto.spec = [ ("deadline", Ucd.Jsonu.Float 0.25) ];
                  (* distinct digests: identical content would dedup
                     onto the first job in flight instead of queueing *)
                  Ucd.Proto.seed = Some k;
                }))
      done;
      let replies = ref 0 in
      while !replies < offered do
        match Ucd.Client.recv c with
        | Ok (Ucd.Proto.Accepted _) ->
            incr replies;
            incr accepted
        | Ok (Ucd.Proto.Rejected { code = Ucd.Proto.Overloaded; _ }) ->
            incr replies;
            incr rejected
        | Ok (Ucd.Proto.Rejected _) -> incr replies
        | Ok _ -> ()
        | Error _ -> replies := offered
      done);
  ignore (Ucd.Server.stop srv2);
  let rate = 100. *. float_of_int !rejected /. float_of_int offered in
  Printf.printf "  overload (queue 4, %d pipelined slow jobs): %d accepted, \
                 %d rejected (%.0f%% shed), none blocked\n"
    offered !accepted !rejected rate;
  emit_row "serve"
    [
      ("test", Ucd.Jsonu.Str "serve: submit->report p50 ms");
      ("ms_per_run", Ucd.Jsonu.Float p50);
    ];
  emit_row "serve"
    [
      ("test", Ucd.Jsonu.Str "serve: submit->report p99 ms");
      ("ms_per_run", Ucd.Jsonu.Float p99);
    ];
  emit_row "serve"
    [
      ("test", Ucd.Jsonu.Str "serve: sustained ms/job (4 clients)");
      ("ms_per_run", Ucd.Jsonu.Float (1000. /. jobs_per_sec));
    ];
  emit_row "serve"
    [
      ("test", Ucd.Jsonu.Str "serve: overload rejection rate % (queue 4)");
      ("ms_per_run", Ucd.Jsonu.Float rate);
    ]

(* ---------------- S3: durability machinery ---------------- *)

(* What does the write-ahead journal cost on the chaos-free path, and
   how fast is recovery?  Phase 1 runs the same closed-loop load three
   times — journal off, journal on (the default), journal on with
   per-record fsync — against a daemon with a temp cache dir; every job
   is a distinct-seed cache miss, so the spread is pure journal
   overhead.  Phase 2 replays a large synthetic journal and times
   Journal.recover (replay + compaction), the startup cost a crashed
   daemon pays before accepting work again. *)
let s3_durable () =
  section "S3" "Durable serve: journal overhead (chaos-free) and recovery speed";
  let tmpd tag =
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ucd_bench_dur_%s_%d" tag (Unix.getpid ()))
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d
  in
  let names = List.map fst Uc_programs.Programs.all_named in
  let jobs = List.length names in
  (* context: what one corpus job costs through the daemon (journal on,
     the default), so the per-record figures below have a denominator *)
  let corpus_ms_per_job =
    let socket =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ucd_bench_dur_load_%d.sock" (Unix.getpid ()))
    in
    let srv =
      Ucd.Server.start ~cache_dir:(tmpd "load")
        {
          Ucd.Server.default_config with
          Ucd.Server.socket_path = Some socket;
          domains = 2;
          queue_bound = 128;
        }
    in
    let t0 = Unix.gettimeofday () in
    (match Ucd.Client.connect (Ucd.Client.Unix_path socket) with
    | Error e -> Printf.printf "  load phase failed to connect: %s\n" e
    | Ok c ->
        Fun.protect ~finally:(fun () -> Ucd.Client.close c) @@ fun () ->
        List.iter
          (fun name ->
            ignore
              (Ucd.Client.send c
                 (Ucd.Proto.Submit
                    (Ucd.Proto.submit_defaults ~name
                       ~source:(Ucd.Proto.Corpus name)))))
          names;
        let reports = ref 0 in
        while !reports < jobs do
          match Ucd.Client.recv c with
          | Ok (Ucd.Proto.Report _) -> incr reports
          | Ok (Ucd.Proto.Rejected _) | Error _ -> reports := jobs
          | Ok _ -> ()
        done);
    let elapsed = Unix.gettimeofday () -. t0 in
    ignore (Ucd.Server.stop srv);
    1000. *. elapsed /. float_of_int jobs
  in
  (* the journal's own cost, measured directly: append the exact
     accepted/started/done record pattern a job writes.  End-to-end
     daemon A/B runs drown a ~10 µs/job effect in scheduler noise;
     timing the appends is stable and is the number that matters *)
  let appends_per_job = 3 in
  let append_us ~fsync tag =
    let dir = tmpd ("app_" ^ tag) in
    (try Sys.remove (Ucd.Journal.path ~dir) with Sys_error _ -> ());
    match Ucd.Journal.recover ~fsync ~dir () with
    | Error e ->
        Printf.printf "  append phase failed: %s\n" e;
        nan
    | Ok (j, _) ->
        let submit =
          Ucd.Proto.submit_obj
            (Ucd.Proto.submit_defaults ~name:"matmul"
               ~source:(Ucd.Proto.Corpus "matmul"))
        in
        let rounds = if fsync then 200 else 2_000 in
        let t0 = Unix.gettimeofday () in
        for k = 0 to rounds - 1 do
          let digest = Printf.sprintf "%032d" k in
          Ucd.Journal.append j
            (Ucd.Journal.Accepted
               { digest; name = "matmul"; tenant = "bench"; submit });
          Ucd.Journal.append j (Ucd.Journal.Started { digest });
          Ucd.Journal.append j
            (Ucd.Journal.Done_ { digest; status = "ok" })
        done;
        let elapsed = Unix.gettimeofday () -. t0 in
        Ucd.Journal.close j;
        1e6 *. elapsed /. float_of_int (rounds * appends_per_job)
  in
  let app = append_us ~fsync:false "plain" in
  let app_fsync = append_us ~fsync:true "fsync" in
  let job_us = app *. float_of_int appends_per_job in
  let job_us_fsync = app_fsync *. float_of_int appends_per_job in
  Printf.printf "%-52s %12s\n" "quantity" "value";
  Printf.printf "%-52s %9.2f ms\n" "corpus job through the daemon (journal on)"
    corpus_ms_per_job;
  Printf.printf "%-52s %9.2f us\n" "journal append (write-ahead, no fsync)" app;
  Printf.printf "%-52s %9.2f us\n" "journal append + fsync every record"
    app_fsync;
  Printf.printf "\njournal overhead on the chaos-free path (%d records/job): \
                 %.2f%%; with fsync: %.1f%%\n"
    appends_per_job
    (100. *. job_us /. (1000. *. corpus_ms_per_job))
    (100. *. job_us_fsync /. (1000. *. corpus_ms_per_job));
  (* phase 2: replay speed on a large crashed-daemon journal *)
  let dir = tmpd "replay" in
  let records = 6_000 in
  (match Ucd.Journal.recover ~dir () with
  | Error e -> Printf.printf "  replay phase failed: %s\n" e
  | Ok (j, _) ->
      let submit =
        Ucd.Proto.submit_obj
          (Ucd.Proto.submit_defaults ~name:"matmul"
             ~source:(Ucd.Proto.Corpus "matmul"))
      in
      for k = 0 to (records / 3) - 1 do
        let digest = Printf.sprintf "%032d" k in
        Ucd.Journal.append j
          (Ucd.Journal.Accepted
             { digest; name = "matmul"; tenant = "bench"; submit });
        Ucd.Journal.append j (Ucd.Journal.Started { digest });
        (* half the jobs finished before the crash, half are pending *)
        if k mod 2 = 0 then
          Ucd.Journal.append j
            (Ucd.Journal.Done_ { digest; status = "ok" })
        else
          Ucd.Journal.append j
            (Ucd.Journal.Checkpointed
               { digest; ckpt = String.make 512 '\xab' })
      done;
      Ucd.Journal.close j;
      let t0 = Unix.gettimeofday () in
      (match Ucd.Journal.recover ~dir () with
      | Error e -> Printf.printf "  recover failed: %s\n" e
      | Ok (j2, rp) ->
          let recover_s = Unix.gettimeofday () -. t0 in
          Ucd.Journal.close j2;
          Printf.printf
            "recovery: %d records replayed in %.3f s (%.0f records/s), %d \
             job(s) requeued\n"
            rp.Ucd.Journal.replayed recover_s
            (float_of_int rp.Ucd.Journal.replayed /. recover_s)
            (List.length rp.Ucd.Journal.pending);
          emit_row "durable"
            [
              ("test", Ucd.Jsonu.Str "durable: recovery ms (6k records)");
              ("ms_per_run", Ucd.Jsonu.Float (1000. *. recover_s));
            ]));
  emit_row "durable"
    [
      ("test", Ucd.Jsonu.Str "durable: ms/job through daemon (journal on)");
      ("ms_per_run", Ucd.Jsonu.Float corpus_ms_per_job);
    ];
  emit_row "durable"
    [
      ("test", Ucd.Jsonu.Str "durable: journal append us/record");
      ("ms_per_run", Ucd.Jsonu.Float (app /. 1000.));
    ];
  emit_row "durable"
    [
      ("test", Ucd.Jsonu.Str "durable: journal append us/record + fsync");
      ("ms_per_run", Ucd.Jsonu.Float (app_fsync /. 1000.));
    ]

(* Every UC execution the cached sections will request, as Ucd jobs with
   the exact same (options, source, seed), so the pool populates the
   cache the tables are then printed from. *)
let uc_jobs_of_section name =
  let open Uc_programs.Programs in
  let j ?options src = job_of ?options src in
  match name with
  | "fig6" ->
      List.map (fun n -> j (shortest_path_n2 ~deterministic:false ~n ())) fig6_ns
  | "fig7" ->
      List.map (fun n -> j (shortest_path_n3 ~deterministic:false ~n ())) fig7_ns
  | "fig8" -> List.map (fun n -> j (obstacle_grid ~n)) fig8_ns
  | "a2" ->
      let src = digit_count ~n:a2_n in
      [ j src; j ~options:no_procopt src ]
  | "a3" ->
      [
        j (shortest_path_solve ~deterministic:false ~n:a3_n ());
        j (shortest_path_n3 ~deterministic:false ~n:a3_n ());
      ]
  | "a4" ->
      let src = shortest_path_n2 ~deterministic:false ~n:a4_n () in
      [ j src; j ~options:no_cse src ]
  | "a5" ->
      let src = obstacle_grid ~n:a5_n in
      [ j src; j ~options:no_news src ]
  | _ -> []

let prefetch ~domains names =
  let jobs = List.concat_map uc_jobs_of_section names in
  if jobs <> [] then begin
    let t0 = Unix.gettimeofday () in
    let results = Ucd.Runner.run_jobs ~domains ~cache jobs in
    let s =
      Ucd.Report.summarize ~elapsed:(Unix.gettimeofday () -. t0) results
    in
    Format.printf "prefetch (%d domains): %a@." domains Ucd.Report.pp_summary s
  end

(* ---------------- driver ---------------- *)

let sections =
  [
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table-conciseness", table_conciseness);
    ("a1", a1_mapping);
    ("t2", t2_autotune);
    ("a2", a2_procopt);
    ("a3", a3_solve);
    ("a4", a4_cse);
    ("a5", a5_news);
    ("a6", a6_schedule);
    ("recovery", r1_recovery);
    ("obs", o1_obs_overhead);
    ("serve", s1_serve);
    ("durable", s3_durable);
    ("scaling", s2_scaling);
    ("native", n1_native);
    ("bechamel", bechamel_bench);
  ]

let () =
  let argv = Array.to_list Sys.argv in
  let rec parse (jobs, json_file, names) = function
    | [] -> (jobs, json_file, List.rev names)
    | ("-j" | "--jobs") :: v :: rest -> (
        match int_of_string_opt v with
        | Some n -> parse (n, json_file, names) rest
        | None ->
            Printf.eprintf "bad -j value %s\n" v;
            exit 2)
    | "--json" :: path :: rest -> parse (jobs, Some path, names) rest
    | name :: rest -> parse (jobs, json_file, name :: names) rest
  in
  let jobs, json_file, requested = parse (1, None, []) (List.tl argv) in
  let requested =
    if requested = [] then List.map fst sections else requested
  in
  print_endline "UC on the (simulated) Connection Machine: evaluation harness";
  print_endline "(cf. Bagrodia, Chandy, Kwan, Supercomputing '90, section 5)";
  if jobs > 1 then prefetch ~domains:jobs requested;
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %s (available: %s)\n" name
            (String.concat ", " (List.map fst sections)))
    requested;
  let rows = collected_rows () in
  if rows <> [] then begin
    print_newline ();
    print_endline "=== JSON summary (per-figure rows) ===";
    List.iter (fun r -> print_endline (Ucd.Jsonu.to_string r)) rows
  end;
  match json_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          List.iter
            (fun r -> output_string oc (Ucd.Jsonu.to_string r ^ "\n"))
            rows);
      Printf.printf "wrote %d JSON rows to %s\n" (List.length rows) path
