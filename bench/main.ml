(* Benchmark harness: regenerates every table and figure in the paper's
   evaluation (section 5), plus the ablations called out in DESIGN.md.

     dune exec bench/main.exe                    -- everything
     dune exec bench/main.exe -- fig6 a1         -- selected sections
     dune exec bench/main.exe -- --json out.json -- also write per-figure
                                                    rows as JSON lines

   Times are simulated Connection Machine seconds from the cost model in
   Cm.Cost (a 16K-PE CM-2 driven by a SUN-4); the sequential baselines use
   the SUN-4 operation model in Seqc.Sun4.  The shapes - who wins, how the
   curves grow, where the crossover falls - are the reproduction targets;
   absolute times depend on the cost constants.

   Every row is deterministic: nothing here reads the host clock.  The
   rows of a full run are pinned by bench/rows.expected.jsonl, which
   `dune runtest` diffs against; a deliberate change to a simulated row
   shows up as a `dune promote`.  Wall-clock measurements of the same
   programs live in perfbench/. *)

let seed = 20260705

let section id title =
  Printf.printf "\n=== %s: %s ===\n\n" id title

(* ---------------- Ucd-backed execution ---------------- *)

let cache = Ucd.Cache.create ()

let job_of ?options src =
  Ucd.Job.make ?options ~seed ~name:"bench" ~source:src ()

(* cached: identical (options, source, seed) pairs are simulated once;
   a4 and a5 re-request fig6's N=32 and fig8's N=60 jobs *)
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
   column, as flat fields of the row *)
let metric_cols r =
  List.map
    (fun k -> (k, Ucd.Jsonu.Float (metric r k)))
    [ "pe_ops"; "news_ops"; "router_ops"; "router_messages" ]

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
  ]

let usage () =
  Printf.eprintf "usage: main.exe [SECTION...] [--json FILE]\nsections: %s\n"
    (String.concat " " (List.map fst sections));
  exit 2

let () =
  (* the whole command line is checked before any section runs *)
  let rec parse (json_file, names) = function
    | [] -> (json_file, List.rev names)
    | "--json" :: path :: rest when not (String.starts_with ~prefix:"-" path)
      ->
        parse (Some path, names) rest
    | "--json" :: _ ->
        prerr_endline "--json needs a FILE argument";
        usage ()
    | name :: rest when List.mem_assoc name sections ->
        parse (json_file, name :: names) rest
    | arg :: _ ->
        Printf.eprintf "unknown section or option %s\n" arg;
        usage ()
  in
  let json_file, requested =
    parse (None, []) (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    if requested = [] then List.map fst sections else requested
  in
  print_endline "UC on the (simulated) Connection Machine: evaluation harness";
  print_endline "(cf. Bagrodia, Chandy, Kwan, Supercomputing '90, section 5)";
  List.iter (fun name -> (List.assoc name sections) ()) requested;
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
