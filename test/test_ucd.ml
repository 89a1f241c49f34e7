(* The Ucd batch service: digest stability, cache determinism, pool
   stress with fault isolation. *)

let corpus name = List.assoc name Uc_programs.Programs.all_named

let mk ?options ?seed ?fuel ?deadline ?faults ?retries name =
  Ucd.Job.make ?options ?seed ?fuel ?deadline ?faults ?retries ~name
    ~source:(corpus name) ()

let fault_spec s =
  match Cm.Fault.parse s with
  | Ok spec -> spec
  | Error msg -> Alcotest.fail ("bad fault spec in test: " ^ msg)

(* a retry policy that never sleeps, so the suite stays fast *)
let fast_policy = { Ucd.Runner.default_policy with backoff_base = 0. }

(* ---- job digests ---- *)

let test_digest_identity () =
  let j = mk "quickstart" in
  Alcotest.(check string) "digest is stable" (Ucd.Job.digest j) (Ucd.Job.digest j);
  let j2 = mk ~seed:999 "quickstart" in
  Alcotest.(check bool) "seed changes digest" false
    (Ucd.Job.digest j = Ucd.Job.digest j2);
  let j3 = mk ~fuel:1000 "quickstart" in
  Alcotest.(check bool) "fuel changes digest" false
    (Ucd.Job.digest j = Ucd.Job.digest j3);
  let j4 =
    mk ~options:{ Uc.Codegen.default_options with cse = false } "quickstart"
  in
  Alcotest.(check bool) "options change digest" false
    (Ucd.Job.digest j = Ucd.Job.digest j4);
  (* the display name is not content *)
  let j5 = { j with Ucd.Job.name = "renamed" } in
  Alcotest.(check string) "name does not change digest" (Ucd.Job.digest j)
    (Ucd.Job.digest j5);
  (* deadline is execution policy, not content *)
  let j6 = { j with Ucd.Job.deadline = Some 60. } in
  Alcotest.(check string) "deadline does not change digest" (Ucd.Job.digest j)
    (Ucd.Job.digest j6);
  (* the ir-opt pass subset must be visible to BOTH the job digest and
     options_summary: the latter keys the lowered-IR memo, so an
     on/off-only summary would hand a dce-only job the fully optimized
     program of an earlier full-pipeline job *)
  let with_iropt cfg =
    mk ~options:{ Uc.Codegen.default_options with ir_opt = cfg } "quickstart"
  in
  let subset =
    match Cm.Iropt.config_of_string "dce,peephole" with
    | Ok c -> c
    | Error msg -> Alcotest.fail ("bad ir-opt spec in test: " ^ msg)
  in
  let j7 = with_iropt subset and j8 = with_iropt Cm.Iropt.off in
  Alcotest.(check bool) "ir-opt subset changes digest" false
    (Ucd.Job.digest j = Ucd.Job.digest j7);
  Alcotest.(check bool) "ir-opt off changes digest" false
    (Ucd.Job.digest j = Ucd.Job.digest j8);
  let summaries =
    List.map (fun j -> Ucd.Job.options_summary j.Ucd.Job.options) [ j; j7; j8 ]
  in
  Alcotest.(check int) "options_summary distinguishes ir-opt configs" 3
    (List.length (List.sort_uniq compare summaries))

(* QCheck: digest_of_fields is invariant under reordering of the field
   list (the option record can be assembled in any order). *)
let qcheck_digest_permutation =
  let open QCheck in
  let field = pair (string_of_size Gen.(1 -- 8)) small_printable_string in
  let gen = list_of_size Gen.(1 -- 10) field in
  Test.make ~count:200 ~name:"digest stable under field reordering" gen
    (fun fields ->
      let shuffled =
        (* deterministic permutation: reverse + sort by value *)
        List.sort (fun (_, a) (_, b) -> compare a b) (List.rev fields)
      in
      Ucd.Job.digest_of_fields fields = Ucd.Job.digest_of_fields shuffled)

(* ---- cache determinism ---- *)

let run_one cache job = Ucd.Runner.run_job ~cache job

let test_memory_cache_determinism () =
  let cache = Ucd.Cache.create () in
  let job = mk "quickstart" in
  let r1 = run_one cache job in
  let r2 = run_one cache job in
  Alcotest.(check bool) "first is a miss" false r1.Ucd.Report.from_cache;
  Alcotest.(check bool) "second is a hit" true r2.Ucd.Report.from_cache;
  Alcotest.(check string) "byte-identical canonical report"
    (Ucd.Report.canonical_json r1)
    (Ucd.Report.canonical_json r2);
  Alcotest.(check bool) "quickstart printed something" true
    (r1.Ucd.Report.output <> [])

let test_disk_cache_determinism () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucd_test_%d" (Unix.getpid ()))
  in
  let job = mk "reductions" in
  (* two independent cache instances: the second can only hit via disk *)
  let r1 = run_one (Ucd.Cache.create ~dir ()) job in
  let fresh = Ucd.Cache.create ~dir () in
  let r2 = run_one fresh job in
  Alcotest.(check bool) "cold run is a miss" false r1.Ucd.Report.from_cache;
  Alcotest.(check bool) "second process-equivalent run hits disk" true
    r2.Ucd.Report.from_cache;
  Alcotest.(check string) "byte-identical canonical report across processes"
    (Ucd.Report.canonical_json r1)
    (Ucd.Report.canonical_json r2);
  let stats = Ucd.Cache.stats fresh in
  Alcotest.(check int) "fresh cache recorded the hit" 1 stats.Ucd.Cache.run_hits

let test_timeout_not_cached () =
  let cache = Ucd.Cache.create () in
  let job = mk ~deadline:0. "matmul" in
  let r1 = run_one cache job in
  (match r1.Ucd.Report.status with
  | Ucd.Report.Timeout _ -> ()
  | _ -> Alcotest.fail "expected a timeout with a 0-second deadline");
  let r2 = run_one cache job in
  Alcotest.(check bool) "timed-out result was not served from cache" false
    r2.Ucd.Report.from_cache

(* ---- pool ---- *)

let test_pool_map_order () =
  let results =
    Ucd.Pool.map ~domains:3 ~queue_bound:2 (fun x -> x * x)
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  Alcotest.(check (list int)) "order preserved, all computed"
    [ 1; 4; 9; 16; 25; 36; 49; 64; 81; 100 ]
    (List.map (function Ok n -> n | Error _ -> -1) results)

let test_pool_isolates_exceptions () =
  let boom = Failure "boom" in
  let results =
    Ucd.Pool.map ~domains:2
      (fun i -> if i = 3 then raise boom else i + 1)
      [ 1; 2; 3; 4 ]
  in
  Alcotest.(check int) "all slots reported" 4 (List.length results);
  (match List.nth results 2 with
  | Error (Failure msg) when msg = "boom" -> ()
  | _ -> Alcotest.fail "job 3 should have failed with its own exception");
  Alcotest.(check (list int)) "other jobs unaffected" [ 2; 3; 5 ]
    (List.filter_map (function Ok n -> Some n | Error _ -> None) results)

let test_pool_stress () =
  (* more jobs than domains, including one that exhausts its fuel and
     one whose source does not parse: both must come back as Failed
     results without disturbing their neighbours *)
  let good =
    [ "quickstart"; "reductions"; "abs_sum"; "matmul"; "prefix_sums";
      "ranksort"; "stencil"; "wavefront"; "odd_even_sort"; "heat" ]
  in
  let jobs =
    List.map (fun name -> mk name) good
    @ [
        mk ~fuel:5 "shortest_path_n2";
        Ucd.Job.make ~name:"unparsable" ~source:"int x" ();
      ]
  in
  let cache = Ucd.Cache.create () in
  let results =
    Ucd.Runner.run_jobs ~domains:3 ~queue_bound:2 ~cache jobs
  in
  Alcotest.(check int) "one result per job" (List.length jobs)
    (List.length results);
  List.iteri
    (fun i (r : Ucd.Report.result) ->
      Alcotest.(check string)
        (Printf.sprintf "result %d in submission order" i)
        (List.nth jobs i).Ucd.Job.name r.Ucd.Report.job_name)
    results;
  List.iteri
    (fun i (r : Ucd.Report.result) ->
      if i < List.length good then
        match r.Ucd.Report.status with
        | Ucd.Report.Done -> ()
        | Ucd.Report.Failed m ->
            Alcotest.fail (Printf.sprintf "%s failed: %s" r.Ucd.Report.job_name m)
        | Ucd.Report.Timeout _ ->
            Alcotest.fail (r.Ucd.Report.job_name ^ " timed out")
        | Ucd.Report.Faulted m ->
            Alcotest.fail
              (Printf.sprintf "%s faulted: %s" r.Ucd.Report.job_name m))
    results;
  (match (List.nth results (List.length good)).Ucd.Report.status with
  | Ucd.Report.Failed msg ->
      Alcotest.(check bool)
        ("fuel failure mentions fuel: " ^ msg)
        true
        (Astring.String.is_infix ~affix:"fuel" msg)
  | _ -> Alcotest.fail "fuel-starved job should fail");
  (match (List.nth results (List.length good + 1)).Ucd.Report.status with
  | Ucd.Report.Failed _ -> ()
  | _ -> Alcotest.fail "unparsable job should fail");
  (* and the batch as a whole still summarizes *)
  let s = Ucd.Report.summarize ~elapsed:1. results in
  Alcotest.(check int) "ok count" (List.length good) s.Ucd.Report.ok;
  Alcotest.(check int) "failed count" 2 s.Ucd.Report.failed

(* ---- robustness: retries, quarantine, resume, deadlines ---- *)

let test_retry_recovers () =
  (* a transient chip fault armed only for attempt 0: the retry runs a
     clean plan and must finish *)
  let cache = Ucd.Cache.create () in
  let job = mk ~faults:(fault_spec "chip@5#0") ~retries:1 "reductions" in
  let r =
    Ucd.Runner.run_job ~policy:fast_policy ~cache job
  in
  (match r.Ucd.Report.status with
  | Ucd.Report.Done -> ()
  | _ -> Alcotest.fail "retry should recover from an attempt-0 fault");
  Alcotest.(check int) "two attempts" 2 r.Ucd.Report.attempts;
  Alcotest.(check int) "one fault in the trace" 1
    (List.length r.Ucd.Report.fault_trace);
  Alcotest.(check bool) "trace names the chip" true
    (Astring.String.is_infix ~affix:"chip"
       (List.hd r.Ucd.Report.fault_trace));
  (* fault-bearing jobs are policy-dependent, so they are never cached *)
  let r2 = Ucd.Runner.run_job ~policy:fast_policy ~cache job in
  Alcotest.(check bool) "faulty job recomputed, not cached" false
    r2.Ucd.Report.from_cache

let test_quarantine_after_retries () =
  (* a hard transient fault (no attempt qualifier) re-fires on every
     attempt: the job must be quarantined, not loop or kill the pool *)
  let cache = Ucd.Cache.create () in
  let policy = { fast_policy with Ucd.Runner.retries = 2 } in
  let jobs =
    [ mk ~faults:(fault_spec "chip@5") "reductions"; mk "quickstart" ]
  in
  let results = Ucd.Runner.run_jobs ~domains:2 ~policy ~cache jobs in
  let faulty = List.nth results 0 and clean = List.nth results 1 in
  (match faulty.Ucd.Report.status with
  | Ucd.Report.Faulted msg ->
      Alcotest.(check bool) "quarantine message mentions the fault" true
        (Astring.String.is_infix ~affix:"transient chip fault" msg)
  | _ -> Alcotest.fail "hard fault should quarantine the job");
  Alcotest.(check int) "all three attempts were made" 3
    faulty.Ucd.Report.attempts;
  Alcotest.(check int) "every attempt left a trace entry" 3
    (List.length faulty.Ucd.Report.fault_trace);
  (match clean.Ucd.Report.status with
  | Ucd.Report.Done -> ()
  | _ -> Alcotest.fail "neighbour job must survive the quarantined one");
  let s = Ucd.Report.summarize ~elapsed:1. results in
  Alcotest.(check int) "summary counts the quarantine" 1 s.Ucd.Report.faulted

let test_resume_is_deterministic () =
  (* fault an attempt-0 run in its Nth slice; the retry resumes from the
     last checkpoint and must produce the bit-identical result of a
     fault-free run *)
  let name = "reductions" in
  let t = Uc.Compile.run_source ~seed:12345 (corpus name) in
  let icount = Cm.Machine.icount t.Uc.Compile.machine in
  Alcotest.(check bool) "program is long enough to slice" true (icount > 20);
  let slice = max 1 (icount / 5) in
  let spec =
    fault_spec (Printf.sprintf "chip@%d#0" (max 1 (icount / 2)))
  in
  let run ~resume =
    let policy =
      { fast_policy with Ucd.Runner.retries = 1; fuel_slice = slice; resume }
    in
    Ucd.Runner.run_job ~policy
      ~cache:(Ucd.Cache.create ())
      (mk ~faults:spec ~retries:1 name)
  in
  let clean =
    Ucd.Runner.run_job ~cache:(Ucd.Cache.create ()) (mk name)
  in
  List.iter
    (fun (label, r) ->
      (match r.Ucd.Report.status with
      | Ucd.Report.Done -> ()
      | _ -> Alcotest.fail (label ^ ": retry should finish"));
      Alcotest.(check int) (label ^ ": two attempts") 2 r.Ucd.Report.attempts;
      Alcotest.(check (float 0.)) (label ^ ": simulated time matches clean run")
        clean.Ucd.Report.simulated_seconds r.Ucd.Report.simulated_seconds;
      Alcotest.(check (list string)) (label ^ ": output matches clean run")
        clean.Ucd.Report.output r.Ucd.Report.output)
    [ ("resume", run ~resume:true); ("replay", run ~resume:false) ]

let test_deadline_enforced_in_flight () =
  (* regression: the deadline used to be checked only after the run
     finished, so a long job held its worker for the full run.  Now a
     0-second deadline must abort before any slice completes. *)
  let cache = Ucd.Cache.create () in
  let r = Ucd.Runner.run_job ~cache (mk ~deadline:0. "matmul") in
  (match r.Ucd.Report.status with
  | Ucd.Report.Timeout limit -> Alcotest.(check (float 0.)) "limit" 0. limit
  | _ -> Alcotest.fail "0-second deadline must time out");
  let full = Ucd.Runner.run_job ~cache:(Ucd.Cache.create ()) (mk "matmul") in
  Alcotest.(check bool) "aborted before finishing (partial simulated time)" true
    (r.Ucd.Report.simulated_seconds < full.Ucd.Report.simulated_seconds);
  Alcotest.(check (list string)) "no output from the aborted run" []
    r.Ucd.Report.output

(* ---- robustness: disk-cache corruption ---- *)

let with_temp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucd_corrupt_%d_%f" (Unix.getpid ()) (Unix.gettimeofday ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir && Sys.is_directory dir then begin
        Array.iter
          (fun f -> try Sys.remove (Filename.concat dir f) with _ -> ())
          (Sys.readdir dir);
        try Unix.rmdir dir with _ -> ()
      end)
    (fun () -> f dir)

let test_corrupt_artifact_recovery () =
  with_temp_dir (fun dir ->
      let job = mk "quickstart" in
      let r1 = run_one (Ucd.Cache.create ~dir ()) job in
      (match r1.Ucd.Report.status with
      | Ucd.Report.Done -> ()
      | _ -> Alcotest.fail "seed run should succeed");
      let artifact =
        Filename.concat dir (Ucd.Job.digest job ^ ".ucd")
      in
      Alcotest.(check bool) "artifact persisted" true (Sys.file_exists artifact);
      (* truncate it mid-payload, as a crash during write-out would *)
      let n = (Unix.stat artifact).Unix.st_size in
      let fd = Unix.openfile artifact [ Unix.O_WRONLY ] 0 in
      Unix.ftruncate fd (n / 2);
      Unix.close fd;
      (* a fresh sweep must recover: quarantine, recompute, re-persist *)
      let cache = Ucd.Cache.create ~dir () in
      let r2 = run_one cache job in
      (match r2.Ucd.Report.status with
      | Ucd.Report.Done -> ()
      | _ -> Alcotest.fail "sweep over a corrupt cache should recompute");
      Alcotest.(check bool) "corrupt artifact is not served" false
        r2.Ucd.Report.from_cache;
      Alcotest.(check string) "recomputed result is canonical-identical"
        (Ucd.Report.canonical_json r1)
        (Ucd.Report.canonical_json r2);
      let stats = Ucd.Cache.stats cache in
      Alcotest.(check int) "corruption counted" 1 stats.Ucd.Cache.corruptions;
      Alcotest.(check bool) "evidence quarantined to .corrupt" true
        (Sys.file_exists
           (Filename.concat dir (Ucd.Job.digest job ^ ".corrupt")));
      Alcotest.(check bool) "slot rewritten with a good artifact" true
        (Sys.file_exists artifact);
      (* and the rewritten artifact round-trips for a third instance *)
      let r3 = run_one (Ucd.Cache.create ~dir ()) job in
      Alcotest.(check bool) "rewritten artifact hits" true
        r3.Ucd.Report.from_cache)

let test_write_failure_degrades () =
  (* point the cache at a "directory" that is actually a file: every
     artifact write fails, the run must still succeed and be counted *)
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "ucd_notadir_%d" (Unix.getpid ()))
  in
  let oc = open_out path in
  output_string oc "not a directory";
  close_out oc;
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () ->
      let cache = Ucd.Cache.create ~dir:path () in
      let r = run_one cache (mk "quickstart") in
      (match r.Ucd.Report.status with
      | Ucd.Report.Done -> ()
      | _ -> Alcotest.fail "run must succeed even when persistence fails");
      let stats = Ucd.Cache.stats cache in
      Alcotest.(check bool) "write failure counted" true
        (stats.Ucd.Cache.write_failures >= 1);
      (* the memory layer still serves it *)
      let r2 = run_one cache (mk "quickstart") in
      Alcotest.(check bool) "memory cache still works" true
        r2.Ucd.Report.from_cache)

(* ---- report JSON ---- *)

let test_json_shapes () =
  let cache = Ucd.Cache.create () in
  let r = run_one cache (mk "quickstart") in
  let line = Ucd.Report.json_line r in
  Alcotest.(check bool) "json line has cache provenance" true
    (Astring.String.is_infix ~affix:"\"cache\":\"miss\"" line);
  Alcotest.(check bool) "canonical json omits wall time" false
    (Astring.String.is_infix ~affix:"wall_seconds"
       (Ucd.Report.canonical_json r));
  let s = Ucd.Report.summarize ~elapsed:0.5 [ r ] in
  Alcotest.(check bool) "summary json marks itself" true
    (Astring.String.is_infix ~affix:"\"summary\":true"
       (Ucd.Report.json_of_summary s))

let () =
  Alcotest.run "ucd"
    [
      ( "job",
        [
          Alcotest.test_case "digest identity" `Quick test_digest_identity;
          QCheck_alcotest.to_alcotest qcheck_digest_permutation;
        ] );
      ( "cache",
        [
          Alcotest.test_case "memory determinism" `Quick
            test_memory_cache_determinism;
          Alcotest.test_case "disk determinism" `Quick
            test_disk_cache_determinism;
          Alcotest.test_case "timeouts are not cached" `Quick
            test_timeout_not_cached;
        ] );
      ( "pool",
        [
          Alcotest.test_case "map preserves order" `Quick test_pool_map_order;
          Alcotest.test_case "exception isolation" `Quick
            test_pool_isolates_exceptions;
          Alcotest.test_case "stress with faults" `Quick test_pool_stress;
        ] );
      ( "robustness",
        [
          Alcotest.test_case "retry recovers" `Quick test_retry_recovers;
          Alcotest.test_case "quarantine after retries" `Quick
            test_quarantine_after_retries;
          Alcotest.test_case "resume is deterministic" `Quick
            test_resume_is_deterministic;
          Alcotest.test_case "deadline enforced in flight" `Quick
            test_deadline_enforced_in_flight;
          Alcotest.test_case "corrupt artifact recovery" `Quick
            test_corrupt_artifact_recovery;
          Alcotest.test_case "write failure degrades gracefully" `Quick
            test_write_failure_degrades;
        ] );
      ( "report",
        [ Alcotest.test_case "json shapes" `Quick test_json_shapes ] );
    ]
