(* Differential tests: every corpus program is executed both by the
   reference interpreter and compiled through the Paris backend on the
   simulated CM; results must match exactly (both use the same LCG). *)

let check = Alcotest.check
let ints = Alcotest.array Alcotest.int

let interp_run src =
  let prog = Uc.Parser.parse_program src in
  ignore (Uc.Sema.check prog);
  Uc.Interp.run prog

let machine_run ?options src = Uc.Compile.run_source ?options src

let float_arrays_equal name a b =
  check Alcotest.int (name ^ " length") (Array.length a) (Array.length b);
  Array.iteri
    (fun i x ->
      check (Alcotest.float 1e-9) (Printf.sprintf "%s[%d]" name i) x b.(i))
    a

(* compare one program's global arrays across both executions *)
let differential ?options ~arrays ?(float_arrays = []) ?(scalars = [])
    ?(float_scalars = []) src () =
  let ir = interp_run src in
  let mr = machine_run ?options src in
  List.iter
    (fun name ->
      check ints name (Uc.Interp.int_array ir name) (Uc.Compile.int_array mr name))
    arrays;
  List.iter
    (fun name ->
      float_arrays_equal name
        (Uc.Interp.float_array ir name)
        (Uc.Compile.float_array mr name))
    float_arrays;
  List.iter
    (fun name ->
      let iv =
        match Uc.Interp.scalar ir name with
        | Uc.Interp.Vint i -> i
        | Uc.Interp.Vfloat _ -> Alcotest.fail (name ^ " is a float")
      in
      let mv =
        match Uc.Compile.scalar mr name with
        | Cm.Paris.SInt i -> i
        | Cm.Paris.SFloat _ -> Alcotest.fail (name ^ " compiled to a float")
      in
      check Alcotest.int name iv mv)
    scalars;
  List.iter
    (fun name ->
      let iv =
        match Uc.Interp.scalar ir name with
        | Uc.Interp.Vfloat f -> f
        | Uc.Interp.Vint i -> float_of_int i
      in
      let mv =
        match Uc.Compile.scalar mr name with
        | Cm.Paris.SFloat f -> f
        | Cm.Paris.SInt i -> float_of_int i
      in
      check (Alcotest.float 1e-9) name iv mv)
    float_scalars

open Uc_programs.Programs

let case name f = Alcotest.test_case name `Quick f

let corpus_cases =
  [
    case "reductions"
      (differential (reductions ~n:10) ~arrays:[ "a" ]
         ~scalars:[ "s"; "mn"; "first"; "arb"; "last" ]
         ~float_scalars:[ "avg" ]);
    case "abs_sum"
      (differential (abs_sum ~n:8) ~arrays:[ "a" ] ~scalars:[ "abs_sum" ]);
    case "matmul"
      (differential (matmul ~n:6) ~arrays:[ "a"; "b"; "c" ]);
    case "reciprocal"
      (differential (reciprocal ~n:8) ~arrays:[] ~float_arrays:[ "a" ]);
    case "odd_even_flags"
      (differential (odd_even_flags ~n:9) ~arrays:[ "a" ]);
    case "ranksort" (differential (ranksort ~n:16) ~arrays:[ "a" ]);
    case "prefix_sums"
      (differential (prefix_sums ~n:16) ~arrays:[ "a"; "cnt" ]);
    case "partial_sums_seq"
      (differential (partial_sums_seq ~n:16) ~arrays:[ "a" ]);
    case "shortest_path_n2 (deterministic)"
      (differential (shortest_path_n2 ~n:6 ()) ~arrays:[ "d" ]);
    case "shortest_path_n2 (random)"
      (differential (shortest_path_n2 ~deterministic:false ~n:6 ()) ~arrays:[ "d" ]);
    case "shortest_path_n3 (deterministic)"
      (differential (shortest_path_n3 ~n:6 ()) ~arrays:[ "d" ]);
    case "shortest_path_n3 (random)"
      (differential (shortest_path_n3 ~deterministic:false ~n:6 ()) ~arrays:[ "d" ]);
    case "shortest_path_solve"
      (differential (shortest_path_solve ~n:5 ()) ~arrays:[ "d" ]);
    case "wavefront" (differential (wavefront ~n:7) ~arrays:[ "a" ]);
    case "odd_even_sort" (differential (odd_even_sort ~n:12) ~arrays:[ "x" ]);
    case "digit_count"
      (differential (digit_count ~n:24) ~arrays:[ "samples"; "count" ]);
    case "digit_count_det"
      (differential (digit_count_det ~n:24) ~arrays:[ "samples"; "count" ]);
    (* the deterministic histogram against its host oracle: both the
       interpreter and the machine must produce the predicted counts,
       not merely agree with each other *)
    case "digit_count_det oracle" (fun () ->
        let n = 24 in
        let samples, counts = digit_count_oracle ~n in
        let src = digit_count_det ~n in
        let ir = interp_run src in
        check ints "oracle samples (interp)" samples
          (Uc.Interp.int_array ir "samples");
        check ints "oracle counts (interp)" counts
          (Uc.Interp.int_array ir "count");
        let mr = machine_run src in
        check ints "oracle samples (machine)" samples
          (Uc.Compile.int_array mr "samples");
        check ints "oracle counts (machine)" counts
          (Uc.Compile.int_array mr "count"));
    case "obstacle_grid" (differential (obstacle_grid ~n:10) ~arrays:[ "d" ]);
    case "stencil" (differential (stencil ~n:16 ~steps:4 ()) ~arrays:[ "a"; "b" ]);
    case "stencil_mapped"
      (differential (stencil ~mapped:true ~n:16 ~steps:4 ()) ~arrays:[ "a"; "b" ]);
  ]

(* the same corpus with each optimization disabled: results must not move *)
let option_variation name options =
  case name (fun () ->
      List.iter
        (fun (pname, src) ->
          match pname with
          | "quickstart" -> ()  (* exercised separately for output *)
          | _ ->
              let ir = interp_run src in
              let mr = machine_run ~options src in
              (* compare the arrays sema knows about *)
              let prog = Uc.Parser.parse_program src in
              let info = Uc.Sema.check prog in
              List.iter
                (fun (aname, ai) ->
                  match ai.Uc.Sema.aty with
                  | Uc.Ast.Tint ->
                      check ints
                        (pname ^ "." ^ aname)
                        (Uc.Interp.int_array ir aname)
                        (Uc.Compile.int_array mr aname)
                  | Uc.Ast.Tfloat ->
                      float_arrays_equal (pname ^ "." ^ aname)
                        (Uc.Interp.float_array ir aname)
                        (Uc.Compile.float_array mr aname))
                info.Uc.Sema.global_arrays)
        all_named)

let option_cases =
  [
    option_variation "no news optimization"
      { Uc.Codegen.default_options with news_opt = false };
    option_variation "no processor optimization"
      { Uc.Codegen.default_options with procopt = false };
    option_variation "mappings ignored"
      { Uc.Codegen.default_options with use_mappings = false };
    option_variation "no cse"
      { Uc.Codegen.default_options with cse = false };
    option_variation "no ir-opt"
      { Uc.Codegen.default_options with ir_opt = Cm.Iropt.off };
    option_variation "all optimizations off"
      { Uc.Codegen.news_opt = false; procopt = false; use_mappings = false;
        cse = false; ir_opt = Cm.Iropt.off };
  ]

(* ---------------- output and errors ---------------- *)

let test_quickstart_output () =
  let mr = machine_run quickstart in
  check
    (Alcotest.list Alcotest.string)
    "print output"
    [ "sum of squares 0..9 = 285"; "largest square = 81" ]
    (Uc.Compile.output mr)

let test_conflict_detected () =
  let src =
    {|
index-set I:i = {0..3}, J:j = I;
int a[4], b[4];
void main() {
  par (J) b[j] = j;
  par (I, J) a[i] = b[j];
}
|}
  in
  try
    ignore (machine_run src);
    Alcotest.fail "expected a conflict"
  with Cm.Machine.Error msg ->
    check Alcotest.bool "mentions conflict" true
      (String.length msg >= 28 && String.sub msg 0 28 = "parallel assignment conflict")

let test_elapsed_time_positive () =
  let mr = machine_run (matmul ~n:6) in
  check Alcotest.bool "time advanced" true (Uc.Compile.elapsed_seconds mr > 0.0)

(* a shift amount outside 0..int_size-1 is a fault with the same message
   on the oracle and on the machine, on the front end and on the PEs *)
let test_shift_faults_agree () =
  let fault name body =
    let src =
      Printf.sprintf
        "index-set I:i = {0..7};\nint x, k, b[8];\nvoid main() { %s; }\n" body
    in
    let interp =
      match interp_run src with
      | _ -> "no fault"
      | exception Uc.Interp.Runtime_error m -> m
    in
    let machine =
      match machine_run src with
      | _ -> "no fault"
      | exception Cm.Paris.Program_error m -> m
    in
    check Alcotest.string (name ^ ": interp") interp machine;
    check Alcotest.bool (name ^ ": faults") true (interp <> "no fault")
  in
  fault "1 << 70" "k = 70; x = 1 << k";
  fault "1 >> -1" "k = -1; x = 1 >> k";
  fault "power2(70)" "k = 70; x = power2(k)";
  fault "power2(-1) on the PEs" "k = -1; par (I) b[i] = power2(i + k)";
  fault "<< 63 on the PEs" "par (I) b[i] = 1 << (i + 60)"

(* ---------------- optimization effects on cost ---------------- *)

let router_ops options src =
  let mr = machine_run ~options src in
  (Uc.Compile.meter mr).Cm.Cost.router_ops

let test_mapping_reduces_router_traffic () =
  (* with the permute mapping the stencil's b[i+1] becomes local *)
  let opts = { Uc.Codegen.default_options with news_opt = false } in
  let unmapped = router_ops opts (stencil ~n:64 ~steps:8 ()) in
  let mapped = router_ops opts (stencil ~mapped:true ~n:64 ~steps:8 ()) in
  check Alcotest.bool
    (Printf.sprintf "mapped %d < unmapped %d" mapped unmapped)
    true (mapped < unmapped)

let test_news_cheaper_than_router () =
  let src = stencil ~n:64 ~steps:8 () in
  let with_news =
    machine_run ~options:{ Uc.Codegen.default_options with news_opt = true } src
  in
  let without =
    machine_run ~options:{ Uc.Codegen.default_options with news_opt = false } src
  in
  check Alcotest.bool "news used" true
    ((Uc.Compile.meter with_news).Cm.Cost.news_ops > 0);
  check Alcotest.bool "faster with news" true
    (Uc.Compile.elapsed_seconds with_news < Uc.Compile.elapsed_seconds without)

let test_procopt_speeds_up_histogram () =
  let src = digit_count ~n:512 in
  let fast =
    machine_run ~options:{ Uc.Codegen.default_options with procopt = true } src
  in
  let slow =
    machine_run ~options:{ Uc.Codegen.default_options with procopt = false } src
  in
  check ints "same counts" (Uc.Compile.int_array slow "count")
    (Uc.Compile.int_array fast "count");
  check Alcotest.bool "procopt faster" true
    (Uc.Compile.elapsed_seconds fast < Uc.Compile.elapsed_seconds slow)

let test_solve_slower_than_par () =
  (* paper section 3.6: *par refined by hand beats *solve *)
  let n = 6 in
  let solve = machine_run (shortest_path_solve ~n ()) in
  let par = machine_run (shortest_path_n3 ~n ()) in
  check ints "same distances" (Uc.Compile.int_array par "d")
    (Uc.Compile.int_array solve "d");
  check Alcotest.bool "solve dearer" true
    (Uc.Compile.elapsed_seconds solve > Uc.Compile.elapsed_seconds par)

let test_paris_dump_nonempty () =
  let compiled = Uc.Compile.compile_source (matmul ~n:4) in
  let s = Format.asprintf "%a" Cm.Paris.pp_program compiled.Uc.Codegen.prog in
  check Alcotest.bool "has instructions" true (String.length s > 200)

(* appended: Jacobi heat diffusion (floats + 2-D NEWS stencil) *)

let test_heat_matches_reference () =
  let n = 12 and steps = 10 in
  let mr = machine_run (Uc_programs.Programs.heat ~steps ~n ()) in
  (* reference Jacobi in OCaml, same operation order *)
  let u = Array.init n (fun x -> Array.init n (fun y ->
      if x = 0 || y = 0 || x = n - 1 || y = n - 1 then float_of_int (x + y)
      else 0.0)) in
  let unew = Array.map Array.copy u in
  for _ = 1 to steps do
    for x = 1 to n - 2 do
      for y = 1 to n - 2 do
        unew.(x).(y) <-
          0.25 *. (u.(x - 1).(y) +. (u.(x + 1).(y) +. (u.(x).(y - 1) +. u.(x).(y + 1))))
      done
    done;
    for x = 0 to n - 1 do
      for y = 0 to n - 1 do
        u.(x).(y) <- unew.(x).(y)
      done
    done
  done;
  let got = Uc.Compile.float_array mr "u" in
  Array.iteri
    (fun p v ->
      check (Alcotest.float 1e-9) (Printf.sprintf "u[%d]" p)
        u.(p / n).(p mod n) v)
    got

let test_heat_uses_news () =
  let mr = machine_run (Uc_programs.Programs.heat ~steps:4 ~n:16 ()) in
  (* the four neighbour reads on the interior set are statically safe unit
     shifts: the compiler must use the NEWS grid, not the router *)
  check Alcotest.bool "news used" true ((Uc.Compile.meter mr).Cm.Cost.news_ops > 0)

(* appended: float reductions inside parallel constructs *)

let test_float_reduction_in_par () =
  let src =
    {|
#define N 6
index-set I:i = {0..N-1}, J:j = I;
float m[N][N], rowsum[N], rowmin[N];

void main() {
  par (I, J) m[i][j] = tofloat(i * N + j) / 2.0;
  par (I) {
    rowsum[i] = $+(J; m[i][j]);
    rowmin[i] = $<(J; m[i][j]);
  }
}
|}
  in
  let ir = interp_run src in
  let mr = machine_run src in
  float_arrays_equal "rowsum" (Uc.Interp.float_array ir "rowsum")
    (Uc.Compile.float_array mr "rowsum");
  float_arrays_equal "rowmin" (Uc.Interp.float_array ir "rowmin")
    (Uc.Compile.float_array mr "rowmin");
  (* spot-check against arithmetic: row i sums (iN)...(iN+N-1) over 2 *)
  let n = 6 in
  Array.iteri
    (fun i v ->
      let expect =
        float_of_int ((n * ((i * n * 2) + n - 1)) ) /. 4.0
      in
      check (Alcotest.float 1e-9) (Printf.sprintf "rowsum[%d]" i) expect v)
    (Uc.Compile.float_array mr "rowsum")

let test_mixed_int_float_reduction () =
  (* a reduction whose branches mix int and float promotes to float *)
  let src =
    {|
#define N 8
index-set I:i = {0..N-1};
float out;

void main() {
  out = $+(I st (i % 2 == 0) tofloat(i) others 1);
}
|}
  in
  let ir = interp_run src in
  let mr = machine_run src in
  let iv =
    match Uc.Interp.scalar ir "out" with
    | Uc.Interp.Vfloat f -> f
    | Uc.Interp.Vint n -> float_of_int n
  in
  let mv =
    match Uc.Compile.scalar mr "out" with
    | Cm.Paris.SFloat f -> f
    | Cm.Paris.SInt n -> float_of_int n
  in
  (* evens 0+2+4+6 = 12, odds contribute 1 each = 4 *)
  check (Alcotest.float 1e-9) "interp" 16.0 iv;
  check (Alcotest.float 1e-9) "machine" 16.0 mv

(* min and max of an int and a float are floats, whichever argument is
   the float: [body] computes them on the front end (reduction results)
   or on the PEs *)
let mixed_min_max body =
  Printf.sprintf
    {|
#define N 6
index-set I:i = {0..N-1}, J:j = I;
float b[N], c[N], d[N];
float lo, hi;

void main() {
  par (I) b[i] = tofloat(i) / 4.0 - 0.3;
  %s
}
|}
    body

let test_multiset_reduction () =
  (* Cartesian-product reductions, front-end and nested in par *)
  let src =
    {|
#define N 5
index-set I:i = {0..N-1}, J:j = I, K:k = {0..2};
int m[N][N], total, per_k[3];

void main() {
  par (I, J) m[i][j] = i * 10 + j;
  total = $+(I, J st (i <= j) m[i][j]);
  par (K)
    per_k[k] = $>(I, J st ((i + j) % 3 == k) m[i][j]);
}
|}
  in
  let ir = interp_run src in
  let mr = machine_run src in
  (match Uc.Interp.scalar ir "total", Uc.Compile.scalar mr "total" with
  | Uc.Interp.Vint a, Cm.Paris.SInt b ->
      check Alcotest.int "total agrees" a b;
      (* reference: sum over upper triangle of 10i + j *)
      let expect = ref 0 in
      for i = 0 to 4 do
        for j = i to 4 do
          expect := !expect + (10 * i) + j
        done
      done;
      check Alcotest.int "total reference" !expect b
  | _ -> Alcotest.fail "total kinds");
  check ints "per_k" (Uc.Interp.int_array ir "per_k")
    (Uc.Compile.int_array mr "per_k")

let test_profile_regions () =
  let mr = machine_run (Uc_programs.Programs.obstacle_grid ~n:12) in
  let regions = Cm.Machine.regions mr.Uc.Compile.machine in
  check Alcotest.bool "regions recorded" true (List.length regions >= 2);
  let total = List.fold_left (fun acc (_, s) -> acc +. s) 0.0 regions in
  check (Alcotest.float 1e-9) "regions partition the elapsed time"
    (Uc.Compile.elapsed_seconds mr) total;
  (* the iterative relaxation dominates the init *)
  (match regions with
  | (top, _) :: _ ->
      check Alcotest.bool "dominant region is a source line" true
        (String.length top > 5 && String.sub top 0 5 = "line ")
  | [] -> Alcotest.fail "no regions")

let () =
  Alcotest.run "codegen"
    [
      ("differential", corpus_cases);
      ("option variations", option_cases);
      ( "behaviour",
        [
          case "quickstart output" test_quickstart_output;
          case "conflict detected" test_conflict_detected;
          case "elapsed positive" test_elapsed_time_positive;
          case "shift faults agree" test_shift_faults_agree;
          (* the shift would fault where the guard is false: it must not
             be evaluated flat there *)
          case "guarded shift"
            (differential ~arrays:[ "b"; "c" ]
               "index-set I:i = {0..7};\n\
                int b[8], c[8];\n\
                void main() {\n\
               \  par (I) b[i] = (i < 3) ? (1 << (i + 60)) : 0;\n\
               \  par (I) c[i] = (i > 4) && power2(70 - i * 2) > 0;\n\
                }\n");
        ] );
      ( "heat",
        [
          case "matches reference" test_heat_matches_reference;
          case "uses NEWS" test_heat_uses_news;
        ] );
      ( "reductions",
        [ case "multi-set Cartesian" test_multiset_reduction ] );
      ( "profile",
        [ case "regions partition time" test_profile_regions ] );
      ( "float reductions",
        [
          case "rows in par" test_float_reduction_in_par;
          case "mixed promotion" test_mixed_int_float_reduction;
          case "min/max kind, front end"
            (differential ~arrays:[] ~float_scalars:[ "lo"; "hi" ]
               (mixed_min_max
                  "lo = $+(I; min(1, b[i]));\n\
                  \  hi = $+(I; max(i, b[i]) + min(b[i], 2));"));
          case "min/max kind, PEs"
            (differential ~arrays:[] ~float_arrays:[ "c"; "d" ]
               (mixed_min_max
                  "par (I) {\n\
                  \    c[i] = max(1, b[i]) + min(i, b[i] * 3.0);\n\
                  \    d[i] = $+(J; max(j, b[i]));\n\
                  \  }"));
        ] );
      ( "optimizations",
        [
          case "mapping cuts router traffic" test_mapping_reduces_router_traffic;
          case "news beats router" test_news_cheaper_than_router;
          case "procopt speeds histogram" test_procopt_speeds_up_histogram;
          case "*solve dearer than *par" test_solve_slower_than_par;
          case "paris dump" test_paris_dump_nonempty;
        ] );
    ]


