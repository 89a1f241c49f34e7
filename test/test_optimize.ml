(* The constant folder and the transformation pipeline: folding must be a
   semantic no-op, and transformed programs must behave like the originals. *)

let check = Alcotest.check
let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let fold_str s = Uc.Pretty.expr_to_string (Uc.Optimize.fold_expr (Uc.Parser.parse_expr s))

let test_fold_constants () =
  check Alcotest.string "arith" "15" (fold_str "2 * 8 - 1");
  check Alcotest.string "nested" "31" (fold_str "(3 + 1) * 8 - 1 % 4");
  check Alcotest.string "power2" "32" (fold_str "power2(5)");
  check Alcotest.string "minmax" "7" (fold_str "max(min(9, 7), 3)");
  check Alcotest.string "compare" "1" (fold_str "3 < 4");
  check Alcotest.string "cond" "10" (fold_str "1 ? 10 : 20");
  check Alcotest.string "cond false" "20" (fold_str "2 > 3 ? 10 : 20");
  check Alcotest.string "shift" "12" (fold_str "3 << 2")

let test_fold_identities () =
  check Alcotest.string "x + 0" "x" (fold_str "x + 0");
  check Alcotest.string "0 + x" "x" (fold_str "0 + x");
  check Alcotest.string "x * 1" "x" (fold_str "x * 1");
  check Alcotest.string "x - 0" "x" (fold_str "x - 0");
  check Alcotest.string "x / 1" "x" (fold_str "x / 1");
  check Alcotest.string "pure x * 0" "0" (fold_str "x * 0");
  (* impure operands must not be dropped: the rand stream is observable *)
  check Alcotest.string "impure * 0 kept" "rand() * 0" (fold_str "rand() * 0")

let test_fold_short_circuit () =
  (* constant left sides fold the way C's short-circuit evaluation would *)
  check Alcotest.string "0 && rand" "0" (fold_str "0 && rand()");
  check Alcotest.string "1 || rand" "1" (fold_str "1 || rand()");
  check Alcotest.string "1 && x" "x != 0" (fold_str "1 && x");
  check Alcotest.string "0 || x" "x != 0" (fold_str "0 || x")

let test_fold_preserves_div_by_zero () =
  check Alcotest.string "div kept" "1 / 0" (fold_str "1 / 0");
  check Alcotest.string "mod kept" "1 % 0" (fold_str "1 % 0")

(* random constant expressions: folding must agree with evaluation *)
let const_expr_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then map string_of_int (int_range 0 9)
        else
          let sub = self (n / 2) in
          oneof
            [
              map string_of_int (int_range 0 20);
              map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s < %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "min(%s, %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "max(%s, %s)" a b) sub sub;
              map (fun a -> Printf.sprintf "(-%s)" a) sub;
              map3
                (fun c a b -> Printf.sprintf "(%s ? %s : %s)" c a b)
                sub sub sub;
            ]))

let fold_evaluates_constants =
  qtest "fold: random constant expressions become literals" const_expr_gen
    (fun s ->
      let e = Uc.Parser.parse_expr s in
      let folded = Uc.Optimize.fold_expr e in
      match folded.Uc.Ast.e with
      | Uc.Ast.Eint v -> v = Uc.Sema.const_eval e
      | _ -> false)

(* random expressions over a variable: folding must not change results *)
let var_expr_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then oneofl [ "x"; "0"; "1"; "2"; "7" ]
        else
          let sub = self (n / 2) in
          oneof
            [
              oneofl [ "x"; "3"; "0" ];
              map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s && %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s || %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s << (%s %% 4))" a b) sub sub;
              map (fun a -> Printf.sprintf "(!%s)" a) sub;
              map (fun a -> Printf.sprintf "abs(%s)" a) sub;
            ]))

let eval_with_x expr_src x =
  let src =
    Printf.sprintf "int r;\nvoid main() { int x; x = %d; r = %s; }" x expr_src
  in
  let prog = Uc.Parser.parse_program src in
  ignore (Uc.Sema.check prog);
  match Uc.Interp.scalar (Uc.Interp.run prog) "r" with
  | Uc.Interp.Vint v -> v
  | Uc.Interp.Vfloat f -> int_of_float f

let fold_preserves_semantics =
  qtest ~count:200 "fold: random expressions keep their value"
    QCheck2.Gen.(pair var_expr_gen (int_range (-5) 5))
    (fun (s, x) ->
      let folded =
        Uc.Pretty.expr_to_string (Uc.Optimize.fold_expr (Uc.Parser.parse_expr s))
      in
      eval_with_x s x = eval_with_x folded x)

(* compiled-vs-interpreted equality on random straight-line par programs *)
let par_expr_gen =
  QCheck2.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then oneofl [ "i"; "a[i]"; "b[i]"; "1"; "3" ]
        else
          let sub = self (n / 2) in
          oneof
            [
              oneofl [ "i"; "a[i]"; "b[i]"; "2" ];
              map2 (fun a b -> Printf.sprintf "(%s + %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s - %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s * %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "min(%s, %s)" a b) sub sub;
              map2 (fun a b -> Printf.sprintf "(%s < %s)" a b) sub sub;
              map3
                (fun c a b -> Printf.sprintf "(%s ? %s : %s)" c a b)
                sub sub sub;
            ]))

let random_par_program expr pred =
  Printf.sprintf
    {|
index-set I:i = {0..7};
int a[8], b[8], c[8];
void main() {
  par (I) { a[i] = (i * 5 + 2) %% 11; b[i] = (i * 3 + 7) %% 13; }
  par (I) st (%s) c[i] = %s;
}
|}
    pred expr

let differential_random_par =
  qtest ~count:150 "codegen: random par programs match the interpreter"
    QCheck2.Gen.(pair par_expr_gen par_expr_gen)
    (fun (expr, pred) ->
      let src = random_par_program expr pred in
      let prog = Uc.Parser.parse_program src in
      ignore (Uc.Sema.check prog);
      let ir = Uc.Interp.run prog in
      let mr = Uc.Compile.run_source src in
      Uc.Interp.int_array ir "c" = Uc.Compile.int_array mr "c")

let test_transform_removes_solve_and_calls () =
  let src =
    {|
index-set I:i = {0..3}, J:j = I;
int a[4][4];
int half(int x) { return x / 2; }
void main() {
  int y;
  y = half(10);
  solve (I, J)
    a[i][j] = (i == 0 || j == 0) ? y : a[i-1][j] + a[i][j-1];
}
|}
  in
  let prog = Uc.Parser.parse_program src in
  ignore (Uc.Sema.check prog);
  let prog' = Uc.Transform.apply prog in
  let printed = Uc.Pretty.program_to_string prog' in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  check Alcotest.bool "solve gone" false (contains printed "solve");
  (* this solve is a wavefront: it is scheduled over diagonals *)
  check Alcotest.bool "diagonal schedule" true (contains printed "__diag");
  check Alcotest.bool "half() call gone" false (contains printed "half(");
  check Alcotest.bool "only main survives" false (contains printed "int half")

let test_unschedulable_solve_uses_fixpoint () =
  (* a self-dependency with non-negative diagonal sum cannot be scheduled *)
  let src =
    {|
index-set I:i = {0..3}, J:j = I;
int a[4][4];
void main() {
  solve (I, J)
    a[i][j] = (j == 0) ? i : a[i][j-1] + ((i < 3) ? a[i+1][j-1] : 0);
}
|}
  in
  let prog = Uc.Parser.parse_program src in
  ignore (Uc.Sema.check prog);
  let printed = Uc.Pretty.program_to_string (Uc.Transform.apply prog) in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  (* deps (0,-1) and (+1,-1): the second sums to 0, so the general
     guarded-*par method must be used *)
  check Alcotest.bool "fixpoint form" true (contains printed "*par");
  check Alcotest.bool "no diagonal schedule" false (contains printed "__diag")

let test_transform_early_return_rejected () =
  let src =
    {|
int f(int x) {
  if (x > 0) return 1;
  return 2;
}
int r;
void main() { r = f(3); }
|}
  in
  let prog = Uc.Parser.parse_program src in
  ignore (Uc.Sema.check prog);
  try
    ignore (Uc.Transform.apply prog);
    Alcotest.fail "expected early-return rejection"
  with Uc.Loc.Error (_, msg) ->
    check Alcotest.bool "mentions return" true
      (String.length msg > 0 &&
       (let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        contains msg "return"))

let test_scheduled_solve_equals_fixpoint () =
  (* both translations of the wavefront reach the unique solution *)
  let src = Uc_programs.Programs.wavefront ~n:9 in
  let run ~schedule =
    let prog = Uc.Parser.parse_program src in
    ignore (Uc.Sema.check prog);
    let prog = Uc.Transform.apply ~schedule_solve:schedule prog in
    let prog = Uc.Optimize.fold_program prog in
    let compiled = Uc.Codegen.compile prog in
    let m = Cm.Machine.create compiled.Uc.Codegen.prog in
    Cm.Machine.run m;
    let meta = List.assoc "a" compiled.Uc.Codegen.carrays in
    Cm.Machine.field_ints m meta.Uc.Codegen.afield
  in
  check
    (Alcotest.array Alcotest.int)
    "identical solutions" (run ~schedule:false) (run ~schedule:true)

let test_chained_alias_scheduled () =
  (* J aliases K, which aliases I: the wavefront over (I, J) is scheduled
     over diagonals exactly as it is with J:j = I *)
  let direct = Uc_programs.Programs.wavefront ~n:7 in
  let chained =
    Astring.String.cuts ~sep:"J:j = I;" direct
    |> String.concat "K:k = I, J:j = K;"
  in
  check Alcotest.bool "chained declaration" true (chained <> direct);
  let transformed src =
    let prog = Uc.Parser.parse_program src in
    ignore (Uc.Sema.check prog);
    Uc.Transform.apply prog
  in
  check Alcotest.bool "diagonal schedule" true
    (Astring.String.is_infix ~affix:"__diag"
       (Uc.Pretty.program_to_string (transformed chained)));
  let code src = (Uc.Compile.compile_source src).Uc.Codegen.prog.code in
  check Alcotest.bool "same program as a direct alias" true
    (code chained = code direct)

let test_cse_reduces_router_gets () =
  (* the O(N^2) shortest path evaluates d[i][k]+d[k][j] in both the
     predicate and the body; CSE must fetch each operand once *)
  let src = Uc_programs.Programs.shortest_path_n2 ~n:8 () in
  let with_cse = Uc.Compile.run_source src in
  let without =
    Uc.Compile.run_source
      ~options:{ Uc.Codegen.default_options with cse = false }
      src
  in
  check ( Alcotest.array Alcotest.int) "same distances"
    (Uc.Compile.int_array without "d")
    (Uc.Compile.int_array with_cse "d");
  let ops t = (Uc.Compile.meter t).Cm.Cost.router_ops in
  check Alcotest.bool
    (Printf.sprintf "router ops %d < %d" (ops with_cse) (ops without))
    true
    (ops with_cse < ops without);
  check Alcotest.bool "faster" true
    (Uc.Compile.elapsed_seconds with_cse < Uc.Compile.elapsed_seconds without)

let () =
  Alcotest.run "optimize"
    [
      ( "constant folding",
        [
          Alcotest.test_case "constants" `Quick test_fold_constants;
          Alcotest.test_case "identities" `Quick test_fold_identities;
          Alcotest.test_case "short circuit" `Quick test_fold_short_circuit;
          Alcotest.test_case "div by zero kept" `Quick test_fold_preserves_div_by_zero;
          fold_evaluates_constants;
          fold_preserves_semantics;
        ] );
      ( "transform",
        [
          Alcotest.test_case "solve and calls eliminated" `Quick
            test_transform_removes_solve_and_calls;
          Alcotest.test_case "unschedulable solve" `Quick
            test_unschedulable_solve_uses_fixpoint;
          Alcotest.test_case "schedule = fixpoint" `Quick
            test_scheduled_solve_equals_fixpoint;
          Alcotest.test_case "early return rejected" `Quick
            test_transform_early_return_rejected;
          Alcotest.test_case "chained alias scheduled" `Quick
            test_chained_alias_scheduled;
        ] );
      ( "cse",
        [ Alcotest.test_case "fewer router gets" `Quick test_cse_reduces_router_gets ] );
      ( "random programs",
        [ differential_random_par ] );
    ]
