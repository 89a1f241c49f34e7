(* Tests for the UC front end: lexer, parser, pretty-printer, sema. *)

let check = Alcotest.check

let tokens src = Array.to_list (Array.map fst (Uc.Lexer.tokenize src))

open Uc.Token

(* ---------------- lexer ---------------- *)

let test_lex_basic () =
  check Alcotest.int "count" 6 (List.length (tokens "int a = 3;"));
  match tokens "int a = 3;" with
  | [ KW_INT; IDENT "a"; ASSIGN; INT 3; SEMI; EOF ] -> ()
  | _ -> Alcotest.fail "unexpected tokens"

let test_lex_range () =
  (* "0..9" must not lex 0. as a float *)
  match tokens "{0..9}" with
  | [ LBRACE; INT 0; DOTDOT; INT 9; RBRACE; EOF ] -> ()
  | _ -> Alcotest.fail "range tokens wrong"

let test_lex_index_set () =
  (match tokens "index-set I" with
  | [ KW_INDEXSET; IDENT "I"; EOF ] -> ()
  | _ -> Alcotest.fail "index-set keyword");
  (* "index - set" with spaces is not the keyword *)
  match tokens "index - set" with
  | [ IDENT "index"; MINUS; IDENT "set"; EOF ] -> ()
  | _ -> Alcotest.fail "spaced index - set"

let test_lex_reductions () =
  match tokens "$+ $& $> $< $* $| $^ $," with
  | [ RED Uc.Ast.Rsum; RED Uc.Ast.Rland; RED Uc.Ast.Rmax; RED Uc.Ast.Rmin;
      RED Uc.Ast.Rprod; RED Uc.Ast.Rlor; RED Uc.Ast.Rxor; RED Uc.Ast.Rarb; EOF ] ->
      ()
  | _ -> Alcotest.fail "reduction operators"

let test_lex_floats () =
  (match tokens "1.5 2.0e3 7" with
  | [ FLOAT 1.5; FLOAT 2000.0; INT 7; EOF ] -> ()
  | _ -> Alcotest.fail "float tokens");
  match tokens "1.0/a" with
  | [ FLOAT 1.0; SLASH; IDENT "a"; EOF ] -> ()
  | _ -> Alcotest.fail "float then slash"

let test_lex_minmax_assign () =
  match tokens "a <?= b; c >?= d; x <= y" with
  | [ IDENT "a"; MINASSIGN; IDENT "b"; SEMI; IDENT "c"; MAXASSIGN; IDENT "d";
      SEMI; IDENT "x"; LE; IDENT "y"; EOF ] ->
      ()
  | _ -> Alcotest.fail "min/max assign"

let test_lex_comments () =
  match tokens "a /* multi\nline */ b // end\nc" with
  | [ IDENT "a"; IDENT "b"; IDENT "c"; EOF ] -> ()
  | _ -> Alcotest.fail "comments"

let test_lex_define () =
  (match tokens "#define N 32\nint a[N];" with
  | [ KW_INT; IDENT "a"; LBRACKET; INT 32; RBRACKET; SEMI; EOF ] -> ()
  | _ -> Alcotest.fail "simple define");
  (* macros referencing earlier macros *)
  match tokens "#define N 4\n#define M N + 1\nM" with
  | [ INT 4; PLUS; INT 1; EOF ] -> ()
  | _ -> Alcotest.fail "nested define"

let test_lex_define_cyclic () =
  try
    ignore (tokens "#define A B\n#define B A\nA");
    Alcotest.fail "expected cyclic macro error"
  with Uc.Loc.Error (_, msg) ->
    check Alcotest.bool "mentions macro" true
      (String.length msg > 0 && String.sub msg 0 5 = "macro")

let test_lex_errors () =
  (try
     ignore (tokens "a @ b");
     Alcotest.fail "expected error"
   with Uc.Loc.Error _ -> ());
  (try
     ignore (tokens "/* unterminated");
     Alcotest.fail "expected error"
   with Uc.Loc.Error _ -> ());
  try
    ignore (tokens "$?");
    Alcotest.fail "expected error"
  with Uc.Loc.Error _ -> ()

let test_lex_locations () =
  let toks = Uc.Lexer.tokenize "int\n  a;" in
  let _, l0 = toks.(0) and _, l1 = toks.(1) in
  check Alcotest.int "line 1" 1 l0.Uc.Loc.line;
  check Alcotest.int "line 2" 2 l1.Uc.Loc.line;
  check Alcotest.int "col 3" 3 l1.Uc.Loc.col

let test_lex_keywords () =
  List.iter
    (fun (spelling, kw) ->
      (match tokens spelling with
      | [ t; EOF ] when Uc.Token.equal t kw -> ()
      | _ -> Alcotest.failf "%s does not lex to its keyword" spelling);
      check Alcotest.string "spelled back" spelling (Uc.Token.to_string kw);
      (* in context, between tokens, too *)
      match tokens ("(" ^ spelling ^ ";") with
      | [ LPAREN; t; SEMI; EOF ] when Uc.Token.equal t kw -> ()
      | _ -> Alcotest.failf "(%s; does not lex to its keyword" spelling)
    Uc.Token.keyword_table;
  check Alcotest.int "every keyword listed once" 24
    (List.length (List.sort_uniq compare (List.map fst Uc.Token.keyword_table)))

let test_lex_near_misses () =
  List.iter
    (fun s ->
      match tokens s with
      | [ IDENT n; EOF ] when n = s -> ()
      | _ -> Alcotest.failf "%s is not a plain identifier" s)
    [ "in"; "ints"; "index"; "indexset"; "Int"; "inf"; "iff"; "fors";
      "_if"; "goto2"; "INFs"; "st_"; "maps"; "pa"; "copyx"; "voids" ];
  match tokens "index-setx" with
  | [ IDENT "index"; MINUS; IDENT "setx"; EOF ] -> ()
  | _ -> Alcotest.fail "index-setx is index - setx"

(* Token.equal is structural equality on tokens *)
let test_token_equal () =
  let sample =
    [ IDENT "a"; IDENT "b"; IDENT "int"; INT 0; INT 1; FLOAT 1.5; FLOAT 2.;
      STRING "s"; STRING "t"; RED Uc.Ast.Rsum; RED Uc.Ast.Rmax; EOF; SEMI;
      MINUS; MINASSIGN; DOTDOT ]
    @ List.map snd Uc.Token.keyword_table
  in
  List.iter
    (fun a ->
      List.iter
        (fun b ->
          check Alcotest.bool
            (Uc.Token.to_string a ^ " vs " ^ Uc.Token.to_string b)
            (a = b) (Uc.Token.equal a b))
        sample)
    sample

(* ---------------- parser ---------------- *)

let parse = Uc.Parser.parse_program
let pexpr = Uc.Parser.parse_expr

let expr_str s = Uc.Pretty.expr_to_string (pexpr s)

let test_parse_precedence () =
  check Alcotest.string "mul binds" "1 + 2 * 3" (expr_str "1 + 2 * 3");
  check Alcotest.string "parens kept" "(1 + 2) * 3" (expr_str "(1 + 2) * 3");
  check Alcotest.string "cmp" "a < b + 1 && c" (expr_str "a < b+1 && c");
  check Alcotest.string "assoc" "a - b - c" (expr_str "(a - b) - c");
  check Alcotest.string "right sub" "a - (b - c)" (expr_str "a - (b - c)");
  check Alcotest.string "cond" "a ? b : c ? d : e" (expr_str "a ? b : (c ? d : e)");
  check Alcotest.string "unary" "-a[i] + !b" (expr_str "-a[i] + !b")

(* every binary operator with its C precedence level, loosest first *)
let binops =
  Uc.Ast.
    [ ("||", Lor, 1); ("&&", Land, 2); ("|", Bor, 3); ("^", Bxor, 4);
      ("&", Band, 5); ("==", Eq, 6); ("!=", Ne, 6); ("<", Lt, 7);
      ("<=", Le, 7); (">", Gt, 7); (">=", Ge, 7); ("<<", Shl, 8);
      (">>", Shr, 8); ("+", Add, 9); ("-", Sub, 9); ("*", Mul, 10);
      ("/", Div, 10); ("%", Mod, 10) ]

(* an expression fully parenthesized, each binary node tagged with its
   column *)
let rec shape (e : Uc.Ast.expr) =
  match e.e with
  | Uc.Ast.Ebin (op, a, b) ->
      Printf.sprintf "(%s %s %s)@%d" (shape a) (Uc.Ast.binop_name op) (shape b)
        e.eloc.Uc.Loc.col
  | Uc.Ast.Evar v -> v
  | _ -> "?"

(* "a op1 b op2 c" for every pair: the first operator groups first unless
   the second binds tighter (every level is left-associative), and a
   node sits at the start of its left operand *)
let test_parse_binop_pairs () =
  List.iter
    (fun (s1, op1, p1) ->
      List.iter
        (fun (s2, op2, p2) ->
          let src = Printf.sprintf "a %s b %s c" s1 s2 in
          let n1 = Uc.Ast.binop_name op1 and n2 = Uc.Ast.binop_name op2 in
          let want =
            if p1 >= p2 then Printf.sprintf "((a %s b)@1 %s c)@1" n1 n2
            else
              Printf.sprintf "(a %s (b %s c)@%d)@1" n1 n2
                (String.length s1 + 4)
          in
          check Alcotest.string src want (shape (pexpr src)))
        binops)
    binops

let test_parse_reduction_forms () =
  check Alcotest.string "simple" "$+(I; i)" (expr_str "$+(I; i)");
  check Alcotest.string "multi-set" "$<(I, J; a[i][j])" (expr_str "$<(I,J; a[i][j])");
  check Alcotest.string "predicated" "$+(I st (a[i] > 0) a[i] others -a[i])"
    (expr_str "$+ (I st (a[i]>0) a[i] others -a[i])");
  check Alcotest.string "nested" "$>(I st (a[i] == $>(J; a[j])) i)"
    (expr_str "$>(I st (a[i] == $>(J; a[j])) i)")

let roundtrip src =
  let p1 = parse src in
  let s1 = Uc.Pretty.program_to_string p1 in
  let p2 = parse s1 in
  let s2 = Uc.Pretty.program_to_string p2 in
  check Alcotest.string "pretty/reparse fixpoint" s1 s2

let test_roundtrip_corpus () =
  List.iter (fun (_name, src) -> roundtrip src) Uc_programs.Programs.all_named

let test_parse_goto_rejected () =
  try
    ignore (parse "void main() { goto l; }");
    Alcotest.fail "expected goto rejection"
  with Uc.Loc.Error (_, msg) ->
    check Alcotest.bool "mentions goto" true
      (String.length msg >= 4 && String.sub msg 0 4 = "goto")

let test_parse_star_requires_par () =
  try
    ignore (parse "void main() { * 3; }");
    Alcotest.fail "expected error"
  with Uc.Loc.Error _ -> ()

let test_parse_map_section () =
  let src =
    {|
index-set I:i = {0..7};
int a[8], b[8];
map (I) { permute (I) b[i+1] :- a[i]; fold a by 2; copy b along 4; }
void main() { ; }
|}
  in
  match parse src with
  | [ _; _; Uc.Ast.Tmap m; _ ] ->
      check Alcotest.int "three mappings" 3 (List.length m.Uc.Ast.mmappings)
  | _ -> Alcotest.fail "map section shape"

let test_parse_errors_have_locations () =
  try
    ignore (parse "void main() {\n  int x\n}");
    Alcotest.fail "expected error"
  with Uc.Loc.Error (loc, _) -> check Alcotest.int "line" 3 loc.Uc.Loc.line

let test_parse_dangling_others () =
  (* others binds to the innermost par *)
  let src =
    {|
index-set I:i = {0..3}, J:j = I;
int a[4], b[4];
void main() {
  par (I) st (i > 0)
    par (J) st (j > 0) a[j] = 1;
    others b[j] = 2;
}
|}
  in
  match parse src with
  | [ _; _; Uc.Ast.Tfunc f ] -> (
      match (List.hd f.Uc.Ast.fbody.Uc.Ast.bstmts).Uc.Ast.s with
      | Uc.Ast.Spar outer -> (
          check Alcotest.bool "outer has no others" true
            (outer.Uc.Ast.pothers = None);
          match outer.Uc.Ast.pbranches with
          | [ (_, { s = Uc.Ast.Spar inner; _ }) ] ->
              check Alcotest.bool "inner has others" true
                (inner.Uc.Ast.pothers <> None)
          | _ -> Alcotest.fail "inner shape")
      | _ -> Alcotest.fail "outer shape")
  | _ -> Alcotest.fail "program shape"

(* ---------------- sema ---------------- *)

let check_ok src = ignore (Uc.Sema.check (parse src))

let check_fails ?frag src =
  try
    ignore (Uc.Sema.check (parse src));
    Alcotest.fail "expected a semantic error"
  with Uc.Loc.Error (_, msg) -> (
    match frag with
    | None -> ()
    | Some f ->
        let contains hay needle =
          let nh = String.length hay and nn = String.length needle in
          let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
          go 0
        in
        if not (contains msg f) then
          Alcotest.failf "error %S does not mention %S" msg f)

let test_sema_corpus () =
  List.iter
    (fun (name, src) ->
      try ignore (Uc.Sema.check (parse src))
      with Uc.Loc.Error (loc, msg) ->
        Alcotest.failf "%s: %a: %s" name Uc.Loc.pp loc msg)
    Uc_programs.Programs.all_named

let test_sema_unknown_set () =
  check_fails ~frag:"unknown index set"
    "void main() { par (I) ; }"

let test_sema_nonconst_bounds () =
  check_fails ~frag:"constant"
    "void main() { int n; index-set I:i = {0..n}; }"

let test_sema_elem_out_of_scope () =
  check_fails ~frag:"unknown identifier"
    {|
index-set I:i = {0..3};
int a[4];
void main() { a[i] = 1; }
|}

let test_sema_elem_not_assignable () =
  check_fails ~frag:"cannot be assigned"
    {|
index-set I:i = {0..3};
void main() { par (I) i = 2; }
|}

let test_sema_global_scalar_in_par () =
  check_fails ~frag:"par-local"
    {|
index-set I:i = {0..3};
int s;
void main() { par (I) s = i; }
|}

let test_sema_parlocal_ok () =
  check_ok
    {|
index-set I:i = {0..3};
int a[4];
void main() { par (I) { int t; t = i * 2; a[i] = t; } }
|}

let test_sema_solve_shape () =
  check_fails ~frag:"solve"
    {|
index-set I:i = {0..3};
int a[4];
void main() { solve (I) { a[i] = 1; print("no"); } }
|};
  check_fails ~frag:"'='"
    {|
index-set I:i = {0..3};
int a[4];
void main() { solve (I) a[i] += 1; }
|}

let test_sema_print_fe_only () =
  check_fails ~frag:"front end"
    {|
index-set I:i = {0..3};
void main() { par (I) print("x"); }
|}

let test_sema_string_outside_print () =
  check_fails ~frag:"print"
    {|
int x;
void main() { x = abs("nope"); }
|}

let test_sema_builtin_arity () =
  check_fails ~frag:"expects"
    "int x; void main() { x = power2(1, 2); }"

let test_sema_void_in_expr () =
  check_fails ~frag:"void"
    {|
void f() { ; }
int x;
void main() { x = f(); }
|}

let test_sema_define_before_use () =
  check_fails ~frag:"defined before use"
    {|
int x;
void main() { x = g(); }
int g() { return 1; }
|}

let test_sema_recursion_rejected () =
  (* self-recursion is impossible because a function is not in scope in its
     own body (define-before-use) *)
  check_fails ~frag:"defined before use"
    "int f(int n) { return f(n - 1); }"

let test_sema_break_outside_loop () =
  check_fails ~frag:"loop" "void main() { break; }"

let test_sema_mod_floats () =
  check_fails ~frag:"int" "float x; void main() { x %= 2.0; }"

let test_sema_array_rank () =
  check_fails ~frag:"subscripts"
    "int a[4][4]; void main() { a[1] = 2; }"

let test_sema_redeclaration () =
  check_fails ~frag:"redeclaration"
    "void main() { int x; int x; }"

let test_sema_shadowing_ok () =
  (* paper section 3.4: reuse of an index set hides the outer element *)
  check_ok
    {|
index-set I:i = {0..9};
int a[10];
void main() {
  par (I)
    st (i % 2 == 0) a[i] = $+(I; i);
}
|}

let test_sema_inline_restriction () =
  check_fails ~frag:"straight-line"
    {|
index-set I:i = {0..3};
int a[4];
int slow(int n) { int r; r = 0; while (n > 0) { r = r + n; n = n - 1; } return r; }
void main() { par (I) a[i] = slow(i); }
|}

let test_sema_inlinable_ok () =
  check_ok
    {|
index-set I:i = {0..3};
int a[4];
int double_plus(int n) { int r; r = n * 2; return r + 1; }
void main() { par (I) a[i] = double_plus(i); }
|}

let test_sema_array_param () =
  check_ok
    {|
int total(int v[], int n) {
  int s; int k;
  s = 0;
  for (k = 0; k < n; k = k + 1) s = s + v[k];
  return s;
}
int a[5], out;
void main() {
  int k;
  for (k = 0; k < 5; k = k + 1) a[k] = k;
  out = total(a, 5);
}
|};
  check_fails ~frag:"rank"
    {|
int f(int v[][], int n) { return v[0][0]; }
int a[5], x;
void main() { x = f(a, 5); }
|}

let test_sema_swap_checks () =
  check_fails ~frag:"assignment target"
    "int x; void main() { swap(x, 3); }";
  check_fails ~frag:"same type"
    "int x; float y; void main() { swap(x, y); }"

let test_sema_map_checks () =
  check_fails ~frag:"unknown array"
    {|
index-set I:i = {0..7};
map (I) { permute (I) nope[i+1] :- also_nope[i]; }
void main() { ; }
|};
  check_fails ~frag:"affine"
    {|
index-set I:i = {0..7};
int a[8], b[8];
map (I) { permute (I) b[i*i] :- a[i]; }
void main() { ; }
|};
  check_fails ~frag:"divide"
    {|
index-set I:i = {0..8};
int a[9];
map (I) { fold a by 2; }
void main() { ; }
|}

let test_sema_reduction_int_ops () =
  check_fails ~frag:"int"
    {|
index-set I:i = {0..3};
float a[4];
int x;
void main() { x = $^(I; a[i]); }
|}

let test_sema_oneof_others () =
  check_fails ~frag:"oneof"
    {|
index-set I:i = {0..3};
int a[4];
void main() {
  oneof (I)
    st (i > 1) a[i] = 1;
    others a[i] = 2;
}
|};
  check_fails ~frag:"seq"
    {|
index-set I:i = {0..3};
int a[4];
void main() {
  seq (I)
    st (i > 1) a[i] = 1;
    others a[i] = 2;
}
|}

let test_sema_info () =
  let info =
    Uc.Sema.check
      (parse
         {|
#define N 6
index-set I:i = {0..N-1};
int a[N][2], s;
float f;
void main() { ; }
|})
  in
  check Alcotest.bool "has main" true (List.mem_assoc "main" info.Uc.Sema.funcs);
  check
    (Alcotest.list Alcotest.int)
    "dims" [ 6; 2 ]
    (List.assoc "a" info.Uc.Sema.global_arrays).Uc.Sema.adims;
  check Alcotest.int "set size" 6
    (Array.length (List.assoc "I" info.Uc.Sema.global_sets))

(* ---------------- the corpus AST, pinned ----------------

   [test_frontend.exe ast] prints what `ucc ast` prints for every
   corpus program, each after a "=== NAME" line; `dune runtest` diffs
   it against ast_golden.expected, so a parser change that moves any
   corpus program's tree shows there (a deliberate one is
   `dune promote`). *)
let print_ast_golden () =
  List.iter
    (fun (name, src) ->
      Printf.printf "=== %s\n%s" name
        (Uc.Pretty.program_to_string (Uc.Compile.parse_source src)))
    Uc_programs.Programs.all_named

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "ast" then (
    print_ast_golden ();
    exit 0);
  Alcotest.run "frontend"
    [
      ( "lexer",
        [
          Alcotest.test_case "basic" `Quick test_lex_basic;
          Alcotest.test_case "range dots" `Quick test_lex_range;
          Alcotest.test_case "index-set keyword" `Quick test_lex_index_set;
          Alcotest.test_case "reduction ops" `Quick test_lex_reductions;
          Alcotest.test_case "floats" `Quick test_lex_floats;
          Alcotest.test_case "min/max assign" `Quick test_lex_minmax_assign;
          Alcotest.test_case "comments" `Quick test_lex_comments;
          Alcotest.test_case "define" `Quick test_lex_define;
          Alcotest.test_case "cyclic define" `Quick test_lex_define_cyclic;
          Alcotest.test_case "errors" `Quick test_lex_errors;
          Alcotest.test_case "locations" `Quick test_lex_locations;
          Alcotest.test_case "every keyword" `Quick test_lex_keywords;
          Alcotest.test_case "keyword near-misses" `Quick test_lex_near_misses;
          Alcotest.test_case "token equality" `Quick test_token_equal;
        ] );
      ( "parser",
        [
          Alcotest.test_case "precedence" `Quick test_parse_precedence;
          Alcotest.test_case "binary operator pairs" `Quick
            test_parse_binop_pairs;
          Alcotest.test_case "reduction forms" `Quick test_parse_reduction_forms;
          Alcotest.test_case "corpus round-trip" `Quick test_roundtrip_corpus;
          Alcotest.test_case "goto rejected" `Quick test_parse_goto_rejected;
          Alcotest.test_case "star needs par" `Quick test_parse_star_requires_par;
          Alcotest.test_case "map section" `Quick test_parse_map_section;
          Alcotest.test_case "error locations" `Quick test_parse_errors_have_locations;
          Alcotest.test_case "dangling others" `Quick test_parse_dangling_others;
        ] );
      ( "sema",
        [
          Alcotest.test_case "corpus accepted" `Quick test_sema_corpus;
          Alcotest.test_case "unknown set" `Quick test_sema_unknown_set;
          Alcotest.test_case "non-const bounds" `Quick test_sema_nonconst_bounds;
          Alcotest.test_case "elem out of scope" `Quick test_sema_elem_out_of_scope;
          Alcotest.test_case "elem not assignable" `Quick test_sema_elem_not_assignable;
          Alcotest.test_case "global scalar in par" `Quick test_sema_global_scalar_in_par;
          Alcotest.test_case "par-local ok" `Quick test_sema_parlocal_ok;
          Alcotest.test_case "solve shape" `Quick test_sema_solve_shape;
          Alcotest.test_case "print fe only" `Quick test_sema_print_fe_only;
          Alcotest.test_case "string outside print" `Quick test_sema_string_outside_print;
          Alcotest.test_case "builtin arity" `Quick test_sema_builtin_arity;
          Alcotest.test_case "void in expr" `Quick test_sema_void_in_expr;
          Alcotest.test_case "define before use" `Quick test_sema_define_before_use;
          Alcotest.test_case "recursion rejected" `Quick test_sema_recursion_rejected;
          Alcotest.test_case "break outside loop" `Quick test_sema_break_outside_loop;
          Alcotest.test_case "%= floats" `Quick test_sema_mod_floats;
          Alcotest.test_case "array rank" `Quick test_sema_array_rank;
          Alcotest.test_case "redeclaration" `Quick test_sema_redeclaration;
          Alcotest.test_case "shadowing ok" `Quick test_sema_shadowing_ok;
          Alcotest.test_case "inline restriction" `Quick test_sema_inline_restriction;
          Alcotest.test_case "inlinable ok" `Quick test_sema_inlinable_ok;
          Alcotest.test_case "array params" `Quick test_sema_array_param;
          Alcotest.test_case "swap checks" `Quick test_sema_swap_checks;
          Alcotest.test_case "map checks" `Quick test_sema_map_checks;
          Alcotest.test_case "reduction int ops" `Quick test_sema_reduction_int_ops;
          Alcotest.test_case "oneof/seq others rejected" `Quick test_sema_oneof_others;
          Alcotest.test_case "info" `Quick test_sema_info;
        ] );
    ]
