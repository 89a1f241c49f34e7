(* Tests for the layout stage: Commpat static prediction vs the real
   machine's meter, Layoutsel search quality, and the tuned-layout
   differential property. *)

let default_opts = Uc.Codegen.default_options

let src_of name = List.assoc name Uc_programs.Programs.all_named

let measure ?layouts ?(options = default_opts) src =
  let prog = Uc.Compile.parse_source src in
  let compiled = Uc.Compile.lower ?layouts ~options prog in
  let t = Uc.Compile.run_compiled ~seed:42 compiled in
  Uc.Compile.meter t

let check_against_meter label (p : Uc.Commpat.prediction) (m : Cm.Cost.meter) =
  Alcotest.(check int)
    (label ^ " router ops") m.Cm.Cost.router_ops p.p_router_ops;
  Alcotest.(check int) (label ^ " news ops") m.Cm.Cost.news_ops p.p_news_ops

let option_variants =
  [
    ("default", default_opts);
    ("no-news", { default_opts with news_opt = false });
    ("no-cse", { default_opts with cse = false });
    ("no-procopt", { default_opts with procopt = false });
    ("no-mappings", { default_opts with use_mappings = false });
    ("ir-opt off", { default_opts with ir_opt = Cm.Iropt.off });
  ]

(* the contract of a prediction flagged exact: its router/NEWS counts are
   the machine's meter, under every option set and under the program's
   own tuned table as well as its own map sections *)
let test_predict_exact () =
  List.iter
    (fun (variant, options) ->
      let exact = ref 0 in
      List.iter
        (fun (name, src) ->
          let label = Printf.sprintf "%s [%s]" name variant in
          let summary = Uc.Commpat.analyze_source ~options src in
          let p = Uc.Commpat.predict summary summary.base_layouts in
          if p.p_exact then begin
            incr exact;
            check_against_meter label p (measure ~options src)
          end;
          let r = Uc.Layoutsel.search_source ~options src in
          let p = r.Uc.Layoutsel.chosen_prediction in
          if p.p_exact then
            check_against_meter (label ^ " tuned") p
              (measure ~options ~layouts:r.Uc.Layoutsel.table src))
        Uc_programs.Programs.all_named;
      (* only the corpus's data-dependent loops may be estimated: most
         programs must keep an exact count *)
      Alcotest.(check bool)
        (variant ^ ": at least 20 corpus predictions exact")
        true (!exact >= 20))
    option_variants

(* [stencil] with an early exit before its time loop *)
let stencil_with_exit exit =
  Printf.sprintf
    {|
#define N 16
#define STEPS 4
index-set I:i = {0..N-2}, IB:ib = {0..N-1};
int a[N], b[N];

void main() {
  int t, flag;
  par (IB) {
    a[ib] = ib;
    b[ib] = 2 * ib + 1;
  }
%s
  for (t = 0; t < STEPS; t = t + 1)
    par (I) a[i] = a[i] + b[i+1];
}
|}
    exit

(* a return on a branch that is not taken must not end the count: the
   time loop's NEWS reads of b still run *)
let test_conditional_return () =
  let src = stencil_with_exit "  flag = 0;\n  if (flag) return;" in
  let summary = Uc.Commpat.analyze_source src in
  let m = measure src in
  Alcotest.(check int) "the meter sees the time loop" 4 m.Cm.Cost.news_ops;
  check_against_meter "conditional return"
    (Uc.Commpat.predict summary summary.base_layouts)
    m;
  let r = Uc.Layoutsel.search_source src in
  let b =
    List.find (fun c -> c.Uc.Layoutsel.cname = "b") r.Uc.Layoutsel.choices
  in
  Alcotest.(check bool)
    "b has communication" true (b.Uc.Layoutsel.cdefault_ns > 0.)

(* code after an unconditional return never runs: it predicts nothing *)
let test_unconditional_return () =
  let src = stencil_with_exit "  return;" in
  let summary = Uc.Commpat.analyze_source src in
  let p = Uc.Commpat.predict summary summary.base_layouts in
  Alcotest.(check bool) "exact" true p.p_exact;
  check_against_meter "unconditional return" p (measure src);
  Alcotest.(check int) "no news predicted" 0 p.p_news_ops

(* A [power2] subscript evaluates as Paris [Shl] computes it.  The seq
   element stands for its first value, j = 1, so i = 5 reads a[5 - 2];
   an evaluator that cleared bit 0 of the shift read a[4]. *)
let test_power2_subscript () =
  let src =
    {|
#define N 8
index-set I:i = {0..N-1}, J:j = {1..2};
int a[N], b[N];

void main() {
  par (I) {
    a[i] = i;
    b[i] = 0;
  }
  par (I)
    seq (J) st (i - power2(j) >= 0)
      b[i] = b[i] + a[i - power2(j)];
}
|}
  in
  let r = Uc.Codegen.record (Uc.Compile.prepare (Uc.Compile.parse_source src)) in
  let evals =
    List.filter_map
      (function
        | Uc.Codegen.Access
            { aname = "a"; arw = `Read; asubs = [ Uc.Codegen.Sopaque (Some f) ]; _ } ->
            Some f
        | _ -> None)
      r.Uc.Codegen.events
  in
  match evals with
  | [ f ] -> Alcotest.(check int) "i = 5 reads a[3]" 3 (f [| 5 |])
  | l -> Alcotest.failf "expected one opaque read of a, got %d" (List.length l)

(* ---------------- layout search quality ---------------- *)

(* the a1 mapping ablation (bench/main.ml): at n=4096, steps=32 the
   hand-tuned layout is [permute (I) b[i+1] :- a[i]]; the tuner must
   find exactly that table on its own *)
let test_a1_selects_hand_tuned () =
  let src = Uc_programs.Programs.stencil ~n:4096 ~steps:32 () in
  let r = Uc.Layoutsel.search_source src in
  Alcotest.(check bool)
    "b gets permute[+1]" true
    (Uc.Mapping.equal
       (Uc.Mapping.find r.Uc.Layoutsel.table "b")
       (Uc.Mapping.Shifted [| 1 |]));
  Alcotest.(check bool)
    "a stays default" true
    (Uc.Mapping.equal (Uc.Mapping.find r.Uc.Layoutsel.table "a")
       Uc.Mapping.Default);
  Alcotest.(check bool)
    "predicted win" true
    (r.Uc.Layoutsel.chosen_ns < r.Uc.Layoutsel.default_ns)

(* the search must never predict a regression: the default table is
   always a candidate, so chosen cost <= default cost *)
let test_chosen_never_worse () =
  List.iter
    (fun name ->
      let r = Uc.Layoutsel.search_source (src_of name) in
      Alcotest.(check bool)
        (name ^ " chosen <= default")
        true
        (r.Uc.Layoutsel.chosen_ns <= r.Uc.Layoutsel.default_ns +. 1e-6))
    (List.map fst Uc_programs.Programs.all_named)

(* every synthesized map section must re-parse to the table it came
   from (programs with their own map sections are skipped: the tuner's
   section would be appended next to the original one) *)
let test_emit_roundtrip () =
  List.iter
    (fun name ->
      let src = src_of name in
      let prog = Uc.Compile.parse_source src in
      let r = Uc.Layoutsel.search_source src in
      let canon = Uc.Mapping.canonical r.Uc.Layoutsel.table in
      match Uc.Mapping.emit_map_section prog canon with
      | None ->
          Alcotest.(check string)
            (name ^ " all-default table")
            "" (Uc.Mapping.table_to_string canon)
      | Some section ->
          let reparsed =
            Uc.Mapping.of_program
              (Uc.Compile.parse_source (src ^ "\n" ^ section))
          in
          Alcotest.(check string)
            (name ^ " section round-trips")
            (Uc.Mapping.table_to_string canon)
            (Uc.Mapping.table_to_string (Uc.Mapping.canonical reparsed)))
    (List.filter
       (fun n ->
         (* skip programs that already carry a map section *)
         not (String.length n > 7 && Filename.check_suffix n "_mapped"))
       (List.map fst Uc_programs.Programs.all_named))

(* ---------------- job digest plumbing ---------------- *)

(* tuned and untuned jobs must have distinct digests (they emit
   different Paris programs), and an untuned job's digest must not move
   when the [tune] field exists but is off (cache compatibility) *)
let test_tuned_digest () =
  let source = src_of "stencil" in
  let j0 = Ucd.Job.make ~name:"s" ~source () in
  let joff = Ucd.Job.make ~tune:false ~name:"s" ~source () in
  let jon = Ucd.Job.make ~tune:true ~name:"s" ~source () in
  Alcotest.(check string)
    "tune=false leaves the digest alone"
    (Ucd.Job.digest j0) (Ucd.Job.digest joff);
  Alcotest.(check bool)
    "tune=true changes the digest" true
    (Ucd.Job.digest j0 <> Ucd.Job.digest jon)

(* ---------------- tuned-layout differential fuzzing ---------------- *)

(* Random programs x random valid layouts: a layout only moves data
   around the machine, so the observable results must be bit-identical
   to the default layout.  No rand() in the generated
   programs: the per-processor draw order is layout-dependent by
   design, so random streams are excluded from the bit-identity
   property (like the engine differential tests exclude multi-site
   rand). *)

let qtest ?(count = 60) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

open QCheck2.Gen

let off_gen = oneofl [ 1; 2; 3; 5; 7 ]

let stmt_gen =
  oneof
    [
      (let* k = off_gen and* c = oneofl [ 1; 2; 5 ] in
       return (Printf.sprintf "  par (I) a[i] = b[(i + %d) %% 8] + %d;" k c));
      (let* k = off_gen in
       return
         (Printf.sprintf "  par (I) st (a[i] %% 2 == 0) b[i] = a[(i + %d) %% 8];"
            k));
      (let* k = off_gen in
       return (Printf.sprintf "  par (I) b[(i + %d) %% 8] = a[i] * 2;" k));
      return "  par (I, J) d[i][j] = a[i] + b[j] * 2;";
      (let* k = off_gen in
       return (Printf.sprintf "  par (I) a[i] = d[i][(i + %d) %% 8] + 1;" k));
      (let* k = off_gen in
       return (Printf.sprintf "  s = s + $+(I st (b[i] > %d) a[i]);" k));
      return "  seq (K) par (I) st ((i + k) % 2 == 0) a[i] = a[i] + b[i];";
      (let* c = oneofl [ 1; 2; 3 ] in
       return
         (Printf.sprintf
            "  for (t = 0; t < 2; t = t + 1) par (I) a[i] = a[i] + b[(i + 1) \
             %% 8] * %d;"
            c));
    ]

let program_gen =
  let* stmts = list_size (int_range 2 5) stmt_gen in
  return
    (Printf.sprintf
       {|
#define N 8
index-set I:i = {0..N-1}, J:j = I, K:k = {0..2};
int a[N], b[N], d[N][N], s, t;

void main() {
  par (I) { a[i] = i * 3 + 1; b[i] = 7 - i; }
  par (I, J) d[i][j] = i * 11 + j;
%s
}
|}
       (String.concat "\n" stmts))

let layout_1d =
  oneofl
    Uc.Mapping.
      [
        Default;
        Shifted [| 1 |];
        Shifted [| -1 |];
        Shifted [| 3 |];
        Folded 2;
        Folded 4;
        Copied 2;
        Copied 4;
      ]

let layout_2d =
  oneofl
    Uc.Mapping.
      [ Default; Shifted [| 1; 0 |]; Shifted [| 0; 1 |]; Shifted [| 2; -1 |] ]

let table_gen =
  let* la = layout_1d and* lb = layout_1d and* ld = layout_2d in
  return [ ("a", la); ("b", lb); ("d", ld) ]

let case_gen = pair program_gen table_gen

let print_case (src, table) =
  Printf.sprintf "table: %s\n%s" (Uc.Mapping.table_to_string table) src

let observable ?layouts src =
  let compiled = Uc.Compile.compile_source ?layouts src in
  let t = Uc.Compile.run_compiled ~seed:7 compiled in
  ( Uc.Compile.int_array t "a",
    Uc.Compile.int_array t "b",
    Uc.Compile.int_array t "d",
    Uc.Compile.scalar t "s",
    Uc.Compile.output t )

let fuzz_layout_fast =
  qtest ~count:60 ~print:print_case
    "fuzz: any valid layout is observably identical (fast)" case_gen
    (fun (src, table) ->
      observable src = observable ~layouts:table src)

(* the same property through the tuner itself: a tuned lowering of any
   generated program matches the default lowering bit for bit *)
let fuzz_tuned_run =
  qtest ~count:40 ~print:(fun s -> s)
    "fuzz: auto-tuned layout is observably identical" program_gen
    (fun src ->
      let r = Uc.Layoutsel.search_source src in
      observable src = observable ~layouts:r.Uc.Layoutsel.table src)

(* ---------------- fan-in estimate vs its first definition ---------------- *)

(* The estimator as first written, kept as the oracle: per space point a
   fresh coordinate array, a subscript list and a polymorphic Hashtbl
   entry, with list-based physical addressing. *)
let oracle_physical_index layout dims coords =
  let linear dims coords =
    List.fold_left2 (fun acc d c -> (acc * d) + c) 0 dims coords
  in
  let pos_mod x n = ((x mod n) + n) mod n in
  match layout with
  | Uc.Mapping.Default | Uc.Mapping.Copied _ -> linear dims coords
  | Uc.Mapping.Shifted offs ->
      linear dims
        (List.mapi (fun k c -> pos_mod (c - offs.(k)) (List.nth dims k)) coords)
  | Uc.Mapping.Folded f -> (
      match dims, coords with
      | d0 :: drest, c0 :: crest ->
          let h = d0 / f in
          linear (h :: f :: drest) ((c0 mod h) :: (c0 / h) :: crest)
      | _ -> invalid_arg "oracle: fold rank")

let oracle_fanin (a : Uc.Commpat.access) layout =
  let layout = Uc.Mapping.normalize layout in
  let size = List.fold_left ( * ) 1 a.aspace in
  let evaluators =
    List.map
      (function
        | Uc.Commpat.Saffine (ax, off) ->
            Some (fun (coords : int array) -> coords.(ax) + off)
        | Uc.Commpat.Sopaque f -> f)
      a.asubs
  in
  if size <= 0 || size > 65536 || List.exists Option.is_none evaluators then 1
  else begin
    let g = Cm.Geometry.create a.aspace in
    let counts = Hashtbl.create 64 in
    let total = List.fold_left ( * ) 1 a.adims in
    let copies = match layout with Uc.Mapping.Copied m -> m | _ -> 1 in
    let block =
      match a.aspace with e0 :: _ -> max 1 (e0 / copies) | [] -> 1
    in
    for p = 0 to size - 1 do
      let coords = Cm.Geometry.coords g p in
      let subs = List.map (fun f -> (Option.get f) coords) evaluators in
      if List.for_all2 (fun v d -> v >= 0 && v < d) subs a.adims then begin
        let base = oracle_physical_index layout a.adims subs in
        let addr =
          match layout with
          | Uc.Mapping.Copied _ when a.arw = `Read ->
              let sel = coords.(0) / block mod copies in
              (sel * total) + base
          | _ -> base
        in
        Hashtbl.replace counts addr
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts addr))
      end
    done;
    Hashtbl.fold (fun _ c acc -> max c acc) counts 1
  end

(* A subscript, printable: the opaque ones stand for what Codegen's
   sub_evaluator builds (scaled, divided, constant), and [Runtime] for a
   subscript that depends on runtime values. *)
type osub =
  | Aff of int * int  (* axis, offset *)
  | Scaled of int * int * int  (* k * c.(axis) + b *)
  | Divided of int * int  (* c.(axis) / q: several points per element *)
  | Const of int
  | Runtime

let sub_of = function
  | Aff (ax, off) -> Uc.Commpat.Saffine (ax, off)
  | Scaled (k, ax, b) -> Uc.Commpat.Sopaque (Some (fun c -> (k * c.(ax)) + b))
  | Divided (ax, q) -> Uc.Commpat.Sopaque (Some (fun c -> c.(ax) / q))
  | Const b -> Uc.Commpat.Sopaque (Some (fun _ -> b))
  | Runtime -> Uc.Commpat.Sopaque None

let osub_to_string = function
  | Aff (ax, off) -> Printf.sprintf "c%d%+d" ax off
  | Scaled (k, ax, b) -> Printf.sprintf "%d*c%d%+d" k ax b
  | Divided (ax, q) -> Printf.sprintf "c%d/%d" ax q
  | Const b -> string_of_int b
  | Runtime -> "runtime"

type fcase = {
  rw : [ `Read | `Write ];
  space : int list;
  dims : int list;
  osubs : osub list;
  layout : Uc.Mapping.layout;
}

let access_of_case c : Uc.Commpat.access =
  {
    aname = "a";
    aloc = Uc.Loc.dummy;
    arw = c.rw;
    adims = c.dims;
    asubs = List.map sub_of c.osubs;
    aspace = c.space;
    avalues = List.map (fun n -> Array.init n Fun.id) c.space;
    atrips = 1;
    aapprox = false;
  }

let print_fcase c =
  let ints l = String.concat "x" (List.map string_of_int l) in
  Printf.sprintf "%s space %s dims %s subs [%s] layout %s"
    (match c.rw with `Read -> "read" | `Write -> "write")
    (ints c.space) (ints c.dims)
    (String.concat "; " (List.map osub_to_string c.osubs))
    (Uc.Mapping.to_string c.layout)

let osub_gen rank =
  let* ax = int_range 0 (rank - 1) in
  frequency
    [
      (4, map (fun off -> Aff (ax, off)) (int_range (-3) 3));
      ( 2,
        map2 (fun k b -> Scaled (k, ax, b)) (int_range (-2) 3) (int_range (-4) 4)
      );
      (2, map (fun q -> Divided (ax, q)) (int_range 1 4));
      (1, map (fun b -> Const b) (int_range (-1) 6));
      (1, return Runtime);
    ]

(* every layout kind, valid for [dims] the way Mapping.of_program and
   Layoutsel make them: a fold factor divides the leading dimension *)
let layout_gen dims =
  let d0 = List.hd dims in
  let divisors = List.filter (fun f -> d0 mod f = 0) [ 1; 2; 3; 4; 6; 8 ] in
  oneof
    [
      return Uc.Mapping.Default;
      map
        (fun offs -> Uc.Mapping.Shifted (Array.of_list offs))
        (list_repeat (List.length dims) (int_range (-3) 3));
      map (fun f -> Uc.Mapping.Folded f) (oneofl divisors);
      map (fun m -> Uc.Mapping.Copied m) (oneofl [ 1; 2; 3; 4; 8 ]);
    ]

let fcase_gen =
  let* space = list_size (int_range 1 3) (int_range 1 7)
  and* dims = list_size (int_range 1 3) (int_range 1 8)
  and* rw = oneofl [ `Read; `Write ] in
  let* osubs = list_repeat (List.length dims) (osub_gen (List.length space))
  and* layout = layout_gen dims in
  return { rw; space; dims; osubs; layout }

(* one set of counters across every case, as a search shares it *)
let shared = Cm.Router.scratch ()

let check_fanin c =
  let a = access_of_case c in
  let want = oracle_fanin a c.layout in
  let label = print_fcase c in
  Alcotest.(check int) label want (Uc.Commpat.estimate_fanin a c.layout);
  Alcotest.(check int) (label ^ " (shared counters)") want
    (Uc.Commpat.estimate_fanin ~scratch:shared a c.layout)

let fuzz_fanin_oracle =
  qtest ~count:1000 ~print:print_fcase
    "fuzz: estimate_fanin == Hashtbl enumeration" fcase_gen (fun c ->
      check_fanin c;
      true)

let test_fanin_sizes () =
  let all_layouts dims =
    Uc.Mapping.[ Default; Shifted [| 1; -2 |]; Folded 2; Copied 4 ]
    |> List.filter (function
         | Uc.Mapping.Shifted o -> Array.length o = List.length dims
         | _ -> true)
  in
  let case ?(rw = `Read) space dims osubs =
    List.iter
      (fun layout -> check_fanin { rw; space; dims; osubs; layout })
      (all_layouts dims)
  in
  List.iter
    (fun rw ->
      (* an empty space and a single point *)
      case ~rw [ 0 ] [ 8 ] [ Aff (0, 0) ];
      case ~rw [ 3; 0 ] [ 8; 8 ] [ Aff (0, 0); Aff (1, 0) ];
      case ~rw [ 1 ] [ 8 ] [ Const 3 ];
      case ~rw [ 1 ] [ 8 ] [ Const 9 ];
      (* the largest space enumerated, aligned and gathering *)
      case ~rw [ 256; 256 ] [ 256; 256 ] [ Aff (0, 0); Aff (1, 1) ];
      case ~rw [ 256; 256 ] [ 256; 256 ] [ Divided (0, 3); Const 7 ];
      (* one point more: (size, 1) without enumerating *)
      case ~rw [ 65537 ] [ 8 ] [ Const 0 ];
      case ~rw [ 257; 256 ] [ 256; 256 ] [ Aff (0, 0); Aff (1, 0) ];
      (* addresses spanning more words than the counters cover: a small
         space over a huge array, plain and copied *)
      case ~rw [ 64 ] [ 1 lsl 20 ] [ Scaled (8192, 0, 5) ];
      case ~rw [ 64; 4 ] [ 1024; 1024 ] [ Divided (0, 3); Scaled (200, 1, 1) ])
    [ `Read; `Write ];
  Alcotest.(check int)
    "65537 points fall back" 1
    (Uc.Commpat.estimate_fanin
       (access_of_case
          {
            rw = `Read;
            space = [ 65537 ];
            dims = [ 8 ];
            osubs = [ Aff (0, 0) ];
            layout = Uc.Mapping.Default;
          })
       Uc.Mapping.Default)

let () =
  Alcotest.run "tune"
    [
      ( "commpat",
        [
          Alcotest.test_case "predict-exact" `Quick test_predict_exact;
          Alcotest.test_case "conditional return" `Quick test_conditional_return;
          Alcotest.test_case "unconditional return" `Quick
            test_unconditional_return;
          Alcotest.test_case "fan-in at the size edges" `Quick
            test_fanin_sizes;
          Alcotest.test_case "power2 subscript" `Quick test_power2_subscript;
          fuzz_fanin_oracle;
        ] );
      ( "layoutsel",
        [
          Alcotest.test_case "a1 selects hand-tuned layout" `Quick
            test_a1_selects_hand_tuned;
          Alcotest.test_case "chosen never worse than default" `Quick
            test_chosen_never_worse;
          Alcotest.test_case "emitted map sections round-trip" `Quick
            test_emit_roundtrip;
        ] );
      ("job", [ Alcotest.test_case "tuned digest" `Quick test_tuned_digest ]);
      ( "differential",
        [ fuzz_layout_fast; fuzz_tuned_run ] );
    ]
