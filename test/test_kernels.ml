(* Kernel differential grid and allocation bound for the Machine's
   instruction kernels.

   The grid runs every elementwise, NEWS, router, reduction and
   coordinate operator on every operand shape (field/field, field/imm,
   imm/field, register, imm/imm) and field kind, once on a fully active
   VP set and once under each of two context masks, on `Reference and
   `Fast.  The kernels' element loops run four elements per trip and
   then a remainder of up to three, so the VP counts run from 1 to 9
   and beyond, and between them the whole ranges have lengths at every
   residue mod 4 (checked below); one geometry has 2173 VPs.  The
   masked runs use two masks: an irregular one,
   and one whose inactive element moves through every lane position of
   the four-element groups.
   Inputs include NaN (three payloads, two of one sign), +-0.0,
   +-infinity, subnormals, max_int/min_int wraparound and float
   division by zero; the faulting int cases (division and modulo by
   zero, an out-of-range shift) run as programs of their own, one of
   them faulting on the third element of an unrolled group.  Every case writes its own destination
   field (or register), so a divergence names the case; every field,
   register, the output, the meter and the error must be bit-identical
   to the reference.

   The allocation test runs heat and stencil at two sizes on `Fast and
   requires the words allocated per run to stay the same
   up to a small constant: the kernels allocate nothing per element. *)

open Cm.Paris

let int_vals =
  [| 0; 1; -1; max_int; min_int; 7; -13; 1 lsl 40; 123456789; -(1 lsl 62); 2; 3 |]

let int_vals2 =
  [| max_int; 1; 0; -1; 3; min_int; 5; -(1 lsl 20); 64; -2; max_int - 1 |]

let nonzero = [| 3; -2; 1; -1; 7; max_int; min_int; 1 lsl 31; -5 |]
let nan2 = Int64.float_of_bits 0xFFF8_0000_0000_0000L (* the other sign *)
let nan3 = Int64.float_of_bits 0x7FF8_0000_0000_0ABCL (* another payload *)

let float_vals =
  [| 0.0; -0.0; nan; infinity; neg_infinity; 1.5; -2.25; 1e308; 5e-324;
     -1e-310; 3.0; nan2 |]

let float_vals2 =
  [| -0.0; 0.0; 2.0; nan3; neg_infinity; infinity; 1e308; -3.5; nan; 0.0;
     -7.0 |]

let cycle vals p = vals.(p mod Array.length vals)

let unop_name = function
  | Neg -> "neg" | Lnot -> "lnot" | Bnot -> "bnot" | ToFloat -> "tofloat"
  | ToInt -> "toint" | Abs -> "abs"

let combine_name = function
  | Ccheck -> "check" | Cover -> "over" | Cadd -> "add" | Cmin -> "min"
  | Cmax -> "max" | Cor -> "or" | Cand -> "and" | Cxor -> "xor"

(* ---- building one grid section ---- *)

type sec = {
  b : Builder.t;
  vp : int;
  nv : int;
  rank : int;
  mutable inits : (int * [ `I of int array | `F of float array ]) list;
  mutable labels : (string * string) list;  (* "f12"/"r3" -> case *)
  mutable code : instr list;  (* reversed *)
  (* inputs *)
  ia : int;
  ib : int;
  inz : int;  (* nonzero divisors *)
  ish : int;  (* shift amounts in range *)
  iaddr : int;  (* addresses with fan-in *)
  iperm : int;  (* a permutation *)
  imask : int;
  ilanes : int;  (* inactive on lane g mod 4 of group g *)
  izero : int;  (* nonzero but for element 6: lane 2 of the second group *)
  fa : int;
  fb : int;
  ri : int;  (* max_int *)
  rnz : int;  (* -3 *)
  rsh : int;  (* 3 *)
  rf : int;  (* -0.0 *)
  rn : int;  (* NaN *)
}

let emit s is = s.code <- List.rev_append is s.code

let new_field s kind =
  let f = Builder.field s.b ~vpset:s.vp kind in
  (* a nonzero prior value per element, so a write the context should
     have suppressed shows up *)
  s.inits <-
    (f,
     match kind with
     | KInt -> `I (Array.init s.nv (fun p -> 1000 + p))
     | KFloat -> `F (Array.init s.nv (fun p -> 1000.5 +. float_of_int p)))
    :: s.inits;
  f

let section name dims =
  let b = Builder.create name in
  let g = Cm.Geometry.create dims in
  let vp = Builder.vpset b g in
  let nv = Cm.Geometry.size g in
  let s0 =
    {
      b; vp; nv; rank = List.length dims; inits = []; labels = []; code = [];
      ia = 0; ib = 0; inz = 0; ish = 0; iaddr = 0; iperm = 0; imask = 0;
      ilanes = 0; izero = 0; fa = 0; fb = 0; ri = 0; rnz = 0; rsh = 0; rf = 0; rn = 0;
    }
  in
  let inp kind data =
    let f = Builder.field b ~vpset:vp kind in
    s0.inits <- (f, data) :: s0.inits;
    f
  in
  let ints f = inp KInt (`I (Array.init nv f)) in
  let floats f = inp KFloat (`F (Array.init nv f)) in
  let ia = ints (cycle int_vals) in
  let ib = ints (fun p -> cycle int_vals2 (p + 1)) in
  let inz = ints (cycle nonzero) in
  let ish = ints (fun p -> p * 5 mod 63) in
  let iaddr = ints (fun p -> p * p mod nv) in
  let iperm = ints (fun p -> nv - 1 - p) in
  let imask = ints (fun p -> if p mod 3 = 1 || p mod 7 = 5 then 0 else 1) in
  let ilanes = ints (fun p -> if p mod 4 = p / 4 mod 4 then 0 else 1) in
  let izero = ints (fun p -> if p = 6 then 0 else cycle nonzero p) in
  let fa = floats (cycle float_vals) in
  let fb = floats (fun p -> cycle float_vals2 (p + 2)) in
  let reg v =
    let r = Builder.reg b in
    s0.code <- Fmov (r, Imm v) :: s0.code;
    r
  in
  s0.code <- [ Cwith vp ];
  let ri = reg (SInt max_int) in
  let rnz = reg (SInt (-3)) in
  let rsh = reg (SInt 3) in
  let rf = reg (SFloat (-0.0)) in
  let rn = reg (SFloat nan) in
  { s0 with ia; ib; inz; ish; iaddr; iperm; imask; ilanes; izero; fa; fb; ri; rnz;
    rsh; rf; rn }

(* Each case runs dense and under each mask. *)
let masks s = [ (" dense", None); (" masked", Some s.imask); (" lane-masked", Some s.ilanes) ]

let under mask is =
  match mask with None -> is | Some f -> [ Cpush; Cand f ] @ is @ [ Cpop ]

(* One case: [mk d] writes destination [d]. *)
let case s label kind mk =
  List.iter
    (fun (tag, mask) ->
      let d = new_field s kind in
      s.labels <- (Printf.sprintf "f%d" d, label ^ tag) :: s.labels;
      emit s (under mask (mk d)))
    (masks s)

(* A reduction case writes a fresh register instead. *)
let reg_case s label mk =
  List.iter
    (fun (tag, mask) ->
      let r = Builder.reg s.b in
      s.labels <- (Printf.sprintf "r%d" r, label ^ tag) :: s.labels;
      emit s (under mask (mk r)))
    (masks s)

let shapes s ~a ~b ~k ~r =
  [
    ("field/field", Fld a, Fld b);
    ("field/imm", Fld a, k);
    ("imm/field", k, Fld b);
    ("reg/field", Reg r, Fld b);
    ("field/reg", Fld a, Reg r);
    ("imm/imm", k, k);
  ]

(* The operators valid at a kind are those whose Paris evaluator does
   not refuse them. *)
let valid evaluator op = match evaluator op with _ -> true | exception Program_error _ -> false
let int_ops = List.filter (valid int_binop) binops
let float_ops = List.filter (valid float_binop) binops
let cmps = List.filter is_cmp binops

let pbin_int s =
  List.iter
    (fun op ->
      let a, b, k, r =
        match op with
        | Div | Mod -> (s.ia, s.inz, Imm (SInt (-3)), s.rnz)
        | Shl | Shr -> (s.ia, s.ish, Imm (SInt 5), s.rsh)
        | _ -> (s.ia, s.ib, Imm (SInt max_int), s.ri)
      in
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "pbin.%s int %s" (binop_name op) sh) KInt
            (fun d -> [ Pbin (op, d, x, y) ]))
        (shapes s ~a ~b ~k ~r))
    int_ops

let pbin_float s =
  List.iter
    (fun op ->
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "pbin.%s float %s" (binop_name op) sh) KFloat
            (fun d -> [ Pbin (op, d, x, y) ]))
        (shapes s ~a:s.fa ~b:s.fb ~k:(Imm (SFloat (-0.0))) ~r:s.rn
        @ [ ("intfield/field", Fld s.ia, Fld s.fb); ("intimm/field", Imm (SInt 3), Fld s.fb) ]))
    float_ops;
  (* float comparisons into int fields, and an int compare whose
     register operand holds a float *)
  List.iter
    (fun op ->
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "pbin.%s float-cmp %s" (binop_name op) sh) KInt
            (fun d -> [ Pbin (op, d, x, y) ]))
        (shapes s ~a:s.fa ~b:s.fb ~k:(Imm (SFloat nan)) ~r:s.rf
        @ [ ("intfield/field", Fld s.ia, Fld s.fb); ("floatreg/intfield", Reg s.rf, Fld s.ib) ]))
    cmps

let unop_mov_sel s =
  let one_shapes a k r = [ ("field", Fld a); ("imm", k); ("reg", Reg r) ] in
  List.iter
    (fun op ->
      List.iter
        (fun (sh, x) ->
          case s (Printf.sprintf "punop.%s int %s" (unop_name op) sh) KInt
            (fun d -> [ Punop (op, d, x) ]))
        (one_shapes s.ia (Imm (SInt min_int)) s.ri))
    (List.filter (valid int_unop) unops);
  List.iter
    (fun (sh, x) ->
      case s ("punop.toint " ^ sh) KInt (fun d -> [ Punop (ToInt, d, x) ]))
    (one_shapes s.fb (Imm (SFloat (-2.5))) s.rf);
  List.iter
    (fun op ->
      List.iter
        (fun (sh, x) ->
          case s (Printf.sprintf "punop.%s float %s" (unop_name op) sh) KFloat
            (fun d -> [ Punop (op, d, x) ]))
        (one_shapes s.fa (Imm (SFloat nan3)) s.rn @ [ ("intfield", Fld s.ia) ]))
    (List.filter (valid float_unop) unops);
  List.iter
    (fun (sh, x) -> case s ("pmov int " ^ sh) KInt (fun d -> [ Pmov (d, x) ]))
    (one_shapes s.ia (Imm (SInt min_int)) s.ri);
  List.iter
    (fun (sh, x) -> case s ("pmov float " ^ sh) KFloat (fun d -> [ Pmov (d, x) ]))
    (one_shapes s.fa (Imm (SFloat nan2)) s.rf
    @ [ ("intfield", Fld s.ia); ("intimm", Imm (SInt (-4))) ]);
  let conds = [ ("intcond", Fld s.ib); ("floatcond", Fld s.fa); ("immcond", Imm (SInt 0)) ] in
  List.iter
    (fun (cn, c) ->
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "psel int %s %s" cn sh) KInt
            (fun d -> [ Psel (d, c, x, y) ]))
        (shapes s ~a:s.ia ~b:s.ib ~k:(Imm (SInt 1073741823)) ~r:s.ri);
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "psel float %s %s" cn sh) KFloat
            (fun d -> [ Psel (d, c, x, y) ]))
        (shapes s ~a:s.fa ~b:s.fb ~k:(Imm (SFloat (-0.0))) ~r:s.rn))
    conds

let comm s =
  for axis = 0 to s.rank - 1 do
    List.iter
      (fun delta ->
        let tag = Printf.sprintf "axis %d delta %d" axis delta in
        case s ("pnews int " ^ tag) KInt (fun d -> [ Pnews (d, s.ia, axis, delta) ]);
        case s ("pnews float " ^ tag) KFloat (fun d -> [ Pnews (d, s.fa, axis, delta) ]);
        case s ("pnews int in place " ^ tag) KInt
          (fun d -> [ Pmov (d, Fld s.ia); Pnews (d, d, axis, delta) ]);
        case s ("pnews float in place " ^ tag) KFloat
          (fun d -> [ Pmov (d, Fld s.fa); Pnews (d, d, axis, delta) ]))
      (* an in-place shift by -5 reads what the group before wrote *)
      [ -1; 1; -2; -5 ]
  done;
  case s "pget int" KInt (fun d -> [ Pget (d, s.ia, s.iaddr) ]);
  case s "pget float" KFloat (fun d -> [ Pget (d, s.fa, s.iaddr) ]);
  case s "pget int in place" KInt
    (fun d -> [ Pmov (d, Fld s.ia); Pget (d, d, s.iaddr) ]);
  List.iter
    (fun c ->
      case s ("psend int " ^ combine_name c) KInt
        (fun d -> [ Psend (d, s.ia, (if c = Ccheck then s.iperm else s.iaddr), c) ]))
    [ Ccheck; Cover; Cadd; Cmin; Cmax; Cor; Cand; Cxor ];
  List.iter
    (fun c ->
      case s ("psend float " ^ combine_name c) KFloat
        (fun d -> [ Psend (d, s.fa, (if c = Ccheck then s.iperm else s.iaddr), c) ]))
    [ Ccheck; Cover; Cadd; Cmin; Cmax ]

let reduce_coord s =
  let reducible kind op =
    match identity op kind with _ -> true | exception Invalid_argument _ -> false
  in
  List.iter
    (fun op ->
      reg_case s ("preduce int " ^ binop_name op) (fun r -> [ Preduce (op, r, s.ia) ]))
    (List.filter (reducible KInt) binops);
  (* fb holds two NaNs of one sign and distinct payloads, which a fold
     that swaps its accumulator and the element returns the other of *)
  List.iter
    (fun (src, f) ->
      List.iter
        (fun op ->
          reg_case s (Printf.sprintf "preduce float %s %s" (binop_name op) src)
            (fun r -> [ Preduce (op, r, f) ]))
        (List.filter (reducible KFloat) binops))
    [ ("fa", s.fa); ("fb", s.fb) ];
  for axis = 0 to s.rank - 1 do
    case s (Printf.sprintf "pcoord axis %d" axis) KInt (fun d -> [ Pcoord (d, axis) ])
  done;
  case s "cread" KInt (fun d -> [ Cread d ]);
  case s "ptable" KInt (fun d -> [ Ptable (d, Array.init s.nv (fun p -> (p * 31) - 7)) ])

(* The faulting int operators: each program stops at its fault, and the
   error and the writes before it must agree. *)
let faulting =
  [
    ("pbin.div by zero", fun s d -> [ Pbin (Div, d, Fld s.ia, Fld s.ib) ]);
    ("pbin.div by zero on lane 2", fun s d -> [ Pbin (Div, d, Fld s.ia, Fld s.izero) ]);
    ("pbin.mod by zero", fun s d -> [ Pbin (Mod, d, Fld s.ia, Fld s.ib) ]);
    ("pbin.shl out of range", fun s d -> [ Pbin (Shl, d, Fld s.ia, Fld s.ib) ]);
  ]

let finish s =
  List.iter (Builder.emit s.b) (List.rev s.code);
  Builder.finish s.b

(* ---- running and comparing ---- *)

let engines : (string * Cm.Machine.engine) list = [ ("fast", `Fast) ]

let run engine s prog =
  let m = Cm.Machine.create ~seed:11 ~engine prog in
  List.iter
    (fun (f, data) ->
      match data with
      | `I a -> Cm.Machine.set_field_ints m f a
      | `F a -> Cm.Machine.set_field_floats m f a)
    s.inits;
  let status =
    match Cm.Machine.run m with
    | () -> "finished"
    | exception Cm.Machine.Error msg -> "error: " ^ msg
  in
  (status, m)

let bits f = Int64.bits_of_float f
let hex f = if Float.is_nan f then Printf.sprintf "nan/%Lx" (bits f) else Printf.sprintf "%h" f

(* The first divergence from the reference, named by case. *)
let diff s prog (st0, m0) (st1, m1) =
  let name key = Option.value ~default:key (List.assoc_opt key s.labels) in
  let first = ref None in
  let note msg = if !first = None then first := Some msg in
  if st0 <> st1 then note (Printf.sprintf "status %S vs %S" st0 st1);
  for r = prog.nregs - 1 downto 0 do
    let show = function SInt i -> string_of_int i | SFloat f -> hex f in
    let same =
      match Cm.Machine.reg m0 r, Cm.Machine.reg m1 r with
      | SInt a, SInt b -> a = b
      | SFloat a, SFloat b -> bits a = bits b
      | _ -> false
    in
    if not same then
      note
        (Printf.sprintf "%s (r%d): %s vs %s" (name (Printf.sprintf "r%d" r)) r
           (show (Cm.Machine.reg m0 r)) (show (Cm.Machine.reg m1 r)))
  done;
  Array.iteri
    (fun f (_, kind) ->
      let key = Printf.sprintf "f%d" f in
      match kind with
      | KInt ->
          let a = Cm.Machine.field_ints m0 f and b = Cm.Machine.field_ints m1 f in
          Array.iteri
            (fun p v ->
              if v <> b.(p) then
                note (Printf.sprintf "%s (%s) element %d: %d vs %d" (name key) key p v b.(p)))
            a
      | KFloat ->
          let a = Cm.Machine.field_floats m0 f and b = Cm.Machine.field_floats m1 f in
          Array.iteri
            (fun p v ->
              if bits v <> bits b.(p) then
                note
                  (Printf.sprintf "%s (%s) element %d: %s vs %s" (name key) key p
                     (hex v) (hex b.(p))))
            a)
    prog.fields;
  let mt m = Cm.Machine.meter m in
  if bits (mt m0).Cm.Cost.elapsed_ns <> bits (mt m1).Cm.Cost.elapsed_ns then
    note "simulated time";
  if Cm.Machine.output m0 <> Cm.Machine.output m1 then note "output";
  if Cm.Machine.icount m0 <> Cm.Machine.icount m1 then note "icount";
  !first

let check_section s =
  let prog = finish s in
  let ref_run = run `Reference s prog in
  List.iter
    (fun (ename, engine) ->
      match diff s prog ref_run (run engine s prog) with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s differs from reference: %s" prog.name ename msg)
    engines

let geometries =
  List.init 9 (fun n -> [ n + 1 ]) @ [ [ 11 ]; [ 4; 5 ]; [ 41; 53 ] ]

(* The whole ranges the grid's kernels sweep have lengths at every
   residue mod 4, so every unrolled loop runs with every remainder. *)
let chunk_coverage () =
  let lengths = Array.make 4 false in
  List.iter
    (fun dims -> lengths.(List.fold_left ( * ) 1 dims mod 4) <- true)
    geometries;
  if not (Array.for_all Fun.id lengths) then
    Alcotest.fail "the grid's ranges miss a residue mod 4"

(* The [for%unroll] rewrite itself, on every range length from empty to
   12 at every start residue: it visits the indices a plain loop visits,
   in the same order, and a body that raises at index [stop] leaves
   exactly the visits before it. *)
let unroll_test () =
  for lo = 0 to 3 do
    for len = -2 to 12 do
      let hi = lo + len in
      for stop = lo - 1 to hi do
        let seen = ref [] in
        (try
           for%unroll p = lo to hi - 1 do
             if p = stop then raise Exit;
             seen := p :: !seen
           done
         with Exit -> ());
        let expect =
          List.filter (fun p -> p < stop || stop < lo) (List.init (max 0 len) (( + ) lo))
        in
        if List.rev !seen <> expect then
          Alcotest.failf "for%%unroll over [%d, %d) stopping at %d visited [%s]" lo hi stop
            (String.concat "; " (List.rev_map string_of_int !seen))
      done
    done
  done

let grid_test (sname, fill) =
  Alcotest.test_case sname `Quick (fun () ->
      List.iter
        (fun dims ->
          let name =
            Printf.sprintf "%s [%s]" sname
              (String.concat "x" (List.map string_of_int dims))
          in
          let s = section name dims in
          fill s;
          check_section s)
        geometries)

(* Dense, each program must fault; masked, the fault may fall on an
   inactive element, and the run must agree either way. *)
let fault_test (label, mk) =
  Alcotest.test_case label `Quick (fun () ->
      List.iter
        (fun (dims, masked) ->
          let s = section label dims in
          let d = new_field s KInt in
          s.labels <- [ (Printf.sprintf "f%d" d, label) ];
          emit s (under (if masked then Some s.imask else None) (mk s d));
          let prog = finish s in
          let ref_run = run `Reference s prog in
          let st = fst ref_run in
          if (not masked) && not (String.length st > 6 && String.sub st 0 6 = "error:")
          then Alcotest.failf "%s: expected a fault, got %s" label st;
          List.iter
            (fun (ename, engine) ->
              match diff s prog ref_run (run engine s prog) with
              | None -> ()
              | Some msg -> Alcotest.failf "%s: %s differs: %s" label ename msg)
            engines)
        [ ([ 11 ], false); ([ 4; 5 ], false); ([ 4; 5 ], true) ])

(* ---- allocation does not grow with the VP count ---- *)

(* Words allocated by one run, decode excluded: minor allocations plus
   those made straight on the major heap.  The run starts on an empty
   minor heap: a minor collection inside the window skews the
   counters. *)
let run_words engine src =
  let prog = (Uc.Compile.compile_source src).Uc.Codegen.prog in
  let m = Cm.Machine.create ~engine prog in
  Cm.Machine.compile m;
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  Cm.Machine.run m;
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* The two runs of each program execute the same instructions and
   differ only in VP count.  What may differ
   is one flag vector per context nesting level, allocated by a
   machine's first [Cpush] at that depth.  Before the kernels were made
   allocation-free, heat (20 steps) allocated ~1.7M words per run at
   N=48 and ~2.7M at N=64. *)
let alloc_bound = 16_384.

let alloc_test () =
  let module P = Uc_programs.Programs in
  let progs =
    [
      ("heat", P.heat ~steps:20 ~n:48 (), P.heat ~steps:20 ~n:64 ());
      ("stencil", P.stencil ~n:2048 ~steps:40 (), P.stencil ~n:4096 ~steps:40 ());
    ]
  in
  List.iter
    (fun (name, small, large) ->
      let ws = run_words `Fast small and wl = run_words `Fast large in
      if Float.abs (wl -. ws) >= alloc_bound then
        Alcotest.failf
          "%s: %.0f words per run at the small size, %.0f at the large one \
           (bound: a difference under %.0f)"
          name ws wl alloc_bound)
    progs

let () =
  Alcotest.run "kernels"
    [
      ( "grid",
        List.map grid_test
          [
            ("pbin int", pbin_int);
            ("pbin float", pbin_float);
            ("punop pmov psel", unop_mov_sel);
            ("pnews pget psend", comm);
            ("preduce pcoord", reduce_coord);
          ] );
      ( "unrolled loops",
        [
          Alcotest.test_case "rewrite keeps order and partial effects" `Quick unroll_test;
          Alcotest.test_case "grid chunks cover every residue mod 4" `Quick chunk_coverage;
        ] );
      ("faults", List.map fault_test faulting);
      ("allocation", [ Alcotest.test_case "independent of VP count" `Quick alloc_test ]);
    ]
