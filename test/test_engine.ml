(* Differential testing of the Machine execution engines.

   The contract (machine.mli) is that `Fast and `Reference, which share
   no kernel, are observably identical bit for bit: registers, every
   field, printed output, meter statistics, simulated nanoseconds,
   region accounting and — on faulting programs — the error message and
   the partial state at the fault.  This file enforces the contract
   several ways:

   - a QCheck harness generating random small Paris programs (including
     deliberately faulting ones: shifts out of range, division by zero,
     conflicting Ccheck sends, bad axes) and comparing full snapshots
     across the engines;
   - whole-corpus equivalence over every named UC program in
     lib/uc_programs and the C* baselines in lib/cstar: every field a
     run leaves, so a kernel bug that moves no printed output or meter
     count still shows;
   - checkpoint-interrupt-resume runs that alternate engines at every
     slice boundary;
   - `Native and `Sharded n, the names of the retired native and
     sharded engines, checked to run exactly as `Fast;
   - targeted unit tests: the shift-range check on every engine, and a
     2560-VP set with every kind of instruction, dense and faulting. *)

open Cm.Paris

let hex f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* Everything observable, floats rendered as bit patterns so that -0.0,
   NaN payloads and last-ulp differences all count. *)
let snapshot (prog : program) (m : Cm.Machine.t) =
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  for r = 0 to prog.nregs - 1 do
    match Cm.Machine.reg m r with
    | SInt i -> add "r%d = %d\n" r i
    | SFloat f -> add "r%d = %s\n" r (hex f)
  done;
  Array.iteri
    (fun f (_vp, kind) ->
      add "f%d =" f;
      (match kind with
      | KInt -> Array.iter (fun v -> add " %d" v) (Cm.Machine.field_ints m f)
      | KFloat ->
          Array.iter (fun v -> add " %s" (hex v)) (Cm.Machine.field_floats m f));
      add "\n")
    prog.fields;
  List.iter (fun line -> add "| %s\n" line) (Cm.Machine.output m);
  let mt = Cm.Machine.meter m in
  add "elapsed=%s fe=%d pe=%d ctx=%d news=%d rops=%d rmsg=%d red=%d scan=%d xfer=%d\n"
    (hex mt.Cm.Cost.elapsed_ns) mt.Cm.Cost.fe_ops mt.Cm.Cost.pe_ops
    mt.Cm.Cost.context_ops mt.Cm.Cost.news_ops mt.Cm.Cost.router_ops
    mt.Cm.Cost.router_messages mt.Cm.Cost.reductions mt.Cm.Cost.scans
    mt.Cm.Cost.fe_cm_transfers;
  List.iter
    (fun (name, secs) -> add "region %s = %s\n" name (hex secs))
    (Cm.Machine.regions m);
  List.iter (fun line -> add "fault %s\n" line) (Cm.Machine.fault_log m);
  add "icount=%d\n" (Cm.Machine.icount m);
  Buffer.contents b

let run_engine ~seed ~fuel ?faults engine prog =
  let m = Cm.Machine.create ~seed ~fuel ~engine ?faults prog in
  let status =
    match Cm.Machine.run m with
    | () -> "finished"
    | exception Cm.Machine.Fault msg -> "fault: " ^ msg
    | exception Cm.Machine.Error msg -> "error: " ^ msg
    (* the reference interpreter leaks Invalid_argument for a few
       malformed programs (e.g. a non-reducible Preduce operator); the
       fast engine must leak the identical exception *)
    | exception Invalid_argument msg -> "invalid_arg: " ^ msg
    | exception Failure msg -> "failure: " ^ msg
  in
  status ^ "\n" ^ snapshot prog m

(* `Sharded 3 names the retired sharded engine: it must run as `Fast. *)
let other_engines : (string * Cm.Machine.engine) list =
  [ ("reference", `Reference); ("sharded:3", `Sharded 3) ]

(* Compare every engine against `Fast; report the first divergence. *)
let engines_agree ~seed ~fuel ?faults prog =
  let fast = run_engine ~seed ~fuel ?faults `Fast prog in
  let rec check = function
    | [] -> None
    | (name, engine) :: rest ->
        let other = run_engine ~seed ~fuel ?faults engine prog in
        if String.equal fast other then check rest
        else Some (name, fast, other)
  in
  check other_engines

let assert_agree ~seed ~fuel ?faults name prog =
  match engines_agree ~seed ~fuel ?faults prog with
  | None -> ()
  | Some (ename, fast, other) ->
      Alcotest.failf
        "%s: engines disagree@.--- fast ---@.%s--- %s ---@.%s" name fast
        ename other

(* ------------------------------------------------------------------ *)
(* Random Paris programs                                              *)
(* ------------------------------------------------------------------ *)

(* The generator works over a fixed storage layout so operand choices
   can be made before the Builder exists; [build] allocates in the same
   order and asserts the ids line up.  Main VP set with a handful of int
   and float fields, plus a rank-1 outer set whose geometry is a prefix
   of every candidate [dims] (for Preduce_axis). *)

let vp_main = 0
let vp_outer = 1
let int_flds = [ 0; 1; 2; 3 ]
let float_flds = [ 4; 5 ]
let outer_int = 6
let outer_float = 7
let nregs = 4 (* regs 0..2 free for the generator; reg 3 is the loop counter *)

(* Structured recipe: composite nodes keep Cpush/Cpop, Cwith and labels
   balanced by construction, so generated programs are mostly valid and
   faults come from data (shift amounts, zero divisors, send conflicts),
   not from malformed nesting. *)
type node =
  | I of instr list
  | Guard of int * node list (* Cpush; Cand fld; body; Cpop *)
  | Skip of operand * node list (* Jnz cond over body *)
  | Loop2 of node list (* body twice via a backward branch on reg 3 *)
  | OnOuter of node list (* Cwith outer; body; Cwith main *)

let flatten nodes =
  let next_label = ref 0 in
  let fresh () =
    let l = !next_label in
    incr next_label;
    l
  in
  let buf = ref [] in
  let emit i = buf := i :: !buf in
  let rec go = function
    | I is -> List.iter emit is
    | Guard (fld, body) ->
        emit Cpush;
        emit (Cand fld);
        List.iter go body;
        emit Cpop
    | Skip (cond, body) ->
        let l = fresh () in
        emit (Jnz (cond, l));
        List.iter go body;
        emit (Label l)
    | Loop2 body ->
        let l = fresh () in
        emit (Fmov (3, Imm (SInt 2)));
        emit (Label l);
        List.iter go body;
        emit (Fbin (Sub, 3, Reg 3, Imm (SInt 1)));
        emit (Jnz (Reg 3, l))
    | OnOuter body ->
        emit (Cwith vp_outer);
        List.iter go body;
        emit (Cwith vp_main)
  in
  List.iter go nodes;
  (List.rev !buf, !next_label)

let build dims nodes =
  let b = Builder.create "qcheck" in
  let vm = Builder.vpset b (Cm.Geometry.create dims) in
  let vo = Builder.vpset b (Cm.Geometry.create [ List.hd dims ]) in
  assert (vm = vp_main && vo = vp_outer);
  List.iter
    (fun f -> assert (Builder.field b ~vpset:vp_main KInt = f))
    int_flds;
  List.iter
    (fun f -> assert (Builder.field b ~vpset:vp_main KFloat = f))
    float_flds;
  assert (Builder.field b ~vpset:vp_outer KInt = outer_int);
  assert (Builder.field b ~vpset:vp_outer KFloat = outer_float);
  for _ = 1 to nregs do
    ignore (Builder.reg b)
  done;
  let body, nlabels = flatten nodes in
  for _ = 1 to nlabels do
    ignore (Builder.label b)
  done;
  let nv = List.fold_left ( * ) 1 dims in
  let prologue =
    [
      Cwith vp_main;
      Pcoord (0, 0);
      Prand (1, Imm (SInt 7));
      Prand (2, Imm (SInt 5));
      Prand (3, Imm (SInt nv));
      Punop (ToFloat, 4, Fld 1);
      Punop (ToFloat, 5, Fld 2);
      Cwith vp_outer;
      Prand (outer_int, Imm (SInt 9));
      Punop (ToFloat, outer_float, Fld outer_int);
      Cwith vp_main;
    ]
  in
  let epilogue =
    [
      Preduce (Add, 0, 1);
      Preduce (Max, 1, 4);
      Pcount 2;
      Fprint ("sum=", Some (Reg 0));
      Fprint ("max=", Some (Reg 1));
      Fprint ("n=", Some (Reg 2));
    ]
  in
  List.iter (Builder.emit b) (prologue @ body @ epilogue);
  Builder.finish b

open QCheck2

let gen_int_fld = Gen.oneofl int_flds
let gen_float_fld = Gen.oneofl float_flds
let gen_reg = Gen.int_range 0 2

let gen_int_operand =
  Gen.frequency
    [
      (5, Gen.map (fun f -> Fld f) gen_int_fld);
      (3, Gen.map (fun i -> Imm (SInt i)) (Gen.int_range (-9) 20));
      (2, Gen.map (fun r -> Reg r) gen_reg);
    ]

let gen_float_operand =
  Gen.frequency
    [
      (4, Gen.map (fun f -> Fld f) gen_float_fld);
      (2, Gen.map (fun f -> Fld f) gen_int_fld);
      ( 2,
        Gen.map
          (fun i -> Imm (SFloat (0.25 *. float_of_int i)))
          (Gen.int_range (-8) 12) );
      (2, Gen.map (fun r -> Reg r) gen_reg);
    ]

let gen_int_op =
  Gen.frequency
    [
      ( 10,
        Gen.oneofl
          [ Add; Sub; Mul; Min; Max; Band; Bor; Bxor; Land; Lor;
            Eq; Ne; Lt; Le; Gt; Ge ] );
      (2, Gen.oneofl [ Div; Mod ]);
      (1, Gen.oneofl [ Shl; Shr ]);
    ]

let gen_float_op =
  Gen.oneofl [ Add; Sub; Mul; Div; Min; Max; Eq; Ne; Lt; Le; Gt; Ge ]

(* Mostly in-range, sometimes wildly out (the Shl/Shr range check must
   fault identically on both engines). *)
let gen_shift_amount =
  Gen.frequency
    [
      (6, Gen.map (fun i -> Imm (SInt i)) (Gen.int_range 0 8));
      (1, Gen.map (fun i -> Imm (SInt i)) (Gen.oneofl [ -1; -7; 62; 63; 64; 200 ]));
      (1, Gen.map (fun f -> Fld f) gen_int_fld);
    ]

(* Divisors biased nonzero so most programs run to completion; the
   remainder exercise the divide-by-zero fault path. *)
let gen_divisor =
  Gen.frequency
    [
      (6, Gen.map (fun i -> Imm (SInt i)) (Gen.oneofl [ 1; 2; 3; 5; 7; -3 ]));
      (1, gen_int_operand);
    ]

let gen_axis rank =
  Gen.frequency
    [ (9, Gen.int_range 0 (rank - 1)); (1, Gen.return rank) (* faulting *) ]

let gen_combine =
  Gen.frequency
    [
      (8, Gen.oneofl [ Cadd; Cmin; Cmax; Cor; Cand; Cxor; Cover ]);
      (1, Gen.return Ccheck) (* conflicts fault; both engines must agree *);
    ]

let gen_leaf nv rank : instr list Gen.t =
  let open Gen in
  frequency
    [
      (* parallel int ALU *)
      ( 7,
        let* op = gen_int_op in
        let* d = gen_int_fld and* a = gen_int_operand in
        let* b =
          match op with
          | Shl | Shr -> gen_shift_amount
          | Div | Mod -> gen_divisor
          | _ -> gen_int_operand
        in
        return [ Pbin (op, d, a, b) ] );
      (* parallel float ALU *)
      ( 4,
        let* op = gen_float_op and* d = gen_float_fld in
        let* a = gen_float_operand and* b = gen_float_operand in
        return [ Pbin (op, d, a, b) ] );
      (* moves *)
      ( 3,
        let* d = gen_int_fld and* a = gen_int_operand in
        return [ Pmov (d, a) ] );
      ( 2,
        let* d = gen_float_fld and* a = gen_float_operand in
        return [ Pmov (d, a) ] );
      (* unops *)
      ( 2,
        let* op = oneofl [ Neg; Lnot; Bnot; Abs ] in
        let* d = gen_int_fld and* a = gen_int_operand in
        return [ Punop (op, d, a) ] );
      ( 1,
        let* d = gen_int_fld and* a = gen_float_operand in
        return [ Punop (ToInt, d, a) ] );
      ( 1,
        let* d = gen_float_fld and* a = gen_int_operand in
        return [ Punop (ToFloat, d, a) ] );
      ( 1,
        let* op = oneofl [ Neg; Abs ] in
        let* d = gen_float_fld and* a = gen_float_operand in
        return [ Punop (op, d, a) ] );
      (* coordinates, tables, parallel rand *)
      ( 2,
        let* d = gen_int_fld and* axis = gen_axis rank in
        return [ Pcoord (d, axis) ] );
      ( 1,
        let* d = gen_int_fld in
        let* tbl = array_size (return nv) (int_range (-5) 30) in
        return [ Ptable (d, tbl) ] );
      ( 2,
        let* d = gen_int_fld in
        let* m =
          frequency
            [
              (8, map (fun i -> Imm (SInt i)) (int_range 1 12));
              (1, return (Imm (SInt 0))) (* faulting modulus *);
            ]
        in
        return [ Prand (d, m) ] );
      (* select *)
      ( 2,
        let* d = gen_int_fld in
        let* c = oneof [ map (fun f -> Fld f) gen_int_fld;
                         map (fun f -> Fld f) gen_float_fld ] in
        let* a = gen_int_operand and* b = gen_int_operand in
        return [ Psel (d, c, a, b) ] );
      ( 1,
        let* d = gen_float_fld and* c = map (fun f -> Fld f) gen_int_fld in
        let* a = gen_float_operand and* b = gen_float_operand in
        return [ Psel (d, c, a, b) ] );
      (* reductions and scans *)
      ( 2,
        let* op =
          frequency
            [
              ( 9,
                oneofl [ Add; Mul; Min; Max; Band; Bor; Bxor; Land; Lor; Any ] );
              (1, return Eq) (* not reducible: identity fault *);
            ]
        in
        let* r = gen_reg and* f = gen_int_fld in
        return [ Preduce (op, r, f) ] );
      ( 1,
        let* op = oneofl [ Add; Mul; Min; Max; Any ] in
        let* r = gen_reg and* f = gen_float_fld in
        return [ Preduce (op, r, f) ] );
      ( 1,
        let* r = gen_reg in
        return [ Pcount r ] );
      ( 2,
        let* op = oneofl [ Add; Mul; Min; Max; Bor; Band; Bxor; Land; Lor ] in
        let* d = gen_int_fld and* s = gen_int_fld and* axis = gen_axis rank in
        return [ Pscan (op, d, s, axis) ] );
      ( 1,
        let* op = oneofl [ Add; Mul; Min; Max ] in
        let* d = gen_float_fld and* s = gen_float_fld in
        let* axis = gen_axis rank in
        return [ Pscan (op, d, s, axis) ] );
      ( 1,
        let* op = frequency [ (9, oneofl [ Add; Min; Max ]); (1, return Eq) ] in
        let* s = gen_int_fld in
        return [ Preduce_axis (op, outer_int, s) ] );
      ( 1,
        let* op = oneofl [ Add; Min; Max ] in
        let* s = gen_float_fld in
        return [ Preduce_axis (op, outer_float, s) ] );
      (* NEWS shifts, including dst == src aliasing in both directions *)
      ( 3,
        let* d = gen_int_fld and* s = gen_int_fld in
        let* axis = gen_axis rank and* delta = int_range (-3) 3 in
        return [ Pnews (d, s, axis, delta) ] );
      ( 2,
        let* d = gen_float_fld and* s = gen_float_fld in
        let* axis = gen_axis rank and* delta = int_range (-3) 3 in
        return [ Pnews (d, s, axis, delta) ] );
      (* router traffic; the Prand prefix keeps addresses in range most
         of the time, the no-prefix variants exercise the bounds fault *)
      ( 2,
        let* addr = gen_int_fld and* d = gen_int_fld and* s = gen_int_fld in
        let* fresh = frequency [ (3, return true); (1, return false) ] in
        let pre = if fresh then [ Prand (addr, Imm (SInt nv)) ] else [] in
        return (pre @ [ Pget (d, s, addr) ]) );
      ( 1,
        let* addr = gen_int_fld and* d = gen_float_fld and* s = gen_float_fld in
        return [ Prand (addr, Imm (SInt nv)); Pget (d, s, addr) ] );
      ( 2,
        let* addr = gen_int_fld and* d = gen_int_fld and* s = gen_int_fld in
        let* combine = gen_combine in
        return [ Prand (addr, Imm (SInt nv)); Psend (d, s, addr, combine) ] );
      ( 1,
        let* addr = gen_int_fld and* d = gen_float_fld and* s = gen_float_fld in
        let* combine = oneofl [ Cadd; Cmin; Cmax; Cover ] in
        return [ Prand (addr, Imm (SInt nv)); Psend (d, s, addr, combine) ] );
      (* context *)
      ( 1,
        let* d = gen_int_fld in
        return [ Cread d ] );
      (* front end *)
      ( 2,
        let* r = gen_reg and* i = int_range (-20) 20 in
        return [ Fmov (r, Imm (SInt i)) ] );
      ( 2,
        let* op = oneofl [ Add; Sub; Mul; Min; Max ] in
        let* r = gen_reg and* a = gen_reg and* i = int_range (-9) 9 in
        return [ Fbin (op, r, Reg a, Imm (SInt i)) ] );
      ( 1,
        let* op = oneofl [ Neg; Abs; ToFloat; ToInt ] in
        let* r = gen_reg and* a = gen_reg in
        return [ Funop (op, r, Reg a) ] );
      ( 1,
        let* r = gen_reg and* i = int_range 1 50 in
        return [ Frand (r, Imm (SInt i)) ] );
      ( 1,
        let* r = gen_reg and* f = gen_int_fld in
        let* a =
          frequency [ (8, int_range 0 (nv - 1)); (1, return nv) (* fault *) ]
        in
        return [ Fread (r, f, Imm (SInt a)) ] );
      ( 1,
        let* f = gen_int_fld and* a = int_range 0 (nv - 1) in
        let* v = int_range (-9) 9 in
        return [ Fwrite (f, Imm (SInt a), Imm (SInt v)) ] );
      ( 1,
        let* r = gen_reg in
        return [ Fprint ("x=", Some (Reg r)) ] );
      ( 1,
        let* i = int_range 0 2 in
        return [ Region (Printf.sprintf "r%d" i) ] );
    ]

(* Leaves restricted to the outer VP set, for OnOuter bodies. *)
let gen_outer_leaf : instr list Gen.t =
  let open Gen in
  frequency
    [
      (2, let* i = int_range (-5) 9 in return [ Pmov (outer_int, Imm (SInt i)) ]);
      (2, let* i = int_range 1 9 in return [ Prand (outer_int, Imm (SInt i)) ]);
      ( 2,
        let* op = oneofl [ Add; Sub; Mul; Min; Max ] in
        let* i = int_range (-4) 6 in
        return [ Pbin (op, outer_int, Fld outer_int, Imm (SInt i)) ] );
      (1, return [ Punop (ToFloat, outer_float, Fld outer_int) ]);
      (1, return [ Pcoord (outer_int, 0) ]);
      (1, let* r = gen_reg in return [ Preduce (Add, r, outer_int) ]);
      (1, let* r = gen_reg in return [ Pcount r ]);
      (1, return [ Cread outer_int ]);
      (1, return [ Pscan (Add, outer_int, outer_int, 0) ]);
      ( 1,
        let* delta = int_range (-2) 2 in
        return [ Pnews (outer_int, outer_int, 0, delta) ] );
    ]

let rec gen_node nv rank depth : node Gen.t =
  let open Gen in
  let leaf = map (fun is -> I is) (gen_leaf nv rank) in
  if depth = 0 then leaf
  else
    let body n g = list_size (int_range 1 n) g in
    frequency
      ([
         (10, leaf);
         ( 3,
           let* fld =
             oneof [ gen_int_fld; gen_float_fld ]
           in
           let* b = body 5 (gen_node nv rank (depth - 1)) in
           return (Guard (fld, b)) );
         ( 1,
           let* cond =
             oneof
               [
                 map (fun i -> Imm (SInt i)) (int_range 0 1);
                 map (fun r -> Reg r) gen_reg;
               ]
           in
           let* b = body 4 (gen_node nv rank (depth - 1)) in
           return (Skip (cond, b)) );
         ( 2,
           let* b = body 4 (map (fun is -> I is) gen_outer_leaf) in
           return (OnOuter b) );
       ]
      @
      (* Loop2 only at top level: its counter register must not be
         clobbered by a nested loop *)
      if depth >= 2 then
        [
          ( 2,
            let* b = body 4 (gen_node nv rank 1) in
            return (Loop2 b) );
        ]
      else [])

let gen_program : (int list * int * node list) Gen.t =
  let open Gen in
  let* dims = oneofl [ [ 6 ]; [ 8 ]; [ 4; 3 ]; [ 3; 3 ]; [ 2; 2; 3 ]; [ 5; 2 ] ] in
  let nv = List.fold_left ( * ) 1 dims in
  let rank = List.length dims in
  let* seed = int_range 0 9999 in
  let* nodes = list_size (int_range 4 25) (gen_node nv rank 2) in
  return (dims, seed, nodes)

let print_program (dims, seed, nodes) =
  let prog =
    try Format.asprintf "%a" pp_program (build dims nodes)
    with e -> "<build failed: " ^ Printexc.to_string e ^ ">"
  in
  Printf.sprintf "seed=%d dims=[%s]\n%s" seed
    (String.concat ";" (List.map string_of_int dims))
    prog

let differential_test =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:400 ~name:"random programs: all engines agree"
       ~print:print_program gen_program (fun (dims, seed, nodes) ->
         let prog = build dims nodes in
         match engines_agree ~seed ~fuel:500_000 prog with
         | None -> true
         | Some (ename, fast, other) ->
             Test.fail_reportf
               "engines disagree@.--- fast ---@.%s@.--- %s ---@.%s" fast ename
               other))

(* ------------------------------------------------------------------ *)
(* IR optimizer: optimized == unoptimized, on both engines            *)
(* ------------------------------------------------------------------ *)

(* What the optimizer must preserve: termination status, printed
   output, and — for finished runs — every register and field
   (everything is a liveness root by default).  Deliberately excluded:
   icount, fuel, meter counters and region times, which legitimately
   shrink.  On faulting runs only status + output are compared: a store
   the fault made unreachable may have been eliminated, which changes
   post-mortem memory but nothing the program ever observed. *)
let observation ~seed ~fuel engine (prog : program) =
  let m = Cm.Machine.create ~seed ~fuel ~engine prog in
  let status =
    match Cm.Machine.run m with
    | () -> "finished"
    | exception Cm.Machine.Fault msg -> "fault: " ^ msg
    | exception Cm.Machine.Error msg -> "error: " ^ msg
    | exception Invalid_argument msg -> "invalid_arg: " ^ msg
    | exception Failure msg -> "failure: " ^ msg
  in
  let b = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  for r = 0 to prog.nregs - 1 do
    match Cm.Machine.reg m r with
    | SInt i -> add "r%d = %d\n" r i
    | SFloat f -> add "r%d = %s\n" r (hex f)
  done;
  Array.iteri
    (fun f (_vp, kind) ->
      add "f%d =" f;
      (match kind with
      | KInt -> Array.iter (fun v -> add " %d" v) (Cm.Machine.field_ints m f)
      | KFloat ->
          Array.iter (fun v -> add " %s" (hex v)) (Cm.Machine.field_floats m f));
      add "\n")
    prog.fields;
  ( status,
    String.concat "\n" (Cm.Machine.output m),
    Buffer.contents b,
    (Cm.Machine.meter m).Cm.Cost.elapsed_ns )

let iropt_equiv ~seed ~fuel ~name prog =
  let opt, st = Cm.Iropt.run prog in
  ignore st;
  List.iter
    (fun engine ->
      let ename =
        match engine with
        | `Fast -> "fast"
        | `Reference -> "reference"
        | `Sharded s -> Printf.sprintf "sharded:%d" s
        | `Native -> "native"
      in
      let s0, out0, state0, ns0 = observation ~seed ~fuel engine prog in
      (* an unoptimized run that dies of fuel exhaustion proves nothing:
         the optimized stream may legitimately get further *)
      if s0 <> "error: fuel exhausted (non-terminating program?)" then begin
        let s1, out1, state1, ns1 = observation ~seed ~fuel engine opt in
        if s0 <> s1 then
          Alcotest.failf "%s (%s): status %S became %S" name ename s0 s1;
        if out0 <> out1 then
          Alcotest.failf "%s (%s): output changed@.--- before ---@.%s@.--- \
                          after ---@.%s"
            name ename out0 out1;
        if s0 = "finished" && state0 <> state1 then
          Alcotest.failf "%s (%s): final state changed@.--- before ---@.%s@.\
                          --- after ---@.%s"
            name ename state0 state1;
        if ns1 > ns0 then
          Alcotest.failf "%s (%s): simulated time rose %s -> %s ns" name ename
            (hex ns0) (hex ns1)
      end)
    [ `Fast; `Reference ]

let iropt_differential_test =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:400
       ~name:"random programs: Iropt.run preserves observations"
       ~print:print_program gen_program (fun (dims, seed, nodes) ->
         let prog = build dims nodes in
         iropt_equiv ~seed ~fuel:500_000 ~name:"qcheck" prog;
         true))

(* ------------------------------------------------------------------ *)
(* Fault injection: the engines must fault bit-identically            *)
(* ------------------------------------------------------------------ *)

(* Random fault specs assembled through the public grammar, so this also
   fuzzes the parser: random transient counts and bit flips over a short
   horizon, plus a few explicit events. *)
let gen_fault_spec : Cm.Fault.spec Gen.t =
  let open Gen in
  let* seed = int_range 0 999 in
  let* horizon = int_range 1 400 in
  let* nr = int_range 0 2 and* nn = int_range 0 2 in
  let* nc = int_range 0 2 and* nf = int_range 0 2 in
  let* explicit =
    list_size (int_range 0 3)
      (let* serial = int_range 0 300 in
       let* k = int_range 0 3 in
       return
         (match k with
         | 0 -> Printf.sprintf "router@%d" serial
         | 1 -> Printf.sprintf "news@%d" serial
         | 2 -> Printf.sprintf "chip@%d" serial
         | _ ->
             Printf.sprintf "flip@%d:%d.%d.%d" serial (serial mod 8)
               (serial mod 13) (serial mod 70)))
  in
  let s =
    Printf.sprintf "seed=%d;horizon=%d;router=%d;news=%d;chip=%d;flip=%d%s" seed
      horizon nr nn nc nf
      (String.concat "" (List.map (fun e -> ";" ^ e) explicit))
  in
  match Cm.Fault.parse s with
  | Ok spec -> return spec
  | Error msg -> failwith ("generator produced an unparsable spec: " ^ msg)

let gen_faulty_program : (int list * int * node list * Cm.Fault.spec) Gen.t =
  let open Gen in
  let* dims, seed, nodes = gen_program in
  let* spec = gen_fault_spec in
  return (dims, seed, nodes, spec)

let print_faulty_program (dims, seed, nodes, spec) =
  print_program (dims, seed, nodes)
  ^ "\nfaults: " ^ Cm.Fault.spec_string spec

let fault_differential_test =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:300
       ~name:"random programs under fault plans: fast == reference"
       ~print:print_faulty_program gen_faulty_program
       (fun (dims, seed, nodes, spec) ->
         let prog = build dims nodes in
         let faults = Cm.Fault.instantiate spec ~attempt:0 in
         match engines_agree ~seed ~fuel:500_000 ~faults prog with
         | None -> true
         | Some (ename, fast, other) ->
             Test.fail_reportf
               "engines disagree under %s@.--- fast ---@.%s@.--- %s ---@.%s"
               (Cm.Fault.canonical faults) fast ename other))

(* ------------------------------------------------------------------ *)
(* Checkpoint/restore: sliced == straight, bit for bit                *)
(* ------------------------------------------------------------------ *)

(* Run in slices, serializing a checkpoint at every slice boundary and
   restoring into a machine on ANOTHER engine, so the round-trip also
   re-proves engine equivalence at every intermediate state. *)
let engine_cycle : Cm.Machine.engine array = [| `Reference; `Fast |]

(* [`Native] and [`Sharded n] name retired engines and run on the fast
   kernels: a checkpoint taken under either must restore on [`Fast]
   (and the other way round) and finish identically, because journals
   may hold such checkpoints *)
let native_cycle : Cm.Machine.engine array =
  [| `Native; `Fast; `Native; `Reference |]

let sharded_cycle : Cm.Machine.engine array = [| `Sharded 3; `Fast; `Sharded 2 |]

let run_checkpointed ?(cycle = engine_cycle) ~seed ~fuel ?faults ~slice prog =
  let m = ref (Cm.Machine.create ~seed ~fuel ~engine:`Fast ?faults prog) in
  let next = ref 0 in
  let status =
    try
      let rec go () =
        match Cm.Machine.run_slice !m ~fuel_slice:slice with
        | `Done -> "finished"
        | `More ->
            let data = Cm.Machine.checkpoint !m in
            let engine = cycle.(!next mod Array.length cycle) in
            incr next;
            m := Cm.Machine.restore ~engine ?faults prog data;
            go ()
      in
      go ()
    with
    | Cm.Machine.Fault msg -> "fault: " ^ msg
    | Cm.Machine.Error msg -> "error: " ^ msg
    | Invalid_argument msg -> "invalid_arg: " ^ msg
    | Failure msg -> "failure: " ^ msg
  in
  status ^ "\n" ^ snapshot prog !m

let gen_ckpt_case :
    (int list * int * node list * Cm.Fault.spec option * int) Gen.t =
  let open Gen in
  let* dims, seed, nodes = gen_program in
  let* spec = frequency [ (2, return None); (1, map Option.some gen_fault_spec) ] in
  let* slice = oneofl [ 1; 7; 23; 100; 1000 ] in
  return (dims, seed, nodes, spec, slice)

let print_ckpt_case (dims, seed, nodes, spec, slice) =
  Printf.sprintf "%s\nfaults: %s slice=%d"
    (print_program (dims, seed, nodes))
    (match spec with None -> "none" | Some s -> Cm.Fault.spec_string s)
    slice

let checkpoint_roundtrip_test =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:200
       ~name:"checkpoint-interrupt-resume == straight run"
       ~print:print_ckpt_case gen_ckpt_case
       (fun (dims, seed, nodes, spec, slice) ->
         let prog = build dims nodes in
         let faults = Option.map (Cm.Fault.instantiate ~attempt:0) spec in
         let straight = run_engine ~seed ~fuel:500_000 ?faults `Fast prog in
         let sliced = run_checkpointed ~seed ~fuel:500_000 ?faults ~slice prog in
         if String.equal straight sliced then true
         else
           Test.fail_reportf
             "checkpointed run diverged@.--- straight ---@.%s@.--- sliced \
              (slice=%d) ---@.%s"
             straight slice sliced))

let native_checkpoint_test =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:100
       ~name:"checkpoint slices alternating through native == straight run"
       ~print:print_ckpt_case gen_ckpt_case
       (fun (dims, seed, nodes, spec, slice) ->
         let prog = build dims nodes in
         let faults = Option.map (Cm.Fault.instantiate ~attempt:0) spec in
         let straight = run_engine ~seed ~fuel:500_000 ?faults `Fast prog in
         let sliced =
           run_checkpointed ~cycle:native_cycle ~seed ~fuel:500_000 ?faults
             ~slice prog
         in
         if String.equal straight sliced then true
         else
           Test.fail_reportf
             "native-checkpointed run diverged@.--- straight ---@.%s@.--- \
              sliced (slice=%d) ---@.%s"
             straight slice sliced))

(* [`Native] names the retired native engine: it resolves to [`Fast],
   never compiles, and runs bit for bit like [`Fast], under fault plans
   too. *)
let native_alias_test =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:100 ~name:"random programs: native == fast"
       ~print:print_ckpt_case gen_ckpt_case
       (fun (dims, seed, nodes, spec, _slice) ->
         let prog = build dims nodes in
         let faults = Option.map (Cm.Fault.instantiate ~attempt:0) spec in
         let m = Cm.Machine.create ~engine:`Native ?faults prog in
         if Cm.Machine.effective_engine m <> `Fast then
           Test.fail_report "native does not resolve to fast";
         if Result.is_ok (Cm.Machine.compile_native m) then
           Test.fail_report "compile_native succeeded";
         let fast = run_engine ~seed ~fuel:500_000 ?faults `Fast prog in
         let native = run_engine ~seed ~fuel:500_000 ?faults `Native prog in
         if String.equal fast native then true
         else
           Test.fail_reportf
             "engines disagree@.--- fast ---@.%s@.--- native ---@.%s" fast
             native))

(* [`Sharded n] names the retired sharded engine: it resolves to
   [`Fast] and runs bit for bit like it, under fault plans too, and a
   checkpoint taken under it restores on [`Fast]. *)
let sharded_alias_test =
  QCheck_alcotest.to_alcotest
    (Test.make ~count:100 ~name:"random programs: sharded == fast"
       ~print:print_ckpt_case gen_ckpt_case
       (fun (dims, seed, nodes, spec, slice) ->
         let prog = build dims nodes in
         let faults = Option.map (Cm.Fault.instantiate ~attempt:0) spec in
         let m = Cm.Machine.create ~engine:(`Sharded 3) ?faults prog in
         if Cm.Machine.effective_engine m <> `Fast then
           Test.fail_report "sharded:3 does not resolve to fast";
         let fast = run_engine ~seed ~fuel:500_000 ?faults `Fast prog in
         let sharded = run_engine ~seed ~fuel:500_000 ?faults (`Sharded 3) prog in
         let sliced =
           run_checkpointed ~cycle:sharded_cycle ~seed ~fuel:500_000 ?faults
             ~slice prog
         in
         if not (String.equal fast sharded) then
           Test.fail_reportf
             "engines disagree@.--- fast ---@.%s@.--- sharded:3 ---@.%s" fast
             sharded
         else if not (String.equal fast sliced) then
           Test.fail_reportf
             "sharded-checkpointed run diverged@.--- straight ---@.%s@.--- \
              sliced (slice=%d) ---@.%s"
             fast slice sliced
         else true))

(* ------------------------------------------------------------------ *)
(* Whole-corpus equivalence                                           *)
(* ------------------------------------------------------------------ *)

let test_uc_corpus () =
  List.iter
    (fun (name, src) ->
      let compiled = Uc.Compile.compile_source src in
      assert_agree ~seed:20260705 ~fuel:50_000_000 name
        compiled.Uc.Codegen.prog)
    Uc_programs.Programs.all_named

(* the canned plan used by the CI fault gate: transients and flips over
   the whole corpus, both engines *)
let test_uc_corpus_under_faults () =
  let spec =
    match
      Cm.Fault.parse "seed=33;horizon=30000;router=2;news=2;chip=2;flip=2"
    with
    | Ok s -> s
    | Error msg -> Alcotest.fail msg
  in
  let faults = Cm.Fault.instantiate spec ~attempt:0 in
  List.iter
    (fun (name, src) ->
      let compiled = Uc.Compile.compile_source src in
      assert_agree ~seed:20260705 ~fuel:50_000_000 ~faults name
        compiled.Uc.Codegen.prog)
    Uc_programs.Programs.all_named

let test_cstar_corpus () =
  List.iter
    (fun (name, prog) -> assert_agree ~seed:11 ~fuel:50_000_000 name prog)
    [
      ("cstar:path_n2", fst (Cstar.Programs.path_n2 ~n:8 ()));
      ( "cstar:path_n2-rand",
        fst (Cstar.Programs.path_n2 ~deterministic:false ~n:8 ()) );
      ("cstar:path_n3", fst (Cstar.Programs.path_n3 ~n:5 ()));
    ]

(* ------------------------------------------------------------------ *)
(* Shift-range checks (satellite bugfix)                              *)
(* ------------------------------------------------------------------ *)

let shift_prog op amount =
  let b = Builder.create "shift" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 4 ]) in
  let f = Builder.field b ~vpset:vp KInt in
  Builder.emit b (Cwith vp);
  Builder.emit b (Pmov (f, Imm (SInt 4)));
  Builder.emit b (Pbin (op, f, Fld f, Imm (SInt amount)));
  Builder.finish b

let fe_shift_prog op amount =
  let b = Builder.create "fe-shift" in
  let r = Builder.reg b in
  Builder.emit b (Fbin (op, r, Imm (SInt 1), Imm (SInt amount)));
  Builder.finish b

let expect_shift_error engine prog =
  let m = Cm.Machine.create ~engine prog in
  match Cm.Machine.run m with
  | () -> Alcotest.fail "expected a shift-range Machine.Error"
  | exception Cm.Machine.Error msg ->
      if not (Astring.String.is_infix ~affix:"shift amount" msg) then
        Alcotest.failf "error %S does not mention the shift amount" msg

let test_shift_range () =
  List.iter
    (fun engine ->
      List.iter
        (fun amount ->
          expect_shift_error engine (shift_prog Shl amount);
          expect_shift_error engine (shift_prog Shr amount);
          expect_shift_error engine (fe_shift_prog Shl amount))
        [ -1; -63; Sys.int_size; 64; 1000 ])
    [ `Fast; `Reference; `Sharded 3 ];
  (* in-range shifts compute normally on every engine *)
  List.iter
    (fun engine ->
      let m = Cm.Machine.create ~engine (shift_prog Shl 3) in
      Cm.Machine.run m;
      Alcotest.(check (array int))
        "shl 3" [| 32; 32; 32; 32 |]
        (Cm.Machine.field_ints m 0);
      let m = Cm.Machine.create ~engine (shift_prog Shr 2) in
      Cm.Machine.run m;
      Alcotest.(check (array int))
        "shr 2" [| 1; 1; 1; 1 |]
        (Cm.Machine.field_ints m 0))
    [ `Fast; `Reference; `Sharded 3 ]

(* Pre-compiling is idempotent, does not perturb results, and decodes
   exactly the kernels the engine runs: once on every decoding engine
   (native, which runs on fast, included), never on the reference. *)
let test_compile_idempotent () =
  let prog = shift_prog Shl 2 in
  List.iter
    (fun (engine, decodes) ->
      let name = Ucd.Job.engine_string engine in
      let obs = Obs.create () in
      let m = Cm.Machine.create ~engine ~obs prog in
      Alcotest.check Alcotest.bool (name ^ ": engine") true
        (Cm.Machine.engine m = engine);
      Cm.Machine.compile m;
      Cm.Machine.compile m;
      Cm.Machine.run m;
      Alcotest.(check (array int)) (name ^ ": result") [| 16; 16; 16; 16 |]
        (Cm.Machine.field_ints m 0);
      let spans =
        List.length
          (List.filter
             (fun (e : Obs.event) -> e.name = "cm.decode" && e.phase = Obs.Begin)
             (Obs.events obs))
      in
      Alcotest.(check int) (name ^ ": cm.decode spans") decodes spans)
    [ (`Fast, 1); (`Sharded 3, 1); (`Native, 1); (`Reference, 0) ]

(* ------------------------------------------------------------------ *)
(* Engine names and a large VP set                                    *)
(* ------------------------------------------------------------------ *)

(* A shard count still names a job, so an invalid one is refused. *)
let test_bad_shard_count () =
  let prog = shift_prog Shl 2 in
  List.iter
    (fun n ->
      match Cm.Machine.create ~engine:(`Sharded n) prog with
      | _ -> Alcotest.failf "`Sharded %d accepted" n
      | exception Invalid_argument _ -> ())
    [ 0; -1 ]

(* A VP set of 2560 VPs, above the retired sharded engine's fan-out
   threshold (the two tests below keep their names): elementwise ops, NEWS
   on both axes, selects, reductions, scans and router traffic, checked
   between `Fast and `Reference. *)
let big_prog () =
  let b = Builder.create "big" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 64; 40 ]) in
  let x = Builder.field b ~vpset:vp KInt in
  let y = Builder.field b ~vpset:vp KInt in
  let addr = Builder.field b ~vpset:vp KInt in
  let f = Builder.field b ~vpset:vp KFloat in
  let g = Builder.field b ~vpset:vp KFloat in
  let r0 = Builder.reg b in
  let r1 = Builder.reg b in
  List.iter (Builder.emit b)
    [
      Cwith vp;
      Pcoord (x, 0);
      Pcoord (y, 1);
      Pbin (Mul, x, Fld x, Imm (SInt 3));
      Pbin (Add, x, Fld x, Fld y);
      Punop (ToFloat, f, Fld x);
      Pbin (Div, g, Fld f, Imm (SFloat 4.0));
      Pnews (y, x, 0, 1);
      Pnews (y, y, 1, -1);
      Psel (x, Fld y, Fld x, Imm (SInt (-7)));
      Prand (addr, Imm (SInt 2560));
      Pget (y, x, addr);
      Psend (y, x, addr, Cadd);
      Pscan (Add, y, y, 0);
      Preduce (Add, r0, x);
      Preduce (Max, r1, y);
      Preduce (Min, r0, y);
      Preduce (Bxor, r1, x);
      Pbin (Shl, x, Fld x, Imm (SInt 2));
      Pbin (Mod, y, Fld y, Imm (SInt 97));
      Punop (Abs, y, Fld y);
      Pcount r0;
      Fprint ("n=", Some (Reg r0));
      Fprint ("r1=", Some (Reg r1));
    ];
  Builder.finish b

let test_sharded_fanout () =
  assert_agree ~seed:4242 ~fuel:1_000_000 "big [64;40]" (big_prog ())

(* A faulting sweep must surface the same error as the reference, with
   the same partial state. *)
let test_sharded_fault_parity () =
  let b = Builder.create "bigfault" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 2560 ]) in
  let x = Builder.field b ~vpset:vp KInt in
  List.iter (Builder.emit b)
    [
      Cwith vp;
      Pcoord (x, 0);
      (* shift amount out of range on every VP: can-fault op *)
      Pbin (Shl, x, Fld x, Imm (SInt 400));
    ];
  assert_agree ~seed:1 ~fuel:1_000_000 "big faulting shl"
    (Builder.finish b)

let () =
  Alcotest.run "engine"
    [
      ( "differential",
        [
          differential_test;
          native_alias_test;
          sharded_alias_test;
          iropt_differential_test;
          fault_differential_test;
          checkpoint_roundtrip_test;
          native_checkpoint_test;
          Alcotest.test_case "shift range faults" `Quick test_shift_range;
          Alcotest.test_case "compile idempotent" `Quick
            test_compile_idempotent;
          Alcotest.test_case "invalid shard counts" `Quick
            test_bad_shard_count;
          Alcotest.test_case "sharded fan-out over 2560 VPs" `Quick
            test_sharded_fanout;
          Alcotest.test_case "sharded fault parity over 2560 VPs" `Quick
            test_sharded_fault_parity;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "uc programs" `Quick test_uc_corpus;
          Alcotest.test_case "uc programs under a fault plan" `Quick
            test_uc_corpus_under_faults;
          Alcotest.test_case "cstar programs" `Quick test_cstar_corpus;
        ] );
    ]
