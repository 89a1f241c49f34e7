(* Unit tests for the Paris-IR optimizer (lib/cm/iropt.ml): each pass
   exercised on a hand-written snippet, asserting both that the rewrite
   fires (instruction census) and that the optimized program still
   computes the same thing.  The whole-corpus and fuzzed equivalence
   checks live in test_engine.ml; these pin down the individual
   transformations. *)

open Cm.Paris

let class_count cls prog =
  match List.assoc_opt cls (Cm.Iropt.class_counts prog) with
  | Some n -> n
  | None -> 0

let count_instr p prog =
  Array.fold_left (fun a i -> if p i then a + 1 else a) 0 prog.code

let run_fields ?(seed = 7) prog =
  let m = Cm.Machine.create ~seed ~fuel:1_000_000 prog in
  Cm.Machine.run m;
  m

let check_same_fields name prog opt =
  let m0 = run_fields prog and m1 = run_fields opt in
  Array.iteri
    (fun f (_vp, kind) ->
      match kind with
      | KInt ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s: f%d" name f)
            (Cm.Machine.field_ints m0 f)
            (Cm.Machine.field_ints m1 f)
      | KFloat ->
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "%s: f%d" name f)
            (Cm.Machine.field_floats m0 f)
            (Cm.Machine.field_floats m1 f))
    prog.fields;
  Alcotest.(check (list string))
    (name ^ ": output") (Cm.Machine.output m0) (Cm.Machine.output m1);
  let ns m = (Cm.Machine.meter m).Cm.Cost.elapsed_ns in
  if ns m1 > ns m0 then
    Alcotest.failf "%s: simulated time rose %.0f -> %.0f ns" name (ns m0)
      (ns m1)

(* ---- get -> send conversion (paper: remote read to remote write) ---- *)

(* path[i] fetched via an identity address then forwarded with a
   combining send: the classic get-then-forward pair.  The optimizer
   recognizes the identity address (a Pcoord on a rank-1 set), degrades
   the Pget to a local move, copy-propagates the moved field into the
   Psend and deletes the move — one router operation instead of two. *)
let get_forward_prog n =
  let b = Builder.create "get-forward" in
  let vp = Builder.vpset b (Cm.Geometry.create [ n ]) in
  let src = Builder.field b ~vpset:vp KInt in
  let dst = Builder.field b ~vpset:vp KInt in
  let tmp = Builder.field b ~vpset:vp KInt in
  let idaddr = Builder.field b ~vpset:vp KInt in
  let raddr = Builder.field b ~vpset:vp KInt in
  Builder.emit b (Cwith vp);
  Builder.emit b (Pcoord (idaddr, 0));
  Builder.emit b (Prand (src, Imm (SInt 50)));
  Builder.emit b (Prand (raddr, Imm (SInt n)));
  Builder.emit b (Pmov (dst, Imm (SInt 999)));
  Builder.emit b (Pget (tmp, src, idaddr));
  Builder.emit b (Psend (dst, tmp, raddr, Cmin));
  Builder.emit b Halt;
  Builder.finish b

let test_get_to_send () =
  let prog = get_forward_prog 16 in
  let opt, stats = Cm.Iropt.run prog in
  Alcotest.(check int) "router ops before" 2 (class_count "router" prog);
  Alcotest.(check int) "router ops after" 1 (class_count "router" opt);
  let gs =
    List.find (fun p -> p.Cm.Iropt.pass = "getsend") stats.Cm.Iropt.passes
  in
  Alcotest.(check bool) "getsend fired" true (gs.Cm.Iropt.rewritten >= 1);
  (match
     Array.to_list opt.code
     |> List.find_opt (function Psend _ -> true | _ -> false)
   with
  | Some (Psend (_, s, _, Cmin)) ->
      (* [src] is the first field allocated in get_forward_prog *)
      Alcotest.(check int) "send now reads the get's source" 0 s
  | _ -> Alcotest.fail "expected a surviving Psend");
  check_same_fields "get-to-send" prog opt

(* a non-identity address must NOT be rewritten *)
let test_get_not_identity () =
  let b = Builder.create "get-keep" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 8 ]) in
  let src = Builder.field b ~vpset:vp KInt in
  let dst = Builder.field b ~vpset:vp KInt in
  let addr = Builder.field b ~vpset:vp KInt in
  Builder.emit b (Cwith vp);
  Builder.emit b (Prand (src, Imm (SInt 50)));
  Builder.emit b (Prand (addr, Imm (SInt 8)));
  Builder.emit b (Pget (dst, src, addr));
  Builder.emit b Halt;
  let prog = Builder.finish b in
  let opt, _ = Cm.Iropt.run prog in
  Alcotest.(check int) "router op kept" 1 (class_count "router" opt);
  check_same_fields "get-keep" prog opt

(* ---- context push/pop cancellation ---- *)

let test_context_pair_cancel () =
  let b = Builder.create "ctx-cancel" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 8 ]) in
  let f = Builder.field b ~vpset:vp KInt in
  let r = Builder.reg b in
  Builder.emit b (Cwith vp);
  Builder.emit b (Prand (f, Imm (SInt 9)));
  (* only front-end work between the push and the pop: cancels *)
  Builder.emit b Cpush;
  Builder.emit b (Cand f);
  Builder.emit b (Fmov (r, Imm (SInt 3)));
  Builder.emit b Cpop;
  Builder.emit b (Fprint ("r=", Some (Reg r)));
  (* a parallel instruction under the narrowed context: must be kept *)
  Builder.emit b Cpush;
  Builder.emit b (Cand f);
  Builder.emit b (Pbin (Add, f, Fld f, Imm (SInt 1)));
  Builder.emit b Cpop;
  Builder.emit b Halt;
  let prog = Builder.finish b in
  let opt, _ = Cm.Iropt.run prog in
  let pushes = count_instr (function Cpush -> true | _ -> false) in
  Alcotest.(check int) "pushes before" 2 (pushes prog);
  Alcotest.(check int) "pushes after" 1 (pushes opt);
  check_same_fields "ctx-cancel" prog opt

(* ---- dead-field elimination ---- *)

let test_dead_field_elim () =
  let b = Builder.create "dead-field" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 8 ]) in
  let live = Builder.field b ~vpset:vp KInt in
  let dead = Builder.field b ~vpset:vp KInt in
  Builder.emit b (Cwith vp);
  Builder.emit b (Pcoord (live, 0));
  Builder.emit b (Pbin (Mul, dead, Fld live, Fld live));
  Builder.emit b (Pbin (Add, live, Fld live, Imm (SInt 1)));
  Builder.emit b Halt;
  let prog = Builder.finish b in
  (* with every field observable nothing may be deleted *)
  let all, _ = Cm.Iropt.run prog in
  Alcotest.(check int) "all live: pe kept" 3 (class_count "pe" all);
  (* with only [live] observable the Pbin into [dead] disappears *)
  let opt, stats =
    Cm.Iropt.run ~live_out_fields:[ live ] ~live_out_regs:[] prog
  in
  Alcotest.(check int) "dead store gone" 2 (class_count "pe" opt);
  let dce =
    List.find (fun p -> p.Cm.Iropt.pass = "dce") stats.Cm.Iropt.passes
  in
  Alcotest.(check bool) "dce fired" true (dce.Cm.Iropt.removed >= 1);
  let m0 = run_fields prog and m1 = run_fields opt in
  Alcotest.(check (array int))
    "live field agrees"
    (Cm.Machine.field_ints m0 live)
    (Cm.Machine.field_ints m1 live)

(* a store that might fault (division by a data-dependent value) must
   survive even when its destination is dead *)
let test_dead_but_faulting_kept () =
  let b = Builder.create "dead-faulting" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 8 ]) in
  let live = Builder.field b ~vpset:vp KInt in
  let dead = Builder.field b ~vpset:vp KInt in
  let divisor = Builder.field b ~vpset:vp KInt in
  Builder.emit b (Cwith vp);
  Builder.emit b (Pcoord (live, 0));
  Builder.emit b (Prand (divisor, Imm (SInt 3)));
  Builder.emit b (Pbin (Div, dead, Fld live, Fld divisor));
  Builder.emit b Halt;
  let prog = Builder.finish b in
  let opt, _ =
    Cm.Iropt.run ~live_out_fields:[ live ] ~live_out_regs:[] prog
  in
  Alcotest.(check int) "faulting div kept"
    (count_instr (function Pbin (Div, _, _, _) -> true | _ -> false) prog)
    (count_instr (function Pbin (Div, _, _, _) -> true | _ -> false) opt)

(* ---- front-end constant folding and propagation ---- *)

let test_const_fold () =
  let b = Builder.create "fold" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 4 ]) in
  let f = Builder.field b ~vpset:vp KInt in
  let r0 = Builder.reg b in
  let r1 = Builder.reg b in
  let r2 = Builder.reg b in
  Builder.emit b (Fmov (r0, Imm (SInt 2)));
  Builder.emit b (Fmov (r1, Imm (SInt 3)));
  Builder.emit b (Fbin (Mul, r2, Reg r0, Reg r1));
  Builder.emit b (Cwith vp);
  (* the folded constant must be pushed into the parallel operand *)
  Builder.emit b (Pmov (f, Reg r2));
  Builder.emit b (Fprint ("r2=", Some (Reg r2)));
  Builder.emit b Halt;
  let prog = Builder.finish b in
  let opt, _ = Cm.Iropt.run prog in
  Alcotest.(check bool) "Pmov got an immediate" true
    (Array.exists
       (function Pmov (_, Imm (SInt 6)) -> true | _ -> false)
       opt.code);
  check_same_fields "fold" prog opt

let test_algebraic_identity () =
  let b = Builder.create "algebra" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 4 ]) in
  let f = Builder.field b ~vpset:vp KInt in
  let g = Builder.field b ~vpset:vp KInt in
  Builder.emit b (Cwith vp);
  Builder.emit b (Pcoord (f, 0));
  Builder.emit b (Pbin (Add, g, Fld f, Imm (SInt 0)));
  Builder.emit b (Pbin (Mul, g, Fld g, Imm (SInt 1)));
  Builder.emit b Halt;
  let prog = Builder.finish b in
  let opt, _ = Cm.Iropt.run prog in
  Alcotest.(check int) "x+0 and x*1 reduced to moves/nothing" 0
    (count_instr (function Pbin _ -> true | _ -> false) opt);
  check_same_fields "algebra" prog opt

(* ---- jump threading and unreachable code ---- *)

let test_jump_threading () =
  let b = Builder.create "jumps" in
  let r = Builder.reg b in
  let l1 = Builder.label b in
  let l2 = Builder.label b in
  Builder.emit b (Fmov (r, Imm (SInt 1)));
  Builder.emit b (Jmp l1);
  (* unreachable: *)
  Builder.emit b (Fmov (r, Imm (SInt 99)));
  Builder.place b l1;
  Builder.emit b (Jmp l2);
  Builder.emit b (Fmov (r, Imm (SInt 98)));
  Builder.place b l2;
  Builder.emit b (Fprint ("r=", Some (Reg r)));
  Builder.emit b Halt;
  let prog = Builder.finish b in
  let opt, _ = Cm.Iropt.run prog in
  Alcotest.(check int) "no jumps survive" 0
    (count_instr (function Jmp _ | Jz _ | Jnz _ -> true | _ -> false) opt);
  Alcotest.(check int) "unreachable stores gone" 0
    (count_instr
       (function
         | Fmov (_, Imm (SInt (98 | 99))) -> true | _ -> false)
       opt);
  check_same_fields "jumps" prog opt

(* ---- config parsing ---- *)

let test_config_of_string () =
  let ok s = Result.get_ok (Cm.Iropt.config_of_string s) in
  Alcotest.(check string)
    "on" (Cm.Iropt.config_summary Cm.Iropt.default)
    (Cm.Iropt.config_summary (ok "on"));
  Alcotest.(check string) "off" "off" (Cm.Iropt.config_summary (ok "off"));
  Alcotest.(check string)
    "subset" "dce,peephole"
    (Cm.Iropt.config_summary (ok "peephole,dce"));
  Alcotest.(check bool) "bad pass rejected" true
    (Result.is_error (Cm.Iropt.config_of_string "peephole,bogus"));
  (* summaries round-trip *)
  List.iter
    (fun s ->
      let c = ok s in
      Alcotest.(check string) ("round-trip " ^ s)
        (Cm.Iropt.config_summary c)
        (Cm.Iropt.config_summary (ok (Cm.Iropt.config_summary c))))
    [ "on"; "off"; "constprop"; "dce"; "getsend"; "constprop,getsend" ]

let test_off_is_identity () =
  let prog = get_forward_prog 8 in
  let opt, stats = Cm.Iropt.run ~config:Cm.Iropt.off prog in
  Alcotest.(check bool) "same code" true (prog.code == opt.code);
  Alcotest.(check int) "no passes" 0 (List.length stats.Cm.Iropt.passes)

(* ---- operator parity grid ----

   Every binop over every pair of edge scalars, and every unop over every
   edge scalar, as a front-end instruction and as a parallel one into an
   int and into a float field.  The optimizer folds what it can and must
   keep what faults, so the optimized program must reproduce the
   unoptimized one bit for bit: the same error message, or the same
   registers, fields and output, never at a higher simulated cost. *)

let edge_scalars =
  [ SInt 0; SInt 1; SInt (-1); SInt 62; SInt 63; SInt 64; SInt max_int;
    SInt min_int; SInt inf_int; SFloat 0.0; SFloat (-0.0); SFloat nan;
    SFloat infinity; SFloat neg_infinity;
    SFloat (Int64.float_of_bits 1L) (* the smallest subnormal *) ]

let show_scalar = function
  | SInt i -> string_of_int i
  | SFloat f -> Printf.sprintf "%h/%Lx" f (Int64.bits_of_float f)

type shape = Simm | Sreg | Sfld

(* [mk dst r operands] on a two-VP set, after its operands are staged: a
   register by [Fmov], a field of the scalar's own kind by [Pmov]. *)
let parity_prog shape dst_kind mk args =
  let b = Builder.create "parity" in
  let vp = Builder.vpset b (Cm.Geometry.create [ 2 ]) in
  let dst = Builder.field b ~vpset:vp dst_kind in
  Builder.emit b (Cwith vp);
  let stage s =
    match shape with
    | Simm -> Imm s
    | Sreg ->
        let r = Builder.reg b in
        Builder.emit b (Fmov (r, Imm s));
        Reg r
    | Sfld ->
        let kind = match s with SInt _ -> KInt | SFloat _ -> KFloat in
        let f = Builder.field b ~vpset:vp kind in
        Builder.emit b (Pmov (f, Imm s));
        Fld f
  in
  let ops = Array.map stage args in
  let ins = mk dst (Builder.reg b) ops in
  Builder.emit b ins;
  Builder.emit b Halt;
  ( Format.asprintf "%a (dst %s) on %s" pp_instr ins
      (match dst_kind with KInt -> "int" | KFloat -> "float")
      (String.concat ", " (Array.to_list (Array.map show_scalar args))),
    Builder.finish b )

(* The front-end form with immediate and register operands; the
   parallel form with immediate, register and field operands, into an
   int and into a float field. *)
let parity_forms args ~fe ~par =
  List.map (fun sh -> parity_prog sh KInt fe args) [ Simm; Sreg ]
  @ List.concat_map
      (fun sh -> [ parity_prog sh KInt par args; parity_prog sh KFloat par args ])
      [ Simm; Sreg; Sfld ]

(* The observable outcome of a run, and its simulated ns. *)
let observe prog =
  let m = Cm.Machine.create ~fuel:1000 prog in
  let ns () = (Cm.Machine.meter m).Cm.Cost.elapsed_ns in
  match Cm.Machine.run m with
  | exception Cm.Machine.Error msg -> ([ "error: " ^ msg ], ns ())
  | () ->
      let fields =
        List.mapi
          (fun f (_, kind) ->
            match kind with
            | KInt -> Array.map string_of_int (Cm.Machine.field_ints m f)
            | KFloat ->
                Array.map (fun x -> show_scalar (SFloat x))
                  (Cm.Machine.field_floats m f))
          (Array.to_list prog.fields)
      in
      ( ("ok" :: List.init prog.nregs (fun r -> show_scalar (Cm.Machine.reg m r)))
        @ List.concat_map Array.to_list fields
        @ Cm.Machine.output m,
        ns () )

let test_operator_parity () =
  let cases =
    List.concat_map
      (fun op ->
        List.concat_map
          (fun a ->
            List.concat_map
              (fun b ->
                parity_forms [| a; b |]
                  ~fe:(fun _ r o -> Fbin (op, r, o.(0), o.(1)))
                  ~par:(fun d _ o -> Pbin (op, d, o.(0), o.(1))))
              edge_scalars)
          edge_scalars)
      binops
    @ List.concat_map
        (fun op ->
          List.concat_map
            (fun a ->
              parity_forms [| a |]
                ~fe:(fun _ r o -> Funop (op, r, o.(0)))
                ~par:(fun d _ o -> Punop (op, d, o.(0))))
            edge_scalars)
        unops
  in
  let rewritten = ref 0 and diverged = ref [] in
  List.iter
    (fun (label, prog) ->
      let opt, _ = Cm.Iropt.run prog in
      if compare opt.code prog.code <> 0 then incr rewritten;
      let want, ns0 = observe prog and got, ns1 = observe opt in
      if want <> got then
        diverged :=
          Printf.sprintf "%s: %s, optimized %s" label (String.concat " " want)
            (String.concat " " got)
          :: !diverged
      else if ns1 > ns0 then
        diverged := Printf.sprintf "%s: simulated ns rose" label :: !diverged)
    cases;
  (match List.rev !diverged with
  | [] -> ()
  | first :: _ ->
      Alcotest.failf "%d of %d cases diverge; first: %s"
        (List.length !diverged) (List.length cases) first);
  (* the grid exercises the folds, not only the instructions kept *)
  Alcotest.(check bool)
    (Printf.sprintf "optimizer rewrote %d of %d cases" !rewritten
       (List.length cases))
    true
    (!rewritten * 4 > List.length cases)

(* ---- whole-corpus ablation: optimizer on vs off ---- *)

(* The observable contract for a compiled UC program: printed output,
   every named array and scalar, and the simulated clock, which must
   never rise.  Temporaries are private to the compiler and may differ
   (that is the point of dead-code elimination). *)
let corpus_case (name, src) =
  let on = Uc.Compile.compile_source src in
  let off =
    Uc.Compile.compile_source
      ~options:{ Uc.Codegen.default_options with ir_opt = Cm.Iropt.off }
      src
  in
  Alcotest.(check bool)
    (name ^ ": optimizer does not grow the program")
    true
    (Array.length on.Uc.Codegen.prog.code
    <= Array.length off.Uc.Codegen.prog.code);
  let seed = 20260705 in
  let ton = Uc.Compile.run_compiled ~seed ~fuel:50_000_000 on in
  let toff = Uc.Compile.run_compiled ~seed ~fuel:50_000_000 off in
  Alcotest.(check (list string))
    (name ^ ": output") (Uc.Compile.output toff) (Uc.Compile.output ton);
  List.iter
    (fun (aname, meta) ->
      match meta.Uc.Codegen.aty with
      | Uc.Ast.Tint ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s: %s" name aname)
            (Uc.Compile.int_array toff aname)
            (Uc.Compile.int_array ton aname)
      | Uc.Ast.Tfloat ->
          Alcotest.(check (array (float 0.0)))
            (Printf.sprintf "%s: %s" name aname)
            (Uc.Compile.float_array toff aname)
            (Uc.Compile.float_array ton aname))
    on.Uc.Codegen.carrays;
  List.iter
    (fun (sname, _) ->
      let show = function
        | SInt i -> string_of_int i
        | SFloat f -> Printf.sprintf "%h" f
      in
      Alcotest.(check string)
        (Printf.sprintf "%s: %s" name sname)
        (show (Uc.Compile.scalar toff sname))
        (show (Uc.Compile.scalar ton sname)))
    on.Uc.Codegen.cscalars;
  let ns t = (Uc.Compile.meter t).Cm.Cost.elapsed_ns in
  if ns ton > ns toff then
    Alcotest.failf "%s: simulated time rose %.0f -> %.0f ns" name (ns toff)
      (ns ton)

let test_uc_corpus () = List.iter corpus_case Uc_programs.Programs.all_named

(* Regression: constprop must never propagate a staged copy into a
   communication instruction so that it reads the field it writes.
   The codegen emits `pmov f', f; psend f[addr], f'` for a permuted
   parallel assignment precisely because the send updates the
   destination in place; substituting f for f' let it read cells it
   had already overwritten (found by the differential fuzzer). *)
let test_send_copy_not_aliased () =
  corpus_case
    ( "send-alias",
      "#define N 8\n\
       index-set I:i = {0..N-1};\n\
       int a[N];\n\
       void main() {\n\
      \  par (I) a[i] = i;\n\
      \  par (I) st ((i) % 2 == 0) {\n\
      \    int t;\n\
      \    t = i;\n\
      \    a[i] = t + 1;\n\
      \  }\n\
      \  par (I) a[(i + 3) % 8] = a[i];\n\
       }\n" )

let test_cstar_corpus () =
  List.iter
    (fun (name, (prog_on, fld_on), (prog_off, fld_off)) ->
      Alcotest.(check bool)
        (name ^ ": optimizer does not grow the program")
        true
        (Array.length prog_on.code <= Array.length prog_off.code);
      let m_on = run_fields ~seed:11 prog_on in
      let m_off = run_fields ~seed:11 prog_off in
      Alcotest.(check (array int))
        (name ^ ": len field")
        (Cm.Machine.field_ints m_off fld_off)
        (Cm.Machine.field_ints m_on fld_on);
      let ns m = (Cm.Machine.meter m).Cm.Cost.elapsed_ns in
      if ns m_on > ns m_off then
        Alcotest.failf "%s: simulated time rose" name)
    [
      ( "path_n2",
        Cstar.Programs.path_n2 ~n:8 (),
        Cstar.Programs.path_n2 ~ir_opt:Cm.Iropt.off ~n:8 () );
      ( "path_n2-rand",
        Cstar.Programs.path_n2 ~deterministic:false ~n:8 (),
        Cstar.Programs.path_n2 ~deterministic:false ~ir_opt:Cm.Iropt.off
          ~n:8 () );
      ( "path_n3",
        Cstar.Programs.path_n3 ~n:5 (),
        Cstar.Programs.path_n3 ~ir_opt:Cm.Iropt.off ~n:5 () );
    ]

(* ---- compiler output: the generator grid, the corpus, C* ---- *)

module P = Uc_programs.Programs

let range lo hi = List.init (hi - lo + 1) (fun k -> lo + k)
let bools = [ false; true ]

(* Every corpus generator at every size and variant of the ranges the
   compile workload of perfbench/gen.ml ([small_gens]) draws from. *)
let generator_grid =
  let sized name lo hi g =
    List.map (fun n -> (Printf.sprintf "%s n=%d" name n, g n)) (range lo hi)
  in
  List.concat
    [
      sized "reductions" 4 24 (fun n -> P.reductions ~n);
      sized "abs_sum" 4 32 (fun n -> P.abs_sum ~n);
      sized "matmul" 3 8 (fun n -> P.matmul ~n);
      sized "reciprocal" 4 32 (fun n -> P.reciprocal ~n);
      sized "odd_even_flags" 4 32 (fun n -> P.odd_even_flags ~n);
      sized "ranksort" 4 32 (fun n -> P.ranksort ~n);
      sized "prefix_sums" 4 32 (fun n -> P.prefix_sums ~n);
      sized "partial_sums_seq" 4 32 (fun n -> P.partial_sums_seq ~n);
      sized "shortest_path_n2" 3 8 (fun n -> P.shortest_path_n2 ~n ());
      sized "shortest_path_n3" 3 8 (fun n -> P.shortest_path_n3 ~n ());
      sized "shortest_path_solve" 3 6 (fun n -> P.shortest_path_solve ~n ());
      sized "wavefront" 3 8 (fun n -> P.wavefront ~n);
      sized "odd_even_sort" 4 16 (fun n -> P.odd_even_sort ~n);
      sized "digit_count" 8 48 (fun n -> P.digit_count ~n);
      sized "digit_count_det" 8 48 (fun n -> P.digit_count_det ~n);
      sized "obstacle_grid" 4 10 (fun n -> P.obstacle_grid ~n);
      List.concat_map
        (fun mapped ->
          List.concat_map
            (fun steps ->
              sized
                (Printf.sprintf "stencil mapped=%b steps=%d" mapped steps)
                4 24
                (fun n -> P.stencil ~mapped ~n ~steps ()))
            (range 1 4))
        bools;
      List.concat_map
        (fun folded ->
          sized
            (Printf.sprintf "folded_pairs folded=%b" folded)
            2 16
            (fun h -> P.folded_pairs ~folded ~n:(2 * h) ()))
        bools;
      List.concat_map
        (fun copied ->
          List.concat_map
            (fun copies ->
              sized
                (Printf.sprintf "copied_broadcast copied=%b copies=%d" copied
                   copies)
                8 24
                (fun n -> P.copied_broadcast ~copied ~n ~copies ()))
            [ 2; 4 ])
        bools;
      List.concat_map
        (fun steps ->
          sized (Printf.sprintf "heat steps=%d" steps) 4 10 (fun n ->
              P.heat ~steps ~n ()))
        (range 1 4);
      [ ("quickstart", P.quickstart) ];
    ]

(* The unoptimized IR of a UC source and the storage observable after it
   halts, as [Uc.Codegen.compile] hands them to [Iropt.run]. *)
let lowered ?(options = Uc.Codegen.default_options) src =
  let c =
    Uc.Compile.compile_source
      ~options:{ options with Uc.Codegen.ir_opt = Cm.Iropt.off }
      src
  in
  ( c.Uc.Codegen.prog,
    List.map (fun (_, m) -> m.Uc.Codegen.afield) c.Uc.Codegen.carrays,
    List.map (fun (_, m) -> m.Uc.Codegen.sreg) c.Uc.Codegen.cscalars )

let single_pass_configs =
  List.map
    (fun s -> (s, Result.get_ok (Cm.Iropt.config_of_string s)))
    [ "constprop"; "dce"; "peephole"; "getsend" ]

(* ---- one sweep is a fixpoint on compiler output ----

   [Iropt.run] applied to its own output changes nothing: the sweep
   leaves no rewrite for a second one to find. *)

let check_fixpoint cases =
  let misses =
    List.filter_map
      (fun (label, (prog, fields, regs)) ->
        let run p =
          fst (Cm.Iropt.run ~live_out_fields:fields ~live_out_regs:regs p)
        in
        let once = run prog in
        let twice = run once in
        if compare once.code twice.code = 0 then None
        else
          Some
            (Printf.sprintf "%s (%d -> %d instructions)" label
               (Array.length once.code) (Array.length twice.code)))
      cases
  in
  match misses with
  | [] -> ()
  | first :: _ ->
      Alcotest.failf "%d of %d programs change on a second run; first: %s"
        (List.length misses) (List.length cases) first

let tune_golden_options =
  let d = Uc.Codegen.default_options in
  [
    ("default", d);
    ("no-news", { d with news_opt = false });
    ("no-cse", { d with cse = false });
    ("no-procopt", { d with procopt = false });
  ]

let test_fixpoint_corpus () =
  check_fixpoint
    (List.concat_map
       (fun (oname, options) ->
         List.map
           (fun (name, src) -> (name ^ " " ^ oname, lowered ~options src))
           P.all_named)
       tune_golden_options)

let test_fixpoint_cstar () =
  check_fixpoint
    (List.concat_map
       (fun n ->
         List.map
           (fun (name, (prog, fld)) ->
             (Printf.sprintf "%s n=%d" name n, (prog, [ fld ], [])))
           [
             ("path_n2", Cstar.Programs.path_n2 ~ir_opt:Cm.Iropt.off ~n ());
             ( "path_n2-rand",
               Cstar.Programs.path_n2 ~deterministic:false
                 ~ir_opt:Cm.Iropt.off ~n () );
             ("path_n3", Cstar.Programs.path_n3 ~ir_opt:Cm.Iropt.off ~n ());
           ])
       (range 2 8))

let test_fixpoint_grid () =
  check_fixpoint
    (List.map (fun (label, src) -> (label, lowered src)) generator_grid)

(* ---- the optimizer's output, pinned ----

   [test_iropt.exe pin] prints one line per program: the label, the
   digest of the optimized program, its instruction counts before and
   after, and the digest of the unoptimized program (the lowering's
   own output).  The programs are the generator grid under the default
   passes and the UC corpus under the default and each single-pass
   configuration; `dune runtest` diffs the lines against
   iropt_pin.expected. *)
let print_pin () =
  let digest (p : Cm.Paris.program) =
    Digest.to_hex
      (Digest.string
         (Marshal.to_string
            (p.geoms, p.fields, p.nregs, p.nlabels, p.code)
            [ Marshal.No_sharing ]))
  in
  let line label config (prog, fields, regs) =
    let pre = digest prog in
    let opt, st =
      Cm.Iropt.run ~config ~live_out_fields:fields ~live_out_regs:regs prog
    in
    Printf.printf "%s %s %d %d %s\n" label (digest opt)
      st.Cm.Iropt.input_instrs st.Cm.Iropt.output_instrs pre
  in
  List.iter
    (fun (label, src) -> line label Cm.Iropt.default (lowered src))
    generator_grid;
  List.iter
    (fun (cname, config) ->
      List.iter
        (fun (name, src) ->
          line (Printf.sprintf "corpus %s %s" name cname) config (lowered src))
        P.all_named)
    (("default", Cm.Iropt.default) :: single_pass_configs)

let () =
  if Array.length Sys.argv = 2 && Sys.argv.(1) = "pin" then (
    print_pin ();
    exit 0);
  Alcotest.run "iropt"
    [
      ( "passes",
        [
          Alcotest.test_case "get->send conversion" `Quick test_get_to_send;
          Alcotest.test_case "non-identity get kept" `Quick
            test_get_not_identity;
          Alcotest.test_case "context pair cancellation" `Quick
            test_context_pair_cancel;
          Alcotest.test_case "dead-field elimination" `Quick
            test_dead_field_elim;
          Alcotest.test_case "possibly-faulting store kept" `Quick
            test_dead_but_faulting_kept;
          Alcotest.test_case "constant folding" `Quick test_const_fold;
          Alcotest.test_case "algebraic identities" `Quick
            test_algebraic_identity;
          Alcotest.test_case "jump threading" `Quick test_jump_threading;
          Alcotest.test_case "config parsing" `Quick test_config_of_string;
          Alcotest.test_case "off is identity" `Quick test_off_is_identity;
          Alcotest.test_case "staged send copy never aliased" `Quick
            test_send_copy_not_aliased;
          Alcotest.test_case "operator parity grid" `Quick
            test_operator_parity;
        ] );
      ( "corpus",
        [
          Alcotest.test_case "uc programs: on == off" `Quick test_uc_corpus;
          Alcotest.test_case "cstar programs: on == off" `Quick
            test_cstar_corpus;
          Alcotest.test_case "uc programs: one sweep is a fixpoint" `Quick
            test_fixpoint_corpus;
          Alcotest.test_case "cstar programs: one sweep is a fixpoint" `Quick
            test_fixpoint_cstar;
          Alcotest.test_case "generator grid: one sweep is a fixpoint" `Quick
            test_fixpoint_grid;
        ] );
    ]
