open Ast

let rec pp_expr_prec prec fmt e =
  match e.e with
  | Eint i -> if i < 0 then Format.fprintf fmt "(%d)" i else Format.fprintf fmt "%d" i
  | Efloat f ->
      let s = Format.asprintf "%.17g" f in
      (* make sure it reparses as a float, not an int *)
      let s =
        if String.contains s '.' || String.contains s 'e' || String.contains s 'n'
        then s
        else s ^ ".0"
      in
      if f < 0.0 then Format.fprintf fmt "(%s)" s else Format.pp_print_string fmt s
  | Estr s -> Format.fprintf fmt "%S" s
  | Einf -> Format.pp_print_string fmt "INF"
  | Evar v -> Format.pp_print_string fmt v
  | Eindex (base, subs) ->
      pp_expr_prec 100 fmt base;
      List.iter (fun s -> Format.fprintf fmt "[%a]" (pp_expr_prec 0) s) subs
  | Ebin (op, a, b) ->
      let p = binop_prec op in
      if p < prec then Format.fprintf fmt "(";
      (* left-associative: the right operand needs one level more *)
      Format.fprintf fmt "%a %s %a" (pp_expr_prec p) a (binop_name op)
        (pp_expr_prec (p + 1)) b;
      if p < prec then Format.fprintf fmt ")"
  | Eun (op, a) ->
      if prec > 11 then Format.fprintf fmt "(";
      Format.fprintf fmt "%s%a" (unop_name op) (pp_expr_prec 11) a;
      if prec > 11 then Format.fprintf fmt ")"
  | Econd (c, a, b) ->
      if prec > 0 then Format.fprintf fmt "(";
      Format.fprintf fmt "%a ? %a : %a" (pp_expr_prec 1) c (pp_expr_prec 0) a
        (pp_expr_prec 0) b;
      if prec > 0 then Format.fprintf fmt ")"
  | Ecall (f, args) ->
      Format.fprintf fmt "%s(" f;
      List.iteri
        (fun i a ->
          if i > 0 then Format.fprintf fmt ", ";
          pp_expr_prec 0 fmt a)
        args;
      Format.fprintf fmt ")"
  | Ereduce r -> pp_reduction fmt r

and pp_reduction fmt r =
  Format.fprintf fmt "%s(%s" (redop_name r.rop) (String.concat ", " r.rsets);
  (match r.rbranches with
  | [ (None, e) ] -> Format.fprintf fmt "; %a" (pp_expr_prec 0) e
  | branches ->
      List.iter
        (fun (pred, e) ->
          match pred with
          | Some pr ->
              Format.fprintf fmt " st (%a) %a" (pp_expr_prec 0) pr
                (pp_expr_prec 0) e
          | None -> Format.fprintf fmt "; %a" (pp_expr_prec 0) e)
        branches);
  (match r.rothers with
  | Some e -> Format.fprintf fmt " others %a" (pp_expr_prec 0) e
  | None -> ());
  Format.fprintf fmt ")"

let pp_expr fmt e = pp_expr_prec 0 fmt e

let rec pp_stmt fmt st =
  match st.s with
  | Sempty -> Format.fprintf fmt ";"
  | Sexpr e -> Format.fprintf fmt "%a;" pp_expr e
  | Sassign (op, lhs, rhs) ->
      Format.fprintf fmt "%a %s %a;" pp_expr lhs (assign_op_name op) pp_expr rhs
  | Sif (c, then_, None) ->
      Format.fprintf fmt "@[<v 2>if (%a)@ %a@]" pp_expr c pp_stmt then_
  | Sif (c, then_, Some else_) ->
      Format.fprintf fmt "@[<v 2>if (%a)@ %a@]@ @[<v 2>else@ %a@]" pp_expr c
        pp_stmt then_ pp_stmt else_
  | Swhile (c, body) ->
      Format.fprintf fmt "@[<v 2>while (%a)@ %a@]" pp_expr c pp_stmt body
  | Sfor (init, cond, step, body) ->
      let pp_opt_stmt fmt = function
        | None -> ()
        | Some s -> pp_simple fmt s
      in
      let pp_opt_expr fmt = function
        | None -> ()
        | Some e -> pp_expr fmt e
      in
      Format.fprintf fmt "@[<v 2>for (%a; %a; %a)@ %a@]" pp_opt_stmt init
        pp_opt_expr cond pp_opt_stmt step pp_stmt body
  | Sblock b -> pp_block fmt b
  | Sreturn None -> Format.fprintf fmt "return;"
  | Sreturn (Some e) -> Format.fprintf fmt "return %a;" pp_expr e
  | Sbreak -> Format.fprintf fmt "break;"
  | Scontinue -> Format.fprintf fmt "continue;"
  | Spar ps -> pp_par fmt "par" ps
  | Sseq ps -> pp_par fmt "seq" ps
  | Ssolve ps -> pp_par fmt "solve" ps
  | Soneof ps -> pp_par fmt "oneof" ps

and pp_simple fmt st =
  (* statement without trailing ';' (for-loop headers) *)
  match st.s with
  | Sexpr e -> pp_expr fmt e
  | Sassign (op, lhs, rhs) ->
      Format.fprintf fmt "%a %s %a" pp_expr lhs (assign_op_name op) pp_expr rhs
  | _ -> pp_stmt fmt st

and pp_par fmt kw ps =
  Format.fprintf fmt "@[<v 2>%s%s (%s)"
    (if ps.iterate then "*" else "")
    kw
    (String.concat ", " ps.psets);
  (match ps.pbranches with
  | [ (None, st) ] -> Format.fprintf fmt "@ %a" pp_stmt st
  | branches ->
      List.iter
        (fun (pred, st) ->
          match pred with
          | Some pr -> Format.fprintf fmt "@ st (%a) %a" pp_expr pr pp_stmt st
          | None -> Format.fprintf fmt "@ %a" pp_stmt st)
        branches);
  (match ps.pothers with
  | Some st -> Format.fprintf fmt "@ others %a" pp_stmt st
  | None -> ());
  Format.fprintf fmt "@]"

and pp_block fmt b =
  Format.fprintf fmt "@[<v 2>{";
  List.iter (fun d -> Format.fprintf fmt "@ %a" pp_decl d) b.bdecls;
  List.iter (fun s -> Format.fprintf fmt "@ %a" pp_stmt s) b.bstmts;
  Format.fprintf fmt "@]@ }"

and pp_decl fmt = function
  | Dvar (ty, ds) ->
      Format.fprintf fmt "%s " (base_ty_name ty);
      List.iteri
        (fun i d ->
          if i > 0 then Format.fprintf fmt ", ";
          Format.pp_print_string fmt d.dname;
          List.iter (fun e -> Format.fprintf fmt "[%a]" pp_expr e) d.ddims;
          match d.dinit with
          | Some e -> Format.fprintf fmt " = %a" pp_expr e
          | None -> ())
        ds;
      Format.fprintf fmt ";"
  | Dindexset defs ->
      Format.fprintf fmt "index-set ";
      List.iteri
        (fun i def ->
          if i > 0 then Format.fprintf fmt ", ";
          Format.fprintf fmt "%s:%s = " def.set_name def.elem_name;
          match def.ispec with
          | Irange (lo, hi) ->
              Format.fprintf fmt "{%a .. %a}" pp_expr lo pp_expr hi
          | Ilist es ->
              Format.fprintf fmt "{";
              List.iteri
                (fun j e ->
                  if j > 0 then Format.fprintf fmt ", ";
                  pp_expr fmt e)
                es;
              Format.fprintf fmt "}"
          | Ialias s -> Format.pp_print_string fmt s)
        defs;
      Format.fprintf fmt ";"

let pp_mapping fmt = function
  | Mpermute pm ->
      Format.fprintf fmt "permute (%s) %s" (String.concat ", " pm.pmsets)
        pm.ptarget;
      List.iter (fun e -> Format.fprintf fmt "[%a]" pp_expr e) pm.ptsubs;
      Format.fprintf fmt " : - %s" pm.psource;
      List.iter (fun s -> Format.fprintf fmt "[%s]" s) pm.pssubs;
      Format.fprintf fmt ";"
  | Mfold (arr, factor, _) -> Format.fprintf fmt "fold %s by %d;" arr factor
  | Mcopy (arr, n, _) -> Format.fprintf fmt "copy %s along %a;" arr pp_expr n

let pp_top fmt = function
  | Tdecl d -> pp_decl fmt d
  | Tfunc f ->
      Format.fprintf fmt "@[<v>%s %s("
        (match f.fret with None -> "void" | Some t -> base_ty_name t)
        f.fname;
      List.iteri
        (fun i p ->
          if i > 0 then Format.fprintf fmt ", ";
          Format.fprintf fmt "%s %s" (base_ty_name p.pty) p.pname;
          for _ = 1 to p.prank do
            Format.fprintf fmt "[]"
          done)
        f.fparams;
      Format.fprintf fmt ") %a@]" pp_block f.fbody
  | Tmap m ->
      Format.fprintf fmt "@[<v 2>map (%s) {" (String.concat ", " m.msets);
      List.iter (fun mp -> Format.fprintf fmt "@ %a" pp_mapping mp) m.mmappings;
      Format.fprintf fmt "@]@ }"

let pp_program fmt prog =
  Format.fprintf fmt "@[<v>";
  List.iteri
    (fun i t ->
      if i > 0 then Format.fprintf fmt "@ @ ";
      pp_top fmt t)
    prog;
  Format.fprintf fmt "@]@."

let expr_to_string e = Format.asprintf "%a" pp_expr e
let program_to_string p = Format.asprintf "%a" pp_program p
