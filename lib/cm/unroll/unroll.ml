(* The build-time rewriter of the kernels' loops.  Three forms:

   [for%unroll p = lo to hi do body done] runs [body] four times per
   loop trip, then a remainder loop of at most three trips:

     let lo' = lo in
     let last = hi in
     let n = (last - lo' + 1) / 4 in
     for g = 0 to n - 1 do
       let q = lo' + g * 4 in
       body[p := q]; body[p := q + 1]; body[p := q + 2]; body[p := q + 3]
     done;
     for p = lo' + n * 4 to last do body done

   The bounds are evaluated once, in the order the plain loop evaluates
   them, and the indices are visited in ascending order, one whole body
   after the other, so the rewrite changes nothing a body can observe:
   a body that raises leaves exactly the effects of the indices before
   it.  ([/] truncates toward zero, so an empty range stays empty.)  The
   index is substituted as [q + k] rather than let-bound so that the
   constant folds into each array access's addressing.

   [for%kernel p = lo to hi do body done] is a kernel loop in its two
   forms, all-active and masked, with [all] and [m] (the activity flags)
   taken from the scope:

     if all then for%unroll p = lo to hi do body done
     else for%unroll p = lo to hi do if m.%(p) then body done

   [let%table name = function C -> e | ...] declares an operator table:
   one row per operator constructor, [e] its element expression over [x]
   and [y].  It emits nothing itself.  In [match%table (op, s) with
   cases], a case whose pattern has a table (or an or-pattern of tables)
   at [op]'s position becomes one case per row, with the row's
   constructor there and each [op a b] in its body replaced by the row's
   [e] over [x := a] and [y := b].  So a kernel matches on the operator
   and the operand shapes once, outside its loops.

   Usage: [unroll FILE] prints FILE's syntax tree, rewritten, in the
   compiler's binary form, so locations in errors and warnings point
   into FILE.  An interface is passed through unchanged. *)

open Parsetree
open Ast_helper

let width = 4
let fresh = ref 0

let var_of what pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> txt
  | _ -> Location.raise_errorf ~loc:pat.ppat_loc "%s: expected a variable" what

(* [e] with each variable that [subst] names replaced by its expression;
   [e] must not rebind them. *)
let replace subst e =
  let m =
    {
      Ast_mapper.default_mapper with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_ident { txt = Lident v; _ } when List.mem_assoc v subst -> List.assoc v subst
          | _ -> Ast_mapper.default_mapper.expr self e);
      pat =
        (fun self p ->
          match p.ppat_desc with
          | Ppat_var { txt; _ } when List.mem_assoc txt subst ->
              Location.raise_errorf ~loc:p.ppat_loc "the body rebinds %s" txt
          | _ -> Ast_mapper.default_mapper.pat self p);
    }
  in
  m.expr m e

let unroll ~loc pat lo hi body =
  let var = var_of "for%unroll" pat in
  incr fresh;
  let name s = Printf.sprintf "unroll_%s%d" s !fresh in
  let id s = Exp.ident ~loc { txt = Longident.Lident s; loc } in
  let int n = Exp.constant ~loc (Const.int n) in
  let op o a b =
    Exp.apply ~loc
      (Exp.ident ~loc { txt = Longident.Ldot (Lident "Stdlib", o); loc })
      [ (Asttypes.Nolabel, a); (Asttypes.Nolabel, b) ]
  in
  let let_ n e k =
    Exp.let_ ~loc Nonrecursive [ Vb.mk ~loc (Pat.var ~loc { txt = n; loc }) e ] k
  in
  let lo' = name "lo" and last = name "last" and n = name "n" and g = name "g"
  and q = name "q" in
  let lane k = replace [ (var, if k = 0 then id q else op "+" (id q) (int k)) ] body in
  let group =
    List.fold_right
      (fun k rest -> Exp.sequence ~loc (lane k) rest)
      (List.init (width - 1) Fun.id)
      (lane (width - 1))
  in
  let_ lo' lo
  @@ let_ last hi
  @@ let_ n (op "/" (op "+" (op "-" (id last) (id lo')) (int 1)) (int width))
  @@ Exp.sequence ~loc
       (Exp.for_ ~loc (Pat.var ~loc { txt = g; loc }) (int 0) (op "-" (id n) (int 1)) Upto
          (let_ q (op "+" (id lo') (op "*" (id g) (int width))) group))
       (Exp.for_ ~loc pat (op "+" (id lo') (op "*" (id n) (int width))) (id last) Upto body)

let kernel ~loc pat lo hi body =
  let id s = Exp.ident ~loc { txt = Longident.Lident s; loc } in
  let loop body =
    Exp.extension ~loc
      ({ txt = "unroll"; loc }, PStr [ Str.eval ~loc (Exp.for_ ~loc pat lo hi Upto body) ])
  in
  let p = id (var_of "for%kernel" pat) in
  let active = Exp.apply ~loc (id ".%()") [ (Nolabel, id "m"); (Nolabel, p) ] in
  Exp.ifthenelse ~loc (id "all") (loop body)
    (Some (loop (Exp.ifthenelse ~loc active body None)))

let tables : (string, case list) Hashtbl.t = Hashtbl.create 8

(* The rows a pattern names: one table's, or an or-pattern of tables'. *)
let rec rows pat =
  match pat.ppat_desc with
  | Ppat_var { txt; _ } -> Hashtbl.find_opt tables txt
  | Ppat_or (a, b) -> Option.bind (rows a) (fun r -> Option.map (( @ ) r) (rows b))
  | _ -> None

(* An operand that is a variable, a dereference or an element access is
   substituted into the row, as a hand-written loop reads it (x86 code
   selection may swap the operands of a float add whose left operand
   alone is a load, which moves a NaN payload); any other operand is
   let-bound, so that [Float.min] and [Float.max] do not box it. *)
let apply_row op row body =
  let simple a =
    match a.pexp_desc with
    | Pexp_ident _
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident ("!" | ".%()"); _ }; _ }, _) ->
        true
    | _ -> false
  in
  let m =
    {
      Ast_mapper.default_mapper with
      expr =
        (fun self e ->
          match e.pexp_desc with
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Lident v; _ }; _ }, args)
            when v = op ->
              let arg i (_, a) = (List.nth [ "x"; "y" ] i, self.expr self a) in
              let direct, bound =
                List.partition (fun (_, a) -> simple a) (List.mapi arg args)
              in
              let bind (x, a) = Vb.mk (Pat.var { txt = x; loc = a.pexp_loc }) a in
              let row = replace direct row.pc_rhs in
              if bound = [] then row else Exp.let_ Nonrecursive (List.map bind bound) row
          | _ -> Ast_mapper.default_mapper.expr self e);
    }
  in
  m.expr m body

let match_table ~loc scrut cases =
  let ops = match scrut.pexp_desc with Pexp_tuple es -> es | _ -> [ scrut ] in
  let expand case =
    let pats =
      match case.pc_lhs.ppat_desc with
      | Ppat_tuple ps when List.length ops > 1 -> ps
      | _ -> [ case.pc_lhs ]
    in
    match List.find_mapi (fun i p -> Option.map (fun r -> (i, r)) (rows p)) pats with
    | None -> [ case ]
    | Some (i, rows) ->
        let op =
          match (List.nth ops i).pexp_desc with
          | Pexp_ident { txt = Lident v; _ } -> v
          | _ -> Location.raise_errorf ~loc "match%%table: the operator must be a variable"
        in
        let row r =
          let pats = List.mapi (fun j p -> if j = i then r.pc_lhs else p) pats in
          let pc_lhs = match pats with [ p ] -> p | ps -> Pat.tuple ~loc ps in
          { case with pc_lhs; pc_rhs = apply_row op r case.pc_rhs }
        in
        List.map row rows
  in
  Exp.match_ ~loc scrut (List.concat_map expand cases)

let mapper =
  {
    Ast_mapper.default_mapper with
    expr =
      (fun self e ->
        let loc = e.pexp_loc in
        match e.pexp_desc with
        | Pexp_extension ({ txt = ("unroll" | "kernel" | "table") as txt; _ }, payload) -> (
            let body =
              match payload with
              | PStr [ { pstr_desc = Pstr_eval (body, _); _ } ] -> body.pexp_desc
              | _ -> Pexp_unreachable
            in
            match txt, body with
            | "unroll", Pexp_for (pat, lo, hi, Upto, body) ->
                (* every loop's names are numbered, so nested loops never
                   capture each other's *)
                unroll ~loc pat lo hi (self.expr self body)
            | "kernel", Pexp_for (pat, lo, hi, Upto, body) ->
                self.expr self (kernel ~loc pat lo hi body)
            | "table", Pexp_match (scrut, cases) -> self.expr self (match_table ~loc scrut cases)
            | _ ->
                Location.raise_errorf ~loc "%%%s: expected an ascending for loop or a match" txt)
        | _ -> Ast_mapper.default_mapper.expr self e);
    structure =
      (fun self items ->
        let item i =
          match i.pstr_desc with
          | Pstr_extension
              (({ txt = "table"; _ }, PStr [ { pstr_desc = Pstr_value (_, [ vb ]); _ } ]), _) -> (
              match vb.pvb_expr.pexp_desc with
              | Pexp_function rows ->
                  Hashtbl.replace tables (var_of "let%table" vb.pvb_pat) rows;
                  []
              | _ -> Location.raise_errorf ~loc:i.pstr_loc "let%%table: expected a function")
          | _ -> [ self.structure_item self i ]
        in
        List.concat_map item items);
  }

let () =
  let file = Sys.argv.(1) in
  let lexbuf = Lexing.from_channel (open_in_bin file) in
  Location.init lexbuf file;
  set_binary_mode_out stdout true;
  let emit magic ast =
    output_string stdout magic;
    output_value stdout file;
    output_value stdout ast
  in
  try
    if Filename.check_suffix file ".mli" then
      emit Config.ast_intf_magic_number (Parse.interface lexbuf)
    else
      emit Config.ast_impl_magic_number
        (mapper.structure mapper (Parse.implementation lexbuf))
  with e ->
    Location.report_exception Format.err_formatter e;
    exit 1
