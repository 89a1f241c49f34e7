(* [for%unroll p = lo to hi do body done] is rewritten to run [body]
   four times per loop trip, then a remainder loop of at most three
   trips:

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

   Usage: [unroll FILE] prints FILE's syntax tree, rewritten, in the
   compiler's binary form, so locations in errors and warnings point
   into FILE.  An interface is passed through unchanged. *)

open Parsetree
open Ast_helper

let width = 4
let fresh = ref 0

let unroll ~loc pat lo hi body =
  let var =
    match pat.ppat_desc with
    | Ppat_var { txt; _ } -> txt
    | _ -> Location.raise_errorf ~loc "for%%unroll: the index must be a variable"
  in
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
  let lane k =
    let index = if k = 0 then id q else op "+" (id q) (int k) in
    let subst =
      {
        Ast_mapper.default_mapper with
        expr =
          (fun self e ->
            match e.pexp_desc with
            | Pexp_ident { txt = Lident v; _ } when v = var -> index
            | _ -> Ast_mapper.default_mapper.expr self e);
        pat =
          (fun self p ->
            match p.ppat_desc with
            | Ppat_var { txt; _ } when txt = var ->
                Location.raise_errorf ~loc:p.ppat_loc "for%%unroll: the body rebinds %s" var
            | _ -> Ast_mapper.default_mapper.pat self p);
      }
    in
    subst.expr subst body
  in
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

let mapper =
  {
    Ast_mapper.default_mapper with
    expr =
      (fun self e ->
        match e.pexp_desc with
        | Pexp_extension
            ( { txt = "unroll"; _ },
              PStr
                [
                  {
                    pstr_desc =
                      Pstr_eval ({ pexp_desc = Pexp_for (pat, lo, hi, Upto, body); _ }, _);
                    _;
                  };
                ] ) ->
            (* every loop's names are numbered, so nested loops never
               capture each other's *)
            unroll ~loc:e.pexp_loc pat lo hi (self.expr self body)
        | Pexp_extension ({ txt = "unroll"; loc }, _) ->
            Location.raise_errorf ~loc "for%%unroll: expected an ascending for loop"
        | _ -> Ast_mapper.default_mapper.expr self e);
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
