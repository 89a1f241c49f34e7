open Ast

(* purity: safe to delete if its value is unused (no rand, no calls that
   could be impure once inlining has run; user calls are conservatively
   impure) *)
let rec pure e =
  match e.e with
  | Eint _ | Efloat _ | Einf | Evar _ -> true
  | Estr _ -> false
  | Eindex (b, subs) -> pure b && List.for_all pure subs
  | Ebin (_, a, b) -> pure a && pure b
  | Eun (_, a) -> pure a
  | Econd (c, a, b) -> pure c && pure a && pure b
  | Ecall (f, args) when Builtins.pure f -> List.for_all pure args
  | Ecall _ -> false
  | Ereduce _ -> false

let int_of e = match e.e with Eint i -> Some i | _ -> None

let is_int k e = match e.e with Eint i -> i = k | _ -> false

let mk d loc = { e = d; eloc = loc }

let rec fold_expr e =
  let loc = e.eloc in
  match e.e with
  | Eint _ | Efloat _ | Estr _ | Einf | Evar _ -> e
  | Eindex (b, subs) -> { e with e = Eindex (b, List.map fold_expr subs) }
  | Eun (op, a) -> (
      let a = fold_expr a in
      match op, a.e with
      | Neg, Eint i -> mk (Eint (-i)) loc
      | Neg, Efloat f -> mk (Efloat (-.f)) loc
      | Lnot, Eint i -> mk (Eint (if i = 0 then 1 else 0)) loc
      | Bnot, Eint i -> mk (Eint (lnot i)) loc
      (* !!x is not simply x (0/1 normalisation), but !!!x = !x *)
      | Lnot, Eun (Lnot, { e = Eun (Lnot, inner); _ }) ->
          mk (Eun (Lnot, inner)) loc
      | _ -> mk (Eun (op, a)) loc)
  | Econd (c, a, b) -> (
      let c = fold_expr c in
      let a = fold_expr a in
      let b = fold_expr b in
      match int_of c with
      | Some 0 -> b
      | Some _ -> a
      | None -> mk (Econd (c, a, b)) loc)
  | Ecall (f, args) -> (
      let args = List.map fold_expr args in
      let ints = List.map int_of args in
      match f, ints with
      | "power2", [ Some n ] when n >= 0 && n < 30 -> mk (Eint (1 lsl n)) loc
      | "abs", [ Some n ] -> mk (Eint (abs n)) loc
      | "min", [ Some x; Some y ] -> mk (Eint (min x y)) loc
      | "max", [ Some x; Some y ] -> mk (Eint (max x y)) loc
      | "toint", [ Some x ] -> mk (Eint x) loc
      | _ -> mk (Ecall (f, args)) loc)
  | Ereduce r ->
      mk
        (Ereduce
           {
             r with
             rbranches =
               List.map
                 (fun (p, ex) -> (Option.map fold_expr p, fold_expr ex))
                 r.rbranches;
             rothers = Option.map fold_expr r.rothers;
           })
        loc
  | Ebin (op, a, b) -> (
      let a = fold_expr a in
      let b = fold_expr b in
      let redo d = mk d loc in
      match op, int_of a, int_of b with
      | Add, Some x, Some y -> redo (Eint (x + y))
      | Sub, Some x, Some y -> redo (Eint (x - y))
      | Mul, Some x, Some y -> redo (Eint (x * y))
      | Div, Some x, Some y when y <> 0 -> redo (Eint (x / y))
      | Mod, Some x, Some y when y <> 0 -> redo (Eint (x mod y))
      | Shl, Some x, Some y when y >= 0 && y < 62 -> redo (Eint (x lsl y))
      | Shr, Some x, Some y when y >= 0 && y < 62 -> redo (Eint (x asr y))
      | Band, Some x, Some y -> redo (Eint (x land y))
      | Bor, Some x, Some y -> redo (Eint (x lor y))
      | Bxor, Some x, Some y -> redo (Eint (x lxor y))
      | Eq, Some x, Some y -> redo (Eint (if x = y then 1 else 0))
      | Ne, Some x, Some y -> redo (Eint (if x <> y then 1 else 0))
      | Lt, Some x, Some y -> redo (Eint (if x < y then 1 else 0))
      | Le, Some x, Some y -> redo (Eint (if x <= y then 1 else 0))
      | Gt, Some x, Some y -> redo (Eint (if x > y then 1 else 0))
      | Ge, Some x, Some y -> redo (Eint (if x >= y then 1 else 0))
      | Land, Some 0, _ -> redo (Eint 0)
      | Land, Some _, _ -> redo (Ebin (Ne, b, mk (Eint 0) loc))
      | Lor, Some 0, _ -> redo (Ebin (Ne, b, mk (Eint 0) loc))
      | Lor, Some _, _ -> redo (Eint 1)
      (* algebraic identities; dropping x needs purity *)
      | Add, Some 0, _ -> b
      | Add, _, Some 0 -> a
      | Sub, _, Some 0 -> a
      | Mul, Some 1, _ -> b
      | Mul, _, Some 1 -> a
      | Mul, Some 0, _ when pure b -> redo (Eint 0)
      | Mul, _, Some 0 when pure a -> redo (Eint 0)
      | Div, _, Some 1 -> a
      | Shl, _, Some 0 -> a
      | Shr, _, Some 0 -> a
      | _ -> redo (Ebin (op, a, b)))

let rec fold_stmt st =
  let d =
    match st.s with
    | Sexpr e -> Sexpr (fold_expr e)
    | Sassign (op, l, r) -> Sassign (op, fold_expr l, fold_expr r)
    | Sif (c, t, e) -> (
        let c = fold_expr c in
        match int_of c, e with
        | Some 0, Some e -> (fold_stmt e).s
        | Some 0, None -> Sempty
        | Some _, _ -> (fold_stmt t).s
        | None, _ -> Sif (c, fold_stmt t, Option.map fold_stmt e))
    | Swhile (c, b) -> Swhile (fold_expr c, fold_stmt b)
    | Sfor (i, c, s, b) ->
        Sfor
          ( Option.map fold_stmt i,
            Option.map fold_expr c,
            Option.map fold_stmt s,
            fold_stmt b )
    | Sblock b -> Sblock (fold_block b)
    | Sreturn e -> Sreturn (Option.map fold_expr e)
    | Spar ps -> Spar (fold_par ps)
    | Sseq ps -> Sseq (fold_par ps)
    | Ssolve ps -> Ssolve (fold_par ps)
    | Soneof ps -> Soneof (fold_par ps)
    | (Sempty | Sbreak | Scontinue) as d -> d
  in
  { st with s = d }

and fold_par ps =
  {
    ps with
    pbranches =
      List.map (fun (p, st) -> (Option.map fold_expr p, fold_stmt st)) ps.pbranches;
    pothers = Option.map fold_stmt ps.pothers;
  }

and fold_block b =
  {
    bdecls =
      List.map
        (function
          | Dvar (ty, ds) ->
              Dvar
                ( ty,
                  List.map (fun d -> { d with dinit = Option.map fold_expr d.dinit }) ds
                )
          | Dindexset _ as d -> d)
        b.bdecls;
    bstmts = List.map fold_stmt b.bstmts;
  }

let fold_program prog =
  List.map
    (function
      | Tfunc f -> Tfunc { f with fbody = fold_block f.fbody }
      | (Tdecl _ | Tmap _) as t -> t)
    prog
