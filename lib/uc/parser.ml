open Ast
open Token

type p = { toks : (Token.t * Loc.t) array; mutable pos : int }

let cur p = fst p.toks.(p.pos)
let cur_loc p = snd p.toks.(p.pos)

let peek_tok p k =
  let i = p.pos + k in
  if i < Array.length p.toks then fst p.toks.(i) else EOF

let advance p = if p.pos < Array.length p.toks - 1 then p.pos <- p.pos + 1

let err p fmt = Loc.error (cur_loc p) fmt

(* is the current token [tok]? *)
let is p tok = Token.equal (cur p) tok

let expect p tok =
  if is p tok then advance p
  else
    err p "expected '%s' but found '%s'" (Token.to_string tok)
      (Token.to_string (cur p))

let expect_ident p =
  match cur p with
  | IDENT name ->
      advance p;
      name
  | t -> err p "expected an identifier but found '%s'" (Token.to_string t)

let accept p tok =
  if is p tok then begin
    advance p;
    true
  end
  else false

(* ---------------- expressions ---------------- *)

let mk l e = { e; eloc = l }

let assign_of_token = function
  | ASSIGN -> Some Aset
  | PLUSEQ -> Some Aadd
  | MINUSEQ -> Some Asub
  | STAREQ -> Some Amul
  | SLASHEQ -> Some Adiv
  | PERCENTEQ -> Some Amod
  | MINASSIGN -> Some Amin
  | MAXASSIGN -> Some Amax
  | _ -> None

let binop_of_token = function
  | OROR -> Some Lor
  | ANDAND -> Some Land
  | PIPE -> Some Bor
  | CARET -> Some Bxor
  | AMP -> Some Band
  | EQ -> Some Eq
  | NE -> Some Ne
  | LT -> Some Lt
  | LE -> Some Le
  | GT -> Some Gt
  | GE -> Some Ge
  | SHL -> Some Shl
  | SHR -> Some Shr
  | PLUS -> Some Add
  | MINUS -> Some Sub
  | STAR -> Some Mul
  | SLASH -> Some Div
  | PERCENT -> Some Mod
  | _ -> None

let rec parse_expr_p p = parse_cond p

and parse_cond p =
  let l = cur_loc p in
  let c = parse_binary p 1 in
  if accept p QUESTION then begin
    let a = parse_expr_p p in
    expect p COLON;
    let b = parse_cond p in
    mk l (Econd (c, a, b))
  end
  else c

(* precedence climbing over Ast.binop_prec: [parse_binary p min_prec]
   parses a chain of operators that bind at least as tightly as
   [min_prec]; a node's location is that of its left operand *)
and parse_binary p min_prec =
  let l = cur_loc p in
  let rec go lhs =
    match binop_of_token (cur p) with
    | Some op when binop_prec op >= min_prec ->
        advance p;
        let rhs = parse_binary p (binop_prec op + 1) in
        go (mk l (Ebin (op, lhs, rhs)))
    | _ -> lhs
  in
  go (parse_unary p)

and parse_unary p =
  let l = cur_loc p in
  match cur p with
  | MINUS ->
      advance p;
      mk l (Eun (Neg, parse_unary p))
  | NOT ->
      advance p;
      mk l (Eun (Lnot, parse_unary p))
  | TILDE ->
      advance p;
      mk l (Eun (Bnot, parse_unary p))
  | PLUS ->
      advance p;
      parse_unary p
  | _ -> parse_postfix p

and parse_postfix p =
  let l = cur_loc p in
  let rec subs acc =
    if accept p LBRACKET then begin
      let i = parse_expr_p p in
      expect p RBRACKET;
      subs (i :: acc)
    end
    else List.rev acc
  in
  let base = parse_primary p in
  match cur p with
  | LBRACKET ->
      let indices = subs [] in
      mk l (Eindex (base, indices))
  | _ -> base

and parse_primary p =
  let l = cur_loc p in
  match cur p with
  | INT i ->
      advance p;
      mk l (Eint i)
  | FLOAT f ->
      advance p;
      mk l (Efloat f)
  | KW_INF ->
      advance p;
      mk l Einf
  | LPAREN ->
      advance p;
      let e = parse_expr_p p in
      expect p RPAREN;
      e
  | RED rop ->
      advance p;
      mk l (Ereduce (parse_reduction p rop))
  | IDENT name ->
      advance p;
      if accept p LPAREN then begin
        let args =
          if is p RPAREN then []
          else begin
            let rec go acc =
              let a = parse_call_arg p in
              if accept p COMMA then go (a :: acc) else List.rev (a :: acc)
            in
            go []
          end
        in
        expect p RPAREN;
        mk l (Ecall (name, args))
      end
      else mk l (Evar name)
  | t -> err p "unexpected '%s' in expression" (Token.to_string t)

and parse_call_arg p =
  (* string literals are only allowed as arguments of print() *)
  let l = cur_loc p in
  match cur p with
  | STRING s ->
      advance p;
      mk l (Estr s)
  | _ -> parse_expr_p p

and parse_reduction p rop =
  expect p LPAREN;
  let rec sets acc =
    let s = expect_ident p in
    if accept p COMMA then sets (s :: acc) else List.rev (s :: acc)
  in
  let rsets = sets [] in
  let red =
    if accept p SEMI then begin
      (* "$op (I; exp)": a single unpredicated branch *)
      let e = parse_expr_p p in
      { rop; rsets; rbranches = [ (None, e) ]; rothers = None }
    end
    else if is p KW_ST then begin
      let rec branches acc =
        if accept p KW_ST then begin
          expect p LPAREN;
          let pred = parse_expr_p p in
          expect p RPAREN;
          let e = parse_expr_p p in
          branches ((Some pred, e) :: acc)
        end
        else List.rev acc
      in
      let rbranches = branches [] in
      let rothers = if accept p KW_OTHERS then Some (parse_expr_p p) else None in
      { rop; rsets; rbranches; rothers }
    end
    else
      let e = parse_expr_p p in
      { rop; rsets; rbranches = [ (None, e) ]; rothers = None }
  in
  expect p RPAREN;
  red

(* ---------------- statements ---------------- *)

let rec parse_stmt p =
  let l = cur_loc p in
  match cur p with
  | SEMI ->
      advance p;
      { s = Sempty; sloc = l }
  | LBRACE ->
      let b = parse_block p in
      { s = Sblock b; sloc = l }
  | KW_IF ->
      advance p;
      expect p LPAREN;
      let c = parse_expr_p p in
      expect p RPAREN;
      let then_ = parse_stmt p in
      let else_ = if accept p KW_ELSE then Some (parse_stmt p) else None in
      { s = Sif (c, then_, else_); sloc = l }
  | KW_WHILE ->
      advance p;
      expect p LPAREN;
      let c = parse_expr_p p in
      expect p RPAREN;
      let body = parse_stmt p in
      { s = Swhile (c, body); sloc = l }
  | KW_FOR ->
      advance p;
      expect p LPAREN;
      let init = if is p SEMI then None else Some (parse_simple_stmt p) in
      expect p SEMI;
      let cond = if is p SEMI then None else Some (parse_expr_p p) in
      expect p SEMI;
      let step = if is p RPAREN then None else Some (parse_simple_stmt p) in
      expect p RPAREN;
      let body = parse_stmt p in
      { s = Sfor (init, cond, step, body); sloc = l }
  | KW_RETURN ->
      advance p;
      let e = if is p SEMI then None else Some (parse_expr_p p) in
      expect p SEMI;
      { s = Sreturn e; sloc = l }
  | KW_BREAK ->
      advance p;
      expect p SEMI;
      { s = Sbreak; sloc = l }
  | KW_CONTINUE ->
      advance p;
      expect p SEMI;
      { s = Scontinue; sloc = l }
  | KW_GOTO -> err p "goto is not allowed in UC (paper section 3)"
  | STAR -> (
      (* '*' prefixes an iterative par/seq/solve/oneof *)
      match peek_tok p 1 with
      | KW_PAR | KW_SEQ | KW_SOLVE | KW_ONEOF ->
          advance p;
          parse_par_like p ~iterate:true l
      | _ -> err p "'*' must be followed by par, seq, solve or oneof")
  | KW_PAR | KW_SEQ | KW_SOLVE | KW_ONEOF -> parse_par_like p ~iterate:false l
  | _ ->
      let st = parse_simple_stmt p in
      expect p SEMI;
      st

and parse_par_like p ~iterate l =
  let kind = cur p in
  advance p;
  expect p LPAREN;
  let rec sets acc =
    let s = expect_ident p in
    if accept p COMMA then sets (s :: acc) else List.rev (s :: acc)
  in
  let psets = sets [] in
  expect p RPAREN;
  let pbranches, pothers =
    if is p KW_ST then begin
      let rec branches acc =
        if accept p KW_ST then begin
          expect p LPAREN;
          let pred = parse_expr_p p in
          expect p RPAREN;
          let st = parse_stmt p in
          branches ((Some pred, st) :: acc)
        end
        else List.rev acc
      in
      let bs = branches [] in
      let others = if accept p KW_OTHERS then Some (parse_stmt p) else None in
      (bs, others)
    end
    else begin
      let st = parse_stmt p in
      let others = if accept p KW_OTHERS then Some (parse_stmt p) else None in
      ([ (None, st) ], others)
    end
  in
  let ps = { iterate; psets; pbranches; pothers } in
  let s =
    match kind with
    | KW_PAR -> Spar ps
    | KW_SEQ -> Sseq ps
    | KW_SOLVE -> Ssolve ps
    | KW_ONEOF -> Soneof ps
    | _ -> assert false
  in
  { s; sloc = l }

and parse_simple_stmt p =
  (* assignment or expression (call) statement, without the semicolon *)
  let l = cur_loc p in
  let lhs = parse_expr_with_strings p in
  match assign_of_token (cur p) with
  | Some op ->
      advance p;
      let rhs = parse_expr_p p in
      (match lhs.e with
      | Evar _ | Eindex _ -> ()
      | _ -> Loc.error lhs.eloc "left-hand side of assignment is not an lvalue");
      { s = Sassign (op, lhs, rhs); sloc = l }
  | None -> (
      match lhs.e with
      | Ecall _ -> { s = Sexpr lhs; sloc = l }
      | _ -> err p "expected an assignment or a call statement")

and parse_expr_with_strings p = parse_expr_p p

and parse_block p =
  expect p LBRACE;
  let rec decls acc =
    match cur p with
    | KW_INT | KW_FLOAT | KW_INDEXSET -> decls (parse_decl p :: acc)
    | _ -> List.rev acc
  in
  let bdecls = decls [] in
  let rec stmts acc =
    if is p RBRACE then List.rev acc else stmts (parse_stmt p :: acc)
  in
  let bstmts = stmts [] in
  expect p RBRACE;
  { bdecls; bstmts }

and parse_decl p =
  match cur p with
  | KW_INT | KW_FLOAT ->
      let ty = if is p KW_INT then Tint else Tfloat in
      advance p;
      let rec declarators acc =
        let dloc = cur_loc p in
        let dname = expect_ident p in
        let rec dims acc =
          if accept p LBRACKET then begin
            let d = parse_expr_p p in
            expect p RBRACKET;
            dims (d :: acc)
          end
          else List.rev acc
        in
        let ddims = dims [] in
        let dinit = if accept p ASSIGN then Some (parse_expr_p p) else None in
        let d = { dname; ddims; dinit; dloc } in
        if accept p COMMA then declarators (d :: acc)
        else begin
          expect p SEMI;
          List.rev (d :: acc)
        end
      in
      Dvar (ty, declarators [])
  | KW_INDEXSET ->
      advance p;
      let rec defs acc =
        let iloc = cur_loc p in
        let set_name = expect_ident p in
        expect p COLON;
        let elem_name = expect_ident p in
        expect p ASSIGN;
        let ispec =
          if accept p LBRACE then begin
            let first = parse_expr_p p in
            if accept p DOTDOT then begin
              let hi = parse_expr_p p in
              expect p RBRACE;
              Irange (first, hi)
            end
            else begin
              let rec more acc =
                if accept p COMMA then more (parse_expr_p p :: acc)
                else List.rev acc
              in
              let rest = more [] in
              expect p RBRACE;
              Ilist (first :: rest)
            end
          end
          else Ialias (expect_ident p)
        in
        let def = { set_name; elem_name; ispec; iloc } in
        if accept p COMMA then defs (def :: acc)
        else begin
          expect p SEMI;
          List.rev (def :: acc)
        end
      in
      Dindexset (defs [])
  | t -> err p "expected a declaration, found '%s'" (Token.to_string t)

(* ---------------- top level ---------------- *)

let parse_params p =
  expect p LPAREN;
  if accept p RPAREN then []
  else begin
    let rec go acc =
      let ploc = cur_loc p in
      let pty =
        match cur p with
        | KW_INT ->
            advance p;
            Tint
        | KW_FLOAT ->
            advance p;
            Tfloat
        | t -> err p "expected a parameter type, found '%s'" (Token.to_string t)
      in
      let pname = expect_ident p in
      let rec rank acc =
        if accept p LBRACKET then begin
          (* both  a[]  and  a[N]  are accepted for array parameters *)
          if not (is p RBRACKET) then ignore (parse_expr_p p);
          expect p RBRACKET;
          rank (acc + 1)
        end
        else acc
      in
      let prank = rank 0 in
      let param = { pname; pty; prank; ploc } in
      if accept p COMMA then go (param :: acc)
      else begin
        expect p RPAREN;
        List.rev (param :: acc)
      end
    in
    go []
  end

let parse_map_section p =
  expect p KW_MAP;
  expect p LPAREN;
  let rec sets acc =
    let s = expect_ident p in
    if accept p COMMA then sets (s :: acc) else List.rev (s :: acc)
  in
  let msets = sets [] in
  expect p RPAREN;
  expect p LBRACE;
  let rec mappings acc =
    match cur p with
    | RBRACE -> List.rev acc
    | KW_PERMUTE ->
        let mloc = cur_loc p in
        advance p;
        expect p LPAREN;
        let rec psets acc =
          let s = expect_ident p in
          if accept p COMMA then psets (s :: acc) else List.rev (s :: acc)
        in
        let pmsets = psets [] in
        expect p RPAREN;
        let ptarget = expect_ident p in
        let rec tsubs acc =
          if accept p LBRACKET then begin
            let e = parse_expr_p p in
            expect p RBRACKET;
            tsubs (e :: acc)
          end
          else List.rev acc
        in
        let ptsubs = tsubs [] in
        expect p COLON;
        expect p MINUS;
        let psource = expect_ident p in
        let rec ssubs acc =
          if accept p LBRACKET then begin
            let s = expect_ident p in
            expect p RBRACKET;
            ssubs (s :: acc)
          end
          else List.rev acc
        in
        let pssubs = ssubs [] in
        expect p SEMI;
        mappings
          (Mpermute { pmsets; ptarget; ptsubs; psource; pssubs; mloc } :: acc)
    | KW_FOLD ->
        let mloc = cur_loc p in
        advance p;
        let arr = expect_ident p in
        expect p KW_BY;
        let factor =
          match cur p with
          | INT i ->
              advance p;
              i
          | t -> err p "fold factor must be an integer literal, found '%s'"
                   (Token.to_string t)
        in
        expect p SEMI;
        mappings (Mfold (arr, factor, mloc) :: acc)
    | KW_COPY ->
        let mloc = cur_loc p in
        advance p;
        let arr = expect_ident p in
        expect p KW_ALONG;
        let n = parse_expr_p p in
        expect p SEMI;
        mappings (Mcopy (arr, n, mloc) :: acc)
    | t -> err p "expected permute, fold or copy, found '%s'" (Token.to_string t)
  in
  let mmappings = mappings [] in
  expect p RBRACE;
  { msets; mmappings }

let parse_top p =
  match cur p with
  | KW_MAP -> Tmap (parse_map_section p)
  | KW_INDEXSET -> Tdecl (parse_decl p)
  | KW_VOID | KW_INT | KW_FLOAT -> (
      let floc = cur_loc p in
      let ret =
        match cur p with
        | KW_VOID ->
            advance p;
            None
        | KW_INT ->
            advance p;
            Some Tint
        | KW_FLOAT ->
            advance p;
            Some Tfloat
        | _ -> assert false
      in
      (* function definition iff an identifier followed by '(' *)
      match cur p, peek_tok p 1 with
      | IDENT fname, LPAREN ->
          advance p;
          let fparams = parse_params p in
          let fbody = parse_block p in
          Tfunc { fname; fret = ret; fparams; fbody; floc }
      | IDENT _, _ -> (
          match ret with
          | None -> err p "void is only valid as a function return type"
          | Some ty ->
              (* re-parse as a variable declaration: rewind is not needed
                 because parse_decl consumed nothing yet; inline it *)
              let rec declarators acc =
                let dloc = cur_loc p in
                let dname = expect_ident p in
                let rec dims acc =
                  if accept p LBRACKET then begin
                    let d = parse_expr_p p in
                    expect p RBRACKET;
                    dims (d :: acc)
                  end
                  else List.rev acc
                in
                let ddims = dims [] in
                let dinit =
                  if accept p ASSIGN then Some (parse_expr_p p) else None
                in
                let d = { dname; ddims; dinit; dloc } in
                if accept p COMMA then declarators (d :: acc)
                else begin
                  expect p SEMI;
                  List.rev (d :: acc)
                end
              in
              Tdecl (Dvar (ty, declarators [])))
      | t, _ ->
          err p "expected an identifier after type, found '%s'"
            (Token.to_string t))
  | t -> err p "expected a declaration, function or map section, found '%s'"
           (Token.to_string t)

let parse_program src =
  let p = { toks = Lexer.tokenize src; pos = 0 } in
  let rec go acc = if is p EOF then List.rev acc else go (parse_top p :: acc) in
  go []

let parse_expr src =
  let p = { toks = Lexer.tokenize src; pos = 0 } in
  let e = parse_expr_p p in
  if not (is p EOF) then err p "trailing input after expression";
  e
