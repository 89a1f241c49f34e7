open Ast

type array_info = { aty : base_ty; adims : int list }

type info = {
  global_arrays : (string * array_info) list;
  global_scalars : (string * base_ty) list;
  global_sets : (string * int array) list;
  funcs : (string * func) list;
}

(* ---------------- constant expressions ---------------- *)

let rec const_eval e =
  match e.e with
  | Eint i -> i
  | Einf -> Cm.Paris.inf_int
  | Eun (Neg, a) -> -const_eval a
  | Eun (Bnot, a) -> lnot (const_eval a)
  | Eun (Lnot, a) -> if const_eval a = 0 then 1 else 0
  | Ebin (op, a, b) -> (
      let x = const_eval a and y = const_eval b in
      match op with
      | Add -> x + y
      | Sub -> x - y
      | Mul -> x * y
      | Div ->
          if y = 0 then Loc.error e.eloc "division by zero in constant expression"
          else x / y
      | Mod ->
          if y = 0 then Loc.error e.eloc "modulo by zero in constant expression"
          else x mod y
      | Shl -> x lsl y
      | Shr -> x asr y
      | Band -> x land y
      | Bor -> x lor y
      | Bxor -> x lxor y
      | Eq -> if x = y then 1 else 0
      | Ne -> if x <> y then 1 else 0
      | Lt -> if x < y then 1 else 0
      | Le -> if x <= y then 1 else 0
      | Gt -> if x > y then 1 else 0
      | Ge -> if x >= y then 1 else 0
      | Land -> if x <> 0 && y <> 0 then 1 else 0
      | Lor -> if x <> 0 || y <> 0 then 1 else 0)
  | Econd (c, a, b) -> if const_eval c <> 0 then const_eval a else const_eval b
  | Ecall ("power2", [ a ]) -> 1 lsl const_eval a
  | Ecall ("abs", [ a ]) -> abs (const_eval a)
  | Ecall ("min", [ a; b ]) -> min (const_eval a) (const_eval b)
  | Ecall ("max", [ a; b ]) -> max (const_eval a) (const_eval b)
  | _ ->
      Loc.error e.eloc
        "expression is not a compile-time constant (index-set bounds and \
         array dimensions must be constant)"

(* the values of index set [def]; [alias] gives the values of the set
   an alias names *)
let set_values alias def =
  match def.ispec with
  | Irange (lo, hi) ->
      let lo = const_eval lo and hi = const_eval hi in
      if hi < lo then Loc.error def.iloc "empty index-set range {%d .. %d}" lo hi;
      Array.init (hi - lo + 1) (fun k -> lo + k)
  | Ilist es -> Array.of_list (List.map const_eval es)
  | Ialias other -> alias other

(* ---------------- environment ---------------- *)

type binding =
  | Bscalar of base_ty * bool       (* bool: declared inside a parallel body *)
  | Barray of base_ty * int list
  | Barray_param of base_ty * int   (* rank *)
  | Bset of string * int array      (* element name, values *)
  | Belem                           (* a bound index element: an int *)

type env = {
  mutable scopes : (string * binding) list list;
  mutable funcs : (string * func) list;
  mutable in_par : bool;            (* inside a parallel construct *)
  mutable in_solve : bool;
  mutable loop_depth : int;
  mutable ret : base_ty option option;  (* None: not in a function *)
}

let push_scope env = env.scopes <- [] :: env.scopes
let pop_scope env = env.scopes <- List.tl env.scopes

let bind env loc name b =
  match env.scopes with
  | scope :: rest ->
      if List.mem_assoc name scope then
        Loc.error loc "redeclaration of %s in the same scope" name;
      env.scopes <- ((name, b) :: scope) :: rest
  | [] -> assert false

let rec lookup_scopes name = function
  | [] -> None
  | scope :: rest -> (
      match List.assoc_opt name scope with
      | Some b -> Some b
      | None -> lookup_scopes name rest)

let lookup env name = lookup_scopes name env.scopes

let lookup_set env loc name =
  match lookup env name with
  | Some (Bset (elem, values)) -> (elem, values)
  | Some _ -> Loc.error loc "%s is not an index set" name
  | None -> Loc.error loc "unknown index set %s" name

(* ---------------- types ---------------- *)

let lub a b = if a = Tfloat || b = Tfloat then Tfloat else Tint

let rec type_of env e =
  match e.e with
  | Eint _ -> Tint
  | Efloat _ -> Tfloat
  | Einf -> Tint
  | Estr _ ->
      Loc.error e.eloc "string literals are only allowed as print() arguments"
  | Evar name -> (
      match lookup env name with
      | Some (Bscalar (ty, _)) -> ty
      | Some Belem -> Tint
      | Some (Barray _ | Barray_param _) ->
          Loc.error e.eloc
            "array %s used as a value (arrays may only be indexed or passed \
             to functions)"
            name
      | Some (Bset _) -> Loc.error e.eloc "index set %s used as a value" name
      | None -> Loc.error e.eloc "unknown identifier %s" name)
  | Eindex (base, subs) -> (
      let name =
        match base.e with
        | Evar n -> n
        | _ -> Loc.error base.eloc "only named arrays can be indexed"
      in
      List.iter
        (fun s ->
          if type_of env s <> Tint then
            Loc.error s.eloc "array subscript must be an int")
        subs;
      match lookup env name with
      | Some (Barray (ty, dims)) ->
          if List.length subs <> List.length dims then
            Loc.error e.eloc "%s expects %d subscripts, got %d" name
              (List.length dims) (List.length subs);
          ty
      | Some (Barray_param (ty, rank)) ->
          if List.length subs <> rank then
            Loc.error e.eloc "%s expects %d subscripts, got %d" name rank
              (List.length subs);
          ty
      | Some _ -> Loc.error e.eloc "%s is not an array" name
      | None -> Loc.error e.eloc "unknown array %s" name)
  | Ebin (op, a, b) -> (
      let ta = type_of env a and tb = type_of env b in
      match op with
      | Add | Sub | Mul | Div -> lub ta tb
      | Mod | Band | Bor | Bxor | Shl | Shr ->
          if ta <> Tint || tb <> Tint then
            Loc.error e.eloc "operator %s requires int operands" (binop_name op);
          Tint
      | Eq | Ne | Lt | Le | Gt | Ge | Land | Lor -> Tint)
  | Eun (op, a) -> (
      let ta = type_of env a in
      match op with
      | Neg -> ta
      | Lnot -> Tint
      | Bnot ->
          if ta <> Tint then Loc.error e.eloc "operator ~ requires an int operand";
          Tint)
  | Econd (c, a, b) ->
      ignore (type_of env c);
      lub (type_of env a) (type_of env b)
  | Ecall (name, args) -> type_of_call env e.eloc name args
  | Ereduce r -> type_of_reduction env e.eloc r

and type_of_call env loc name args =
  match Builtins.lookup name with
  | Some (Builtins.Value { args = params; result; _ }) ->
      let arity = List.length params in
      if arity = 0 && args <> [] then Loc.error loc "%s takes no arguments" name;
      if List.length args <> arity then
        Loc.error loc "%s expects %d arguments, got %d" name arity
          (List.length args);
      let tys = List.map (type_of env) args in
      List.iter2
        (fun p t ->
          if p = Builtins.Int && t <> Tint then
            Loc.error loc "%s requires an int argument" name)
        params tys;
      Builtins.result_ty result Fun.id tys
  | Some Builtins.Swap -> Loc.error loc "swap is a statement, not an expression"
  | Some Builtins.Print -> Loc.error loc "print is a statement, not an expression"
  | None -> (
      match List.assoc_opt name env.funcs with
      | None ->
          Loc.error loc
            "unknown function %s (functions must be defined before use)" name
      | Some f ->
          check_call_args env loc f args;
          if env.in_par then check_inlinable env loc f;
          (match f.fret with
          | Some ty -> ty
          | None ->
              Loc.error loc "void function %s used in an expression" f.fname))

and check_call_args env loc f args =
  if List.length args <> List.length f.fparams then
    Loc.error loc "%s expects %d arguments, got %d" f.fname
      (List.length f.fparams) (List.length args);
  List.iter2
    (fun p a ->
      if p.prank > 0 then begin
        (* array parameter: the argument must be a bare array of that rank *)
        match a.e with
        | Evar n -> (
            match lookup env n with
            | Some (Barray (ty, dims)) ->
                if List.length dims <> p.prank then
                  Loc.error a.eloc "array argument %s has rank %d, expected %d"
                    n (List.length dims) p.prank;
                if ty <> p.pty then
                  Loc.error a.eloc "array argument %s has the wrong element type" n
            | Some (Barray_param (ty, rank)) ->
                if rank <> p.prank || ty <> p.pty then
                  Loc.error a.eloc "array argument %s does not match parameter" n
            | _ -> Loc.error a.eloc "%s is not an array" n)
        | _ ->
            Loc.error a.eloc
              "argument for array parameter %s must be an array name" p.pname
      end
      else ignore (type_of env a))
    f.fparams args

and check_inlinable env loc f =
  (* a function called inside a parallel construct must be straight-line:
     declarations, assignments, and a final return expression *)
  let fail () =
    Loc.error loc
      "function %s cannot be used inside a parallel construct: only \
       straight-line functions (assignments and a final return) can be \
       inlined onto the processors"
      f.fname
  in
  let rec check_stmts = function
    | [] -> ()
    | [ { s = Sreturn (Some _); _ } ] -> ()
    | { s = Sassign _; _ } :: rest -> check_stmts rest
    | _ -> fail ()
  in
  check_stmts f.fbody.bstmts

and type_of_reduction env loc r =
  if r.rsets = [] then Loc.error loc "reduction needs at least one index set";
  push_scope env;
  List.iter
    (fun sname ->
      let elem, values = lookup_set env loc sname in
      bind env loc elem Belem;
      ignore values)
    r.rsets;
  let branch_ty =
    List.fold_left
      (fun acc (pred, e) ->
        (match pred with Some p -> ignore (type_of env p) | None -> ());
        lub acc (type_of env e))
      Tint r.rbranches
  in
  let branch_ty =
    match r.rothers with
    | Some e -> lub branch_ty (type_of env e)
    | None -> branch_ty
  in
  (match r.rop with
  | Rland | Rlor | Rxor ->
      if branch_ty <> Tint then
        Loc.error loc "reduction %s requires int operands" (redop_name r.rop)
  | Rsum | Rprod | Rmin | Rmax | Rarb -> ());
  (match r.rbranches, r.rothers with
  | [ (None, _) ], Some _ ->
      Loc.error loc "others requires at least one st branch"
  | _ -> ());
  pop_scope env;
  branch_ty

(* ---------------- lvalues and statements ---------------- *)

let check_lvalue env loc lv ~solve =
  match lv.e with
  | Eindex _ -> ignore (type_of env lv)
  | Evar name -> (
      if solve then
        Loc.error loc "solve assignments must target array elements";
      match lookup env name with
      | Some (Bscalar (_, par_local)) ->
          if env.in_par && not par_local then
            Loc.error loc
              "%s: only array elements and par-local scalars may be assigned \
               inside a parallel construct"
              name
      | Some Belem -> Loc.error loc "index element %s cannot be assigned" name
      | Some _ -> Loc.error loc "%s is not assignable" name
      | None -> Loc.error loc "unknown identifier %s" name)
  | _ -> Loc.error loc "invalid assignment target"

let rec check_stmt env st =
  match st.s with
  | Sempty -> ()
  | Sexpr e -> check_expr_stmt env st.sloc e
  | Sassign (op, lhs, rhs) ->
      check_lvalue env st.sloc lhs ~solve:false;
      let tr = type_of env rhs in
      (match op with
      | Amod ->
          let tl = type_of env lhs in
          if tl <> Tint || tr <> Tint then
            Loc.error st.sloc "%%= requires int operands"
      | _ -> ignore tr)
  | Sif (c, then_, else_) ->
      ignore (type_of env c);
      check_stmt env then_;
      (match else_ with Some s -> check_stmt env s | None -> ())
  | Swhile (c, body) ->
      ignore (type_of env c);
      env.loop_depth <- env.loop_depth + 1;
      check_stmt env body;
      env.loop_depth <- env.loop_depth - 1
  | Sfor (init, cond, step, body) ->
      (match init with Some s -> check_stmt env s | None -> ());
      (match cond with Some c -> ignore (type_of env c) | None -> ());
      (match step with Some s -> check_stmt env s | None -> ());
      env.loop_depth <- env.loop_depth + 1;
      check_stmt env body;
      env.loop_depth <- env.loop_depth - 1
  | Sblock b -> check_block env b
  | Sreturn e -> (
      if env.in_par then
        Loc.error st.sloc "return is not allowed inside a parallel construct";
      match env.ret with
      | None -> Loc.error st.sloc "return outside a function"
      | Some None -> (
          match e with
          | Some _ -> Loc.error st.sloc "void function returns a value"
          | None -> ())
      | Some (Some _) -> (
          match e with
          | Some ex -> ignore (type_of env ex)
          | None -> Loc.error st.sloc "non-void function returns no value"))
  | Sbreak | Scontinue ->
      if env.loop_depth = 0 then
        Loc.error st.sloc "break/continue outside a loop"
  | Spar ps -> check_par env st.sloc ps ~solve:false ~seq:false
  | Soneof ps ->
      if ps.pothers <> None then
        Loc.error st.sloc
          "others is not supported on oneof (only one enabled branch runs)";
      check_par env st.sloc ps ~solve:false ~seq:false
  | Sseq ps ->
      if ps.pothers <> None then
        Loc.error st.sloc "others is not meaningful on seq statements";
      check_par env st.sloc ps ~solve:false ~seq:true
  | Ssolve ps -> check_par env st.sloc ps ~solve:true ~seq:false

and check_expr_stmt env loc e =
  match e.e with
  | Ecall ("print", args) ->
      if env.in_par then
        Loc.error loc "print is only available on the front end (outside \
                       parallel constructs)";
      List.iter
        (fun a -> match a.e with Estr _ -> () | _ -> ignore (type_of env a))
        args
  | Ecall ("swap", args) -> (
      match args with
      | [ a; b ] ->
          check_lvalue env loc a ~solve:false;
          check_lvalue env loc b ~solve:false;
          let ta = type_of env a and tb = type_of env b in
          if ta <> tb then Loc.error loc "swap arguments must have the same type"
      | _ -> Loc.error loc "swap expects exactly two lvalue arguments")
  | Ecall (name, args) -> (
      match Builtins.lookup name with
      | Some (Builtins.Value _) -> ignore (type_of env e)
      | Some _ -> assert false
      | None -> (
          match List.assoc_opt name env.funcs with
          | Some f ->
              check_call_args env loc f args;
              if env.in_par then check_inlinable env loc f
          | None ->
              Loc.error loc
                "unknown function %s (functions must be defined before use)"
                name))
  | _ -> Loc.error loc "expression statements must be calls"

and check_par env loc ps ~solve ~seq =
  if ps.psets = [] then Loc.error loc "parallel construct needs an index set";
  if solve then begin
    if env.in_solve then Loc.error loc "solve may not be nested inside solve";
    env.in_solve <- true
  end;
  push_scope env;
  List.iter
    (fun sname ->
      let elem, _ = lookup_set env loc sname in
      (* an inner use of a set hides any outer binding of its element *)
      (match env.scopes with
      | scope :: rest when List.mem_assoc elem scope ->
          (* two sets in one header sharing an element name *)
          env.scopes <- List.remove_assoc elem scope :: rest
      | _ -> ());
      bind env loc elem Belem)
    ps.psets;
  let was_par = env.in_par in
  let was_loop = env.loop_depth in
  (* a seq statement runs its body once per element; outside a parallel
     context it is ordinary front-end iteration *)
  if not seq then env.in_par <- true;
  env.loop_depth <- 0;
  List.iter
    (fun (pred, st) ->
      (match pred with Some p -> ignore (type_of env p) | None -> ());
      if solve then check_solve_body env st else check_stmt env st)
    ps.pbranches;
  (match ps.pothers with
  | Some st -> if solve then check_solve_body env st else check_stmt env st
  | None -> ());
  (match ps.pbranches, ps.pothers with
  | [ (None, _) ], Some _ ->
      Loc.error loc "others requires at least one st branch"
  | _ -> ());
  env.in_par <- was_par;
  env.loop_depth <- was_loop;
  if solve then env.in_solve <- false;
  pop_scope env

and check_solve_body env st =
  (* a proper set of assignments: only assignment statements (possibly in a
     block), each targeting an array element *)
  match st.s with
  | Sassign (Aset, lhs, rhs) ->
      check_lvalue env st.sloc lhs ~solve:true;
      ignore (type_of env rhs)
  | Sassign _ ->
      Loc.error st.sloc "solve bodies must use plain '=' assignments"
  | Sblock { bdecls = []; bstmts } -> List.iter (check_solve_body env) bstmts
  | _ ->
      Loc.error st.sloc
        "solve bodies must consist of assignment statements (a proper set of \
         equations, paper section 3.6)"

and check_block env b =
  push_scope env;
  List.iter (check_decl env) b.bdecls;
  List.iter (check_stmt env) b.bstmts;
  pop_scope env

and check_decl env d =
  match d with
  | Dvar (ty, ds) ->
      List.iter
        (fun dd ->
          let dims = List.map const_eval dd.ddims in
          List.iter
            (fun n ->
              if n <= 0 then
                Loc.error dd.dloc "array dimension must be positive")
            dims;
          (match dd.dinit with
          | Some e ->
              if dims <> [] then
                Loc.error dd.dloc "array initializers are not supported";
              ignore (type_of env e)
          | None -> ());
          if dims = [] then bind env dd.dloc dd.dname (Bscalar (ty, env.in_par))
          else begin
            if env.in_par then
              Loc.error dd.dloc
                "arrays may not be declared inside parallel constructs";
            bind env dd.dloc dd.dname (Barray (ty, dims))
          end)
        ds
  | Dindexset defs ->
      List.iter
        (fun def ->
          let values =
            set_values (fun other -> snd (lookup_set env def.iloc other)) def
          in
          bind env def.iloc def.set_name (Bset (def.elem_name, values)))
        defs

(* ---------------- map sections ---------------- *)

(* a permute target subscript must be affine in a single index element:
   i, i + c, or i - c *)
let check_affine_sub env loc e =
  match e.e with
  | Evar v -> (v, 0)
  | Ebin (Add, { e = Evar v; _ }, c) -> (v, const_eval c)
  | Ebin (Sub, { e = Evar v; _ }, c) -> (v, -const_eval c)
  | _ ->
      Loc.error loc
        "permute subscripts must be affine in an index element (i, i + c or \
         i - c)"

let check_mapping env m =
  match m with
  | Mpermute pm ->
      let elems =
        List.map
          (fun sname ->
            let elem, _ = lookup_set env pm.mloc sname in
            elem)
          pm.pmsets
      in
      let check_array name rank =
        match lookup env name with
        | Some (Barray (_, dims)) ->
            if List.length dims <> rank then
              Loc.error pm.mloc "%s has rank %d but the mapping uses %d \
                                 subscripts" name (List.length dims) rank
        | Some _ | None -> Loc.error pm.mloc "unknown array %s in map section" name
      in
      check_array pm.ptarget (List.length pm.ptsubs);
      check_array pm.psource (List.length pm.pssubs);
      List.iter
        (fun s ->
          if not (List.mem s elems) then
            Loc.error pm.mloc
              "subscript %s of the source array is not an element of the \
               mapping's index sets" s)
        pm.pssubs;
      List.iter
        (fun e ->
          let v, _ = check_affine_sub env pm.mloc e in
          if not (List.mem v elems) then
            Loc.error pm.mloc
              "subscript %s of the target array is not an element of the \
               mapping's index sets" v)
        pm.ptsubs
  | Mfold (name, factor, loc) -> (
      if factor < 2 then Loc.error loc "fold factor must be at least 2";
      match lookup env name with
      | Some (Barray (_, dim0 :: _)) ->
          if dim0 mod factor <> 0 then
            Loc.error loc "fold factor %d does not divide the extent %d of %s"
              factor dim0 name
      | Some _ | None -> Loc.error loc "unknown array %s in map section" name)
  | Mcopy (name, n, loc) -> (
      let copies = const_eval n in
      if copies < 2 then Loc.error loc "copy count must be at least 2";
      match lookup env name with
      | Some (Barray _) -> ()
      | Some _ | None -> Loc.error loc "unknown array %s in map section" name)

(* ---------------- program ---------------- *)

let check ?(eof = Loc.dummy) prog =
  let env =
    { scopes = [ [] ]; funcs = []; in_par = false; in_solve = false;
      loop_depth = 0; ret = None }
  in
  List.iter
    (fun top ->
      match top with
      | Tdecl d -> check_decl env d
      | Tfunc f ->
          if List.mem_assoc f.fname env.funcs then
            Loc.error f.floc "redefinition of function %s" f.fname;
          if Builtins.is_builtin f.fname then
            Loc.error f.floc "%s is a builtin and cannot be redefined" f.fname;
          push_scope env;
          List.iter
            (fun p ->
              if p.prank = 0 then bind env p.ploc p.pname (Bscalar (p.pty, false))
              else bind env p.ploc p.pname (Barray_param (p.pty, p.prank)))
            f.fparams;
          env.ret <- Some f.fret;
          check_block env f.fbody;
          env.ret <- None;
          pop_scope env;
          env.funcs <- env.funcs @ [ (f.fname, f) ]
      | Tmap m ->
          List.iter
            (fun sname -> ignore (lookup_set env Loc.dummy sname))
            m.msets;
          List.iter (check_mapping env) m.mmappings)
    prog;
  if not (List.mem_assoc "main" env.funcs) then
    Loc.error eof "program has no main function";
  (* collect global info from the outermost scope *)
  let top_scope = List.nth env.scopes (List.length env.scopes - 1) in
  let global_arrays =
    List.filter_map
      (function
        | name, Barray (aty, adims) -> Some (name, { aty; adims })
        | _ -> None)
      (List.rev top_scope)
  in
  let global_scalars =
    List.filter_map
      (function name, Bscalar (ty, _) -> Some (name, ty) | _ -> None)
      (List.rev top_scope)
  in
  let global_sets =
    List.filter_map
      (function name, Bset (_, values) -> Some (name, values) | _ -> None)
      (List.rev top_scope)
  in
  {
    global_arrays;
    global_scalars;
    global_sets;
    funcs = env.funcs;
  }
