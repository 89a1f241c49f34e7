open Ast

(* atomic so concurrent compiles (Ucd domain pool) never mint the same name *)
let counter = Atomic.make 0

let fresh base =
  Printf.sprintf "__%s_%d" base (Atomic.fetch_and_add counter 1 + 1)

(* ---------------- substitution ---------------- *)

(* rename identifiers (locals, params, array params) inside an inlined body *)
let rec subst_expr env e =
  let d =
    match e.e with
    | Evar v -> (
        match List.assoc_opt v env with
        | Some e' -> e'.e
        | None -> Evar v)
    | Eindex (base, subs) ->
        Eindex (subst_expr env base, List.map (subst_expr env) subs)
    | Ebin (op, a, b) -> Ebin (op, subst_expr env a, subst_expr env b)
    | Eun (op, a) -> Eun (op, subst_expr env a)
    | Econd (c, a, b) ->
        Econd (subst_expr env c, subst_expr env a, subst_expr env b)
    | Ecall (f, args) -> Ecall (f, List.map (subst_expr env) args)
    | Ereduce r ->
        Ereduce
          {
            r with
            rbranches =
              List.map
                (fun (p, ex) ->
                  (Option.map (subst_expr env) p, subst_expr env ex))
                r.rbranches;
            rothers = Option.map (subst_expr env) r.rothers;
          }
    | (Eint _ | Efloat _ | Estr _ | Einf) as d -> d
  in
  { e with e = d }

let rec subst_stmt env st =
  let d =
    match st.s with
    | Sexpr e -> Sexpr (subst_expr env e)
    | Sassign (op, l, r) -> Sassign (op, subst_expr env l, subst_expr env r)
    | Sif (c, t, e) ->
        Sif (subst_expr env c, subst_stmt env t, Option.map (subst_stmt env) e)
    | Swhile (c, b) -> Swhile (subst_expr env c, subst_stmt env b)
    | Sfor (i, c, s, b) ->
        Sfor
          ( Option.map (subst_stmt env) i,
            Option.map (subst_expr env) c,
            Option.map (subst_stmt env) s,
            subst_stmt env b )
    | Sblock b -> Sblock (subst_block env b)
    | Sreturn e -> Sreturn (Option.map (subst_expr env) e)
    | Spar ps -> Spar (subst_par env ps)
    | Sseq ps -> Sseq (subst_par env ps)
    | Ssolve ps -> Ssolve (subst_par env ps)
    | Soneof ps -> Soneof (subst_par env ps)
    | (Sempty | Sbreak | Scontinue) as d -> d
  in
  { st with s = d }

and subst_par env ps =
  {
    ps with
    pbranches =
      List.map
        (fun (p, st) -> (Option.map (subst_expr env) p, subst_stmt env st))
        ps.pbranches;
    pothers = Option.map (subst_stmt env) ps.pothers;
  }

and subst_block env b =
  (* declarations in the inlined body were renamed beforehand, so no
     capture is possible here *)
  { bdecls = b.bdecls; bstmts = List.map (subst_stmt env) b.bstmts }

(* ---------------- inlining ---------------- *)

(* Rewrite an expression, hoisting every user-function call into a prelude
   of declarations and statements. *)
let rec inline_expr funcs e : decl list * stmt list * expr =
  let loc = e.eloc in
  match e.e with
  | Eint _ | Efloat _ | Estr _ | Einf | Evar _ -> ([], [], e)
  | Eindex (base, subs) ->
      let ds, ss, subs = inline_list funcs subs in
      (ds, ss, { e with e = Eindex (base, subs) })
  | Ebin (op, a, b) ->
      let ds1, ss1, a = inline_expr funcs a in
      let ds2, ss2, b = inline_expr funcs b in
      (ds1 @ ds2, ss1 @ ss2, { e with e = Ebin (op, a, b) })
  | Eun (op, a) ->
      let ds, ss, a = inline_expr funcs a in
      (ds, ss, { e with e = Eun (op, a) })
  | Econd (c, a, b) ->
      let ds1, ss1, c = inline_expr funcs c in
      let ds2, ss2, a = inline_expr funcs a in
      let ds3, ss3, b = inline_expr funcs b in
      (ds1 @ ds2 @ ds3, ss1 @ ss2 @ ss3, { e with e = Econd (c, a, b) })
  | Ereduce r ->
      (* calls inside reduction branches would have to execute under the
         reduction's own index space; only whole-expression bodies work *)
      let fix (p, ex) =
        let check name ex' =
          let ds, ss, ex'' = inline_expr funcs ex' in
          if ds <> [] || ss <> [] then
            Loc.error ex'.eloc
              "user-function calls are not supported inside reduction %s"
              name
          else ex''
        in
        (Option.map (check "predicates") p, check "operands" ex)
      in
      let rbranches = List.map fix r.rbranches in
      let rothers =
        Option.map
          (fun ex ->
            let ds, ss, ex' = inline_expr funcs ex in
            if ds <> [] || ss <> [] then
              Loc.error ex.eloc
                "user-function calls are not supported inside reduction others";
            ex')
          r.rothers
      in
      ([], [], { e with e = Ereduce { r with rbranches; rothers } })
  | Ecall (name, args) -> (
      let ds0, ss0, args = inline_list funcs args in
      match List.assoc_opt name funcs with
      | None -> (ds0, ss0, { e with e = Ecall (name, args) })
      | Some f -> (
          let ds1, ss1, result = inline_call funcs loc f args in
          match result with
          | Some v -> (ds0 @ ds1, ss0 @ ss1, { e with e = Evar v })
          | None ->
              Loc.error loc "void function %s used in an expression" f.fname))

and inline_list funcs exprs =
  List.fold_right
    (fun ex (ds, ss, acc) ->
      let d, s, ex' = inline_expr funcs ex in
      (d @ ds, s @ ss, ex' :: acc))
    exprs ([], [], [])

(* Expand one call: returns prelude declarations, prelude statements, and
   the name of the variable holding the result (None for void). *)
and inline_call funcs loc f args : decl list * stmt list * string option =
  (* bind parameters: array params substitute textually (by reference),
     scalar params become fresh initialised locals *)
  let env = ref [] in
  let decls = ref [] in
  List.iter2
    (fun p a ->
      if p.prank > 0 then env := (p.pname, a) :: !env
      else begin
        let nm = fresh p.pname in
        decls :=
          Dvar (p.pty, [ { dname = nm; ddims = []; dinit = Some a; dloc = loc } ])
          :: !decls;
        env := (p.pname, { e = Evar nm; eloc = loc }) :: !env
      end)
    f.fparams args;
  (* rename the body's own declarations *)
  let body = f.fbody in
  List.iter
    (fun d ->
      match d with
      | Dvar (ty, ds) ->
          List.iter
            (fun dd ->
              let nm = fresh dd.dname in
              env := (dd.dname, { e = Evar nm; eloc = dd.dloc }) :: !env;
              decls :=
                Dvar
                  ( ty,
                    [ { dd with dname = nm; dinit = None } ] )
                :: !decls;
              match dd.dinit with
              | Some init ->
                  ignore init
                  (* initialisers are moved into the statement prelude below *)
              | None -> ())
            ds
      | Dindexset _ ->
          Loc.error loc
            "index-set declarations inside inlined functions are not supported")
    body.bdecls;
  (* initialiser statements for renamed locals *)
  let init_stmts =
    List.concat_map
      (function
        | Dvar (_, ds) ->
            List.filter_map
              (fun dd ->
                match dd.dinit with
                | Some init ->
                    let lhs = List.assoc dd.dname !env in
                    Some
                      {
                        s = Sassign (Aset, subst_expr !env lhs, subst_expr !env init);
                        sloc = dd.dloc;
                      }
                | None -> None)
              ds
        | Dindexset _ -> [])
      body.bdecls
  in
  (* no return may hide anywhere but the tail position *)
  let rec has_return st =
    match st.s with
    | Sreturn _ -> true
    | Sif (_, t, e) ->
        has_return t || (match e with Some s -> has_return s | None -> false)
    | Swhile (_, b) -> has_return b
    | Sfor (i, _, s, b) ->
        (match i with Some s' -> has_return s' | None -> false)
        || (match s with Some s' -> has_return s' | None -> false)
        || has_return b
    | Sblock b -> List.exists has_return b.bstmts
    | Spar ps | Sseq ps | Ssolve ps | Soneof ps ->
        List.exists (fun (_, s) -> has_return s) ps.pbranches
        || (match ps.pothers with Some s -> has_return s | None -> false)
    | Sexpr _ | Sassign _ | Sempty | Sbreak | Scontinue -> false
  in
  (* split the body into leading statements and a tail return *)
  let rec split acc = function
    | [] -> (List.rev acc, None)
    | [ { s = Sreturn e; _ } ] -> (List.rev acc, Some e)
    | { s = Sreturn _; sloc } :: _ ->
        Loc.error sloc
          "early return in %s prevents inlining (return must be the last \
           statement)"
          f.fname
    | st :: rest -> split (st :: acc) rest
  in
  let leading, tail = split [] body.bstmts in
  List.iter
    (fun st ->
      if has_return st then
        Loc.error st.sloc
          "early return in %s prevents inlining (return must be the last \
           statement)"
          f.fname)
    leading;
  let leading = List.map (subst_stmt !env) leading in
  let result_decl, result_stmts, result =
    match f.fret, tail with
    | Some ty, Some (Some ret_e) ->
        let nm = fresh (f.fname ^ "_result") in
        ( [ Dvar (ty, [ { dname = nm; ddims = []; dinit = None; dloc = loc } ]) ],
          [
            {
              s = Sassign (Aset, { e = Evar nm; eloc = loc }, subst_expr !env ret_e);
              sloc = loc;
            };
          ],
          Some nm )
    | Some _, (None | Some None) ->
        Loc.error loc "function %s must end with 'return <expr>'" f.fname
    | None, (None | Some None) -> ([], [], None)
    | None, Some (Some _) ->
        Loc.error loc "void function %s returns a value" f.fname
  in
  ( List.rev !decls @ result_decl,
    init_stmts @ leading @ result_stmts,
    result )

(* Wrap a rewritten statement with its prelude. *)
let with_prelude loc (ds, ss, st) =
  if ds = [] && ss = [] then st
  else { s = Sblock { bdecls = ds; bstmts = ss @ [ st ] }; sloc = loc }

let rec inline_stmt funcs st =
  let loc = st.sloc in
  match st.s with
  | Sempty | Sbreak | Scontinue -> st
  | Sexpr { e = Ecall (name, args); eloc } when List.mem_assoc name funcs ->
      (* a void (or ignored) call in statement position *)
      let ds0, ss0, args = inline_list funcs args in
      let f = List.assoc name funcs in
      let ds1, ss1, _result = inline_call funcs eloc f args in
      {
        s = Sblock { bdecls = ds0 @ ds1; bstmts = ss0 @ ss1 };
        sloc = loc;
      }
  | Sexpr e ->
      let ds, ss, e = inline_expr funcs e in
      with_prelude loc (ds, ss, { st with s = Sexpr e })
  | Sassign (op, l, r) ->
      let ds1, ss1, l = inline_expr funcs l in
      let ds2, ss2, r = inline_expr funcs r in
      with_prelude loc (ds1 @ ds2, ss1 @ ss2, { st with s = Sassign (op, l, r) })
  | Sif (c, t, e) ->
      let ds, ss, c = inline_expr funcs c in
      let t = inline_stmt funcs t in
      let e = Option.map (inline_stmt funcs) e in
      with_prelude loc (ds, ss, { st with s = Sif (c, t, e) })
  | Swhile (c, b) ->
      (* hoisting out of a loop condition would change evaluation; require
         the condition to be call-free *)
      let ds, ss, c = inline_expr funcs c in
      if ds <> [] || ss <> [] then
        Loc.error loc "user-function calls in loop conditions are not supported";
      { st with s = Swhile (c, inline_stmt funcs b) }
  | Sfor (i, c, s, b) ->
      let i = Option.map (inline_stmt funcs) i in
      (match c with
      | Some c' ->
          let ds, ss, _ = inline_expr funcs c' in
          if ds <> [] || ss <> [] then
            Loc.error loc
              "user-function calls in loop conditions are not supported"
      | None -> ());
      let s = Option.map (inline_stmt funcs) s in
      { st with s = Sfor (i, c, s, inline_stmt funcs b) }
  | Sblock b -> { st with s = Sblock (inline_block funcs b) }
  | Sreturn e ->
      let ds, ss, e =
        match e with
        | Some ex ->
            let ds, ss, ex = inline_expr funcs ex in
            (ds, ss, Some ex)
        | None -> ([], [], None)
      in
      with_prelude loc (ds, ss, { st with s = Sreturn e })
  | Spar ps -> { st with s = Spar (inline_par funcs loc ps) }
  | Sseq ps -> { st with s = Sseq (inline_par funcs loc ps) }
  | Soneof ps -> { st with s = Soneof (inline_par funcs loc ps) }
  | Ssolve ps -> { st with s = Ssolve (inline_par funcs loc ps) }

and inline_par funcs loc ps =
  let fix_pred = function
    | None -> None
    | Some p ->
        let ds, ss, p = inline_expr funcs p in
        if ds <> [] || ss <> [] then
          Loc.error loc
            "user-function calls are not supported in st predicates";
        Some p
  in
  {
    ps with
    pbranches =
      List.map (fun (p, st) -> (fix_pred p, inline_stmt funcs st)) ps.pbranches;
    pothers = Option.map (inline_stmt funcs) ps.pothers;
  }

and inline_block funcs b =
  { b with bstmts = List.map (inline_stmt funcs) b.bstmts }

(* ---------------- solve lowering ---------------- *)

(* Collect the assignment statements of a solve branch (possibly nested in
   blocks; sema guarantees the shape). *)
let rec solve_assignments st =
  match st.s with
  | Sassign (Aset, lhs, rhs) -> [ (st.sloc, lhs, rhs) ]
  | Sblock { bdecls = []; bstmts } -> List.concat_map solve_assignments bstmts
  | _ -> Loc.error st.sloc "solve bodies must consist of assignments"

let band loc a b = { e = Ebin (Land, a, b); eloc = loc }
let bne loc a b = { e = Ebin (Ne, a, b); eloc = loc }
let bnot loc a = { e = Eun (Lnot, a); eloc = loc }

(* ---- static dependency-ordered scheduling ([14], section 3.6) ----

   For a plain solve of the restricted form

     solve (I, J, ...)  a[i][j]... = rhs

   whose self-references  a[i+c1][j+c2]...  all have c1+c2+... < 0, the
   assignments can be executed in order of increasing diagonal sum
   i+j+...: every dependency then lies on an earlier diagonal, so one
   sweep computes the unique solution of the proper set (no fixed-point
   detection needed).  The wavefront problem is the paper's example. *)

let rec self_deps array rhs acc =
  match rhs.e with
  | Eindex ({ e = Evar a; _ }, subs) when a = array -> subs :: acc
  | Eindex (_, subs) -> List.fold_left (fun acc s -> self_deps array s acc) acc subs
  | Ebin (_, a, b) -> self_deps array b (self_deps array a acc)
  | Eun (_, a) -> self_deps array a acc
  | Econd (c, a, b) ->
      self_deps array b (self_deps array a (self_deps array c acc))
  | Ecall (_, args) -> List.fold_left (fun acc a -> self_deps array a acc) acc args
  | Ereduce r ->
      let acc =
        List.fold_left
          (fun acc (p, e) ->
            let acc = match p with Some p -> self_deps array p acc | None -> acc in
            self_deps array e acc)
          acc r.rbranches
      in
      (match r.rothers with Some e -> self_deps array e acc | None -> acc)
  | Eint _ | Efloat _ | Estr _ | Einf | Evar _ -> acc

let affine_delta elems sub =
  (* Some c when sub = elem_k + c for the matching element *)
  match sub.e with
  | Evar v -> if List.mem v elems then Some (v, 0) else None
  | Ebin (Add, { e = Evar v; _ }, { e = Eint c; _ }) ->
      if List.mem v elems then Some (v, c) else None
  | Ebin (Sub, { e = Evar v; _ }, { e = Eint c; _ }) ->
      if List.mem v elems then Some (v, -c) else None
  | _ -> None

(* [sets] maps globally-declared index sets to (element, values). *)
let try_schedule_solve sets loc ps =
  match ps.iterate, ps.pbranches, ps.pothers with
  | false, [ (None, stmt) ], None -> (
      match stmt.s with
      | Sassign (Aset, ({ e = Eindex ({ e = Evar arr; _ }, lsubs); _ } as lhs), rhs)
        -> (
          (* the left-hand subscripts must be exactly the solve's elements *)
          let elems =
            List.filter_map
              (fun s ->
                match List.assoc_opt s sets with
                | Some (elem, _) -> Some elem
                | None -> None)
              ps.psets
          in
          let lhs_ok =
            List.length elems = List.length ps.psets
            && List.length lsubs = List.length elems
            && List.for_all2
                 (fun sub elem ->
                   match sub.e with Evar v -> v = elem | _ -> false)
                 lsubs elems
          in
          if not lhs_ok then None
          else
            let deps = self_deps arr rhs [] in
            let strictly_decreasing subs =
              if List.length subs <> List.length elems then None
              else
                let deltas = List.map (affine_delta elems) subs in
                if List.exists (fun d -> d = None) deltas then None
                else begin
                  (* every element must appear once, in order *)
                  let named = List.map Option.get deltas in
                  if List.map fst named <> elems then None
                  else Some (List.fold_left (fun acc (_, c) -> acc + c) 0 named)
                end
            in
            let sums = List.map strictly_decreasing deps in
            if List.exists (function Some s -> s >= 0 | None -> true) sums
            then None
            else begin
              (* schedule over diagonals: seq (D) par (sets) st (sum == d) *)
              let values =
                List.map
                  (fun s ->
                    match List.assoc_opt s sets with
                    | Some (_, values) -> values
                    | None -> [||])
                  ps.psets
              in
              if List.exists (fun v -> Array.length v = 0) values then None
              else if
                (* elements must be 0-based so the diagonal bound is the sum
                   of maxima *)
                List.exists
                  (fun v -> Array.exists (fun x -> x < 0) v)
                  values
              then None
              else begin
                let max_sum =
                  List.fold_left
                    (fun acc v -> acc + Array.fold_left max 0 v)
                    0 values
                in
                let dset = "__diag" and delem = "__d" in
                let sum_expr =
                  match elems with
                  | [] -> assert false
                  | e0 :: rest ->
                      List.fold_left
                        (fun acc e ->
                          { e = Ebin (Add, acc, { e = Evar e; eloc = loc }); eloc = loc })
                        { e = Evar e0; eloc = loc }
                        rest
                in
                let pred =
                  {
                    e = Ebin (Eq, sum_expr, { e = Evar delem; eloc = loc });
                    eloc = loc;
                  }
                in
                let inner_par =
                  {
                    s =
                      Spar
                        {
                          iterate = false;
                          psets = ps.psets;
                          pbranches =
                            [ (Some pred, { s = Sassign (Aset, lhs, rhs); sloc = loc }) ];
                          pothers = None;
                        };
                    sloc = loc;
                  }
                in
                let seq_stmt =
                  {
                    s =
                      Sseq
                        {
                          iterate = false;
                          psets = [ dset ];
                          pbranches = [ (None, inner_par) ];
                          pothers = None;
                        };
                    sloc = loc;
                  }
                in
                let decl =
                  Dindexset
                    [
                      {
                        set_name = dset;
                        elem_name = delem;
                        ispec =
                          Irange
                            ( { e = Eint 0; eloc = loc },
                              { e = Eint max_sum; eloc = loc } );
                        iloc = loc;
                      };
                    ]
                in
                Some
                  { s = Sblock { bdecls = [ decl ]; bstmts = [ seq_stmt ] }; sloc = loc }
              end
            end)
      | _ -> None)
  | _ -> None

let lower_solve loc ps =
  (* make 'others' explicit first, then guard every assignment with a
     change-detection predicate: the fixed point of a proper set *)
  let branch_preds = List.filter_map fst ps.pbranches in
  let branches =
    match ps.pothers with
    | None -> ps.pbranches
    | Some st ->
        let neg =
          match branch_preds with
          | [] -> Loc.error loc "others requires st branches"
          | p :: rest ->
              bnot loc
                (List.fold_left (fun acc q -> { e = Ebin (Lor, acc, q); eloc = loc }) p rest)
        in
        ps.pbranches @ [ (Some neg, st) ]
  in
  let guarded =
    List.concat_map
      (fun (pred, st) ->
        List.map
          (fun (aloc, lhs, rhs) ->
            let change = bne aloc lhs rhs in
            let pred' =
              match pred with None -> change | Some p -> band aloc p change
            in
            (Some pred', { s = Sassign (Aset, lhs, rhs); sloc = aloc }))
          (solve_assignments st))
      branches
  in
  { iterate = true; psets = ps.psets; pbranches = guarded; pothers = None }

let rec lower_solve_stmt ~schedule sets st =
  let recurse = lower_solve_stmt ~schedule sets in
  let d =
    match st.s with
    | Ssolve ps -> (
        let ps = map_par recurse ps in
        match
          if ps.iterate || not schedule then None
          else try_schedule_solve sets st.sloc ps
        with
        | Some scheduled -> scheduled.s
        | None -> Spar (lower_solve st.sloc ps))
    | Spar ps -> Spar (map_par recurse ps)
    | Sseq ps -> Sseq (map_par recurse ps)
    | Soneof ps -> Soneof (map_par recurse ps)
    | Sif (c, t, e) -> Sif (c, recurse t, Option.map recurse e)
    | Swhile (c, b) -> Swhile (c, recurse b)
    | Sfor (i, c, s, b) ->
        Sfor (Option.map recurse i, c, Option.map recurse s, recurse b)
    | Sblock b -> Sblock { b with bstmts = List.map recurse b.bstmts }
    | d -> d
  in
  { st with s = d }

and map_par f ps =
  {
    ps with
    pbranches = List.map (fun (p, st) -> (p, f st)) ps.pbranches;
    pothers = Option.map f ps.pothers;
  }

(* ---------------- program ---------------- *)

(* the program's global index sets, latest first, each alias resolved
   through the sets declared before it *)
let global_sets prog =
  let add sets def =
    match Sema.set_values (fun other -> snd (List.assoc other sets)) def with
    | values -> (def.set_name, (def.elem_name, values)) :: sets
    | exception _ -> sets
  in
  List.fold_left
    (fun sets -> function
      | Tdecl (Dindexset defs) -> List.fold_left add sets defs
      | _ -> sets)
    [] prog

let apply ?(schedule_solve = true) prog =
  let sets = global_sets prog in
  let funcs = ref [] in
  let out =
    List.filter_map
      (fun top ->
        match top with
        | Tdecl _ | Tmap _ -> Some top
        | Tfunc f ->
            let fbody = inline_block !funcs f.fbody in
            let fbody =
              { fbody with
                bstmts =
                  List.map
                    (lower_solve_stmt ~schedule:schedule_solve sets)
                    fbody.bstmts }
            in
            let f = { f with fbody } in
            funcs := !funcs @ [ (f.fname, f) ];
            if f.fname = "main" then Some (Tfunc f) else None)
      prog
  in
  out
