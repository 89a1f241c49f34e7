open Ast

type value = Vint of int | Vfloat of float

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let inf_int = Cm.Paris.inf_int

(* ---------------- values ---------------- *)

let to_int = function
  | Vint i -> i
  | Vfloat f -> int_of_float f  (* C truncation toward zero *)

let to_float = function Vint i -> float_of_int i | Vfloat f -> f
let truthy = function Vint i -> i <> 0 | Vfloat f -> f <> 0.0
let of_bool b = Vint (if b then 1 else 0)

(* a shift amount (of << and >>, and power2's argument) outside
   0..int_size-1 is a fault, as on the machine *)
let shift_amount k =
  if k < 0 || k >= Sys.int_size then
    error "shift amount %d is out of range (0..%d)" k (Sys.int_size - 1);
  k

let coerce ty v =
  match ty, v with
  | Tint, Vint _ -> v
  | Tint, Vfloat f -> Vint (int_of_float f)
  | Tfloat, Vint i -> Vfloat (float_of_int i)
  | Tfloat, Vfloat _ -> v

let arith op a b =
  match a, b with
  | Vint x, Vint y -> (
      match op with
      | Add -> Vint (x + y)
      | Sub -> Vint (x - y)
      | Mul -> Vint (x * y)
      | Div -> if y = 0 then error "division by zero" else Vint (x / y)
      | Mod -> if y = 0 then error "modulo by zero" else Vint (x mod y)
      | _ -> assert false)
  | _ ->
      let x = to_float a and y = to_float b in
      (match op with
      | Add -> Vfloat (x +. y)
      | Sub -> Vfloat (x -. y)
      | Mul -> Vfloat (x *. y)
      | Div -> Vfloat (x /. y)
      | Mod -> Vfloat (Float.rem x y)
      | _ -> assert false)

let compare_vals op a b =
  let c =
    match a, b with
    | Vint x, Vint y -> compare x y
    | _ -> compare (to_float a) (to_float b)
  in
  of_bool
    (match op with
    | Eq -> c = 0
    | Ne -> c <> 0
    | Lt -> c < 0
    | Le -> c <= 0
    | Gt -> c > 0
    | Ge -> c >= 0
    | _ -> assert false)

let min_val a b = if to_float a <= to_float b then a else b
let max_val a b = if to_float a >= to_float b then a else b

(* ---------------- storage ---------------- *)

type arr = {
  aid : int;                       (* identity for conflict detection *)
  aty : base_ty;
  adims : int array;
  data : value array;
}

type parlocal = {
  pl_ty : base_ty;
  pl_key : string list;            (* ambient elements forming the key *)
  pl_tbl : (int list, value ref) Hashtbl.t;
}

type entry =
  | Escalar of base_ty * value ref
  | Earray of arr
  | Eset of string * int array     (* element name, values *)
  | Eelem of int                   (* bound index element *)
  | Eparlocal of parlocal

type scopes = (string * entry) list

type ctx = {
  funcs : (string * func) list;
  mutable globals : scopes;        (* the outermost scope, seen by functions *)
  mutable rand : int;
  mutable out : string list;       (* reversed *)
  mutable fuel : int;
  choice : [ `First | `Rotate ];
  mutable choice_counter : int;
  mutable next_arr_id : int;
}

let burn ctx =
  if ctx.fuel <= 0 then
    error "iteration limit exceeded (non-terminating UC construct?)";
  ctx.fuel <- ctx.fuel - 1

let lcg ctx =
  ctx.rand <- ((ctx.rand * 1103515245) + 12345) land 0x3FFFFFFF;
  ctx.rand

let lookup scopes name =
  match List.assoc_opt name scopes with
  | Some e -> e
  | None -> error "unknown identifier %s" name

let lookup_set scopes name =
  match lookup scopes name with
  | Eset (elem, values) -> (elem, values)
  | _ -> error "%s is not an index set" name

(* value of a bound index element or parlocal read *)
let parlocal_key scopes pl =
  List.map
    (fun name ->
      match lookup scopes name with
      | Eelem v -> v
      | _ -> error "internal: parlocal key %s is not an index element" name)
    pl.pl_key

let parlocal_ref scopes pl =
  let key = parlocal_key scopes pl in
  match Hashtbl.find_opt pl.pl_tbl key with
  | Some r -> r
  | None ->
      let r = ref (coerce pl.pl_ty (Vint 0)) in
      Hashtbl.replace pl.pl_tbl key r;
      r

(* ---------------- array indexing ---------------- *)

let flat_index a subs =
  let n = Array.length a.adims in
  if List.length subs <> n then error "wrong number of subscripts";
  let idx = ref 0 in
  List.iteri
    (fun k s ->
      if s < 0 || s >= a.adims.(k) then
        error "subscript %d out of range [0, %d) on axis %d" s a.adims.(k) k;
      idx := (!idx * a.adims.(k)) + s)
    subs;
  !idx

(* ---------------- ambient tuples ---------------- *)

(* an activity tuple is an ordered list of element bindings; executing a
   statement for a tuple pushes those bindings onto the scopes *)
type tuple = (string * int) list

let push_tuple scopes (t : tuple) =
  List.fold_left (fun sc (name, v) -> (name, Eelem v) :: sc) scopes t

let cartesian (sets : (string * int array) list) : tuple list =
  List.fold_left
    (fun acc (elem, values) ->
      List.concat_map
        (fun t -> Array.to_list (Array.map (fun v -> t @ [ (elem, v) ]) values))
        acc)
    [ [] ] sets

(* ---------------- expression evaluation ---------------- *)

let rec eval ctx scopes e =
  match e.e with
  | Eint i -> Vint i
  | Efloat f -> Vfloat f
  | Einf -> Vint inf_int
  | Estr _ -> error "string literal outside print"
  | Evar name -> (
      match lookup scopes name with
      | Escalar (_, r) -> !r
      | Eelem v -> Vint v
      | Eparlocal pl -> !(parlocal_ref scopes pl)
      | Earray _ -> error "array %s used as a value" name
      | Eset _ -> error "index set %s used as a value" name)
  | Eindex (base, subs) ->
      let a = eval_array ctx scopes base in
      let subs = List.map (fun s -> to_int (eval ctx scopes s)) subs in
      a.data.(flat_index a subs)
  | Ebin (Land, a, b) ->
      if truthy (eval ctx scopes a) then of_bool (truthy (eval ctx scopes b))
      else Vint 0
  | Ebin (Lor, a, b) ->
      if truthy (eval ctx scopes a) then Vint 1
      else of_bool (truthy (eval ctx scopes b))
  | Ebin (op, a, b) -> (
      let va = eval ctx scopes a in
      let vb = eval ctx scopes b in
      match op with
      | Add | Sub | Mul | Div | Mod -> arith op va vb
      | Eq | Ne | Lt | Le | Gt | Ge -> compare_vals op va vb
      | Band -> Vint (to_int va land to_int vb)
      | Bor -> Vint (to_int va lor to_int vb)
      | Bxor -> Vint (to_int va lxor to_int vb)
      | Shl -> Vint (to_int va lsl shift_amount (to_int vb))
      | Shr -> Vint (to_int va asr shift_amount (to_int vb))
      | Land | Lor -> assert false)
  | Eun (Neg, a) -> (
      match eval ctx scopes a with
      | Vint i -> Vint (-i)
      | Vfloat f -> Vfloat (-.f))
  | Eun (Lnot, a) -> of_bool (not (truthy (eval ctx scopes a)))
  | Eun (Bnot, a) -> Vint (lnot (to_int (eval ctx scopes a)))
  | Econd (c, a, b) ->
      if truthy (eval ctx scopes c) then eval ctx scopes a else eval ctx scopes b
  | Ecall (name, args) -> eval_call ctx scopes name args
  | Ereduce r -> eval_reduction ctx scopes r

and eval_array ctx scopes base =
  match base.e with
  | Evar name -> (
      match lookup scopes name with
      | Earray a -> a
      | _ -> error "%s is not an array" name)
  | _ -> error "only named arrays can be indexed"

and eval_call ctx scopes name args =
  match name, args with
  | "power2", [ a ] -> Vint (1 lsl shift_amount (to_int (eval ctx scopes a)))
  | "abs", [ a ] -> (
      match eval ctx scopes a with
      | Vint i -> Vint (abs i)
      | Vfloat f -> Vfloat (Float.abs f))
  | "min", [ a; b ] -> min_val (eval ctx scopes a) (eval ctx scopes b)
  | "max", [ a; b ] -> max_val (eval ctx scopes a) (eval ctx scopes b)
  | "tofloat", [ a ] -> Vfloat (to_float (eval ctx scopes a))
  | "toint", [ a ] -> Vint (to_int (eval ctx scopes a))
  | "rand", [] -> Vint (lcg ctx)
  | _ -> (
      match List.assoc_opt name ctx.funcs with
      | Some f -> call_function ctx scopes f args
      | None -> error "unknown function %s" name)

and call_function ctx scopes f args =
  let frame =
    List.map2
      (fun p a ->
        if p.prank > 0 then
          match a.e with
          | Evar n -> (
              match lookup scopes n with
              | Earray arr -> (p.pname, Earray arr)  (* by reference *)
              | _ -> error "%s is not an array" n)
          | _ -> error "array argument must be an array name"
        else
          let v = coerce p.pty (eval ctx scopes a) in
          (p.pname, Escalar (p.pty, ref v)))
      f.fparams args
  in
  (* functions see the globals plus their own frame (static scoping) *)
  let fscopes = frame @ ctx.globals in
  match exec_block ctx fscopes f.fbody with
  | `Return (Some v) -> (
      match f.fret with Some ty -> coerce ty v | None -> v)
  | `Return None | `Normal -> (
      match f.fret with
      | None -> Vint 0
      | Some _ -> error "function %s did not return a value" f.fname)
  | `Break | `Continue -> error "break/continue escaped function %s" f.fname

and eval_reduction ctx scopes r =
  let sets = List.map (fun s -> lookup_set scopes s) r.rsets in
  let tuples = cartesian sets in
  let operands = ref [] in
  let enabled_somewhere = Hashtbl.create 16 in
  let has_preds = List.exists (fun (p, _) -> p <> None) r.rbranches in
  List.iter
    (fun (pred, expr) ->
      List.iteri
        (fun ti t ->
          let sc = push_tuple scopes t in
          let on =
            match pred with
            | None -> true
            | Some p -> truthy (eval ctx sc p)
          in
          if on then begin
            Hashtbl.replace enabled_somewhere ti ();
            operands := eval ctx sc expr :: !operands
          end)
        tuples)
    r.rbranches;
  (match r.rothers with
  | Some expr when has_preds ->
      List.iteri
        (fun ti t ->
          if not (Hashtbl.mem enabled_somewhere ti) then begin
            let sc = push_tuple scopes t in
            operands := eval ctx sc expr :: !operands
          end)
        tuples
  | _ -> ());
  let operands = List.rev !operands in
  reduce_operands r.rop operands

and reduce_operands rop operands =
  let is_float = List.exists (function Vfloat _ -> true | _ -> false) operands in
  let identity =
    match rop, is_float with
    | Rsum, false -> Vint 0
    | Rsum, true -> Vfloat 0.0
    | Rprod, false -> Vint 1
    | Rprod, true -> Vfloat 1.0
    | Rmin, false -> Vint inf_int
    | Rmin, true -> Vfloat infinity
    | Rmax, false -> Vint (-inf_int)
    | Rmax, true -> Vfloat neg_infinity
    | Rland, _ -> Vint 1
    | Rlor, _ -> Vint 0
    | Rxor, _ -> Vint 0
    | Rarb, false -> Vint inf_int
    | Rarb, true -> Vfloat infinity
  in
  match operands with
  | [] -> identity
  | first :: _ -> (
      match rop with
      | Rarb -> first
      | _ ->
          let combine acc v =
            match rop with
            | Rsum -> arith Add acc v
            | Rprod -> arith Mul acc v
            | Rmin -> min_val acc v
            | Rmax -> max_val acc v
            | Rland -> of_bool (truthy acc && truthy v)
            | Rlor -> of_bool (truthy acc || truthy v)
            | Rxor -> Vint (to_int acc lxor to_int v)
            | Rarb -> assert false
          in
          List.fold_left combine identity operands)

(* ---------------- assignment targets ---------------- *)

(* Identity of an assigned cell: array cells by (array id, flat index);
   scalar refs by physical identity (compared with ==). *)
and target_loc ctx scopes lv :
    [ `Cell of int * int | `Ref of value ref ] * (unit -> value) * (value -> unit)
    =
  match lv.e with
  | Evar name -> (
      match lookup scopes name with
      | Escalar (ty, r) -> (`Ref r, (fun () -> !r), fun v -> r := coerce ty v)
      | Eparlocal pl ->
          let r = parlocal_ref scopes pl in
          (`Ref r, (fun () -> !r), fun v -> r := coerce pl.pl_ty v)
      | _ -> error "%s is not assignable" name)
  | Eindex (base, subs) ->
      let a = eval_array ctx scopes base in
      let subs = List.map (fun s -> to_int (eval ctx scopes s)) subs in
      let idx = flat_index a subs in
      ( `Cell (a.aid, idx),
        (fun () -> a.data.(idx)),
        fun v -> a.data.(idx) <- coerce a.aty v )
  | _ -> error "invalid assignment target"

and apply_assign_op op old rhs =
  match op with
  | Aset -> rhs
  | Aadd -> arith Add old rhs
  | Asub -> arith Sub old rhs
  | Amul -> arith Mul old rhs
  | Adiv -> arith Div old rhs
  | Amod -> arith Mod old rhs
  | Amin -> min_val old rhs
  | Amax -> max_val old rhs

(* ---------------- synchronous (parallel) execution ---------------- *)

(* Execute one statement synchronously for all active tuples.  Returns
   true when any committed write changed a stored value (used by solve). *)
and exec_sync ctx scopes (tuples : tuple list) st : bool =
  match st.s with
  | Sempty -> false
  | Sassign (op, lhs, rhs) ->
      let writes =
        List.map
          (fun t ->
            let sc = push_tuple scopes t in
            let loc, read, write = target_loc ctx sc lhs in
            let v = eval ctx sc rhs in
            (loc, read, write, apply_assign_op op (read ()) v))
          tuples
      in
      commit ctx writes
  | Sexpr { e = Ecall ("swap", [ la; lb ]); _ } ->
      let writes =
        List.concat_map
          (fun t ->
            let sc = push_tuple scopes t in
            let loca, reada, writea = target_loc ctx sc la in
            let locb, readb, writeb = target_loc ctx sc lb in
            let va = reada () and vb = readb () in
            [ (loca, reada, writea, vb); (locb, readb, writeb, va) ])
          tuples
      in
      commit ctx writes
  | Sexpr e ->
      List.iter
        (fun t ->
          let sc = push_tuple scopes t in
          ignore (eval ctx sc e))
        tuples;
      false
  | Sblock b -> exec_sync_block ctx scopes tuples b
  | Sif (c, then_, else_) ->
      let on, off =
        List.partition
          (fun t -> truthy (eval ctx (push_tuple scopes t) c))
          tuples
      in
      let ch1 = if on <> [] then exec_sync ctx scopes on then_ else false in
      let ch2 =
        match else_ with
        | Some s when off <> [] -> exec_sync ctx scopes off s
        | _ -> false
      in
      ch1 || ch2
  | Swhile (c, body) ->
      let changed = ref false in
      let rec loop tuples =
        burn ctx;
        let active =
          List.filter (fun t -> truthy (eval ctx (push_tuple scopes t) c)) tuples
        in
        if active <> [] then begin
          if exec_sync ctx scopes active body then changed := true;
          loop active
        end
      in
      loop tuples;
      !changed
  | Spar ps | Soneof ps | Sseq ps | Ssolve ps ->
      exec_construct ctx scopes tuples st.sloc (kind_of st) ps
  | Sfor _ -> error "for loops are not supported inside parallel constructs"
  | Sreturn _ -> error "return inside a parallel construct"
  | Sbreak | Scontinue -> error "break/continue inside a parallel construct"

and kind_of st =
  match st.s with
  | Spar _ -> `Par
  | Sseq _ -> `Seq
  | Ssolve _ -> `Solve
  | Soneof _ -> `Oneof
  | _ -> assert false

and exec_sync_block ctx scopes tuples b =
  (* declarations create par-local scalars (one slot per ambient tuple) or
     block-local index sets *)
  let key_names =
    (* names of the elements bound by the ambient tuples, in order *)
    match tuples with [] -> [] | t :: _ -> List.map fst t
  in
  let scopes =
    List.fold_left
      (fun sc d ->
        match d with
        | Dvar (ty, ds) ->
            List.fold_left
              (fun sc dd ->
                if dd.ddims <> [] then
                  error "arrays may not be declared inside parallel constructs";
                let pl =
                  { pl_ty = ty; pl_key = key_names; pl_tbl = Hashtbl.create 64 }
                in
                (dd.dname, Eparlocal pl) :: sc)
              sc ds
        | Dindexset defs ->
            List.fold_left
              (fun sc def ->
                let values =
                  match def.ispec with
                  | Irange (lo, hi) ->
                      let lo = Sema.const_eval lo and hi = Sema.const_eval hi in
                      Array.init (hi - lo + 1) (fun k -> lo + k)
                  | Ilist es -> Array.of_list (List.map Sema.const_eval es)
                  | Ialias other ->
                      let _, values = lookup_set sc other in
                      values
                in
                (def.set_name, Eset (def.elem_name, values)) :: sc)
              sc defs)
      scopes b.bdecls
  in
  (* initializers for par-locals execute synchronously *)
  let changed = ref false in
  List.iter
    (fun d ->
      match d with
      | Dvar (_, ds) ->
          List.iter
            (fun dd ->
              match dd.dinit with
              | Some init ->
                  let lhs = { e = Evar dd.dname; eloc = dd.dloc } in
                  let st =
                    { s = Sassign (Aset, lhs, init); sloc = dd.dloc }
                  in
                  if exec_sync ctx scopes tuples st then changed := true
              | None -> ())
            ds
      | Dindexset _ -> ())
    b.bdecls;
  List.iter
    (fun st -> if exec_sync ctx scopes tuples st then changed := true)
    b.bstmts;
  !changed

and commit ctx writes =
  (* enforce the single-value rule within one synchronous statement and
     report whether anything changed *)
  let seen_cells : (int * int, value) Hashtbl.t = Hashtbl.create 64 in
  let seen_refs : (value ref * value) list ref = ref [] in
  let conflict () =
    error
      "parallel assignment conflict: multiple distinct values assigned to \
       one variable (paper section 3.4)"
  in
  let changed = ref false in
  List.iter
    (fun (loc, read, write, v) ->
      (match loc with
      | `Cell key -> (
          match Hashtbl.find_opt seen_cells key with
          | Some prev -> if prev <> v then conflict ()
          | None -> Hashtbl.replace seen_cells key v)
      | `Ref r -> (
          match List.find_opt (fun (r', _) -> r' == r) !seen_refs with
          | Some (_, prev) -> if prev <> v then conflict ()
          | None -> seen_refs := (r, v) :: !seen_refs));
      let old = read () in
      write v;
      if read () <> old then changed := true)
    writes;
  !changed

(* ---------------- par / seq / solve / oneof ---------------- *)

and exec_construct ctx scopes (ambient : tuple list) loc kind ps : bool =
  let sets = List.map (fun s -> lookup_set scopes s) ps.psets in
  let inner = cartesian sets in
  let all_tuples =
    if ambient = [] then inner
    else
      List.concat_map
        (fun amb ->
          List.map
            (fun t ->
              (* inner bindings shadow outer ones with the same name *)
              let amb' = List.filter (fun (n, _) -> not (List.mem_assoc n t)) amb in
              amb' @ t)
            inner)
        ambient
  in
  ignore loc;
  match kind with
  | `Par -> exec_par_like ctx scopes ps all_tuples
  | `Solve -> exec_solve ctx scopes ps all_tuples
  | `Oneof -> exec_oneof ctx scopes ps all_tuples
  | `Seq -> exec_seq ctx scopes ps ambient sets

and exec_par_like ctx scopes ps all_tuples : bool =
  let changed = ref false in
  let round () =
    let any_enabled = ref false in
    let enabled_somewhere = Hashtbl.create 64 in
    List.iter
      (fun (pred, st) ->
        let enabled =
          match pred with
          | None -> all_tuples
          | Some p ->
              List.filter
                (fun t -> truthy (eval ctx (push_tuple scopes t) p))
                all_tuples
        in
        List.iter (fun t -> Hashtbl.replace enabled_somewhere t ()) enabled;
        if enabled <> [] then begin
          any_enabled := true;
          if exec_sync ctx scopes enabled st then changed := true
        end)
      ps.pbranches;
    (match ps.pothers with
    | Some st ->
        let rest =
          List.filter (fun t -> not (Hashtbl.mem enabled_somewhere t)) all_tuples
        in
        if rest <> [] then if exec_sync ctx scopes rest st then changed := true
    | None -> ());
    !any_enabled
  in
  if ps.iterate then begin
    let rec loop () =
      burn ctx;
      if round () then loop ()
    in
    loop ()
  end
  else ignore (round ());
  !changed

and exec_oneof ctx scopes ps all_tuples : bool =
  let changed = ref false in
  let branches = Array.of_list ps.pbranches in
  let n = Array.length branches in
  let enabled_of (pred, _) =
    match pred with
    | None -> all_tuples
    | Some p ->
        List.filter (fun t -> truthy (eval ctx (push_tuple scopes t) p)) all_tuples
  in
  let round () =
    let start =
      match ctx.choice with
      | `First -> 0
      | `Rotate ->
          let s = ctx.choice_counter in
          ctx.choice_counter <- ctx.choice_counter + 1;
          s
    in
    let rec pick k =
      if k >= n then None
      else
        let idx = (start + k) mod n in
        let enabled = enabled_of branches.(idx) in
        if enabled <> [] then Some (idx, enabled) else pick (k + 1)
    in
    match pick 0 with
    | None -> false
    | Some (idx, enabled) ->
        let _, st = branches.(idx) in
        if exec_sync ctx scopes enabled st then changed := true;
        true
  in
  if ps.iterate then begin
    let rec loop () =
      burn ctx;
      if round () then loop ()
    in
    loop ()
  end
  else ignore (round ());
  !changed

and exec_solve ctx scopes ps all_tuples : bool =
  (* iterate the (guarded) simultaneous assignments to a fixed point; for a
     proper set this reaches the unique solution *)
  let changed_overall = ref false in
  let rec loop () =
    burn ctx;
    let changed = ref false in
    let enabled_somewhere = Hashtbl.create 64 in
    List.iter
      (fun (pred, st) ->
        let enabled =
          match pred with
          | None -> all_tuples
          | Some p ->
              List.filter
                (fun t -> truthy (eval ctx (push_tuple scopes t) p))
                all_tuples
        in
        List.iter (fun t -> Hashtbl.replace enabled_somewhere t ()) enabled;
        if enabled <> [] then
          if exec_sync ctx scopes enabled st then changed := true)
      ps.pbranches;
    (match ps.pothers with
    | Some st ->
        let rest =
          List.filter (fun t -> not (Hashtbl.mem enabled_somewhere t)) all_tuples
        in
        if rest <> [] then if exec_sync ctx scopes rest st then changed := true
    | None -> ());
    if !changed then begin
      changed_overall := true;
      loop ()
    end
  in
  loop ();
  !changed_overall

and exec_seq ctx scopes ps ambient sets : bool =
  let inner = cartesian sets in
  let changed = ref false in
  let pass () =
    let any = ref false in
    List.iter
      (fun t ->
        List.iter
          (fun (pred, st) ->
            if ambient = [] then begin
              (* front-end iteration *)
              let sc = push_tuple scopes t in
              let on =
                match pred with None -> true | Some p -> truthy (eval ctx sc p)
              in
              if on then begin
                any := true;
                match exec_stmt ctx sc st with
                | `Normal -> ()
                | `Break | `Continue | `Return _ ->
                    error "break/continue/return may not escape a seq statement"
              end
            end
            else begin
              (* inside a parallel construct: each element step runs
                 synchronously for the enabled ambient tuples *)
              let extended =
                List.map
                  (fun amb ->
                    let amb' =
                      List.filter (fun (n, _) -> not (List.mem_assoc n t)) amb
                    in
                    amb' @ t)
                  ambient
              in
              let enabled =
                match pred with
                | None -> extended
                | Some p ->
                    List.filter
                      (fun tp -> truthy (eval ctx (push_tuple scopes tp) p))
                      extended
              in
              if enabled <> [] then begin
                any := true;
                if exec_sync ctx scopes enabled st then changed := true
              end
            end)
          ps.pbranches;
        match ps.pothers with
        | Some _ -> error "others is not meaningful on seq statements"
        | None -> ())
      inner;
    !any
  in
  if ps.iterate then begin
    let rec loop () =
      burn ctx;
      if pass () then loop ()
    in
    loop ()
  end
  else ignore (pass ());
  !changed

(* ---------------- front-end statement execution ---------------- *)

and exec_stmt ctx scopes st :
    [ `Normal | `Break | `Continue | `Return of value option ] =
  match st.s with
  | Sempty -> `Normal
  | Sassign (op, lhs, rhs) ->
      let _, read, write = target_loc ctx scopes lhs in
      let v = eval ctx scopes rhs in
      write (apply_assign_op op (read ()) v);
      `Normal
  | Sexpr { e = Ecall ("print", args); _ } ->
      let b = Buffer.create 32 in
      List.iter
        (fun a ->
          match a.e with
          | Estr s -> Buffer.add_string b s
          | _ -> (
              match eval ctx scopes a with
              | Vint i -> Buffer.add_string b (string_of_int i)
              | Vfloat f -> Buffer.add_string b (Printf.sprintf "%g" f)))
        args;
      ctx.out <- Buffer.contents b :: ctx.out;
      `Normal
  | Sexpr { e = Ecall ("swap", [ la; lb ]); _ } ->
      let _, reada, writea = target_loc ctx scopes la in
      let _, readb, writeb = target_loc ctx scopes lb in
      let va = reada () and vb = readb () in
      writea vb;
      writeb va;
      `Normal
  | Sexpr e ->
      ignore (eval ctx scopes e);
      `Normal
  | Sif (c, then_, else_) ->
      if truthy (eval ctx scopes c) then exec_stmt ctx scopes then_
      else (
        match else_ with Some s -> exec_stmt ctx scopes s | None -> `Normal)
  | Swhile (c, body) ->
      let rec loop () =
        burn ctx;
        if truthy (eval ctx scopes c) then
          match exec_stmt ctx scopes body with
          | `Normal | `Continue -> loop ()
          | `Break -> `Normal
          | `Return _ as r -> r
        else `Normal
      in
      loop ()
  | Sfor (init, cond, step, body) ->
      (match init with
      | Some s -> ignore (exec_stmt ctx scopes s)
      | None -> ());
      let rec loop () =
        burn ctx;
        let go =
          match cond with None -> true | Some c -> truthy (eval ctx scopes c)
        in
        if go then
          match exec_stmt ctx scopes body with
          | `Normal | `Continue ->
              (match step with
              | Some s -> ignore (exec_stmt ctx scopes s)
              | None -> ());
              loop ()
          | `Break -> `Normal
          | `Return _ as r -> r
        else `Normal
      in
      loop ()
  | Sblock b -> exec_block ctx scopes b
  | Sreturn e ->
      `Return (match e with Some ex -> Some (eval ctx scopes ex) | None -> None)
  | Sbreak -> `Break
  | Scontinue -> `Continue
  | Spar _ | Sseq _ | Ssolve _ | Soneof _ ->
      ignore (exec_construct ctx scopes [] st.sloc (kind_of st) (par_of st));
      `Normal

and par_of st =
  match st.s with
  | Spar ps | Sseq ps | Ssolve ps | Soneof ps -> ps
  | _ -> assert false

and exec_block ctx scopes b :
    [ `Normal | `Break | `Continue | `Return of value option ] =
  let scopes = List.fold_left (declare ctx) scopes b.bdecls in
  let rec go = function
    | [] -> `Normal
    | st :: rest -> (
        match exec_stmt ctx scopes st with
        | `Normal -> go rest
        | other -> other)
  in
  go b.bstmts

and declare ctx scopes d =
  match d with
  | Dvar (ty, ds) ->
      List.fold_left
        (fun sc dd ->
          if dd.ddims = [] then begin
            let init =
              match dd.dinit with
              | Some e -> coerce ty (eval ctx sc e)
              | None -> coerce ty (Vint 0)
            in
            (dd.dname, Escalar (ty, ref init)) :: sc
          end
          else begin
            let dims = Array.of_list (List.map Sema.const_eval dd.ddims) in
            let total = Array.fold_left ( * ) 1 dims in
            let a =
              {
                aid = (ctx.next_arr_id <- ctx.next_arr_id + 1; ctx.next_arr_id);
                aty = ty;
                adims = dims;
                data = Array.make total (coerce ty (Vint 0));
              }
            in
            (dd.dname, Earray a) :: sc
          end)
        scopes ds
  | Dindexset defs ->
      List.fold_left
        (fun sc def ->
          let values =
            match def.ispec with
            | Irange (lo, hi) ->
                let lo = Sema.const_eval lo and hi = Sema.const_eval hi in
                Array.init (hi - lo + 1) (fun k -> lo + k)
            | Ilist es -> Array.of_list (List.map Sema.const_eval es)
            | Ialias other ->
                let _, values = lookup_set sc other in
                values
          in
          (def.set_name, Eset (def.elem_name, values)) :: sc)
        scopes defs

(* ---------------- program entry ---------------- *)

type result = { r_out : string list; r_globals : scopes }

let run ?(seed = 12345) ?(fuel = 2_000_000) ?(choice = `First) prog =
  let funcs =
    List.filter_map (function Tfunc f -> Some (f.fname, f) | _ -> None) prog
  in
  let ctx =
    {
      funcs;
      globals = [];
      rand = seed land 0x3FFFFFFF;
      out = [];
      fuel;
      choice;
      choice_counter = 0;
      next_arr_id = 0;
    }
  in
  let globals =
    List.fold_left
      (fun sc top ->
        match top with
        | Tdecl d -> declare ctx sc d
        | Tfunc _ | Tmap _ -> sc)
      [] prog
  in
  ctx.globals <- globals;
  (match List.assoc_opt "main" funcs with
  | Some f -> (
      match exec_block ctx globals f.fbody with
      | `Return _ | `Normal -> ()
      | `Break | `Continue -> error "break/continue escaped main")
  | None -> invalid_arg "Interp.run: no main (the parser requires one)");
  { r_out = List.rev ctx.out; r_globals = globals }

let output r = r.r_out

let find_array r name =
  match List.assoc_opt name r.r_globals with
  | Some (Earray a) -> a
  | _ -> error "no global array named %s" name

let int_array r name =
  let a = find_array r name in
  Array.map to_int a.data

let float_array r name =
  let a = find_array r name in
  Array.map to_float a.data

let scalar r name =
  match List.assoc_opt name r.r_globals with
  | Some (Escalar (_, v)) -> !v
  | _ -> error "no global scalar named %s" name
