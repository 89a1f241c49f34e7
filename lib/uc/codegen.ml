open Ast
module P = Cm.Paris

type options = {
  news_opt : bool;
  procopt : bool;
  use_mappings : bool;
  cse : bool;
  ir_opt : Cm.Iropt.config;
}

let default_options =
  {
    news_opt = true;
    procopt = true;
    use_mappings = true;
    cse = true;
    ir_opt = Cm.Iropt.default;
  }

(* ---------------- communication events ----------------

   While lowering, the walk records one event wherever it emits
   communication, with the static execution count of the code it sits
   in.  Commpat re-classifies the events under candidate layouts. *)

type sub =
  | Saffine of int * int (* axis, offset *)
  | Sopaque of (int array -> int) option
      (* evaluator over space coordinates when the subscript is a pure
         index expression; None when it depends on runtime values *)

type access = {
  aname : string;
  aloc : Loc.t;
  arw : [ `Read | `Write ];
  adims : int list; (* logical dims of the array *)
  asubs : sub list;
  aspace : int list; (* dims of the activity space *)
  avalues : int array list; (* per space axis: the element values *)
  atrips : int;
  aapprox : bool;
}

type event =
  | Access of access
  | Activity of { trips : int; size : int; approx : bool }
  | Hist_send of { count : string; trips : int; isize : int; approx : bool }
  | Fe_access of { fename : string; ferw : [ `Read | `Write ]; fetrips : int }

type recording = {
  events : event list;
  arrays : (string * int list) list;
  layouts : Mapping.table;
}

(* assumed iteration count of data-dependent loops *)
let dynamic_trips = 8

type array_meta = {
  afield : int;
  aty : base_ty;
  adims : int list;
  alayout : Mapping.layout;
}

type scalar_meta = { sreg : int; sty : base_ty }

type compiled = {
  prog : P.program;
  carrays : (string * array_meta) list;
  cscalars : (string * scalar_meta) list;
}

(* ---------------- codegen state ---------------- *)

type binding =
  | Bscalar of scalar_meta              (* front-end scalar *)
  | Barray of array_meta
  | Bset of string * int array          (* element name, values *)
  | Belem_axis of int                   (* axis of the current space *)
  | Belem_reg of int * int              (* seq element: register, first value *)
  | Bparlocal of base_ty * int * int    (* type, field, owning vpset *)

(* the current activity space of a parallel context *)
type space = {
  vp : int;
  dims : int list;
  axes : (string * int array) list;  (* element name + values, one per axis *)
  value_fields : int array;          (* per axis: field holding the element value *)
}

type ctx = {
  b : P.Builder.t;
  opts : options;
  layouts : (string * Mapping.layout) list;
  geoms : (int list, int) Hashtbl.t;
  mutable env : (string * binding) list;
  mutable space : space option;          (* None = front-end context *)
  mutable act_all : bool;                (* current context statically full *)
  mutable cur_with : int;
  mutable break_labels : int list;
  mutable continue_labels : int list;
  mutable exit_label : int;
  mutable known_extents : int list;  (* axis extents of declared arrays *)
  (* common sub-expression elimination: pure parallel expressions already
     evaluated in the current space under an enclosing (wider) mask *)
  mutable cse_table : (Ast.expr * int * int list * P.operand) list;
  mutable mask_path : int list;
  mutable next_mask_id : int;
  (* communication events, recorded only while [live]: in code the
     analysis knows runs *)
  mutable live : bool;
  mutable recorded : event list;  (* reversed *)
  mutable mult : int;             (* static execution count of the code *)
  mutable estimated : bool;       (* [mult] is an estimate *)
  mutable may_return : bool;      (* a return on a conditional path was walked *)
}

let err loc fmt = Loc.error loc fmt

let note ctx ev = if ctx.live then ctx.recorded <- ev () :: ctx.recorded
let inexact ctx = ctx.estimated || ctx.may_return

(* walk [f] with the execution count multiplied by [k]; [estimated]
   flags every event recorded inside *)
let with_trips ctx ?(estimated = false) k f =
  let mult = ctx.mult and saved = ctx.estimated in
  ctx.mult <- mult * k;
  ctx.estimated <- saved || estimated;
  let r = f () in
  ctx.mult <- mult;
  ctx.estimated <- saved;
  r

(* code that runs at most once per arrival: a branch, a short-circuit
   operand *)
let sometimes ctx f = with_trips ctx ~estimated:true 1 f

let iterated ctx iterate f =
  if iterate then with_trips ctx ~estimated:true dynamic_trips f else f ()

(* code the analysis knows does not run: lowered, never recorded *)
let unreached ctx f =
  let live = ctx.live in
  ctx.live <- false;
  let r = f () in
  ctx.live <- live;
  r

let kind_of_ty = function Tint -> P.KInt | Tfloat -> P.KFloat

let vpset_for ctx dims =
  match Hashtbl.find_opt ctx.geoms dims with
  | Some vp -> vp
  | None ->
      let vp = P.Builder.vpset ctx.b (Cm.Geometry.create dims) in
      Hashtbl.replace ctx.geoms dims vp;
      vp

let emit ctx i = P.Builder.emit ctx.b i

let ensure_with ctx vp =
  if ctx.cur_with <> vp then begin
    emit ctx (P.Cwith vp);
    ctx.cur_with <- vp
  end

let temp ctx ?(vp = -1) kind =
  let vp = if vp >= 0 then vp else (Option.get ctx.space).vp in
  P.Builder.field ctx.b ~vpset:vp kind

let lookup ctx loc name =
  match List.assoc_opt name ctx.env with
  | Some b -> b
  | None -> err loc "unknown identifier %s" name

let lookup_set ctx loc name =
  match lookup ctx loc name with
  | Bset (elem, values) -> (elem, values)
  | _ -> err loc "%s is not an index set" name

let array_meta ctx loc name =
  match lookup ctx loc name with
  | Barray m -> m
  | _ -> err loc "%s is not an array" name

(* the name and storage of the array a subscripted expression indexes *)
let indexed ctx base =
  match base.e with
  | Evar v -> (v, array_meta ctx base.eloc v)
  | _ -> err base.eloc "only named arrays can be indexed"

(* ---------------- types ---------------- *)

let rec ty_of ctx e =
  match e.e with
  | Eint _ | Einf -> Tint
  | Efloat _ -> Tfloat
  | Estr _ -> err e.eloc "string literal outside print"
  | Evar v -> (
      match lookup ctx e.eloc v with
      | Bscalar m -> m.sty
      | Belem_axis _ | Belem_reg _ -> Tint
      | Bparlocal (ty, _, _) -> ty
      | Barray _ -> err e.eloc "array %s used as a value" v
      | Bset _ -> err e.eloc "index set %s used as a value" v)
  | Eindex (base, _) -> (snd (indexed ctx base)).aty
  | Ebin ((Add | Sub | Mul | Div), a, b) ->
      if ty_of ctx a = Tfloat || ty_of ctx b = Tfloat then Tfloat else Tint
  | Ebin _ -> Tint
  | Eun (Neg, a) -> ty_of ctx a
  | Eun _ -> Tint
  | Econd (_, a, b) ->
      if ty_of ctx a = Tfloat || ty_of ctx b = Tfloat then Tfloat else Tint
  | Ecall (f, args) -> (
      match Builtins.lookup f with
      | Some (Builtins.Value { result; _ }) ->
          Builtins.result_ty result (ty_of ctx) args
      | _ -> err e.eloc "call to %s survived inlining" f)
  | Ereduce r ->
      (* bind the reduction's elements for typing purposes only *)
      let saved = ctx.env in
      List.iter
        (fun set ->
          match List.assoc_opt set ctx.env with
          | Some (Bset (elem, _)) -> ctx.env <- (elem, Belem_reg (-1, 0)) :: ctx.env
          | _ -> ())
        r.rsets;
      let tys =
        List.map (fun (_, ex) -> ty_of ctx ex) r.rbranches
        @ (match r.rothers with Some ex -> [ ty_of ctx ex ] | None -> [])
      in
      ctx.env <- saved;
      if List.mem Tfloat tys then Tfloat else Tint

(* ---------------- subscript analysis ---------------- *)

(* affine analysis of one subscript: Some (axis, offset) when the
   subscript is  elem (+|-) const  for an element of the current space
   with canonical 0-based contiguous values *)
let affine_sub ctx sub : (int * int) option =
  (* spaces are cover geometries: an element's value is its coordinate *)
  let elem_axis v =
    match List.assoc_opt v ctx.env with
    | Some (Belem_axis ax) -> Some ax
    | _ -> None
  in
  match sub.e with
  | Evar v -> Option.map (fun ax -> (ax, 0)) (elem_axis v)
  | Ebin (Add, { e = Evar v; _ }, { e = Eint c; _ }) ->
      Option.map (fun ax -> (ax, c)) (elem_axis v)
  | Ebin (Sub, { e = Evar v; _ }, { e = Eint c; _ }) ->
      Option.map (fun ax -> (ax, -c)) (elem_axis v)
  | _ -> None

(* a pure index subscript as a function of the space coordinates, for
   fan-in estimation; a seq element stands for its first value *)
let rec sub_evaluator ctx e : (int array -> int) option =
  let lift2 f a b =
    match sub_evaluator ctx a, sub_evaluator ctx b with
    | Some fa, Some fb -> Some (fun c -> f (fa c) (fb c))
    | _ -> None
  in
  match e.e with
  | Eint k -> Some (fun _ -> k)
  | Evar v -> (
      match List.assoc_opt v ctx.env with
      | Some (Belem_axis ax) -> Some (fun coords -> coords.(ax))
      | Some (Belem_reg (_, first)) -> Some (fun _ -> first)
      | _ -> None)
  | Ebin (Add, a, b) -> lift2 ( + ) a b
  | Ebin (Sub, a, b) -> lift2 ( - ) a b
  | Ebin (Mul, a, b) -> lift2 ( * ) a b
  | Ebin (Div, a, b) -> lift2 (fun x y -> if y = 0 then 0 else x / y) a b
  | Ebin (Mod, a, b) -> lift2 (fun x y -> if y = 0 then 0 else x mod y) a b
  | Ecall ("power2", [ a ]) ->
      (* as Paris [Shl] computes it, with an out-of-range shift read as 0
         like a division by zero above *)
      Option.map
        (fun fa c ->
          let x = fa c in
          if x >= 0 && x < Sys.int_size then 1 lsl x else 0)
        (sub_evaluator ctx a)
  | Ecall ("abs", [ a ]) -> Option.map (fun fa c -> abs (fa c)) (sub_evaluator ctx a)
  | Ecall ("min", [ a; b ]) -> lift2 Int.min a b
  | Ecall ("max", [ a; b ]) -> lift2 Int.max a b
  | _ -> None

(* an access to array [name] at [subs] from the current space *)
let access_of ctx loc name (m : array_meta) subs rw : access =
  let sp = Option.get ctx.space in
  let sub s =
    match affine_sub ctx s with
    | Some (ax, off) -> Saffine (ax, off)
    | None -> Sopaque (sub_evaluator ctx s)
  in
  {
    aname = name;
    aloc = loc;
    arw = rw;
    adims = m.adims;
    asubs = List.map sub subs;
    aspace = sp.dims;
    avalues = List.map snd sp.axes;
    atrips = ctx.mult;
    aapprox = inexact ctx;
  }

(* ---------------- safety analysis ----------------

   An expression is safe when evaluating it for context-disabled elements
   cannot fault, diverge, or disturb observable state (the rand stream).
   Safe sub-expressions of && / || / ?: may be evaluated flat (a single
   select) instead of under a narrowed context. *)

let is_identity_access ctx base subs =
  match ctx.space, base.e with
  | Some sp, Evar name -> (
      match List.assoc_opt name ctx.env with
      | Some (Barray m) ->
          m.alayout = Mapping.Default
          && m.adims = sp.dims
          && List.length subs = List.length sp.dims
          && List.for_all2
               (fun sub axis ->
                 match sub.e with
                 | Evar v -> (
                     match List.assoc_opt v ctx.env with
                     | Some (Belem_axis ax) -> ax = axis
                     | _ -> false)
                 | _ -> false)
               subs
               (List.init (List.length sp.dims) Fun.id)
      | _ -> false)
  | _ -> false

(* single-axis small-offset affine access on the current space with the
   default layout: lowered as (prefilled) NEWS, hence total and safe *)
let is_news_access ctx base subs =
  ctx.opts.news_opt
  &&
  match ctx.space, base.e with
  | Some sp, Evar name -> (
      match List.assoc_opt name ctx.env with
      | Some (Barray m) ->
          m.alayout = Mapping.Default
          && m.adims = sp.dims
          && List.length subs = List.length sp.dims
          && (let deltas =
                List.mapi
                  (fun axis sub ->
                    match affine_sub ctx sub with
                    | Some (ax, d) when ax = axis -> Some d
                    | _ -> None)
                  subs
              in
              List.for_all (function Some _ -> true | None -> false) deltas
              &&
              let nz =
                List.filter (function Some d -> d <> 0 | None -> false) deltas
              in
              match nz with
              | [] -> true
              | [ Some d ] -> abs d <= 2
              | _ -> false)
      | _ -> false)
  | _ -> false

let rec safe_expr ctx e =
  match e.e with
  | Eint _ | Efloat _ | Einf -> true
  | Estr _ -> false
  | Evar v -> (
      match List.assoc_opt v ctx.env with
      | Some (Bscalar _ | Belem_axis _ | Belem_reg _ | Bparlocal _) -> true
      | _ -> false)
  | Eindex (base, subs) ->
      (is_identity_access ctx base subs || is_news_access ctx base subs)
      && List.for_all (safe_expr ctx) subs
  | Ebin ((Div | Mod), _, _) -> false
  | Ebin (_, a, b) -> safe_expr ctx a && safe_expr ctx b
  | Eun (_, a) -> safe_expr ctx a
  | Econd (c, a, b) -> safe_expr ctx c && safe_expr ctx a && safe_expr ctx b
  | Ecall (f, args) when Builtins.pure f -> List.for_all (safe_expr ctx) args
  | Ecall _ -> false
  | Ereduce _ -> false

(* structural equality of expressions, ignoring locations *)
let rec expr_equal a b =
  match a.e, b.e with
  | Eint x, Eint y -> x = y
  | Efloat x, Efloat y -> x = y
  | Estr x, Estr y -> x = y
  | Einf, Einf -> true
  | Evar x, Evar y -> x = y
  | Eindex (b1, s1), Eindex (b2, s2) ->
      expr_equal b1 b2
      && List.length s1 = List.length s2
      && List.for_all2 expr_equal s1 s2
  | Ebin (o1, x1, y1), Ebin (o2, x2, y2) ->
      o1 = o2 && expr_equal x1 x2 && expr_equal y1 y2
  | Eun (o1, x1), Eun (o2, x2) -> o1 = o2 && expr_equal x1 x2
  | Econd (c1, x1, y1), Econd (c2, x2, y2) ->
      expr_equal c1 c2 && expr_equal x1 x2 && expr_equal y1 y2
  | Ecall (f1, a1), Ecall (f2, a2) ->
      f1 = f2 && List.length a1 = List.length a2 && List.for_all2 expr_equal a1 a2
  | Ereduce r1, Ereduce r2 ->
      r1.rop = r2.rop && r1.rsets = r2.rsets
      && List.length r1.rbranches = List.length r2.rbranches
      && List.for_all2
           (fun (p1, e1) (p2, e2) ->
             (match p1, p2 with
             | None, None -> true
             | Some p1, Some p2 -> expr_equal p1 p2
             | _ -> false)
             && expr_equal e1 e2)
           r1.rbranches r2.rbranches
      && (match r1.rothers, r2.rothers with
         | None, None -> true
         | Some x, Some y -> expr_equal x y
         | _ -> false)
  | _ -> false

let rec contains_rand e =
  match e.e with
  | Ecall ("rand", _) -> true
  | Ecall (_, args) -> List.exists contains_rand args
  | Eindex (b, subs) -> contains_rand b || List.exists contains_rand subs
  | Ebin (_, a, b) -> contains_rand a || contains_rand b
  | Eun (_, a) -> contains_rand a
  | Econd (c, a, b) -> contains_rand c || contains_rand a || contains_rand b
  | Ereduce r ->
      List.exists
        (fun (p, ex) ->
          (match p with Some p -> contains_rand p | None -> false)
          || contains_rand ex)
        r.rbranches
      || (match r.rothers with Some ex -> contains_rand ex | None -> false)
  | Eint _ | Efloat _ | Estr _ | Einf | Evar _ -> false

let clear_cse ctx = ctx.cse_table <- []

let rec is_prefix p q =
  match p, q with
  | [], _ -> true
  | x :: p', y :: q' -> x = y && is_prefix p' q'
  | _ -> false

let cse_worthwhile e =
  (* only cache expressions whose recomputation emits instructions *)
  match e.e with
  | Eint _ | Efloat _ | Estr _ | Einf | Evar _ -> false
  | _ -> true

(* ---------------- expressions ----------------

   One lowering serves the front end and the PEs: [place] says where a
   value lives, in a fresh register or in a fresh temp field on the
   current space.  Literals, operators, builtins, reductions and array
   addresses lower alike on both; variables, subscripts (Fread against
   NEWS or the router), the short-circuit operators and ?: (jumps
   against masks) lower apart. *)

type place = Fe | Pe

(* an operation the front end and the PEs both perform *)
type op =
  | Mov of P.operand
  | Bin of P.binop * P.operand * P.operand
  | Un of P.unop * P.operand
  | Rnd of P.operand

let imm k = P.Imm (P.SInt k)
let at place d = match place with Fe -> P.Reg d | Pe -> P.Fld d

(* the field behind a PE operand that names one *)
let field_of = function P.Fld f -> f | _ -> invalid_arg "Codegen.field_of"

(* a fresh register, or a fresh temp field of [kind] on the current space *)
let fresh ctx place kind =
  match place with Fe -> P.Builder.reg ctx.b | Pe -> temp ctx kind

(* emit [op] into register or field [d] *)
let put ctx place d op =
  emit ctx
    (match place, op with
    | Fe, Mov a -> P.Fmov (d, a)
    | Pe, Mov a -> P.Pmov (d, a)
    | Fe, Bin (o, a, b) -> P.Fbin (o, d, a, b)
    | Pe, Bin (o, a, b) -> P.Pbin (o, d, a, b)
    | Fe, Un (o, a) -> P.Funop (o, d, a)
    | Pe, Un (o, a) -> P.Punop (o, d, a)
    | Fe, Rnd a -> P.Frand (d, a)
    | Pe, Rnd a -> P.Prand (d, a))

(* [op] into a fresh register, or a fresh temp field of [e]'s type *)
let compute ctx place e op =
  let d =
    match place with
    | Fe -> P.Builder.reg ctx.b
    | Pe -> temp ctx (kind_of_ty (ty_of ctx e))
  in
  put ctx place d op;
  at place d

(* copy a value into a fresh register or field; [v] runs after the
   allocation *)
let copy ctx place kind v =
  let t = fresh ctx place kind in
  put ctx place t (Mov (v ()));
  at place t

(* [store] a value at [addr] in [m], and in every other copy of a
   Copied array *)
let store_copies ctx place m addr store =
  store addr;
  match m.alayout with
  | Mapping.Copied copies ->
      let total = List.fold_left ( * ) 1 m.adims in
      for c = 1 to copies - 1 do
        let a = fresh ctx place P.KInt in
        put ctx place a (Bin (P.Add, addr, imm (c * total)));
        store (at place a)
      done
  | _ -> ()

(* run [f] with the context narrowed by [field <> 0] *)
let under_mask ctx field f =
  emit ctx P.Cpush;
  emit ctx (P.Cand field);
  let saved = ctx.act_all in
  ctx.act_all <- false;
  let id = ctx.next_mask_id in
  ctx.next_mask_id <- id + 1;
  let saved_path = ctx.mask_path in
  ctx.mask_path <- ctx.mask_path @ [ id ];
  let r = f () in
  (* drop cache entries made under the narrower mask *)
  ctx.cse_table <-
    List.filter (fun (_, _, path, _) -> is_prefix path saved_path) ctx.cse_table;
  ctx.mask_path <- saved_path;
  ctx.act_all <- saved;
  emit ctx P.Cpop;
  r

(* materialise an operand as an int field suitable for Cand *)
let land_field ctx (op : P.operand) : int =
  match op with
  | P.Fld f when snd (P.Builder.field_info ctx.b f) = P.KInt -> f
  | _ ->
      let t = temp ctx P.KInt in
      emit ctx (P.Pbin (P.Ne, t, op, imm 0));
      t

(* an int field holding !op *)
let not_field ctx (op : P.operand) : int =
  let t = temp ctx P.KInt in
  emit ctx (P.Punop (P.Lnot, t, op));
  t

let paris_binop = function
  | Add -> P.Add | Sub -> P.Sub | Mul -> P.Mul | Div -> P.Div | Mod -> P.Mod
  | Eq -> P.Eq | Ne -> P.Ne | Lt -> P.Lt | Le -> P.Le | Gt -> P.Gt | Ge -> P.Ge
  | Land -> P.Land | Lor -> P.Lor
  | Band -> P.Band | Bor -> P.Bor | Bxor -> P.Bxor | Shl -> P.Shl | Shr -> P.Shr

let paris_unop = function Neg -> P.Neg | Lnot -> P.Lnot | Bnot -> P.Bnot

(* evaluate [e] at [place]; on the PEs, pure expressions already computed
   under an enclosing mask are reused (the paper's common sub-expression
   detection) *)
let rec eval ctx place e : P.operand =
  match place with
  | Fe -> lower_expr ctx Fe e
  | Pe ->
      let sp = Option.get ctx.space in
      if (not ctx.opts.cse) || (not (cse_worthwhile e)) || contains_rand e then
        lower_expr ctx Pe e
      else begin
        let hit =
          List.find_opt
            (fun (e', vp, path, _) ->
              vp = sp.vp && is_prefix path ctx.mask_path && expr_equal e' e)
            ctx.cse_table
        in
        match hit with
        | Some (_, _, _, op) -> op
        | None ->
            let op = lower_expr ctx Pe e in
            (match op with
            | P.Fld _ ->
                ctx.cse_table <- (e, sp.vp, ctx.mask_path, op) :: ctx.cse_table
            | _ -> ());
            op
      end

and lower_expr ctx place e : P.operand =
  match e.e, place with
  | Eint i, _ -> imm i
  | Efloat f, _ -> P.Imm (P.SFloat f)
  | Einf, _ -> imm P.inf_int
  | Estr _, _ -> err e.eloc "string literal outside print"
  | Evar v, _ -> (
      match lookup ctx e.eloc v, place with
      | Bscalar m, _ -> P.Reg m.sreg
      | Belem_reg (r, _), _ -> P.Reg r
      | Belem_axis ax, Pe -> P.Fld (Option.get ctx.space).value_fields.(ax)
      | Belem_axis _, Fe ->
          err e.eloc "index element %s used outside its parallel construct" v
      | Bparlocal (_, f, vp), Pe ->
          if vp <> (Option.get ctx.space).vp then
            err e.eloc
              "par-local %s cannot be read from a nested construct's index \
               space" v;
          P.Fld f
      | Bparlocal _, Fe -> err e.eloc "par-local %s used on the front end" v
      | Barray _, _ -> err e.eloc "array %s used as a value" v
      | Bset _, _ -> err e.eloc "index set %s used as a value" v)
  | Eindex (base, subs), Fe ->
      let name, m = indexed ctx base in
      let addr = address ctx Fe e.eloc m subs in
      let r = P.Builder.reg ctx.b in
      emit ctx (P.Fread (r, m.afield, addr));
      note ctx (fun () ->
          Fe_access { fename = name; ferw = `Read; fetrips = ctx.mult });
      P.Reg r
  | Eindex (base, subs), Pe -> gen_read ctx e.eloc base subs
  | Ebin (((Land | Lor) as op), a, b), Fe ->
      (* short-circuit on the front end via branches *)
      let r = P.Builder.reg ctx.b in
      let ldecided = P.Builder.label ctx.b and lend = P.Builder.label ctx.b in
      let va = eval ctx Fe a in
      emit ctx (if op = Land then P.Jz (va, ldecided) else P.Jnz (va, ldecided));
      let vb = sometimes ctx (fun () -> eval ctx Fe b) in
      emit ctx (P.Fbin (P.Ne, r, vb, imm 0));
      emit ctx (P.Jmp lend);
      P.Builder.place ctx.b ldecided;
      emit ctx (P.Fmov (r, imm (if op = Land then 0 else 1)));
      P.Builder.place ctx.b lend;
      P.Reg r
  | Ebin (((Land | Lor) as op), a, b), Pe when not (safe_expr ctx b) ->
      (* short-circuit: evaluate b only where a leaves the result open *)
      let va = eval ctx Pe a in
      let t = temp ctx P.KInt in
      emit ctx (P.Pmov (t, imm 0));
      let undecided = if op = Land then land_field ctx va else not_field ctx va in
      under_mask ctx undecided (fun () ->
          let vb = eval ctx Pe b in
          emit ctx (P.Pbin (P.Ne, t, vb, imm 0)));
      let r = temp ctx P.KInt in
      emit ctx (P.Pbin (paris_binop op, r, va, P.Fld t));
      P.Fld r
  | Ebin (op, a, b), _ ->
      let va = eval ctx place a in
      let vb = eval ctx place b in
      compute ctx place e (Bin (paris_binop op, va, vb))
  | Eun (op, a), _ ->
      let va = eval ctx place a in
      compute ctx place e (Un (paris_unop op, va))
  | Econd (c, a, b), Fe ->
      let r = P.Builder.reg ctx.b in
      let lelse = P.Builder.label ctx.b and lend = P.Builder.label ctx.b in
      let vc = eval ctx Fe c in
      emit ctx (P.Jz (vc, lelse));
      let va = sometimes ctx (fun () -> eval ctx Fe a) in
      emit ctx (P.Fmov (r, va));
      emit ctx (P.Jmp lend);
      P.Builder.place ctx.b lelse;
      let vb = sometimes ctx (fun () -> eval ctx Fe b) in
      emit ctx (P.Fmov (r, vb));
      P.Builder.place ctx.b lend;
      P.Reg r
  | Econd (c, a, b), Pe ->
      let vc = eval ctx Pe c in
      if safe_expr ctx a && safe_expr ctx b then begin
        let va = eval ctx Pe a in
        let vb = eval ctx Pe b in
        let t = temp ctx (kind_of_ty (ty_of ctx e)) in
        emit ctx (P.Psel (t, vc, va, vb));
        P.Fld t
      end
      else begin
        let t = temp ctx (kind_of_ty (ty_of ctx e)) in
        let cond = land_field ctx vc in
        under_mask ctx cond (fun () ->
            let va = eval ctx Pe a in
            emit ctx (P.Pmov (t, va)));
        under_mask ctx (not_field ctx vc) (fun () ->
            let vb = eval ctx Pe b in
            emit ctx (P.Pmov (t, vb)));
        P.Fld t
      end
  | Ecall (f, args), _ -> (
      match Builtins.lookup f with
      | Some (Builtins.Value { paris; _ }) -> (
          let vs = List.map (eval ctx place) args in
          match paris, vs with
          | Builtins.Unop o, [ a ] -> compute ctx place e (Un (o, a))
          | Builtins.Binop o, [ a; b ] -> compute ctx place e (Bin (o, a, b))
          | Builtins.Const_binop (k, o), [ a ] ->
              compute ctx place e (Bin (o, imm k, a))
          | Builtins.Rand n, [] -> compute ctx place e (Rnd (imm n))
          | _ -> err e.eloc "call to %s survived inlining" f)
      | _ -> err e.eloc "call to %s survived inlining" f)
  | Ereduce r, _ -> gen_reduce ctx e.eloc r

(* ---------------- array addressing ---------------- *)

(* Decide how to access array [m] at logical subscripts [subs] from the
   current space. *)
and access_plan ctx loc m subs =
  let sp = Option.get ctx.space in
  let n_subs = List.length subs in
  if n_subs <> List.length m.adims then err loc "wrong number of subscripts";
  let affs = List.map (affine_sub ctx) subs in
  (* identity / news candidates need the array to live on the space's
     shape and every subscript affine on the matching axis *)
  let aligned_candidate =
    (m.alayout = Mapping.Default || (match m.alayout with Mapping.Shifted _ -> true | _ -> false))
    && m.adims = sp.dims
    && List.length affs = List.length sp.dims
    && List.for_all2
         (fun aff axis -> match aff with Some (ax, _) -> ax = axis | None -> false)
         affs
         (List.init (List.length sp.dims) Fun.id)
  in
  if aligned_candidate then begin
    let deltas =
      List.mapi
        (fun k aff ->
          let _, off = Option.get aff in
          off - Mapping.axis_offset m.alayout k)
        affs
    in
    if List.for_all (fun d -> d = 0) deltas then `Aligned
    else begin
      (* NEWS is sound only when every element's source is statically in
         range (out-of-range NEWS destinations keep stale data) *)
      let nonzero = List.filteri (fun k _ -> List.nth deltas k <> 0) deltas in
      let axis_of_nonzero =
        List.filteri (fun k _ -> List.nth deltas k <> 0) (List.init n_subs Fun.id)
      in
      match nonzero, axis_of_nonzero with
      | [ d ], [ axis ] when ctx.opts.news_opt && abs d <= 2 ->
          let _, values = List.nth sp.axes axis in
          let extent = List.nth m.adims axis in
          let all_in_range =
            Array.for_all (fun v -> v + d >= 0 && v + d < extent) values
          in
          (* a cyclic (Shifted) layout wraps, NEWS does not *)
          let plain_layout = m.alayout = Mapping.Default in
          if not plain_layout then `General
          else if all_in_range then `News (axis, d)
          else
            (* out-of-range destinations keep a prefilled default; correct
               programs guard such elements away, exactly as they must
               guard the access itself *)
            `News_prefill (axis, d)
      | _ -> `General
    end
  end
  else `General

(* the physical flat address of [m] at logical [subs], honouring the
   layout; a Copied array's copy is chosen by the caller.  The front end
   indexes a 1-D array by its subscript alone. *)
and address ctx place loc m subs : P.operand =
  let slots, dims =
    match m.alayout with
    | Mapping.Default | Mapping.Copied _ ->
        (List.map (eval ctx place) subs, m.adims)
    | Mapping.Shifted offs ->
        ( List.mapi
            (fun k sub ->
              let v = eval ctx place sub in
              let n = List.nth m.adims k in
              let off = offs.(k) in
              if off = 0 then v
              else begin
                let t = fresh ctx place P.KInt in
                put ctx place t (Bin (P.Sub, v, imm off));
                put ctx place t (Bin (P.Add, at place t, imm (2 * n)));
                put ctx place t (Bin (P.Mod, at place t, imm n));
                at place t
              end)
            subs,
          m.adims )
    | Mapping.Folded f -> (
        match m.adims, subs with
        | d0 :: _, s0 :: srest ->
            let h = d0 / f in
            let v0 = eval ctx place s0 in
            let hi = fresh ctx place P.KInt and lo = fresh ctx place P.KInt in
            put ctx place hi (Bin (P.Mod, v0, imm h));
            put ctx place lo (Bin (P.Div, v0, imm h));
            ( at place hi :: at place lo :: List.map (eval ctx place) srest,
              Mapping.physical_dims m.alayout m.adims )
        | _ -> err loc "fold of a scalar")
  in
  match place, slots with
  | Fe, [ s ] -> s
  | _ ->
      let a = fresh ctx place P.KInt in
      put ctx place a (Mov (imm 0));
      List.iter2
        (fun d s ->
          put ctx place a (Bin (P.Mul, at place a, imm d));
          put ctx place a (Bin (P.Add, at place a, s)))
        dims slots;
      at place a

(* read one array element per active VP *)
and gen_read ctx loc base subs : P.operand =
  let name, m = indexed ctx base in
  let op =
    match access_plan ctx loc m subs with
    | `Aligned -> P.Fld m.afield
    | `News (axis, delta) ->
        let t = temp ctx (kind_of_ty m.aty) in
        emit ctx (P.Pnews (t, m.afield, axis, delta));
        P.Fld t
    | `News_prefill (axis, delta) ->
        let t = temp ctx (kind_of_ty m.aty) in
        emit ctx (P.Pmov (t, P.Imm (P.SInt 0)));
        emit ctx (P.Pnews (t, m.afield, axis, delta));
        P.Fld t
    | `General -> gen_general_read ctx loc m subs
  in
  note ctx (fun () -> Access (access_of ctx loc name m subs `Read));
  op

(* a router read: the address first (subscripts, copy selection) *)
and gen_general_read ctx loc m subs =
  let addr = field_of (address ctx Pe loc m subs) in
  let addr =
    match m.alayout with
    | Mapping.Copied copies ->
        (* spread reads across the copies in blocks of the leading
           coordinate: block spreading stays uncorrelated with the
           low-order bits that broadcast patterns usually key on *)
        let sp = Option.get ctx.space in
        let ext0 = List.hd sp.dims in
        let block = max 1 (ext0 / copies) in
        let sel = temp ctx P.KInt in
        emit ctx (P.Pcoord (sel, 0));
        emit ctx (P.Pbin (P.Div, sel, P.Fld sel, P.Imm (P.SInt block)));
        emit ctx (P.Pbin (P.Mod, sel, P.Fld sel, P.Imm (P.SInt copies)));
        let total = List.fold_left ( * ) 1 m.adims in
        emit ctx (P.Pbin (P.Mul, sel, P.Fld sel, P.Imm (P.SInt total)));
        emit ctx (P.Pbin (P.Add, sel, P.Fld sel, P.Fld addr));
        sel
    | _ -> addr
  in
  let t = temp ctx (kind_of_ty m.aty) in
  emit ctx (P.Pget (t, m.afield, addr));
  P.Fld t

(* ---------------- reductions ---------------- *)

and redop_binop = function
  | Rsum -> P.Add
  | Rland -> P.Land
  | Rmax -> P.Max
  | Rmin -> P.Min
  | Rprod -> P.Mul
  | Rlor -> P.Lor
  | Rxor -> P.Bxor
  | Rarb -> P.Any

(* Enter an expanded space: ambient axes (if any) plus the named sets.
   Emits the context set-up and returns the new space plus the ambient
   one to restore. *)
(* the cover extent of a set axis: the smallest declared array extent that
   contains every value, so that the activity runs on the processors that
   hold the arrays (the paper's default mapping); set membership becomes a
   context mask *)
and cover_extent ctx values =
  let n = Array.length values in
  if n = 0 then 1
  else begin
    let needed = 1 + Array.fold_left max values.(0) values in
    let candidates =
      List.sort compare (List.filter (fun e -> e >= needed) ctx.known_extents)
    in
    match candidates with m :: _ -> m | [] -> needed
  end

and enter_space ctx loc set_names =
  let ambient = ctx.space in
  let sets = List.map (fun s -> lookup_set ctx loc s) set_names in
  List.iter
    (fun (_, values) ->
      if Array.exists (fun v -> v < 0) values then
        err loc "index sets with negative elements are not supported by the \
                 backend")
    sets;
  let amb_dims, amb_axes =
    match ambient with None -> ([], []) | Some sp -> (sp.dims, sp.axes)
  in
  let covers = List.map (fun (_, v) -> cover_extent ctx v) sets in
  let dims = amb_dims @ covers in
  let axes = amb_axes @ sets in
  let vp = vpset_for ctx dims in
  (* read the ambient activity before switching spaces *)
  let amb_act =
    match ambient with
    | Some sp when not ctx.act_all ->
        ensure_with ctx sp.vp;
        let f = P.Builder.field ctx.b ~vpset:sp.vp P.KInt in
        emit ctx (P.Cread f);
        Some (sp, f)
    | _ -> None
  in
  ensure_with ctx vp;
  emit ctx P.Creset;
  (* in a cover geometry the element value is the coordinate; materialise
     it under the full context so it stays valid under any later mask *)
  let value_fields =
    Array.of_list
      (List.mapi
         (fun ax _ ->
           let f = P.Builder.field ctx.b ~vpset:vp P.KInt in
           emit ctx (P.Pcoord (f, ax));
           f)
         axes)
  in
  (* membership masks for set axes that do not fill their cover *)
  let geom = P.Builder.geom_of ctx.b vp in
  let masked = ref false in
  List.iteri
    (fun k ((_, values), cover) ->
      let ax = List.length amb_dims + k in
      let full =
        Array.length values = cover
        && Array.for_all (fun i -> values.(i) = i) (Array.init cover Fun.id)
      in
      if not full then begin
        masked := true;
        let member = Array.make cover 0 in
        Array.iter (fun v -> member.(v) <- 1) values;
        let total = Cm.Geometry.size geom in
        let table =
          Array.init total (fun p -> member.((Cm.Geometry.coords geom p).(ax)))
        in
        let f = P.Builder.field ctx.b ~vpset:vp P.KInt in
        emit ctx (P.Ptable (f, table));
        emit ctx (P.Cand f)
      end)
    (List.combine sets covers);
  (* expand the ambient activity into the product space *)
  (match amb_act with
  | None -> ()
  | Some (amb_sp, actf) ->
      (* prefix-linear index of each VP = linear combination of the
         leading (ambient) coordinates *)
      let addr = P.Builder.field ctx.b ~vpset:vp P.KInt in
      emit ctx (P.Pmov (addr, P.Imm (P.SInt 0)));
      List.iteri
        (fun ax d ->
          emit ctx (P.Pbin (P.Mul, addr, P.Fld addr, P.Imm (P.SInt d)));
          let c = P.Builder.field ctx.b ~vpset:vp P.KInt in
          emit ctx (P.Pcoord (c, ax));
          emit ctx (P.Pbin (P.Add, addr, P.Fld addr, P.Fld c)))
        amb_sp.dims;
      let acte = P.Builder.field ctx.b ~vpset:vp P.KInt in
      emit ctx (P.Pget (acte, actf, addr));
      note ctx (fun () ->
          Activity
            {
              trips = ctx.mult;
              size = List.fold_left ( * ) 1 dims;
              approx = inexact ctx;
            });
      emit ctx (P.Cand acte));
  (* bind the new elements, shadowing outer ones *)
  let saved_env = ctx.env in
  List.iteri
    (fun k (elem, _) ->
      ctx.env <- (elem, Belem_axis (List.length amb_axes + k)) :: ctx.env)
    sets;
  clear_cse ctx;
  let space = { vp; dims; axes; value_fields } in
  let saved = (ambient, ctx.act_all, saved_env, ctx.mask_path) in
  ctx.space <- Some space;
  (* after entry the context is the expanded ambient activity, narrowed by
     any membership masks *)
  ctx.act_all <-
    (match ambient with None -> true | Some _ -> ctx.act_all) && not !masked;
  ctx.mask_path <- [];
  (saved, space)

and leave_space ctx (ambient, act_all, saved_env, saved_mask_path) =
  clear_cse ctx;
  ctx.space <- ambient;
  ctx.act_all <- act_all;
  ctx.env <- saved_env;
  (* restore the enclosing mask path: anything cached from here on is only
     valid under the mask that was active when the space was entered *)
  ctx.mask_path <- saved_mask_path;
  match ambient with
  | Some sp -> ensure_with ctx sp.vp
  | None -> ()

and gen_reduce ctx loc r : P.operand =
  (* the processor optimization turns histogram-style reductions into a
     combining send; recognised at the assignment level in gen_assign *)
  let ambient = ctx.space in
  (* the result lives on the front end or on the ambient space *)
  let place = if ambient = None then Fe else Pe in
  let saved, _ = enter_space ctx loc r.rsets in
  let result_kind =
    let tys =
      List.map (fun (_, ex) -> ty_of ctx ex) r.rbranches
      @ (match r.rothers with Some ex -> [ ty_of ctx ex ] | None -> [])
    in
    if List.mem Tfloat tys then P.KFloat else P.KInt
  in
  let rop = redop_binop r.rop in
  (* reduce field [src] with [op] into a fresh register or ambient field *)
  let reduce op src =
    match ambient with
    | None ->
        let reg = P.Builder.reg ctx.b in
        emit ctx (P.Preduce (op, reg, src));
        reg
    | Some sp ->
        let f = P.Builder.field ctx.b ~vpset:sp.vp result_kind in
        emit ctx (P.Preduce_axis (op, f, src));
        f
  in
  let reduce_value expr =
    let v = eval ctx Pe expr in
    let tmpf = temp ctx result_kind in
    emit ctx (P.Pmov (tmpf, v));
    reduce rop tmpf
  in
  (* evaluate each branch: predicate field + reduced value *)
  let branch_results =
    List.map
      (fun (pred, expr) ->
        match pred with
        | None -> (None, reduce_value expr)
        | Some p ->
            let f = land_field ctx (eval ctx Pe p) in
            (Some f, under_mask ctx f (fun () -> reduce_value expr)))
      r.rbranches
  in
  (* the others branch covers elements enabled by no predicate *)
  let branch_results =
    match r.rothers with
    | None -> branch_results
    | Some expr ->
        let preds = List.filter_map fst branch_results in
        let nor = temp ctx P.KInt in
        emit ctx (P.Pmov (nor, P.Imm (P.SInt 0)));
        List.iter (fun f -> emit ctx (P.Pbin (P.Lor, nor, P.Fld nor, P.Fld f))) preds;
        emit ctx (P.Punop (P.Lnot, nor, P.Fld nor));
        let res = under_mask ctx nor (fun () -> reduce_value expr) in
        branch_results @ [ (Some nor, res) ]
  in
  (* per-branch "was anything enabled" flags, needed to combine $, *)
  let has_any =
    if r.rop = Rarb && List.length branch_results > 1 then
      List.map
        (fun (predf, _) ->
          let onef = temp ctx P.KInt in
          (match predf with
          | Some f -> emit ctx (P.Pmov (onef, P.Fld f))
          | None -> emit ctx (P.Pmov (onef, P.Imm (P.SInt 1))));
          reduce P.Lor onef)
        branch_results
    else []
  in
  leave_space ctx saved;
  (* combine the per-branch results on the ambient space / front end *)
  let combine_two a b =
    let d = fresh ctx place result_kind in
    put ctx place d (Bin (rop, at place a, at place b));
    d
  in
  let final =
    match branch_results with
    | [] -> assert false
    | [ (_, res) ] -> res
    | (_, first) :: rest ->
        if r.rop = Rarb then begin
          (* select the first branch that had any enabled element *)
          let rec chain results flags =
            match results, flags with
            | [ (_, res) ], [ _ ] -> res
            | (_, res) :: rest, flag :: frest ->
                let tail = chain rest frest in
                let out = fresh ctx place result_kind in
                (match place with
                | Pe -> emit ctx (P.Psel (out, P.Fld flag, P.Fld res, P.Fld tail))
                | Fe ->
                    let lelse = P.Builder.label ctx.b in
                    let lend = P.Builder.label ctx.b in
                    emit ctx (P.Jz (P.Reg flag, lelse));
                    emit ctx (P.Fmov (out, P.Reg res));
                    emit ctx (P.Jmp lend);
                    P.Builder.place ctx.b lelse;
                    emit ctx (P.Fmov (out, P.Reg tail));
                    P.Builder.place ctx.b lend);
                out
            | _ -> assert false
          in
          chain branch_results has_any
        end
        else List.fold_left (fun acc (_, res) -> combine_two acc res) first rest
  in
  at place final

(* ---------------- assignment targets ---------------- *)

(* an array target carries its access event while the walk records *)
type target =
  | Tparlocal of base_ty * int                 (* field on the current space *)
  | Taligned of array_meta * access option     (* own slot, local ops *)
  | Tremote of array_meta * int * access option  (* physical address field *)

let paris_assign_op = function
  | Aadd -> P.Add | Asub -> P.Sub | Amul -> P.Mul | Adiv -> P.Div
  | Amod -> P.Mod | Amin -> P.Min | Amax -> P.Max
  | Aset -> assert false

(* Evaluate the target of a parallel assignment; subscripts are evaluated
   exactly once. *)
let gen_target ctx loc lhs : target =
  match lhs.e with
  | Evar v -> (
      match lookup ctx loc v with
      | Bparlocal (ty, f, vp) ->
          let sp = Option.get ctx.space in
          if vp <> sp.vp then
            err loc
              "par-local %s cannot be assigned from a nested construct's \
               index space" v;
          Tparlocal (ty, f)
      | _ -> err loc "%s is not assignable in a parallel construct" v)
  | Eindex (base, subs) -> (
      let name, m = indexed ctx base in
      let a =
        if ctx.live then Some (access_of ctx loc name m subs `Write) else None
      in
      match access_plan ctx loc m subs with
      | `Aligned -> Taligned (m, a)
      | `News _ | `News_prefill _ | `General ->
          Tremote (m, field_of (address ctx Pe loc m subs), a))
  | _ -> err loc "invalid assignment target"

let target_kind = function
  | Tparlocal (ty, _) -> kind_of_ty ty
  | Taligned (m, _) | Tremote (m, _, _) -> kind_of_ty m.aty

let note_target ctx rw = function
  | Taligned (_, Some a) | Tremote (_, _, Some a) ->
      note ctx (fun () -> Access { a with arw = rw })
  | _ -> ()

(* current value of the target, for op= and swap *)
let target_read ctx target : P.operand =
  note_target ctx `Read target;
  match target with
  | Tparlocal (_, f) -> P.Fld f
  | Taligned (m, _) -> P.Fld m.afield
  | Tremote (m, addr, _) ->
      let t = temp ctx (kind_of_ty m.aty) in
      emit ctx (P.Pget (t, m.afield, addr));
      P.Fld t

let target_write ctx target (value : P.operand) =
  clear_cse ctx;
  note_target ctx `Write target;
  match target with
  | Tparlocal (_, f) -> emit ctx (P.Pmov (f, value))
  | Taligned (m, _) -> emit ctx (P.Pmov (m.afield, value))
  | Tremote (m, addr, _) ->
      (* the router needs a source field of the destination kind *)
      let src = temp ctx (kind_of_ty m.aty) in
      emit ctx (P.Pmov (src, value));
      store_copies ctx Pe m (P.Fld addr) (fun a ->
          emit ctx (P.Psend (m.afield, src, field_of a, P.Ccheck)))

(* swap: copy both sides, each a (kind, read, write), before writing
   either (a synchronous exchange) *)
let gen_swap ctx place (kind_a, read_a, write_a) (kind_b, read_b, write_b) =
  let va = copy ctx place kind_a read_a in
  let vb = copy ctx place kind_b read_b in
  write_a vb;
  write_b va

(* lhs op= rhs from the target's current value [old]: the old value is
   copied first, since an aligned PE target's read aliases the array the
   write clobbers *)
let gen_update ctx place kind op old rhs write =
  let t = copy ctx place kind (fun () -> old) in
  let v = eval ctx place rhs in
  let r = fresh ctx place kind in
  put ctx place r (Bin (paris_assign_op op, t, v));
  write (at place r)

(* ---------------- the processor optimization (paper section 4) ----------

   par (J) count[j] = $+(I st (samples[i] == j) 1)
   -> a combining send over the I space (N processors instead of |J| * N). *)

let rec free_elems acc e =
  match e.e with
  | Evar v -> v :: acc
  | Eindex (b, subs) -> List.fold_left free_elems (free_elems acc b) subs
  | Ebin (_, a, b) -> free_elems (free_elems acc a) b
  | Eun (_, a) -> free_elems acc a
  | Econd (c, a, b) -> free_elems (free_elems (free_elems acc c) a) b
  | Ecall (_, args) -> List.fold_left free_elems acc args
  | Ereduce r ->
      let acc =
        List.fold_left
          (fun acc (p, ex) ->
            let acc = match p with Some p -> free_elems acc p | None -> acc in
            free_elems acc ex)
          acc r.rbranches
      in
      (match r.rothers with Some ex -> free_elems acc ex | None -> acc)
  | Eint _ | Efloat _ | Estr _ | Einf -> acc

let try_histogram ctx loc lhs rhs : bool =
  if not ctx.opts.procopt then false
  else
    match ctx.space, lhs.e, rhs.e with
    | ( Some sp,
        Eindex (base, [ { e = Evar jvar; _ } ]),
        Ereduce
          {
            rop = Rsum;
            rsets = [ iset ];
            rbranches = [ (Some pred, contrib) ];
            rothers = None;
          } )
      when ctx.act_all && List.length sp.dims = 1 -> (
        (* the ambient space must be a canonical 1-D set bound to jvar *)
        let jelem_ok =
          match List.assoc_opt jvar ctx.env with
          | Some (Belem_axis 0) ->
              let _, values = List.nth sp.axes 0 in
              Array.for_all
                (fun k -> values.(k) = k)
                (Array.init (Array.length values) Fun.id)
          | _ -> false
        in
        let cname =
          match base.e with Evar v -> Some v | _ -> None
        in
        match jelem_ok, cname, pred.e with
        | true, Some cname, Ebin (Eq, a, b) -> (
            let m = array_meta ctx base.eloc cname in
            let key =
              match a.e, b.e with
              | _, Evar v when v = jvar -> Some a
              | Evar v, _ when v = jvar -> Some b
              | _ -> None
            in
            match key, m.alayout, m.adims with
            | Some key, Mapping.Default, [ extent ] ->
                (* the key and contribution may only mention the inner
                   element *)
                let mentions_j e = List.mem jvar (free_elems [] e) in
                if mentions_j key || mentions_j contrib then false
                else begin
                  (* zero the histogram, then combine-send over I *)
                  emit ctx (P.Comment "processor optimization: histogram");
                  emit ctx (P.Pmov (m.afield, P.Imm (P.SInt 0)));
                  (* the histogram runs on the I space alone (that is the
                     point of the optimization); the ambient space is
                     statically fully active, so dropping it is sound *)
                  let ambient_space = ctx.space in
                  ctx.space <- None;
                  let saved, space = enter_space ctx loc [ iset ] in
                  let keyop = eval ctx Pe key in
                  let addr = temp ctx P.KInt in
                  emit ctx (P.Pmov (addr, keyop));
                  (* drop keys outside the histogram's range *)
                  let inrange = temp ctx P.KInt in
                  emit ctx (P.Pbin (P.Ge, inrange, P.Fld addr, P.Imm (P.SInt 0)));
                  let hi = temp ctx P.KInt in
                  emit ctx (P.Pbin (P.Lt, hi, P.Fld addr, P.Imm (P.SInt extent)));
                  emit ctx (P.Pbin (P.Land, inrange, P.Fld inrange, P.Fld hi));
                  under_mask ctx inrange (fun () ->
                      let c = eval ctx Pe contrib in
                      let src = temp ctx P.KInt in
                      emit ctx (P.Pmov (src, c));
                      emit ctx (P.Psend (m.afield, src, addr, P.Cadd));
                      note ctx (fun () ->
                          Hist_send
                            {
                              count = cname;
                              trips = ctx.mult;
                              isize = List.fold_left ( * ) 1 space.dims;
                              approx = inexact ctx;
                            }));
                  clear_cse ctx;
                  leave_space ctx saved;
                  ctx.space <- ambient_space;
                  (match ambient_space with
                  | Some sp -> ensure_with ctx sp.vp
                  | None -> ());
                  true
                end
            | _ -> false)
        | _ -> false)
    | _ -> false

(* ---------------- trip counts ---------------- *)

let const_of e = try Some (Sema.const_eval e) with _ -> None

(* static trip count of a canonical counted for-loop *)
let for_trips init cond step body =
  let var_and_const = function
    | Some { s = Sassign (Aset, { e = Evar v; _ }, rhs); _ } ->
        Option.map (fun c -> (v, c)) (const_of rhs)
    | _ -> None
  in
  let rec assigns_var v s =
    match s.s with
    | Sassign (_, { e = Evar v'; _ }, _) -> v = v'
    | Sblock b -> List.exists (assigns_var v) b.bstmts
    | Sif (_, t, e) ->
        assigns_var v t
        || (match e with Some e -> assigns_var v e | None -> false)
    | Swhile (_, b) -> assigns_var v b
    | Sfor (i, _, stp, b) ->
        (match i with Some i -> assigns_var v i | None -> false)
        || (match stp with Some s -> assigns_var v s | None -> false)
        || assigns_var v b
    | Sbreak | Scontinue | Sreturn _ -> true (* escapes break the count *)
    | _ -> false
  in
  match var_and_const init, cond with
  | Some (v, c0), Some { e = Ebin (cmp, { e = Evar v'; _ }, bound); _ }
    when v = v' -> (
      match const_of bound, step with
      | ( Some c1,
          Some
            {
              s =
                Sassign
                  ( Aset,
                    { e = Evar v''; _ },
                    {
                      e = Ebin ((Add | Sub) as sop, { e = Evar v'''; _ }, stepc);
                      _;
                    } );
              _;
            } )
        when v = v'' && v = v''' -> (
          match const_of stepc with
          | Some sc when sc > 0 && not (assigns_var v body) -> (
              let sc = if sop = Sub then -sc else sc in
              match cmp, compare sc 0 with
              | Lt, 1 -> Some (max 0 ((c1 - c0 + sc - 1) / sc))
              | Le, 1 -> Some (max 0 ((c1 - c0 + sc) / sc))
              | Gt, -1 -> Some (max 0 ((c0 - c1 - sc - 1) / -sc))
              | Ge, -1 -> Some (max 0 ((c0 - c1 - sc) / -sc))
              | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* bind index set [def]; an alias names a set in scope *)
let declare_set ctx def =
  let values =
    Sema.set_values (fun other -> snd (lookup_set ctx def.iloc other)) def
  in
  ctx.env <- (def.set_name, Bset (def.elem_name, values)) :: ctx.env

(* ---------------- parallel statements ---------------- *)

let rec gen_stmt_par ctx st =
  match st.s with
  | Sempty -> ()
  | Sassign (op, lhs, rhs) -> gen_assign_par ctx st.sloc op lhs rhs
  | Sexpr { e = Ecall ("swap", [ la; lb ]); eloc } ->
      let side l =
        let t = gen_target ctx eloc l in
        (target_kind t, (fun () -> target_read ctx t), target_write ctx t)
      in
      let a = side la in
      let b = side lb in
      gen_swap ctx Pe a b
  | Sexpr e -> ignore (eval ctx Pe e)
  | Sblock b -> gen_block_par ctx b
  | Sif (c, then_, else_) ->
      let vc = eval ctx Pe c in
      let cf = land_field ctx vc in
      under_mask ctx cf (fun () -> gen_stmt_par ctx then_);
      (match else_ with
      | Some s -> under_mask ctx (not_field ctx (P.Fld cf)) (fun () -> gen_stmt_par ctx s)
      | None -> ())
  | Swhile (c, body) ->
      emit ctx P.Cpush;
      let saved_all = ctx.act_all in
      ctx.act_all <- false;
      let top = P.Builder.label ctx.b in
      let out = P.Builder.label ctx.b in
      clear_cse ctx;
      iterated ctx true (fun () ->
          P.Builder.place ctx.b top;
          let vc = eval ctx Pe c in
          let cf = land_field ctx vc in
          emit ctx (P.Cand cf);
          let r = P.Builder.reg ctx.b in
          emit ctx (P.Pcount r);
          emit ctx (P.Jz (P.Reg r, out));
          gen_stmt_par ctx body;
          emit ctx (P.Jmp top));
      P.Builder.place ctx.b out;
      emit ctx P.Cpop;
      ctx.act_all <- saved_all
  | Spar ps -> gen_construct ctx st.sloc `Par ps
  | Sseq ps -> gen_construct ctx st.sloc `Seq ps
  | Soneof ps -> gen_construct ctx st.sloc `Oneof ps
  | Ssolve _ -> err st.sloc "solve survived transformation"
  | Sfor _ -> err st.sloc "for loops are not supported inside parallel constructs"
  | Sreturn _ -> err st.sloc "return inside a parallel construct"
  | Sbreak | Scontinue -> err st.sloc "break/continue inside a parallel construct"

and gen_assign_par ctx loc op lhs rhs =
  if op = Aset && try_histogram ctx loc lhs rhs then ()
  else begin
    let target = gen_target ctx loc lhs in
    match op with
    | Aset -> target_write ctx target (eval ctx Pe rhs)
    | _ ->
        let old = target_read ctx target in
        gen_update ctx Pe (target_kind target) op old rhs (target_write ctx target)
  end

and gen_block_par ctx b =
  let saved_env = ctx.env in
  List.iter
    (fun d ->
      match d with
      | Dvar (ty, ds) ->
          List.iter
            (fun dd ->
              if dd.ddims <> [] then
                err dd.dloc "arrays may not be declared inside parallel \
                             constructs";
              let sp = Option.get ctx.space in
              let f = P.Builder.field ctx.b ~vpset:sp.vp (kind_of_ty ty) in
              (* fresh per entry: reset under the current mask *)
              clear_cse ctx;
              emit ctx (P.Pmov (f, P.Imm (P.SInt 0)));
              ctx.env <- (dd.dname, Bparlocal (ty, f, sp.vp)) :: ctx.env)
            ds
      | Dindexset defs -> List.iter (declare_set ctx) defs)
    b.bdecls;
  (* initialisers execute synchronously, like assignments *)
  List.iter
    (fun d ->
      match d with
      | Dvar (_, ds) ->
          List.iter
            (fun dd ->
              match dd.dinit with
              | Some init ->
                  gen_assign_par ctx dd.dloc Aset
                    { e = Evar dd.dname; eloc = dd.dloc }
                    init
              | None -> ())
            ds
      | Dindexset _ -> ())
    b.bdecls;
  List.iter (gen_stmt_par ctx) b.bstmts;
  ctx.env <- saved_env

(* ---------------- par / oneof / seq constructs ---------------- *)

and gen_construct ctx loc kind ps =
  match kind with
  | `Seq -> gen_seq ctx loc ps
  | `Par -> gen_par ctx loc ps
  | `Oneof -> gen_oneof ctx loc ps

and gen_par ctx loc ps =
  let saved, _space = enter_space ctx loc ps.psets in
  let needs_others = ps.pothers <> None in
  let orf =
    if needs_others then begin
      let f = temp ctx P.KInt in
      emit ctx (P.Pmov (f, P.Imm (P.SInt 0)));
      Some f
    end
    else None
  in
  let round any_reg =
    List.iter (gen_branch ctx ~orf ~any_reg) ps.pbranches;
    match ps.pothers, orf with
    | Some body, Some f ->
        under_mask ctx (not_field ctx (P.Fld f)) (fun () -> gen_stmt_par ctx body);
        (* reset for the next iteration *)
        emit ctx (P.Pmov (f, P.Imm (P.SInt 0)))
    | _ -> ()
  in
  if ps.iterate then begin
    let top = P.Builder.label ctx.b in
    let any = P.Builder.reg ctx.b in
    clear_cse ctx;
    iterated ctx true (fun () ->
        P.Builder.place ctx.b top;
        emit ctx (P.Fmov (any, P.Imm (P.SInt 0)));
        round (Some any);
        emit ctx (P.Jnz (P.Reg any, top)))
  end
  else round None;
  leave_space ctx saved

and gen_oneof ctx loc ps =
  if ps.pothers <> None then
    err loc "others is not supported on oneof statements";
  let saved, _space = enter_space ctx loc ps.psets in
  let branches = Array.of_list ps.pbranches in
  let n = Array.length branches in
  let top = P.Builder.label ctx.b in
  let out = P.Builder.label ctx.b in
  clear_cse ctx;
  iterated ctx ps.iterate (fun () ->
      P.Builder.place ctx.b top;
      let exec_labels = Array.init n (fun _ -> P.Builder.label ctx.b) in
      let pred_fields = Array.make n (-1) in
      (* evaluate every predicate, then dispatch to the first enabled
         branch *)
      Array.iteri
        (fun i (pred, _) ->
          let pf =
            match pred with
            | Some p -> land_field ctx (eval ctx Pe p)
            | None ->
                let f = temp ctx P.KInt in
                emit ctx (P.Pmov (f, P.Imm (P.SInt 1)));
                f
          in
          pred_fields.(i) <- pf;
          let r = P.Builder.reg ctx.b in
          emit ctx (P.Preduce (P.Lor, r, pf));
          emit ctx (P.Jnz (P.Reg r, exec_labels.(i))))
        branches;
      emit ctx (P.Jmp out);
      (* a body runs only when some element enables it *)
      Array.iteri
        (fun i (_, body) ->
          P.Builder.place ctx.b exec_labels.(i);
          sometimes ctx (fun () ->
              under_mask ctx pred_fields.(i) (fun () -> gen_stmt_par ctx body));
          if ps.iterate then emit ctx (P.Jmp top) else emit ctx (P.Jmp out))
        branches);
  P.Builder.place ctx.b out;
  leave_space ctx saved

and gen_seq ctx loc ps =
  if ps.pothers <> None then
    err loc "others is not meaningful on seq statements";
  let sets = List.map (fun s -> lookup_set ctx loc s) ps.psets in
  let fe_context = ctx.space = None in
  let any_reg = if ps.iterate then Some (P.Builder.reg ctx.b) else None in
  clear_cse ctx;
  let top = P.Builder.label ctx.b in
  (* the walk records the body once, at the product of the set sizes,
     with each element standing for its first value *)
  let trips = List.fold_left (fun acc (_, v) -> acc * Array.length v) 1 sets in
  (* iterate the Cartesian product in declaration order *)
  let rec nest sets_left k =
    match sets_left with
    | [] -> k ()
    | (elem, values) :: rest ->
        let n = Array.length values in
        let contiguous =
          Array.for_all (fun i -> values.(i) = values.(0) + i) (Array.init n Fun.id)
        in
        let saved_env = ctx.env in
        if contiguous && n > 3 then begin
          let v = P.Builder.reg ctx.b in
          emit ctx (P.Fmov (v, P.Imm (P.SInt values.(0))));
          let ltop = P.Builder.label ctx.b in
          let lout = P.Builder.label ctx.b in
          P.Builder.place ctx.b ltop;
          let t = P.Builder.reg ctx.b in
          emit ctx
            (P.Fbin (P.Gt, t, P.Reg v, P.Imm (P.SInt values.(n - 1))));
          emit ctx (P.Jnz (P.Reg t, lout));
          ctx.env <- (elem, Belem_reg (v, values.(0))) :: ctx.env;
          nest rest k;
          ctx.env <- saved_env;
          emit ctx (P.Fbin (P.Add, v, P.Reg v, P.Imm (P.SInt 1)));
          emit ctx (P.Jmp ltop);
          P.Builder.place ctx.b lout
        end
        else
          Array.iteri
            (fun i value ->
              let v = P.Builder.reg ctx.b in
              emit ctx (P.Fmov (v, P.Imm (P.SInt value)));
              ctx.env <- (elem, Belem_reg (v, value)) :: ctx.env;
              if i = 0 then nest rest k else unreached ctx (fun () -> nest rest k);
              ctx.env <- saved_env)
            values
  in
  iterated ctx ps.iterate (fun () ->
      (match any_reg with
      | Some any ->
          P.Builder.place ctx.b top;
          emit ctx (P.Fmov (any, P.Imm (P.SInt 0)))
      | None -> ());
      with_trips ctx trips (fun () ->
          nest sets (fun () ->
              clear_cse ctx;
              List.iter
                (fun (pred, body) ->
                  if fe_context then begin
                    let skip = P.Builder.label ctx.b in
                    (match pred with
                    | Some p ->
                        let vc = eval ctx Fe p in
                        emit ctx (P.Jz (vc, skip))
                    | None -> ());
                    (match any_reg with
                    | Some any -> emit ctx (P.Fmov (any, P.Imm (P.SInt 1)))
                    | None -> ());
                    (match pred with
                    | Some _ -> sometimes ctx (fun () -> gen_stmt_fe ctx body)
                    | None -> gen_stmt_fe ctx body);
                    P.Builder.place ctx.b skip
                  end
                  else gen_branch ctx ~orf:None ~any_reg (pred, body))
                ps.pbranches));
      match any_reg with
      | Some any -> emit ctx (P.Jnz (P.Reg any, top))
      | None -> ())

(* one branch of a par or seq round on the PEs: [body] runs where its
   predicate holds; [orf] (par's others flag) collects the predicate and
   [any_reg] (an iterated construct's) learns whether any element ran *)
and gen_branch ctx ~orf ~any_reg (pred, body) =
  match pred with
  | Some p ->
      let pf = land_field ctx (eval ctx Pe p) in
      Option.iter (fun f -> emit ctx (P.Pbin (P.Lor, f, P.Fld f, P.Fld pf))) orf;
      Option.iter
        (fun any ->
          let r = P.Builder.reg ctx.b in
          emit ctx (P.Preduce (P.Lor, r, pf));
          emit ctx (P.Fbin (P.Lor, any, P.Reg any, P.Reg r)))
        any_reg;
      under_mask ctx pf (fun () -> gen_stmt_par ctx body)
  | None ->
      Option.iter (fun f -> emit ctx (P.Pmov (f, P.Imm (P.SInt 1)))) orf;
      Option.iter
        (fun any ->
          let r = P.Builder.reg ctx.b in
          emit ctx (P.Pcount r);
          let nz = P.Builder.reg ctx.b in
          emit ctx (P.Fbin (P.Ne, nz, P.Reg r, P.Imm (P.SInt 0)));
          emit ctx (P.Fbin (P.Lor, any, P.Reg any, P.Reg nz)))
        any_reg;
      gen_stmt_par ctx body

(* ---------------- front-end statements ---------------- *)

and gen_stmt_fe ctx st =
  (* attribute machine time to source lines (ucc run --profile) *)
  (match st.s with
  | Sblock _ | Sempty -> ()
  | _ -> emit ctx (P.Region (Printf.sprintf "line %d" st.sloc.Loc.line)));
  match st.s with
  | Sempty -> ()
  | Sassign (op, lhs, rhs) -> gen_assign_fe ctx st.sloc op lhs rhs
  | Sexpr { e = Ecall ("print", args); eloc } ->
      let rec split prefix = function
        | [] -> (prefix, None)
        | [ ({ e = Estr s; _ } : expr) ] -> (prefix ^ s, None)
        | [ last ] -> (prefix, Some (eval ctx Fe last))
        | { e = Estr s; _ } :: rest -> split (prefix ^ s) rest
        | _ -> err eloc "print expects string literals and a final value"
      in
      let prefix, v = split "" args in
      emit ctx (P.Fprint (prefix, v))
  | Sexpr { e = Ecall ("swap", [ la; lb ]); eloc } ->
      let side l v = (P.KInt, (fun () -> v), gen_assign_fe_value ctx eloc l) in
      let va = eval ctx Fe la in
      let vb = eval ctx Fe lb in
      gen_swap ctx Fe (side la va) (side lb vb)
  | Sexpr e -> ignore (eval ctx Fe e)
  | Sif (c, then_, else_) ->
      let vc = eval ctx Fe c in
      let lelse = P.Builder.label ctx.b in
      let lend = P.Builder.label ctx.b in
      (* a constant condition selects its branch statically *)
      let static = if ctx.live then const_of c else None in
      let branch taken f =
        match static with
        | None -> sometimes ctx f
        | Some v when (v <> 0) = taken -> f ()
        | Some _ -> unreached ctx f
      in
      emit ctx (P.Jz (vc, lelse));
      branch true (fun () -> gen_stmt_fe ctx then_);
      emit ctx (P.Jmp lend);
      P.Builder.place ctx.b lelse;
      branch false (fun () ->
          match else_ with Some s -> gen_stmt_fe ctx s | None -> ());
      P.Builder.place ctx.b lend
  | Swhile (c, body) ->
      let top = P.Builder.label ctx.b in
      let out = P.Builder.label ctx.b in
      iterated ctx true (fun () ->
          P.Builder.place ctx.b top;
          let vc = eval ctx Fe c in
          emit ctx (P.Jz (vc, out));
          ctx.break_labels <- out :: ctx.break_labels;
          ctx.continue_labels <- top :: ctx.continue_labels;
          gen_stmt_fe ctx body;
          ctx.break_labels <- List.tl ctx.break_labels;
          ctx.continue_labels <- List.tl ctx.continue_labels;
          emit ctx (P.Jmp top));
      P.Builder.place ctx.b out
  | Sfor (init, cond, step, body) ->
      (match init with Some s -> gen_stmt_fe ctx s | None -> ());
      let top = P.Builder.label ctx.b in
      let cont = P.Builder.label ctx.b in
      let out = P.Builder.label ctx.b in
      let loop () =
        P.Builder.place ctx.b top;
        (match cond with
        | Some c ->
            let vc = eval ctx Fe c in
            emit ctx (P.Jz (vc, out))
        | None -> ());
        ctx.break_labels <- out :: ctx.break_labels;
        ctx.continue_labels <- cont :: ctx.continue_labels;
        gen_stmt_fe ctx body;
        ctx.break_labels <- List.tl ctx.break_labels;
        ctx.continue_labels <- List.tl ctx.continue_labels;
        P.Builder.place ctx.b cont;
        (match step with Some s -> gen_stmt_fe ctx s | None -> ());
        emit ctx (P.Jmp top)
      in
      (* the canonical counted loop's condition touches no array, so
         walking it at the body's count loses nothing *)
      (match if ctx.live then for_trips init cond step body else None with
      | Some 0 -> unreached ctx loop
      | Some trips -> with_trips ctx trips loop
      | None -> iterated ctx true loop);
      P.Builder.place ctx.b out
  | Sblock b -> gen_block_fe ctx b
  | Sreturn _ ->
      (* the rest of the walk runs only where this return is not taken *)
      if ctx.live then
        if ctx.estimated then ctx.may_return <- true else ctx.live <- false;
      emit ctx (P.Jmp ctx.exit_label)
  | Sbreak -> (
      match ctx.break_labels with
      | l :: _ -> emit ctx (P.Jmp l)
      | [] -> err st.sloc "break outside a loop")
  | Scontinue -> (
      match ctx.continue_labels with
      | l :: _ -> emit ctx (P.Jmp l)
      | [] -> err st.sloc "continue outside a loop")
  | Spar ps -> gen_construct ctx st.sloc `Par ps
  | Sseq ps -> gen_construct ctx st.sloc `Seq ps
  | Soneof ps -> gen_construct ctx st.sloc `Oneof ps
  | Ssolve _ -> err st.sloc "solve survived transformation"

and gen_assign_fe ctx loc op lhs rhs =
  match op with
  | Aset ->
      let v = eval ctx Fe rhs in
      gen_assign_fe_value ctx loc lhs v
  | _ ->
      let old = eval ctx Fe lhs in
      gen_update ctx Fe P.KInt op old rhs (gen_assign_fe_value ctx loc lhs)

and gen_assign_fe_value ctx loc lhs value =
  clear_cse ctx;
  match lhs.e with
  | Evar v -> (
      match lookup ctx loc v with
      | Bscalar m ->
          (* coerce so the register kind stays stable *)
          (match m.sty with
          | Tfloat ->
              let r = P.Builder.reg ctx.b in
              emit ctx (P.Funop (P.ToFloat, r, value));
              emit ctx (P.Fmov (m.sreg, P.Reg r))
          | Tint ->
              let r = P.Builder.reg ctx.b in
              emit ctx (P.Funop (P.ToInt, r, value));
              emit ctx (P.Fmov (m.sreg, P.Reg r)))
      | Belem_reg _ -> err loc "index element %s cannot be assigned" v
      | _ -> err loc "%s is not assignable here" v)
  | Eindex (base, subs) ->
      let name, m = indexed ctx base in
      let addr = address ctx Fe loc m subs in
      note ctx (fun () ->
          Fe_access { fename = name; ferw = `Write; fetrips = ctx.mult });
      store_copies ctx Fe m addr (fun a -> emit ctx (P.Fwrite (m.afield, a, value)))
  | _ -> err loc "invalid assignment target"

and gen_block_fe ctx b =
  let saved_env = ctx.env in
  List.iter (fun d -> declare_fe ctx d) b.bdecls;
  List.iter (gen_stmt_fe ctx) b.bstmts;
  ctx.env <- saved_env

and declare_fe ctx d =
  match d with
  | Dvar (ty, ds) ->
      List.iter
        (fun dd ->
          if dd.ddims = [] then begin
            let sreg = P.Builder.reg ctx.b in
            (* fresh per entry *)
            (match ty with
            | Tint -> emit ctx (P.Fmov (sreg, P.Imm (P.SInt 0)))
            | Tfloat -> emit ctx (P.Fmov (sreg, P.Imm (P.SFloat 0.0))));
            ctx.env <- (dd.dname, Bscalar { sreg; sty = ty }) :: ctx.env;
            match dd.dinit with
            | Some init ->
                gen_assign_fe ctx dd.dloc Aset
                  { e = Evar dd.dname; eloc = dd.dloc }
                  init
            | None -> ()
          end
          else begin
            let dims = List.map Sema.const_eval dd.ddims in
            ctx.known_extents <- dims @ ctx.known_extents;
            let layout =
              if ctx.opts.use_mappings then
                Option.value ~default:Mapping.Default
                  (List.assoc_opt dd.dname ctx.layouts)
              else Mapping.Default
            in
            let pdims = Mapping.physical_dims layout dims in
            let vp = vpset_for ctx pdims in
            let afield = P.Builder.field ctx.b ~vpset:vp (kind_of_ty ty) in
            (* fresh per entry: zero the storage *)
            ensure_with ctx vp;
            emit ctx P.Creset;
            emit ctx (P.Pmov (afield, P.Imm (P.SInt 0)));
            ctx.env <-
              (dd.dname, Barray { afield; aty = ty; adims = dims; alayout = layout })
              :: ctx.env;
            match dd.dinit with
            | Some _ -> err dd.dloc "array initializers are not supported"
            | None -> ()
          end)
        ds
  | Dindexset defs -> List.iter (declare_set ctx) defs

(* ---------------- program ---------------- *)

(* lower [prog]; [record] turns on the communication events *)
let lower ~record ?layouts ~options prog =
  let b = P.Builder.create "uc" in
  (* the one seam through which layout information enters lowering: an
     explicit table (the tuner's choice) wins, otherwise the program's
     own map sections, gated by the use_mappings ablation flag *)
  let layouts =
    match layouts with
    | Some t -> List.map (fun (n, l) -> (n, Mapping.normalize l)) t
    | None -> if options.use_mappings then Mapping.of_program prog else []
  in
  let ctx =
    {
      b;
      opts = options;
      layouts;
      geoms = Hashtbl.create 16;
      env = [];
      space = None;
      act_all = true;
      cur_with = -1;
      break_labels = [];
      continue_labels = [];
      exit_label = 0;
      known_extents = [];
      cse_table = [];
      mask_path = [];
      next_mask_id = 0;
      live = record;
      recorded = [];
      mult = 1;
      estimated = false;
      may_return = false;
    }
  in
  ctx.exit_label <- P.Builder.label b;
  let main = ref None in
  List.iter
    (fun top ->
      match top with
      | Tdecl d -> declare_fe ctx d
      | Tmap _ -> ()
      | Tfunc f ->
          if f.fname = "main" then main := Some f
          else err f.floc "function %s survived inlining" f.fname)
    prog;
  let carrays =
    List.filter_map
      (function name, Barray m -> Some (name, m) | _ -> None)
      ctx.env
  in
  let cscalars =
    List.filter_map
      (function name, Bscalar m -> Some (name, m) | _ -> None)
      ctx.env
  in
  (match !main with
  | Some f -> gen_block_fe ctx f.fbody
  | None -> invalid_arg "Codegen.lower: no main (the parser requires one)");
  P.Builder.place b ctx.exit_label;
  emit ctx P.Halt;
  let prog = P.Builder.finish b in
  ( { prog; carrays = List.rev carrays; cscalars = List.rev cscalars },
    ctx.recorded, layouts )

let compile ?layouts ?(options = default_options) ?(obs = Obs.null) prog =
  let { prog; carrays; cscalars }, _, _ =
    lower ~record:false ?layouts ~options prog
  in
  (* The observable state after a run is the named storage: declared
     arrays and front-end scalars.  Everything else (temporaries, mask
     saves, address fields) is fair game for dead-code elimination. *)
  let prog =
    if Cm.Iropt.enabled options.ir_opt then
      let live_out_fields = List.map (fun (_, m) -> m.afield) carrays in
      let live_out_regs = List.map (fun (_, m) -> m.sreg) cscalars in
      fst
        (Cm.Iropt.run ~config:options.ir_opt ~live_out_fields ~live_out_regs
           ~obs prog)
    else prog
  in
  { prog; carrays; cscalars }

let record ?layouts ?(options = default_options) prog =
  let c, recorded, layouts = lower ~record:true ?layouts ~options prog in
  {
    events = List.rev recorded;
    arrays = List.map (fun (name, m) -> (name, m.adims)) c.carrays;
    layouts;
  }
