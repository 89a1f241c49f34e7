open Ast

(* The emitter renders the compilation strategy in the appendix's C*
   dialect (Rose & Steele 1987): one domain per array shape, coordinate
   recovery from `this', `where' for predicates, combining assignments
   for reductions and remote min-updates. *)

type st = {
  buf : Buffer.t;
  mutable indent : int;
  mutable shapes : (int list * string) list;      (* dims -> domain name *)
  mutable arrays : (string * (base_ty * int list)) list;
  mutable sets : (string * (string * int array)) list;  (* set -> elem, values *)
  mutable elem_env : (string * string) list;      (* index elem -> C* expr *)
  mutable tmp : int;
}

let line st fmt =
  Format.kasprintf
    (fun s ->
      Buffer.add_string st.buf (String.make (2 * st.indent) ' ');
      Buffer.add_string st.buf s;
      Buffer.add_char st.buf '\n')
    fmt

let blank st = Buffer.add_char st.buf '\n'

let with_indent st f =
  st.indent <- st.indent + 1;
  f ();
  st.indent <- st.indent - 1

let shape_name st dims =
  match List.assoc_opt dims st.shapes with
  | Some n -> n
  | None ->
      let n =
        "SHAPE_" ^ String.concat "x" (List.map string_of_int dims)
      in
      st.shapes <- st.shapes @ [ (dims, n) ];
      n

let domain_var name = String.lowercase_ascii name ^ "_d"

let fresh st base =
  st.tmp <- st.tmp + 1;
  Printf.sprintf "%s_%d" base st.tmp

let ty_name = function Tint -> "int" | Tfloat -> "float"

(* ---------------- expressions ---------------- *)

let rec expr st e =
  match e.e with
  | Eint i -> string_of_int i
  | Efloat f -> Printf.sprintf "%g" f
  | Estr s -> Printf.sprintf "%S" s
  | Einf -> "INF"
  | Evar v -> (
      match List.assoc_opt v st.elem_env with Some c -> c | None -> v)
  | Eindex ({ e = Evar name; _ }, subs) -> (
      match List.assoc_opt name st.arrays with
      | Some (_, dims) ->
          let dn = domain_var (shape_name st dims) in
          (* identity accesses read the local member; everything else is a
             left-indexed (router) access *)
          let idx =
            List.map (fun s -> Printf.sprintf "[%s]" (expr st s)) subs
          in
          if is_identity st subs dims then name
          else Printf.sprintf "%s%s.%s" dn (String.concat "" idx) name
      | None -> Pretty.expr_to_string e)
  | Eindex _ -> Pretty.expr_to_string e
  | Ebin (op, a, b) ->
      Printf.sprintf "(%s %s %s)" (expr st a) (binop_name op) (expr st b)
  | Eun (op, a) -> Printf.sprintf "(%s%s)" (unop_name op) (expr st a)
  | Econd (c, a, b) ->
      Printf.sprintf "(%s ? %s : %s)" (expr st c) (expr st a) (expr st b)
  | Ecall (f, args) ->
      Printf.sprintf "%s(%s)" f (String.concat ", " (List.map (expr st) args))
  | Ereduce r -> reduction st r

and is_identity st subs dims =
  List.length subs = List.length dims
  && List.for_all
       (fun s ->
         match s.e with
         | Evar v -> List.mem_assoc v st.elem_env
         | _ -> false)
       subs

and red_cstar_op = function
  | Rsum -> "+="
  | Rprod -> "*="
  | Rmin -> "<?="
  | Rmax -> ">?="
  | Rland -> "&="
  | Rlor -> "|="
  | Rxor -> "^="
  | Rarb -> "=,"

and reduction st r =
  (* C* writes a reduction as a combining assignment from all active
     instances; the index sets become an activation of the product
     domain *)
  let sets = String.concat ", " r.rsets in
  let body =
    String.concat " "
      (List.map
         (fun (p, ex) ->
           match p with
           | Some p -> Printf.sprintf "where (%s) %s" (expr st p) (expr st ex)
           | None -> expr st ex)
         r.rbranches)
  in
  let others =
    match r.rothers with
    | Some ex -> Printf.sprintf " else %s" (expr st ex)
    | None -> ""
  in
  Printf.sprintf "(%s [with %s] %s%s)" (red_cstar_op r.rop) sets body others

let resolve_set_values st def =
  Sema.set_values
    (fun other ->
      match List.assoc_opt other st.sets with
      | Some (_, values) -> values
      | None -> [||])
    def

(* ---------------- statements ---------------- *)

let rec stmt_fe st s =
  match s.s with
  | Sempty -> line st ";"
  | Sexpr e -> line st "%s;" (expr st e)
  | Sassign (op, l, r) ->
      line st "%s %s %s;" (expr st l) (assign_op_name op) (expr st r)
  | Sif (c, t, e) ->
      line st "if (%s) {" (expr st c);
      with_indent st (fun () -> stmt_fe st t);
      (match e with
      | Some e ->
          line st "} else {";
          with_indent st (fun () -> stmt_fe st e)
      | None -> ());
      line st "}"
  | Swhile (c, b) ->
      line st "while (%s) {" (expr st c);
      with_indent st (fun () -> stmt_fe st b);
      line st "}"
  | Sfor (i, c, s', b) ->
      let part f = function Some x -> f x | None -> "" in
      line st "for (%s; %s; %s) {"
        (part (simple st) i)
        (part (expr st) c)
        (part (simple st) s');
      with_indent st (fun () -> stmt_fe st b);
      line st "}"
  | Sblock b ->
      line st "{";
      with_indent st (fun () -> block st b ~parallel:false);
      line st "}"
  | Sreturn None -> line st "return;"
  | Sreturn (Some e) -> line st "return %s;" (expr st e)
  | Sbreak -> line st "break;"
  | Scontinue -> line st "continue;"
  | Spar ps -> par_block st ps ~kind:`Par
  | Sseq ps -> seq_block st ps ~parallel:false
  | Soneof ps -> par_block st ps ~kind:`Oneof
  | Ssolve ps -> par_block st ps ~kind:`Par

and simple st s =
  match s.s with
  | Sassign (op, l, r) ->
      Printf.sprintf "%s %s %s" (expr st l) (assign_op_name op) (expr st r)
  | Sexpr e -> expr st e
  | _ -> "/* ? */"

and stmt_par st s =
  match s.s with
  | Sempty -> line st ";"
  | Sexpr e -> line st "%s;" (expr st e)
  | Sassign (op, l, r) -> (
      (* remote targets become combining / checked sends in C* *)
      match l.e with
      | Eindex ({ e = Evar name; _ }, subs)
        when not
               (match List.assoc_opt name st.arrays with
               | Some (_, dims) -> is_identity st subs dims
               | None -> true) ->
          line st "%s %s %s;  /* router */" (expr st l) (assign_op_name op)
            (expr st r)
      | _ ->
          line st "%s %s %s;" (expr st l) (assign_op_name op) (expr st r))
  | Sif (c, t, e) ->
      line st "where (%s) {" (expr st c);
      with_indent st (fun () -> stmt_par st t);
      (match e with
      | Some e ->
          line st "} elsewhere {";
          with_indent st (fun () -> stmt_par st e)
      | None -> ());
      line st "}"
  | Swhile (c, b) ->
      line st "while (|= (%s)) {  /* SIMD while */" (expr st c);
      with_indent st (fun () ->
          line st "where (%s) {" (expr st c);
          with_indent st (fun () -> stmt_par st b);
          line st "}");
      line st "}"
  | Sblock b ->
      line st "{";
      with_indent st (fun () -> block st b ~parallel:true);
      line st "}"
  | Spar ps -> par_block st ps ~kind:`Par
  | Sseq ps -> seq_block st ps ~parallel:true
  | Soneof ps -> par_block st ps ~kind:`Oneof
  | Ssolve ps -> par_block st ps ~kind:`Par
  | Sfor _ | Sreturn _ | Sbreak | Scontinue ->
      line st "/* unsupported in parallel context */"

and bind_elems st sets_used dims =
  (* recover coordinates from `this', appendix style *)
  let dn = domain_var (shape_name st dims) in
  let off = fresh st "offset" in
  line st "int %s = this - &%s%s;" off dn
    (String.concat ""
       (List.map (fun _ -> "[0]") dims));
  let rank = List.length dims in
  List.iteri
    (fun k set ->
      match List.assoc_opt set st.sets with
      | Some (elem, _) ->
          let divisor =
            List.fold_left ( * ) 1
              (List.filteri (fun k' _ -> k' > k) dims)
          in
          let extent = List.nth dims k in
          let coord =
            if k = rank - 1 then Printf.sprintf "(%s %% %d)" off extent
            else if k = 0 then Printf.sprintf "(%s / %d)" off divisor
            else Printf.sprintf "((%s / %d) %% %d)" off divisor extent
          in
          line st "int %s = %s;" elem coord;
          st.elem_env <- (elem, elem) :: st.elem_env
      | None -> ())
    sets_used

and activation_dims st ps =
  List.map
    (fun set ->
      match List.assoc_opt set st.sets with
      | Some (_, values) -> 1 + Array.fold_left max 0 values
      | None -> 1)
    ps.psets

and par_block st ps ~kind =
  let dims = activation_dims st ps in
  let dname = shape_name st dims in
  let saved = st.elem_env in
  let star = if ps.iterate then "|= re-test; iterate: " else "" in
  (match kind with
  | `Par -> line st "[domain %s].{  /* %spar (%s) */" dname star
              (String.concat ", " ps.psets)
  | `Oneof ->
      line st "[domain %s].{  /* %soneof: first enabled branch only */" dname
        star);
  with_indent st (fun () ->
      bind_elems st ps.psets dims;
      List.iter
        (fun (pred, body) ->
          match pred with
          | Some p ->
              line st "where (%s) {" (expr st p);
              with_indent st (fun () -> stmt_par st body);
              line st "}"
          | None -> stmt_par st body)
        ps.pbranches;
      match ps.pothers with
      | Some body ->
          let preds = List.filter_map fst ps.pbranches in
          let negated =
            String.concat " || " (List.map (fun p -> expr st p) preds)
          in
          line st "where (!(%s)) {  /* others */" negated;
          with_indent st (fun () -> stmt_par st body);
          line st "}"
      | None -> ());
  line st "}";
  st.elem_env <- saved

and seq_block st ps ~parallel =
  List.iter
    (fun set ->
      match List.assoc_opt set st.sets with
      | Some (elem, values) ->
          let n = Array.length values in
          let contiguous =
            Array.for_all
              (fun k -> values.(k) = values.(0) + k)
              (Array.init n Fun.id)
          in
          if contiguous then
            line st "for (int %s = %d; %s <= %d; %s++) {" elem values.(0) elem
              values.(n - 1) elem
          else
            line st "for (int %s in {%s}) {" elem
              (String.concat ", "
                 (List.map string_of_int (Array.to_list values)));
          st.elem_env <- (elem, elem) :: st.elem_env;
          st.indent <- st.indent + 1
      | None -> ())
    ps.psets;
  List.iter
    (fun (pred, body) ->
      match pred with
      | Some p when parallel ->
          line st "where (%s) {" (expr st p);
          with_indent st (fun () -> stmt_par st body);
          line st "}"
      | Some p ->
          line st "if (%s) {" (expr st p);
          with_indent st (fun () -> stmt_fe st body);
          line st "}"
      | None -> if parallel then stmt_par st body else stmt_fe st body)
    ps.pbranches;
  List.iter
    (fun set ->
      if List.mem_assoc set st.sets then begin
        st.indent <- st.indent - 1;
        line st "}"
      end)
    ps.psets

and block st b ~parallel =
  List.iter
    (fun d ->
      match d with
      | Dvar (ty, ds) ->
          List.iter
            (fun dd ->
              if dd.ddims = [] then
                match dd.dinit with
                | Some init ->
                    line st "%s %s = %s;" (ty_name ty) dd.dname (expr st init)
                | None -> line st "%s %s;" (ty_name ty) dd.dname
              else
                line st "%s %s%s;" (ty_name ty) dd.dname
                  (String.concat ""
                     (List.map
                        (fun e -> Printf.sprintf "[%s]" (expr st e))
                        dd.ddims)))
            ds
      | Dindexset defs ->
          List.iter
            (fun def ->
              line st "/* index-set %s:%s */" def.set_name def.elem_name;
              st.sets <-
                (def.set_name, (def.elem_name, resolve_set_values st def))
                :: st.sets)
            defs)
    b.bdecls;
  List.iter (if parallel then stmt_par st else stmt_fe st) b.bstmts

(* ---------------- program ---------------- *)

let emit_program prog =
  let st =
    {
      buf = Buffer.create 4096;
      indent = 0;
      shapes = [];
      arrays = [];
      sets = [];
      elem_env = [];
      tmp = 0;
    }
  in
  line st "/* C* translation produced by ucc (cf. paper section 5: the";
  line st "   prototype UC compiler generated C* for the CM-2). */";
  blank st;
  (* first pass: collect shapes, arrays, sets, scalars *)
  let scalars = ref [] in
  List.iter
    (function
      | Tdecl (Dvar (ty, ds)) ->
          List.iter
            (fun dd ->
              if dd.ddims = [] then scalars := (dd.dname, ty) :: !scalars
              else begin
                let dims = List.map Sema.const_eval dd.ddims in
                ignore (shape_name st dims);
                st.arrays <- (dd.dname, (ty, dims)) :: st.arrays
              end)
            ds
      | Tdecl (Dindexset defs) ->
          List.iter
            (fun def ->
              st.sets <-
                (def.set_name, (def.elem_name, resolve_set_values st def))
                :: st.sets)
            defs
      | Tfunc _ | Tmap _ -> ())
    prog;
  (* domain declarations: conforming arrays share one domain (the default
     mapping) *)
  List.iter
    (fun (dims, dname) ->
      line st "domain %s {" dname;
      with_indent st (fun () ->
          List.iter
            (fun (aname, (ty, adims)) ->
              if adims = dims then line st "%s %s;" (ty_name ty) aname)
            (List.rev st.arrays));
      line st "} %s%s;" (domain_var dname)
        (String.concat ""
           (List.map (fun d -> Printf.sprintf "[%d]" d) dims)))
    st.shapes;
  blank st;
  List.iter
    (fun (name, ty) -> line st "%s %s;  /* front end */" (ty_name ty) name)
    (List.rev !scalars);
  blank st;
  (* map sections survive as comments: C* has no equivalent *)
  List.iter
    (function
      | Tmap m ->
          List.iter
            (fun mp ->
              line st "/* map: %s */"
                (Format.asprintf "%a"
                   (fun fmt () ->
                     match mp with
                     | Mpermute pm ->
                         Format.fprintf fmt "permute %s relative to %s"
                           pm.ptarget pm.psource
                     | Mfold (a, f, _) -> Format.fprintf fmt "fold %s by %d" a f
                     | Mcopy (a, _, _) -> Format.fprintf fmt "copy %s" a)
                   ()))
            m.mmappings
      | _ -> ())
    prog;
  (* main *)
  List.iter
    (function
      | Tfunc f when f.fname = "main" ->
          line st "void main() {";
          with_indent st (fun () -> block st f.fbody ~parallel:false);
          line st "}"
      | _ -> ())
    prog;
  Buffer.contents st.buf

let emit_source src =
  let prog = Parser.parse_program src in
  ignore (Sema.check ~eof:(Loc.end_of src) prog);
  let prog = Transform.apply prog in
  emit_program prog
