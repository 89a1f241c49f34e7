(* Native compilation backend: Paris IR -> OCaml source -> .cmxs.

   The contract and the shape of the generated module are documented in
   codegen.mli.  Everything here divides into two halves:

   - the *emitter* ([source]): a pure function from a Paris program to
     OCaml source text.  Each instruction becomes one arm of a dense
     [match] over the program counter inside a tail-recursive step
     function; operand shapes, field kinds, VP-set sizes, label targets
     and geometry constants are baked in as literals.  The emitter
     mirrors the fast engine's kernel templates in machine.ml *exactly*
     — same check/charge/resolve order, same error strings, same
     dense-vs-masked specialization — because the soundness bar is
     bit-identical behaviour, not merely equal answers.  Anything
     order-sensitive or can-fault-mid-loop (router ops, NEWS, scans,
     axis reductions, tables, non-total integer Pbins) compiles to a
     call back into the fast engine's pre-decoded kernel instead.

   - the *builder* ([entry_for]): per-process memo -> content-addressed
     store hook -> emit + [ocamlfind ocamlopt -shared] + Dynlink.  All
     failures raise [Unavailable] with a typed reason; the machine turns
     that into a warn-once fallback to the fast engine. *)

open Paris

type reason =
  | Bytecode_only
  | No_toolchain of string
  | Build_failed of string
  | Dynlink_failed of string
  | Disabled of string

let describe = function
  | Bytecode_only -> "host program is bytecode; Dynlink cannot load .cmxs plugins"
  | No_toolchain msg -> "no native toolchain: " ^ msg
  | Build_failed msg -> "native build failed: " ^ msg
  | Dynlink_failed msg -> "dynlink failed: " ^ msg
  | Disabled msg -> "disabled: " ^ msg

exception Unavailable of reason

type ctx = {
  c_regs : Paris.scalar array;
  c_ints : int array array;
  c_floats : float array array;
  c_ctxs : Context.t array;
  c_sizes : int array;
  c_meter : Cost.meter;
  mutable c_pc : int;
  mutable c_fuel : int;
  mutable c_icount : int;
  mutable c_rand : int;
  mutable c_cur : int;
  mutable c_racc : float ref;
  c_fail : string -> exn;
  c_not_cur : string -> int -> int -> exn;
  c_emit : string -> unit;
  c_region : string -> int -> float ref;
  c_kernel : int -> int -> unit;
  c_fe_bin : Paris.binop -> Paris.scalar -> Paris.scalar -> Paris.scalar;
  c_fe_unop : Paris.unop -> Paris.scalar -> Paris.scalar;
  c_to_int : Paris.scalar -> int;
  c_to_float : Paris.scalar -> float;
  c_truthy : Paris.scalar -> bool;
}

type entry = ctx -> int -> unit

(* The registration hole a generated module drops its entry into at
   Dynlink time.  Guarded by [lock] below: cleared before each load,
   read right after. *)
let pending : entry option ref = ref None
let register e = pending := Some e

let version = 2

let key prog =
  let ir =
    Marshal.to_string
      (prog.geoms, prog.fields, prog.nregs, prog.nlabels, prog.code)
      []
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s|codegen-v%d|%s" ir version Sys.ocaml_version))

(* ---- emitter ---- *)

let spf = Printf.sprintf

(* Exact float literal: round-trips the IEEE bits, so the generated
   constant is the same double the interpreter holds. *)
let float_lit f = spf "(Int64.float_of_bits 0x%LxL)" (Int64.bits_of_float f)
let int_lit i = spf "(%d)" i

let binop_ctor = function
  | Add -> "Add" | Sub -> "Sub" | Mul -> "Mul" | Div -> "Div" | Mod -> "Mod"
  | Min -> "Min" | Max -> "Max"
  | Eq -> "Eq" | Ne -> "Ne" | Lt -> "Lt" | Le -> "Le" | Gt -> "Gt" | Ge -> "Ge"
  | Land -> "Land" | Lor -> "Lor"
  | Band -> "Band" | Bor -> "Bor" | Bxor -> "Bxor" | Shl -> "Shl" | Shr -> "Shr"
  | Any -> "Any"

let unop_ctor = function
  | Neg -> "Neg" | Lnot -> "Lnot" | Bnot -> "Bnot"
  | ToFloat -> "ToFloat" | ToInt -> "ToInt" | Abs -> "Abs"

let mnemonic = function
  | Fmov _ -> "fmov" | Fbin _ -> "fbin" | Funop _ -> "funop"
  | Frand _ -> "frand" | Fread _ -> "fread" | Fwrite _ -> "fwrite"
  | Jmp _ -> "jmp" | Jz _ -> "jz" | Jnz _ -> "jnz"
  | Label _ -> "label" | Halt -> "halt" | Comment _ -> "comment"
  | Region _ -> "region" | Fprint _ -> "fprint"
  | Pmov _ -> "pmov" | Pbin _ -> "pbin" | Punop _ -> "punop"
  | Pcoord _ -> "pcoord" | Ptable _ -> "ptable" | Prand _ -> "prand"
  | Psel _ -> "psel" | Pget _ -> "pget" | Psend _ -> "psend"
  | Pnews _ -> "pnews" | Preduce _ -> "preduce" | Pcount _ -> "pcount"
  | Preduce_axis _ -> "preduce-axis" | Pscan _ -> "pscan"
  | Cwith _ -> "cwith" | Cpush -> "cpush" | Cand _ -> "cand"
  | Cpop -> "cpop" | Creset -> "creset" | Cread _ -> "cread"

(* Integer operator as an expression over two *pure, single-use* operand
   expressions.  Only emitted in contexts where the operator is total
   (int_op_total-checked Pbins, monoid reductions), so Div/Mod/Shl/Shr
   need no guards here. *)
let int_expr op ea eb =
  match op with
  | Add -> spf "(%s + %s)" ea eb
  | Sub -> spf "(%s - %s)" ea eb
  | Mul -> spf "(%s * %s)" ea eb
  | Div -> spf "(%s / %s)" ea eb
  | Mod -> spf "(%s mod %s)" ea eb
  | Min -> spf "(let a = %s and b = %s in if a > b then b else a)" ea eb
  | Max -> spf "(let a = %s and b = %s in if a < b then b else a)" ea eb
  | Land -> spf "(if %s <> 0 && %s <> 0 then 1 else 0)" ea eb
  | Lor -> spf "(if %s <> 0 || %s <> 0 then 1 else 0)" ea eb
  | Band -> spf "(%s land %s)" ea eb
  | Bor -> spf "(%s lor %s)" ea eb
  | Bxor -> spf "(%s lxor %s)" ea eb
  | Shl -> spf "(%s lsl %s)" ea eb
  | Shr -> spf "(%s asr %s)" ea eb
  | Eq -> spf "(if %s = %s then 1 else 0)" ea eb
  | Ne -> spf "(if %s <> %s then 1 else 0)" ea eb
  | Lt -> spf "(if %s < %s then 1 else 0)" ea eb
  | Le -> spf "(if %s <= %s then 1 else 0)" ea eb
  | Gt -> spf "(if %s > %s then 1 else 0)" ea eb
  | Ge -> spf "(if %s >= %s then 1 else 0)" ea eb
  | Any -> assert false

let float_expr op =
  match op with
  | Add -> Ok (fun ea eb -> spf "(%s +. %s)" ea eb)
  | Sub -> Ok (fun ea eb -> spf "(%s -. %s)" ea eb)
  | Mul -> Ok (fun ea eb -> spf "(%s *. %s)" ea eb)
  | Div -> Ok (fun ea eb -> spf "(%s /. %s)" ea eb)
  | Mod -> Ok (fun ea eb -> spf "(Float.rem %s %s)" ea eb)
  | Min -> Ok (fun ea eb -> spf "(Float.min %s %s)" ea eb)
  | Max -> Ok (fun ea eb -> spf "(Float.max %s %s)" ea eb)
  | op -> Error (spf "operator %s is not valid on floats" (Paris.binop_name op))

let cmp_sym = function
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | _ -> assert false

let int_un_expr op e =
  match op with
  | Neg -> spf "(- %s)" e
  | Lnot -> spf "(if %s = 0 then 1 else 0)" e
  | Bnot -> spf "(lnot %s)" e
  | Abs -> spf "(abs %s)" e
  | ToInt | ToFloat -> assert false

let float_un_expr op e =
  match op with
  | Neg -> spf "(-. %s)" e
  | Abs -> spf "(Float.abs %s)" e
  | ToFloat -> e
  | Lnot | Bnot | ToInt -> assert false

(* Static program facts.  Any out-of-range id means the fast engine hit
   a decode-time exception and bottled it into the kernel; falling back
   to [kern i] reproduces that verbatim, so the emitter just bails. *)

exception Fallback

type env = { e_prog : program; e_lab : int array; e_ncode : int }

let labels_of prog =
  let lab = Array.make (max prog.nlabels 1) (-1) in
  Array.iteri
    (fun i ins ->
      match ins with
      | Label l when l >= 0 && l < prog.nlabels -> lab.(l) <- i
      | _ -> ())
    prog.code;
  lab

let make_env prog = { e_prog = prog; e_lab = labels_of prog; e_ncode = Array.length prog.code }

let fvp env f =
  if f < 0 || f >= Array.length env.e_prog.fields then raise Fallback
  else fst env.e_prog.fields.(f)

let fkind env f =
  if f < 0 || f >= Array.length env.e_prog.fields then raise Fallback
  else snd env.e_prog.fields.(f)

let geomv env vp =
  if vp < 0 || vp >= Array.length env.e_prog.geoms then raise Fallback
  else env.e_prog.geoms.(vp)

(* (vp, size, kind) of a field, mirroring [Machine.kpfield]. *)
let pfield env f =
  let vp = fvp env f in
  let g = geomv env vp in
  (vp, Geometry.size g, fkind env f)

let label_target env l =
  if l < 0 || l >= Array.length env.e_lab then raise Fallback else env.e_lab.(l)

let fld f = spf "f%d" f
let xctx vp = spf "x%d" vp

(* Front-end operand as an expression (the dec_fe shapes). *)
let fe_expr = function
  | Reg r -> spf "(Array.get regs %d)" r
  | Imm (SInt v) -> spf "(SInt %s)" (int_lit v)
  | Imm (SFloat f) -> spf "(SFloat %s)" (float_lit f)
  | Fld f -> spf "(raise (fail %S))" (spf "field f%d used as a front-end operand" f)

(* Parallel operand shapes after resolution (the ires/fres split of the
   fast engine, as source fragments). *)
type shape =
  | Ai of string   (* int array variable *)
  | Vi of string   (* int value expression *)
  | Af of string   (* float array variable *)
  | Afi of string  (* int array read as float *)
  | Vf of string   (* float value expression *)

type rsv = { pre : string list; shape : (shape, string) result }

let rint env vp tmp op =
  match op with
  | Reg r ->
      { pre = [ spf "let %s = to_int (Array.get regs %d) in" tmp r ];
        shape = Ok (Vi tmp) }
  | Imm (SInt v) -> { pre = []; shape = Ok (Vi (int_lit v)) }
  | Imm (SFloat _) ->
      { pre = []; shape = Error "float immediate in int parallel context" }
  | Fld f ->
      if fvp env f <> vp then
        { pre = [];
          shape = Error (spf "operand: field f%d is not on the current VP set vp%d" f vp) }
      else (
        match fkind env f with
        | KInt -> { pre = []; shape = Ok (Ai (fld f)) }
        | KFloat ->
            { pre = []; shape = Error (spf "float field f%d in int parallel context" f) })

let rfloat env vp tmp op =
  match op with
  | Reg r ->
      { pre = [ spf "let %s = to_float (Array.get regs %d) in" tmp r ];
        shape = Ok (Vf tmp) }
  | Imm s ->
      (* bound once, outside the loop: [float_lit] is a call *)
      let v = match s with SInt i -> float_of_int i | SFloat f -> f in
      { pre = [ spf "let %s = %s in" tmp (float_lit v) ]; shape = Ok (Vf tmp) }
  | Fld f ->
      if fvp env f <> vp then
        { pre = [];
          shape = Error (spf "operand: field f%d is not on the current VP set vp%d" f vp) }
      else (
        match fkind env f with
        | KInt -> { pre = []; shape = Ok (Afi (fld f)) }
        | KFloat -> { pre = []; shape = Ok (Af (fld f)) })

let ig = function
  | Ai v -> spf "(Array.unsafe_get %s p)" v
  | Vi e -> e
  | Af _ | Afi _ | Vf _ -> assert false

let fg = function
  | Af v -> spf "(Array.unsafe_get %s p)" v
  | Afi v -> spf "(float_of_int (Array.unsafe_get %s p))" v
  | Vf e -> e
  | Ai _ | Vi _ -> assert false

let selt = function
  | Af v -> spf "Array.unsafe_get %s p <> 0.0" v
  | Afi v -> spf "Array.unsafe_get %s p <> 0" v
  | Vf e -> spf "%s <> 0.0" e
  | Ai _ | Vi _ -> assert false

(* Bind resolvers in the fast engine's resolution order.  At the first
   failing one, the emitted code raises right there (after the earlier
   resolvers' register reads, which may themselves fault first) and the
   rest of the arm is dropped. *)
let rec bind_ops rs k =
  match rs with
  | [] -> k []
  | { pre; shape = Error msg } :: _ -> pre @ [ spf "raise (fail %S);" msg ]
  | { pre; shape = Ok s } :: rest -> pre @ bind_ops rest (fun ss -> k (s :: ss))

let indent = List.map (fun s -> "  " ^ s)

(* The field arrays an arm's loops touch.  Each loop rebinds them as
   locals right before it starts: every value live across a call is
   spilled, so arrays bound earlier (or read from the step closure)
   would be reloaded from memory on every element. *)
let loop_fields prog instr =
  let op = function Fld f -> [ f ] | Reg _ | Imm _ -> [] in
  let fs =
    match instr with
    | Pmov (d, a) | Punop (_, d, a) -> d :: op a
    | Pbin (_, d, a, b) -> (d :: op a) @ op b
    | Psel (d, c, a, b) -> (d :: op c) @ op a @ op b
    | Pcoord (d, _) | Prand (d, _) | Preduce (_, _, d) | Cread d -> [ d ]
    | _ -> []
  in
  List.sort_uniq compare
    (List.filter (fun f -> f >= 0 && f < Array.length prog.fields) fs)

(* Dense/masked split on the destination's context, mirroring the
   [Context.all_active] specialization of every fast kernel.  [pre]
   binds the loop's arrays after the last call. *)
let dm ?(pre = []) x dense masked =
  [ spf "(if Cm.Context.all_active %s then begin" x ]
  @ indent (pre @ dense)
  @ [ "end"; "else begin"; spf "  let mask = Cm.Context.active %s in" x ]
  @ indent (pre @ masked)
  @ [ "end);" ]

let loop out nv rhs =
  [ spf "for p = 0 to %d do Array.unsafe_set %s p %s done;" (nv - 1) out rhs ]

let loop_m out nv rhs =
  [ spf "for p = 0 to %d do if Array.unsafe_get mask p then Array.unsafe_set %s p %s done;"
      (nv - 1) out rhs ]

let chk vp what f = spf "if !cur <> %d then raise (not_cur %S %d !cur);" vp what f
let charge_pe nv = spf "Cm.Cost.charge_pe meter ~size:%d;" nv
let charge_ctx nv = spf "Cm.Cost.charge_context meter ~size:%d;" nv
let charge_red nv = spf "Cm.Cost.charge_reduce meter ~size:%d;" nv

let sif env = function
  | Imm (SFloat _) -> Some true
  | Imm (SInt _) -> Some false
  | Fld f -> Some (fkind env f = KFloat)
  | Reg _ -> None

let isf_expr env = function
  | Reg r -> spf "(match Array.get regs %d with SFloat _ -> true | SInt _ -> false)" r
  | Imm (SFloat _) -> "true"
  | Imm (SInt _) -> "false"
  | Fld f -> ( match fkind env f with KFloat -> "true" | KInt -> "false")

(* One instruction -> the body of its match arm (a ';'-terminated
   statement list), or [None] for "call the fast kernel".  The body
   runs *after* the step loop has already advanced pc/fuel/icount and
   started the region timer, exactly like a fast kernel does. *)
let arm env instr : string list option =
  let seq lines = Some lines in
  let locals =
    List.map
      (fun f -> spf "let f%d = Sys.opaque_identity f%d in" f f)
      (loop_fields env.e_prog instr)
  in
  let dm x dense masked = dm ~pre:locals x dense masked in
  let elem_loops x out nv rhs = dm x (loop out nv rhs) (loop_m out nv rhs) in
  (* [v] := the left fold of [step] (over [!acc] and element [p]) across
     the active elements, from [init] *)
  let fold x nv ~init ~step =
    let branch test =
      [ spf "let acc = ref %s in" init ]
      @ locals
      @ [ spf "for p = 0 to %d do %sacc := %s done;" (nv - 1) test step; "!acc" ]
    in
    [ spf "let v = if Cm.Context.all_active %s then begin" x ]
    @ indent (branch "")
    @ [ "end else begin"; spf "  let mask = Cm.Context.active %s in" x ]
    @ indent (branch "if Array.unsafe_get mask p then ")
    @ [ "end in" ]
  in
  try
    match instr with
    | Label _ | Comment _ -> seq [ "();" ]
    | Region r -> seq [ spf "racc := region %S !icount;" r ]
    | Fprint (s, None) -> seq [ spf "out_line %S;" s ]
    | Fprint (s, Some (Imm (SInt v))) ->
        seq [ spf "out_line %S;" (Printf.sprintf "%s%d" s v) ]
    | Fprint (s, Some (Imm (SFloat f))) ->
        seq [ spf "out_line %S;" (Printf.sprintf "%s%g" s f) ]
    | Fprint (_, Some (Fld f)) ->
        seq [ spf "raise (fail %S);" (spf "field f%d used as a front-end operand" f) ]
    | Fprint (s, Some (Reg r)) ->
        seq
          [ spf "(match Array.get regs %d with" r;
            spf " | SInt iv -> out_line (Printf.sprintf \"%%s%%d\" %S iv)" s;
            spf " | SFloat fv -> out_line (Printf.sprintf \"%%s%%g\" %S fv));" s ]
    | Halt -> seq [ spf "pc := %d;" env.e_ncode ]
    | Fmov (r, a) ->
        seq [ "Cm.Cost.charge_fe meter;"; spf "Array.set regs %d %s;" r (fe_expr a) ]
    | Fbin (op, r, a, b) ->
        (* the reference applies right to left, so b's faults win *)
        seq
          [ "Cm.Cost.charge_fe meter;";
            spf "let vb = %s in" (fe_expr b);
            spf "let va = %s in" (fe_expr a);
            spf "Array.set regs %d (fe_bin %s va vb);" r (binop_ctor op) ]
    | Funop (op, r, a) ->
        seq
          [ "Cm.Cost.charge_fe meter;";
            spf "Array.set regs %d (fe_unop %s %s);" r (unop_ctor op) (fe_expr a) ]
    | Frand (r, a) ->
        seq
          [ "Cm.Cost.charge_fe meter;";
            spf "Array.set regs %d (SInt (rand_mod (to_int %s)));" r (fe_expr a) ]
    | Fread (r, flid, a) ->
        let _, nv, kind = pfield env flid in
        let get =
          match kind with
          | KInt -> spf "SInt (Array.unsafe_get %s addr)" (fld flid)
          | KFloat -> spf "SFloat (Array.unsafe_get %s addr)" (fld flid)
        in
        seq
          [ "Cm.Cost.charge_fe_cm meter;";
            spf "let addr = to_int %s in" (fe_expr a);
            spf
              "if addr < 0 || addr >= %d then raise (fail (Printf.sprintf \"fread: address %%d out of range on f%d\" addr));"
              nv flid;
            spf "Array.set regs %d (%s);" r get ]
    | Fwrite (flid, a, v) ->
        let _, nv, kind = pfield env flid in
        let set =
          match kind with
          | KInt -> spf "Array.unsafe_set %s addr (to_int va);" (fld flid)
          | KFloat -> spf "Array.unsafe_set %s addr (to_float va);" (fld flid)
        in
        seq
          [ "Cm.Cost.charge_fe_cm meter;";
            spf "let addr = to_int %s in" (fe_expr a);
            spf "let va = %s in" (fe_expr v);
            spf
              "if addr < 0 || addr >= %d then raise (fail (Printf.sprintf \"fwrite: address %%d out of range on f%d\" addr));"
              nv flid;
            set ]
    | Jmp l ->
        let t = label_target env l in
        if t < 0 then
          seq
            [ "Cm.Cost.charge_fe meter;";
              spf "raise (fail %S);" (spf "jump to unplaced label L%d" l) ]
        else seq [ "Cm.Cost.charge_fe meter;"; spf "pc := %d;" t ]
    | Jz (a, l) ->
        let t = label_target env l in
        let go =
          if t < 0 then spf "raise (fail %S)" (spf "jump to unplaced label L%d" l)
          else spf "pc := %d" t
        in
        seq
          [ "Cm.Cost.charge_fe meter;";
            spf "if not (truthy %s) then %s;" (fe_expr a) go ]
    | Jnz (a, l) ->
        let t = label_target env l in
        let go =
          if t < 0 then spf "raise (fail %S)" (spf "jump to unplaced label L%d" l)
          else spf "pc := %d" t
        in
        seq
          [ "Cm.Cost.charge_fe meter;"; spf "if truthy %s then %s;" (fe_expr a) go ]
    | Cwith vp ->
        if vp < 0 || vp >= Array.length env.e_prog.geoms then
          seq [ spf "raise (fail %S);" (spf "cwith: unknown VP set vp%d" vp) ]
        else seq [ "Cm.Cost.charge_fe meter;"; spf "cur := %d;" vp ]
    | Cpush ->
        seq
          [ "let sz = cur_size () in";
            "Cm.Cost.charge_context meter ~size:sz;";
            "Cm.Context.push (Array.get ctxs !cur);" ]
    | Cpop ->
        seq
          [ "let sz = cur_size () in";
            "Cm.Cost.charge_context meter ~size:sz;";
            "(try Cm.Context.pop (Array.get ctxs !cur) with Failure _ -> raise (fail \"cpop: context stack underflow\"));" ]
    | Creset ->
        seq
          [ "let sz = cur_size () in";
            "Cm.Cost.charge_context meter ~size:sz;";
            "Cm.Context.reset (Array.get ctxs !cur);" ]
    | Cand f ->
        let vp, nv, kind = pfield env f in
        let opn = match kind with KInt -> "land_ints" | KFloat -> "land_floats" in
        seq
          [ chk vp "cand" f; charge_ctx nv;
            spf "Cm.Context.%s %s %s;" opn (xctx vp) (fld f) ]
    | Cread f -> (
        let vp, nv, kind = pfield env f in
        match kind with
        | KFloat ->
            seq [ chk vp "cread" f; charge_ctx nv;
                  "raise (fail \"cread into a float field\");" ]
        | KInt ->
            seq
              ([ chk vp "cread" f; charge_ctx nv ]
              @ dm (xctx vp)
                  (loop (fld f) nv "1")
                  [ spf
                      "for p = 0 to %d do Array.unsafe_set %s p (if Array.unsafe_get mask p then 1 else 0) done;"
                      (nv - 1) (fld f) ]))
    | Pmov (dst, a) -> (
        let vp, nv, kind = pfield env dst in
        let x = xctx vp and out = fld dst in
        let pre = [ chk vp "pmov" dst; charge_pe nv ] in
        match kind with
        | KInt ->
            let r = rint env vp "va" a in
            seq
              (pre
              @ bind_ops [ r ] (fun ss ->
                    match ss with
                    | [ s ] ->
                        dm x
                          (match s with
                          | Ai _ | Vi _ -> loop out nv (ig s)
                          | _ -> assert false)
                          (loop_m out nv (ig s))
                    | _ -> assert false))
        | KFloat ->
            let r = rfloat env vp "va" a in
            seq
              (pre
              @ bind_ops [ r ] (fun ss ->
                    match ss with
                    | [ s ] ->
                        dm x
                          (match s with
                          | Af v -> [ spf "Array.blit %s 0 %s 0 %d;" v out nv ]
                          | Vf _ | Afi _ -> loop out nv (fg s)
                          | _ -> assert false)
                          (loop_m out nv (fg s))
                    | _ -> assert false)))
    | Pbin (op, dst, a, b) -> (
        let vp, nv, kind = pfield env dst in
        let x = xctx vp and out = fld dst in
        let pre = [ chk vp "pbin" dst; charge_pe nv ] in
        match kind with
        | KFloat -> (
            match float_expr op with
            | Error msg -> seq (pre @ [ spf "raise (fail %S);" msg ])
            | Ok fexp ->
                let ra = rfloat env vp "va" a and rb = rfloat env vp "vb" b in
                seq
                  (pre
                  @ bind_ops [ ra; rb ] (fun ss ->
                        match ss with
                        | [ sa; sb ] -> elem_loops x out nv (fexp (fg sa) (fg sb))
                        | _ -> assert false)))
        | KInt ->
            if is_cmp op then begin
              let sym = cmp_sym op in
              let fpath () =
                let ra = rfloat env vp "vaf" a and rb = rfloat env vp "vbf" b in
                bind_ops [ ra; rb ] (fun ss ->
                    match ss with
                    | [ sa; sb ] ->
                        elem_loops x out nv
                          (spf "(if %s %s %s then 1 else 0)" (fg sa) sym (fg sb))
                    | _ -> assert false)
              in
              let ipath () =
                let ra = rint env vp "vai" a and rb = rint env vp "vbi" b in
                bind_ops [ ra; rb ] (fun ss ->
                    match ss with
                    | [ sa; sb ] ->
                        elem_loops x out nv
                          (spf "(if %s %s %s then 1 else 0)" (ig sa) sym (ig sb))
                    | _ -> assert false)
              in
              match (sif env a, sif env b) with
              | Some true, _ | _, Some true -> seq (pre @ fpath ())
              | Some false, Some false -> seq (pre @ ipath ())
              | _ ->
                  seq
                    (pre
                    @ [ spf "let isf = %s || %s in" (isf_expr env a) (isf_expr env b);
                        "(if isf then begin" ]
                    @ indent (fpath ())
                    @ [ "end"; "else begin" ]
                    @ indent (ipath ())
                    @ [ "end);" ])
            end
            else if op = Any then
              seq (pre @ [ "raise (fail \"'any' is only valid in reductions\");" ])
            else if int_op_total op b then
              let ra = rint env vp "va" a and rb = rint env vp "vb" b in
              seq
                (pre
                @ bind_ops [ ra; rb ] (fun ss ->
                      match ss with
                      | [ sa; sb ] -> elem_loops x out nv (int_expr op (ig sa) (ig sb))
                      | _ -> assert false))
            else None (* can fault mid-loop: keep the serial kernel *))
    | Punop (op, dst, a) -> (
        let vp, nv, kind = pfield env dst in
        let x = xctx vp and out = fld dst in
        let pre = [ chk vp "punop" dst; charge_pe nv ] in
        match (kind, op) with
        | KInt, ToInt ->
            let r = rfloat env vp "va" a in
            seq
              (pre
              @ bind_ops [ r ] (fun ss ->
                    match ss with
                    | [ s ] -> elem_loops x out nv (spf "(int_of_float %s)" (fg s))
                    | _ -> assert false))
        | KInt, _ ->
            let r = rint env vp "va" a in
            seq
              (pre
              @ bind_ops [ r ] (fun ss ->
                    match ss with
                    | [ s ] -> (
                        (* reference order: operand first, then the operator check *)
                        match op with
                        | ToFloat -> [ "raise (fail \"tofloat into an int field\");" ]
                        | _ -> elem_loops x out nv (int_un_expr op (ig s)))
                    | _ -> assert false))
        | KFloat, _ ->
            let r = rfloat env vp "va" a in
            seq
              (pre
              @ bind_ops [ r ] (fun ss ->
                    match ss with
                    | [ s ] -> (
                        match op with
                        | Lnot | Bnot | ToInt ->
                            [ "raise (fail \"integer unop into a float field\");" ]
                        | _ -> elem_loops x out nv (float_un_expr op (fg s)))
                    | _ -> assert false)))
    | Pcoord (dst, axis) -> (
        let vp, nv, kind = pfield env dst in
        let g = geomv env vp in
        let axis_ok = axis >= 0 && axis < Geometry.rank g in
        if not axis_ok then
          seq
            [ chk vp "pcoord" dst;
              spf "raise (fail %S);" (spf "pcoord: bad axis %d" axis) ]
        else
          let stride = (Geometry.strides g).(axis) in
          let extent = Geometry.dim g axis in
          match kind with
          | KInt ->
              (* the coordinate is constant on each run of [stride]
                 positions: fill runs, no division per element *)
              let run body =
                [ spf "for r = 0 to %d do" ((nv / stride) - 1);
                  spf "  let v = r mod %d and s = r * %d in" extent stride;
                  spf "  for p = s to s + %d do %s done" (stride - 1) body;
                  "done;" ]
              in
              seq
                ([ chk vp "pcoord" dst; charge_pe nv ]
                @ dm (xctx vp)
                    (run (spf "Array.unsafe_set %s p v" (fld dst)))
                    (run
                       (spf "if Array.unsafe_get mask p then Array.unsafe_set %s p v"
                          (fld dst))))
          | KFloat ->
              seq
                [ chk vp "pcoord" dst; charge_pe nv;
                  "raise (fail \"pcoord into a float field\");" ])
    | Prand (dst, modulus) -> (
        let vp, nv, kind = pfield env dst in
        let x = xctx vp and out = fld dst in
        match kind with
        | KInt ->
            seq
              ([ chk vp "prand" dst;
                 spf "let vm = to_int %s in" (fe_expr modulus);
                 charge_pe nv ]
              @ dm x
                  [ spf "for p = 0 to %d do Array.unsafe_set %s p (rand_mod vm) done;"
                      (nv - 1) out ]
                  [ spf
                      "for p = 0 to %d do if Array.unsafe_get mask p then Array.unsafe_set %s p (rand_mod vm) done;"
                      (nv - 1) out ])
        | KFloat ->
            seq
              [ chk vp "prand" dst;
                spf "let _ = to_int %s in" (fe_expr modulus);
                charge_pe nv;
                "raise (fail \"prand into a float field\");" ])
    | Psel (dst, cnd, a, b) -> (
        let vp, nv, kind = pfield env dst in
        let x = xctx vp and out = fld dst in
        let rc = rfloat env vp "vc" cnd in
        let pre = [ chk vp "psel" dst; charge_pe nv ] in
        match kind with
        | KInt ->
            let ra = rint env vp "va" a and rb = rint env vp "vb" b in
            seq
              (pre
              @ bind_ops [ rc; ra; rb ] (fun ss ->
                    match ss with
                    | [ sc; sa; sb ] ->
                        elem_loops x out nv
                          (spf "(if %s then %s else %s)" (selt sc) (ig sa) (ig sb))
                    | _ -> assert false))
        | KFloat ->
            let ra = rfloat env vp "va" a and rb = rfloat env vp "vb" b in
            seq
              (pre
              @ bind_ops [ rc; ra; rb ] (fun ss ->
                    match ss with
                    | [ sc; sa; sb ] ->
                        elem_loops x out nv
                          (spf "(if %s then %s else %s)" (selt sc) (fg sa) (fg sb))
                    | _ -> assert false)))
    | Preduce (op, r, f) -> (
        let vp, nv, kind = pfield env f in
        let x = xctx vp and src = fld f in
        let pre = [ chk vp "preduce" f; charge_red nv ] in
        match kind with
        | KInt when op = Any ->
            seq
              (pre
              @ [ spf "let v = if Cm.Context.all_active %s && %d > 0 then Array.get %s 0" x nv src;
                  spf "  else begin let mask = Cm.Context.active %s in" x;
                  spf
                    "    let rec go p = if p >= %d then Cm.Paris.inf_int else if Array.get mask p then Array.get %s p else go (p + 1) in go 0 end in"
                    nv src;
                  spf "Array.set regs %d (SInt v);" r ])
        | KFloat when op = Any ->
            seq
              (pre
              @ [ spf "let v = if Cm.Context.all_active %s && %d > 0 then Array.get %s 0" x nv src;
                  spf "  else begin let mask = Cm.Context.active %s in" x;
                  spf
                    "    let rec go p = if p >= %d then infinity else if Array.get mask p then Array.get %s p else go (p + 1) in go 0 end in"
                    nv src;
                  spf "Array.set regs %d (SFloat v);" r ])
        | KInt -> (
            (* the reference evaluates the identity before the operator *)
            match (try Ok (identity op KInt) with Invalid_argument msg -> Error msg) with
            | Error msg -> seq (pre @ [ spf "raise (Invalid_argument %S);" msg ])
            | Ok (SFloat _) ->
                seq (pre @ [ "raise (fail \"expected an int scalar, got a float\");" ])
            | Ok (SInt iv) ->
                let ident = int_lit iv in
                seq
                  (pre
                  @ fold x nv ~init:ident
                      ~step:(int_expr op "!acc" (spf "(Array.unsafe_get %s p)" src))
                  @ [ spf "Array.set regs %d (SInt v);" r ]))
        | KFloat -> (
            match (try Ok (identity op KFloat) with Invalid_argument msg -> Error msg) with
            | Error msg -> seq (pre @ [ spf "raise (Invalid_argument %S);" msg ])
            | Ok s -> (
                let fv = match s with SInt iv -> float_of_int iv | SFloat f -> f in
                match float_expr op with
                | Error msg -> seq (pre @ [ spf "raise (fail %S);" msg ])
                | Ok fexp ->
                    let ident = float_lit fv in
                    seq
                      (pre
                      @ fold x nv ~init:ident
                          ~step:(fexp "!acc" (spf "(Array.unsafe_get %s p)" src))
                      @ [ spf "Array.set regs %d (SFloat v);" r ]))))
    | Pcount r ->
        seq
          [ "let sz = cur_size () in";
            "Cm.Cost.charge_reduce meter ~size:sz;";
            spf "Array.set regs %d (SInt (Cm.Context.count_active (Array.get ctxs !cur)));" r ]
    | Pget _ | Psend _ | Pnews _ | Ptable _ | Preduce_axis _ | Pscan _ ->
        (* order-sensitive / can-fault: keep interpreter semantics *)
        None
  with Fallback -> None

let source prog =
  let env = make_env prog in
  let b = Buffer.create 65536 in
  let add fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  add "(* ucc native code, generated by Cm.Codegen v%d for ir %s." version (key prog);
  add "   Mirrors the fast engine's kernels instruction for instruction; do not edit. *)";
  add "[@@@warning \"-a\"]";
  add "";
  add "let () =";
  add "  Cm.Codegen.register (fun c budget0 ->";
  add "    let open Cm.Codegen in";
  add "    let open Cm.Paris in";
  add "    let regs = c.c_regs in";
  add "    let meter = c.c_meter in";
  add "    let sizes = c.c_sizes in";
  add "    let ctxs = c.c_ctxs in";
  add "    let fail = c.c_fail in";
  add "    let not_cur = c.c_not_cur in";
  add "    let out_line = c.c_emit in";
  add "    let region = c.c_region in";
  add "    let kernel = c.c_kernel in";
  add "    let fe_bin = c.c_fe_bin in";
  add "    let fe_unop = c.c_fe_unop in";
  add "    let to_int = c.c_to_int in";
  add "    let to_float = c.c_to_float in";
  add "    let truthy = c.c_truthy in";
  Array.iteri
    (fun f (_, kind) ->
      match kind with
      | KInt -> add "    let f%d = Array.get c.c_ints %d in" f f
      | KFloat -> add "    let f%d = Array.get c.c_floats %d in" f f)
    prog.fields;
  Array.iteri (fun v _ -> add "    let x%d = Array.get c.c_ctxs %d in" v v) prog.geoms;
  add "    let pc = ref c.c_pc in";
  add "    let fuel = ref c.c_fuel in";
  add "    let icount = ref c.c_icount in";
  add "    let rand = ref c.c_rand in";
  add "    let cur = ref c.c_cur in";
  add "    let racc = ref c.c_racc in";
  add "    let budget = ref budget0 in";
  add "    let finish () =";
  add "      c.c_pc <- !pc; c.c_fuel <- !fuel; c.c_icount <- !icount;";
  add "      c.c_rand <- !rand; c.c_cur <- !cur; c.c_racc <- !racc in";
  add "    let kern i = kernel i !cur in";
  add "    let cur_size () =";
  add "      if !cur < 0 then raise (fail \"no VP set selected (missing Cwith)\")";
  add "      else Array.get sizes !cur in";
  add "    let rand_mod modv =";
  add "      if modv <= 0 then raise (fail (Printf.sprintf \"rand: non-positive modulus %%d\" modv));";
  add "      rand := ((!rand * 1103515245) + 12345) land 0x3FFFFFFF;";
  add "      !rand mod modv in";
  add "    let rec step () =";
  add "      if !pc < %d && !budget > 0 then begin" env.e_ncode;
  add "        if !fuel <= 0 then raise (fail \"fuel exhausted (non-terminating program?)\");";
  add "        let i = !pc in";
  add "        fuel := !fuel - 1;";
  add "        icount := !icount + 1;";
  add "        pc := i + 1;";
  add "        budget := !budget - 1;";
  add "        let t0 = meter.Cm.Cost.elapsed_ns in";
  add "        (match i with";
  Array.iteri
    (fun i ins ->
      match arm env ins with
      | None -> add "        | %d -> kern %d" i i
      | Some [ "();" ] -> () (* Label/Comment: the default arm *)
      | Some body ->
          add "        | %d -> (* %s *)" i (mnemonic ins);
          List.iter (fun l -> add "          %s" l) body;
          add "          ()")
    prog.code;
  add "        | _ -> ());";
  add "        let dt = meter.Cm.Cost.elapsed_ns -. t0 in";
  add "        if dt > 0.0 then begin let acc = !racc in acc := !acc +. dt end;";
  add "        step ()";
  add "      end in";
  add "    (try step () with e -> finish (); raise e);";
  add "    finish ())";
  Buffer.contents b

let coverage prog =
  let env = make_env prog in
  let native = Hashtbl.create 8 and fb = Hashtbl.create 8 in
  Array.iter
    (fun ins ->
      let tbl = match arm env ins with Some _ -> native | None -> fb in
      let mn = mnemonic ins in
      Hashtbl.replace tbl mn (1 + Option.value ~default:0 (Hashtbl.find_opt tbl mn)))
    prog.code;
  let dump t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t [] |> List.sort compare in
  (dump native, dump fb)

(* ---- store hook, toolchain probe, build and load ---- *)

type store = {
  st_load : string -> string option;
  st_save : string -> string -> unit;
  st_record : codegen_ms:float -> build_ms:float -> unit;
}

let store_hook : store option ref = ref None
let set_store s = store_hook := s

let forced : string option ref = ref None
let force_unavailable r = forced := r

type stats = {
  mem_hits : int;
  disk_hits : int;
  builds : int;
  codegen_ms : float;
  build_ms : float;
}

let g_mem_hits = ref 0
let g_disk_hits = ref 0
let g_builds = ref 0
let g_codegen_ms = ref 0.0
let g_build_ms = ref 0.0

let stats () =
  { mem_hits = !g_mem_hits; disk_hits = !g_disk_hits; builds = !g_builds;
    codegen_ms = !g_codegen_ms; build_ms = !g_build_ms }

type tc = { cc : string; incs : string list }

(* The generated module is compiled against this build's own .cmi/.cmx
   artifacts, found by walking up from the running executable to the
   dune build root (works for bin/ucc.exe, test and bench binaries
   alike). *)
let find_build_root () =
  let marker = "lib/cm/.cm.objs/byte/cm.cmi" in
  let rec up d n =
    if n > 8 then None
    else if Sys.file_exists (Filename.concat d marker) then Some d
    else
      let parent = Filename.dirname d in
      if parent = d then None else up parent (n + 1)
  in
  up (Filename.dirname Sys.executable_name) 0

let toolchain =
  lazy
    (if not Dynlink.is_native then Error Bytecode_only
     else
       let probe cmd = Sys.command (cmd ^ " -version >/dev/null 2>&1") = 0 in
       let cc =
         if probe "ocamlfind ocamlopt" then Some "ocamlfind ocamlopt"
         else if probe "ocamlopt" then Some "ocamlopt"
         else None
       in
       match cc with
       | None -> Error (No_toolchain "ocamlfind/ocamlopt not on PATH")
       | Some cc -> (
           match find_build_root () with
           | None ->
               Error
                 (No_toolchain
                    "compiled cm library artifacts not found near the executable")
           | Some root ->
               let incs =
                 List.filter Sys.file_exists
                   [ Filename.concat root "lib/cm/.cm.objs/byte";
                     Filename.concat root "lib/cm/.cm.objs/native";
                     Filename.concat root "lib/obs/.obs.objs/byte";
                     Filename.concat root "lib/obs/.obs.objs/native" ]
               in
               Ok { cc; incs }))

let available () =
  match !forced with
  | Some why -> Error (describe (Disabled why))
  | None -> (
      match Lazy.force toolchain with Ok _ -> Ok () | Error r -> Error (describe r))

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let fresh_dir () =
  let f = Filename.temp_file "ucc_native" "" in
  Sys.remove f;
  Sys.mkdir f 0o700;
  f

let rm_rf dir =
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
       (Sys.readdir dir)
   with Sys_error _ -> ());
  try Sys.rmdir dir with Sys_error _ -> ()

let flatten s = String.map (fun ch -> if ch = '\n' then ' ' else ch) s

let tail_of_log path =
  match (try Some (read_file path) with Sys_error _ -> None) with
  | None -> "no build log"
  | Some s ->
      let s = String.trim s in
      let n = 400 in
      if String.length s <= n then flatten s
      else "..." ^ flatten (String.sub s (String.length s - n) n)

let dynload path =
  pending := None;
  try Dynlink.loadfile_private path with
  | Dynlink.Error e -> raise (Unavailable (Dynlink_failed (Dynlink.error_message e)))
  | Unavailable _ as e -> raise e
  | e -> raise (Unavailable (Dynlink_failed (Printexc.to_string e)))

let take_pending what =
  match !pending with
  | Some e ->
      pending := None;
      e
  | None -> raise (Unavailable (Dynlink_failed (what ^ " did not register an entry")))

let base_name k = "ucc_native_" ^ String.sub k 0 12

(* Load a cached .cmxs blob: materialize it in a scratch dir (Dynlink
   reads the whole file at load time, so the dir can go right away). *)
let load_blob k bytes =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir (base_name k ^ ".cmxs") in
  write_file path bytes;
  dynload path;
  take_pending "cached artifact"

(* Emit, compile and load; returns the entry plus the raw .cmxs bytes
   for the store.  Timings are wall-clock: the build cost is dominated
   by the child compiler, which process CPU time doesn't see. *)
let build_entry tc k prog =
  let t0 = Unix.gettimeofday () in
  let src = source prog in
  let t1 = Unix.gettimeofday () in
  let dir = fresh_dir () in
  let entry, bytes =
    Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
    let base = base_name k in
    let ml = Filename.concat dir (base ^ ".ml") in
    let cmxs = Filename.concat dir (base ^ ".cmxs") in
    let log = Filename.concat dir "build.log" in
    write_file ml src;
    let cmd =
      spf "%s -w -a -shared %s -o %s %s > %s 2>&1" tc.cc
        (String.concat " " (List.map (fun d -> "-I " ^ Filename.quote d) tc.incs))
        (Filename.quote cmxs) (Filename.quote ml) (Filename.quote log)
    in
    if Sys.command cmd <> 0 then raise (Unavailable (Build_failed (tail_of_log log)));
    let bytes = read_file cmxs in
    dynload cmxs;
    (take_pending "built artifact", bytes)
  in
  let t2 = Unix.gettimeofday () in
  (entry, bytes, (t1 -. t0) *. 1000., (t2 -. t1) *. 1000.)

let lock = Mutex.create ()
let memo : (string, entry) Hashtbl.t = Hashtbl.create 16

let entry_for ?(obs = Obs.null) prog =
  (match !forced with
  | Some why -> raise (Unavailable (Disabled why))
  | None -> ());
  let k = key prog in
  Mutex.protect lock (fun () ->
      match Hashtbl.find_opt memo k with
      | Some e ->
          incr g_mem_hits;
          e
      | None ->
          if not Dynlink.is_native then raise (Unavailable Bytecode_only);
          let from_store =
            match !store_hook with
            | None -> None
            | Some st -> (
                match st.st_load k with
                | None -> None
                | Some bytes -> (
                    (* a stale or corrupt artifact is not fatal: fall
                       through and rebuild over it *)
                    try
                      let e = load_blob k bytes in
                      incr g_disk_hits;
                      Some e
                    with Unavailable _ -> None))
          in
          let e =
            match from_store with
            | Some e -> e
            | None ->
                let tc =
                  match Lazy.force toolchain with
                  | Ok tc -> tc
                  | Error r -> raise (Unavailable r)
                in
                Obs.with_span obs "cm.codegen" (fun () ->
                    let e, bytes, codegen_ms, build_ms = build_entry tc k prog in
                    incr g_builds;
                    g_codegen_ms := !g_codegen_ms +. codegen_ms;
                    g_build_ms := !g_build_ms +. build_ms;
                    (match !store_hook with
                    | Some st ->
                        (try st.st_save k bytes with Sys_error _ -> ());
                        st.st_record ~codegen_ms ~build_ms
                    | None -> ());
                    e)
          in
          Hashtbl.replace memo k e;
          e)
