type kind = KInt | KFloat

type _ elt = EInt : int elt | EFloat : float elt

type binop =
  | Add | Sub | Mul | Div | Mod
  | Min | Max
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor
  | Band | Bor | Bxor | Shl | Shr
  | Any

type unop = Neg | Lnot | Bnot | ToFloat | ToInt | Abs

type scalar = SInt of int | SFloat of float

type operand = Reg of int | Imm of scalar | Fld of int

type combine = Ccheck | Cover | Cadd | Cmin | Cmax | Cor | Cand | Cxor

type instr =
  | Fmov of int * operand
  | Fbin of binop * int * operand * operand
  | Funop of unop * int * operand
  | Frand of int * operand
  | Fread of int * int * operand
  | Fwrite of int * operand * operand
  | Jmp of int
  | Jz of operand * int
  | Jnz of operand * int
  | Label of int
  | Halt
  | Comment of string
  | Region of string
  | Fprint of string * operand option
  | Pmov of int * operand
  | Pbin of binop * int * operand * operand
  | Punop of unop * int * operand
  | Pcoord of int * int
  | Ptable of int * int array
  | Prand of int * operand
  | Psel of int * operand * operand * operand
  | Pget of int * int * int
  | Psend of int * int * int * combine
  | Pnews of int * int * int * int
  | Preduce of binop * int * int
  | Pcount of int
  | Preduce_axis of binop * int * int
  | Pscan of binop * int * int * int
  | Cwith of int
  | Cpush
  | Cand of int
  | Cpop
  | Creset
  | Cread of int

type program = {
  name : string;
  geoms : Geometry.t array;
  fields : (int * kind) array;
  nregs : int;
  nlabels : int;
  code : instr array;
}

let inf_int = 1073741823 (* 2^30 - 1: safe to add two of these in 63-bit ints *)

let identity op kind =
  match op, kind with
  | Add, KInt -> SInt 0
  | Add, KFloat -> SFloat 0.0
  | Mul, KInt -> SInt 1
  | Mul, KFloat -> SFloat 1.0
  | Min, KInt -> SInt inf_int
  | Min, KFloat -> SFloat infinity
  | Max, KInt -> SInt (-inf_int)
  | Max, KFloat -> SFloat neg_infinity
  | Land, KInt -> SInt 1
  | Lor, KInt -> SInt 0
  | Band, KInt -> SInt (-1)
  | Bor, KInt -> SInt 0
  | Bxor, KInt -> SInt 0
  | Any, KInt -> SInt inf_int
  | Any, KFloat -> SFloat infinity
  | _ -> invalid_arg "Paris.identity: operator is not reducible at this kind"

let is_cmp = function Eq | Ne | Lt | Le | Gt | Ge -> true | _ -> false

let int_op_total op b =
  match op with
  | Add | Sub | Mul | Min | Max | Land | Lor | Band | Bor | Bxor | Eq | Ne
  | Lt | Le | Gt | Ge ->
      true
  | Div | Mod -> ( match b with Imm (SInt k) -> k <> 0 | _ -> false)
  | Shl | Shr -> (
      match b with
      | Imm (SInt k) -> k >= 0 && k < Sys.int_size
      | _ -> false)
  | Any -> false

let binop_name = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Mod -> "mod"
  | Min -> "min" | Max -> "max"
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"
  | Land -> "land" | Lor -> "lor"
  | Band -> "band" | Bor -> "bor" | Bxor -> "bxor" | Shl -> "shl" | Shr -> "shr"
  | Any -> "any"

let unop_name = function
  | Neg -> "neg" | Lnot -> "lnot" | Bnot -> "bnot"
  | ToFloat -> "tofloat" | ToInt -> "toint" | Abs -> "abs"

let combine_name = function
  | Ccheck -> "check" | Cover -> "over" | Cadd -> "add" | Cmin -> "min"
  | Cmax -> "max" | Cor -> "or" | Cand -> "and" | Cxor -> "xor"

let pp_binop fmt op = Format.pp_print_string fmt (binop_name op)

let pp_scalar fmt = function
  | SInt i -> Format.fprintf fmt "%d" i
  | SFloat f -> Format.fprintf fmt "%g" f

let pp_operand fmt = function
  | Reg r -> Format.fprintf fmt "r%d" r
  | Imm s -> Format.fprintf fmt "#%a" pp_scalar s
  | Fld f -> Format.fprintf fmt "f%d" f

let pp_instr fmt instr =
  let f = Format.fprintf in
  let o = pp_operand in
  match instr with
  | Fmov (r, a) -> f fmt "fmov r%d, %a" r o a
  | Fbin (op, r, a, b) -> f fmt "f%s r%d, %a, %a" (binop_name op) r o a o b
  | Funop (op, r, a) -> f fmt "f%s r%d, %a" (unop_name op) r o a
  | Frand (r, a) -> f fmt "frand r%d, %a" r o a
  | Fread (r, fld, a) -> f fmt "fread r%d, f%d[%a]" r fld o a
  | Fwrite (fld, a, v) -> f fmt "fwrite f%d[%a], %a" fld o a o v
  | Jmp l -> f fmt "jmp L%d" l
  | Jz (a, l) -> f fmt "jz %a, L%d" o a l
  | Jnz (a, l) -> f fmt "jnz %a, L%d" o a l
  | Label l -> f fmt "L%d:" l
  | Halt -> f fmt "halt"
  | Comment s -> f fmt "; %s" s
  | Region s -> f fmt "; --- %s ---" s
  | Fprint (s, None) -> f fmt "fprint %S" s
  | Fprint (s, Some a) -> f fmt "fprint %S, %a" s o a
  | Pmov (d, a) -> f fmt "pmov f%d, %a" d o a
  | Pbin (op, d, a, b) -> f fmt "p%s f%d, %a, %a" (binop_name op) d o a o b
  | Punop (op, d, a) -> f fmt "p%s f%d, %a" (unop_name op) d o a
  | Pcoord (d, ax) -> f fmt "pcoord f%d, axis %d" d ax
  | Ptable (d, t) -> f fmt "ptable f%d, [%d entries]" d (Array.length t)
  | Prand (d, a) -> f fmt "prand f%d, %a" d o a
  | Psel (d, c, a, b) -> f fmt "psel f%d, %a ? %a : %a" d o c o a o b
  | Pget (d, s, a) -> f fmt "pget f%d, f%d[f%d]" d s a
  | Psend (d, s, a, c) -> f fmt "psend f%d[f%d], f%d (%s)" d a s (combine_name c)
  | Pnews (d, s, ax, delta) -> f fmt "pnews f%d, f%d, axis %d, delta %d" d s ax delta
  | Preduce (op, r, fld) -> f fmt "preduce-%s r%d, f%d" (binop_name op) r fld
  | Pcount r -> f fmt "pcount r%d" r
  | Preduce_axis (op, d, s) -> f fmt "preduce-axis-%s f%d, f%d" (binop_name op) d s
  | Pscan (op, d, s, ax) -> f fmt "pscan-%s f%d, f%d, axis %d" (binop_name op) d s ax
  | Cwith v -> f fmt "with vp%d" v
  | Cpush -> f fmt "cpush"
  | Cand fld -> f fmt "cand f%d" fld
  | Cpop -> f fmt "cpop"
  | Creset -> f fmt "creset"
  | Cread fld -> f fmt "cread f%d" fld

let pp_program fmt p =
  Format.fprintf fmt "@[<v>; program %s@ " p.name;
  Array.iteri
    (fun i g -> Format.fprintf fmt "; vp%d : %a@ " i Geometry.pp g)
    p.geoms;
  Array.iteri
    (fun i (vp, kind) ->
      Format.fprintf fmt "; f%d : vp%d %s@ " i vp
        (match kind with KInt -> "int" | KFloat -> "float"))
    p.fields;
  Array.iter
    (fun instr ->
      match instr with
      | Label _ -> Format.fprintf fmt "%a@ " pp_instr instr
      | _ -> Format.fprintf fmt "  %a@ " pp_instr instr)
    p.code;
  Format.fprintf fmt "@]"

module Builder = struct
  type t = {
    name : string;
    mutable geoms : Geometry.t list;  (* reversed *)
    mutable ngeoms : int;
    mutable fields : (int * kind) list;  (* reversed *)
    mutable nfields : int;
    mutable nregs : int;
    mutable nlabels : int;
    mutable code : instr list;  (* reversed *)
  }

  let create name =
    { name; geoms = []; ngeoms = 0; fields = []; nfields = 0; nregs = 0;
      nlabels = 0; code = [] }

  let vpset b g =
    let id = b.ngeoms in
    b.geoms <- g :: b.geoms;
    b.ngeoms <- id + 1;
    id

  let field b ~vpset kind =
    if vpset < 0 || vpset >= b.ngeoms then
      invalid_arg "Paris.Builder.field: unknown vpset";
    let id = b.nfields in
    b.fields <- (vpset, kind) :: b.fields;
    b.nfields <- id + 1;
    id

  let reg b =
    let id = b.nregs in
    b.nregs <- id + 1;
    id

  let label b =
    let id = b.nlabels in
    b.nlabels <- id + 1;
    id

  let emit b instr = b.code <- instr :: b.code

  let place b l = emit b (Label l)

  let geom_of b vp =
    if vp < 0 || vp >= b.ngeoms then invalid_arg "Paris.Builder.geom_of";
    List.nth b.geoms (b.ngeoms - 1 - vp)

  let field_info b fld =
    if fld < 0 || fld >= b.nfields then invalid_arg "Paris.Builder.field_info";
    List.nth b.fields (b.nfields - 1 - fld)

  let finish b =
    {
      name = b.name;
      geoms = Array.of_list (List.rev b.geoms);
      fields = Array.of_list (List.rev b.fields);
      nregs = b.nregs;
      nlabels = b.nlabels;
      code = Array.of_list (List.rev b.code);
    }
end
