(** Abstract syntax of UC programs.

    UC is C restricted (no [goto], pointers only as array parameters)
    plus: the [index-set] type, the [$op] reduction expression, the
    [par]/[seq]/[solve]/[oneof] constructs with [st]/[others] blocks and
    the iterative [*] prefix, and the [map] section (paper section 3). *)

type binop =
  | Add | Sub | Mul | Div | Mod
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor
  | Band | Bor | Bxor | Shl | Shr

type unop = Neg | Lnot | Bnot

(** Reduction operators with their identity values (paper table 3.2):
    [$+] 0, [$&] 1, [$>] -INF, [$<] INF, [$*] 1, [$|] 0, [$^] 0,
    [$,] (arbitrary operand) INF. *)
type redop = Rsum | Rland | Rmax | Rmin | Rprod | Rlor | Rxor | Rarb

type base_ty = Tint | Tfloat

type expr = { e : expr_desc; eloc : Loc.t }

and expr_desc =
  | Eint of int
  | Efloat of float
  | Estr of string                           (* only as a print() argument *)
  | Einf                                     (* the predefined constant INF *)
  | Evar of string                           (* variable or index element *)
  | Eindex of expr * expr list               (* a[i][j] *)
  | Ebin of binop * expr * expr
  | Eun of unop * expr
  | Econd of expr * expr * expr              (* c ? a : b *)
  | Ecall of string * expr list
  | Ereduce of reduction

and reduction = {
  rop : redop;
  rsets : string list;             (* index sets; multiple = Cartesian product *)
  rbranches : (expr option * expr) list;  (* [st (pred)] exp *)
  rothers : expr option;
}

(** Assignment operators: [=], [+=], [-=], [*=], [/=], [%=], and the
    C* -inspired min/max assignments [<?=] and [>?=] used by the optimizer. *)
type assign_op = Aset | Aadd | Asub | Amul | Adiv | Amod | Amin | Amax

type stmt = { s : stmt_desc; sloc : Loc.t }

and stmt_desc =
  | Sexpr of expr
  | Sassign of assign_op * expr * expr       (* lvalue op= rhs *)
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sfor of stmt option * expr option * stmt option * stmt
  | Sblock of block
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Spar of par_stmt        (* par / seq / solve / oneof share a shape *)
  | Sseq of par_stmt
  | Ssolve of par_stmt
  | Soneof of par_stmt
  | Sempty

and par_stmt = {
  iterate : bool;                            (* '*' prefix *)
  psets : string list;
  pbranches : (expr option * stmt) list;     (* [st (pred)] stmt *)
  pothers : stmt option;
}

and block = { bdecls : decl list; bstmts : stmt list }

and decl =
  | Dvar of base_ty * declarator list
  | Dindexset of iset_def list

and declarator = {
  dname : string;
  ddims : expr list;                         (* [] for scalars *)
  dinit : expr option;
  dloc : Loc.t;
}

and iset_def = {
  set_name : string;
  elem_name : string;
  ispec : iset_spec;
  iloc : Loc.t;
}

and iset_spec =
  | Irange of expr * expr                    (* {lo .. hi} *)
  | Ilist of expr list                       (* {4, 2, 9} *)
  | Ialias of string                         (* J:j = I *)

type param = { pname : string; pty : base_ty; prank : int; ploc : Loc.t }
(** [prank] > 0 means an array parameter of that rank, passed by
    reference (the only pointer use UC allows). *)

type func = {
  fname : string;
  fret : base_ty option;                     (* None = void *)
  fparams : param list;
  fbody : block;
  floc : Loc.t;
}

(** Data-mapping declarations (paper section 4).  [permute] reorders an
    array relative to its default layout by an affine offset per axis;
    [fold] folds an axis by a factor; [copy] replicates along a new axis. *)
type mapping =
  | Mpermute of permute                      (* "permute (I) b[i+1] :- a[i];" *)
  | Mfold of string * int * Loc.t            (* "fold a by 2;" *)
  | Mcopy of string * expr * Loc.t           (* "copy a along N;" *)

and permute = {
  pmsets : string list;      (* the index sets the mapping ranges over *)
  ptarget : string;          (* the array being re-laid-out *)
  ptsubs : expr list;        (* its subscripts, in terms of the index elems *)
  psource : string;          (* the reference array *)
  pssubs : string list;      (* its subscripts: plain index elements *)
  mloc : Loc.t;
}

type map_section = { msets : string list; mmappings : mapping list }

type top =
  | Tdecl of decl
  | Tfunc of func
  | Tmap of map_section

type program = top list

(* ---- small accessors used across phases ---- *)

let redop_name = function
  | Rsum -> "$+" | Rland -> "$&" | Rmax -> "$>" | Rmin -> "$<"
  | Rprod -> "$*" | Rlor -> "$|" | Rxor -> "$^" | Rarb -> "$,"

let binop_name = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Eq -> "==" | Ne -> "!=" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Land -> "&&" | Lor -> "||"
  | Band -> "&" | Bor -> "|" | Bxor -> "^" | Shl -> "<<" | Shr -> ">>"

(* binding strength of each binary operator, higher binds tighter (C's
   levels); every level is left-associative.  The parser climbs these
   levels and the pretty-printer parenthesizes by them. *)
let binop_prec = function
  | Lor -> 1
  | Land -> 2
  | Bor -> 3
  | Bxor -> 4
  | Band -> 5
  | Eq | Ne -> 6
  | Lt | Le | Gt | Ge -> 7
  | Shl | Shr -> 8
  | Add | Sub -> 9
  | Mul | Div | Mod -> 10

let unop_name = function Neg -> "-" | Lnot -> "!" | Bnot -> "~"

let assign_op_name = function
  | Aset -> "=" | Aadd -> "+=" | Asub -> "-=" | Amul -> "*=" | Adiv -> "/="
  | Amod -> "%=" | Amin -> "<?=" | Amax -> ">?="

let base_ty_name = function Tint -> "int" | Tfloat -> "float"
