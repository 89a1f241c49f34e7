(** Builtin functions of the UC implementation.

    [power2], [abs], [min], [max] and [rand] appear in the paper's
    programs; [tofloat]/[toint] stand in for C casts; [swap] is the
    exchange procedure used by the odd-even transposition sort example;
    [print] is a front-end output facility for examples and the CLI.

    A value builtin's row is the one place that gives its signature and
    the Paris operation it lowers to, on the front end and on the PEs
    alike: [Sema] types calls from it, [Codegen] lowers them, and the
    compile-time evaluations ([Sema.const_eval], [Optimize.fold_expr],
    the subscript evaluator behind the tuner) compute them from it. *)

(* an argument or result type: [Num] accepts either type, and as a
   result it is float when some argument is *)
type ty = Int | Float | Num

type paris =
  | Unop of Cm.Paris.unop                 (* op x *)
  | Binop of Cm.Paris.binop               (* x op y *)
  | Const_binop of int * Cm.Paris.binop   (* k op x *)
  | Rand of int                           (* a random int in [0, n) *)

type kind =
  | Value of { args : ty list; result : ty; paris : paris }
  | Swap                   (* statement-level, two lvalue arguments *)
  | Print                  (* front-end only, variadic *)

let table : (string * kind) list =
  let value args result paris = Value { args; result; paris } in
  [
    ("power2", value [ Int ] Int (Const_binop (1, Cm.Paris.Shl)));
    ("abs", value [ Num ] Num (Unop Cm.Paris.Abs));
    ("min", value [ Num; Num ] Num (Binop Cm.Paris.Min));
    ("max", value [ Num; Num ] Num (Binop Cm.Paris.Max));
    ("tofloat", value [ Num ] Float (Unop Cm.Paris.ToFloat));
    ("toint", value [ Num ] Int (Unop Cm.Paris.ToInt));
    ("rand", value [] Int (Rand 0x40000000));
    ("swap", Swap);
    ("print", Print);
  ]

let lookup name = List.assoc_opt name table
let is_builtin name = lookup name <> None

(* a value builtin without side effects: every one but rand *)
let pure name =
  match lookup name with
  | Some (Value { paris = Rand _; _ }) | Some (Swap | Print) | None -> false
  | Some (Value _) -> true

(* the type of a call whose arguments [args] have types [arg_ty] *)
let result_ty result arg_ty args =
  match result with
  | Int -> Ast.Tint
  | Float -> Ast.Tfloat
  | Num ->
      if List.exists (fun a -> arg_ty a = Ast.Tfloat) args then Ast.Tfloat
      else Ast.Tint

(* the Paris operator each UC operator lowers to *)
let paris_binop : Ast.binop -> Cm.Paris.binop = function
  | Add -> Add | Sub -> Sub | Mul -> Mul | Div -> Div | Mod -> Mod
  | Eq -> Eq | Ne -> Ne | Lt -> Lt | Le -> Le | Gt -> Gt | Ge -> Ge
  | Land -> Land | Lor -> Lor
  | Band -> Band | Bor -> Bor | Bxor -> Bxor | Shl -> Shl | Shr -> Shr

let paris_unop : Ast.unop -> Cm.Paris.unop = function
  | Neg -> Neg | Lnot -> Lnot | Bnot -> Bnot

(* the int value of the call [name(args)], computed from the row as the
   machine computes it: None unless [name] is a value builtin with an
   int result on int arguments of the right number (so not [tofloat]
   and not [rand]).  Raises [Cm.Paris.Program_error] exactly where the
   machine faults. *)
let int_value name args =
  match lookup name, args with
  | Some (Value { result = Int | Num; paris = Unop op; _ }), [ x ] ->
      Some (Cm.Paris.int_unop op x)
  | Some (Value { result = Int | Num; paris = Binop op; _ }), [ x; y ] ->
      Some (Cm.Paris.int_binop op x y)
  | Some (Value { result = Int | Num; paris = Const_binop (k, op); _ }), [ x ] ->
      Some (Cm.Paris.int_binop op k x)
  | _ -> None

(* an operand as the machine's fault check sees it: a known int, or a
   register standing for any value *)
let operand (e : Ast.expr) =
  match e.e with Eint i -> Cm.Paris.Imm (SInt i) | _ -> Cm.Paris.Reg 0

(* whether [x op b] cannot fault, whatever [x] (as
   [Cm.Paris.int_op_total] decides it) *)
let total_binop op b = Cm.Paris.int_op_total (paris_binop op) (operand b)

(* whether the call [name(args)] cannot fault, whatever the values of
   its non-literal arguments *)
let total name args =
  match lookup name, args with
  | Some (Value { paris = Binop op; _ }), [ _; b ]
  | Some (Value { paris = Const_binop (_, op); _ }), [ b ] ->
      Cm.Paris.int_op_total op (operand b)
  | _ -> true
