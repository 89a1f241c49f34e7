(** Builtin functions of the UC implementation.

    [power2], [abs], [min], [max] and [rand] appear in the paper's
    programs; [tofloat]/[toint] stand in for C casts; [swap] is the
    exchange procedure used by the odd-even transposition sort example;
    [print] is a front-end output facility for examples and the CLI.

    A value builtin's row is the one place that gives its signature and
    the Paris operation it lowers to, on the front end and on the PEs
    alike: [Sema] types calls from it and [Codegen] lowers them. *)

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
