(** Code optimizations (paper section 4, "code optimizations").

    This module performs the source-level 'peep-hole' optimizations the
    paper lists: constant folding and algebraic simplification.  Common
    sub-expression elimination is performed during code generation (see
    {!Codegen}), where context masks make validity explicit, and the
    processor optimization lives there too. *)

(** [fold_program p] folds constant sub-expressions ([2 * 8 - 1] becomes
    [15]) with the machine's arithmetic ({!Builtins}, through
    {!Cm.Paris}), keeping any operation the machine would fault on, and
    applies safe algebraic identities ([x + 0], [x * 1], [x * 0] when
    [x] is pure and cannot fault, [!!x] on predicates, constant selections of
    [?:] and short-circuit operators with constant left sides). *)
val fold_program : Ast.program -> Ast.program

(** [fold_expr e] folds one expression. *)
val fold_expr : Ast.expr -> Ast.expr
