(** Semantic analysis for UC.

    Checks performed (paper section 3):
    - name resolution with C-style block scoping; index elements are in
      scope only inside constructs that iterate their set, and inner uses
      of a set hide outer ones;
    - index-set bounds must be compile-time constants;
    - type checking of expressions, assignments, predicates and
      reductions ([$&], [$|], [$^] require int operands);
    - parallel-context legality: assignments target array elements or
      par-local scalars; [print] and [return] are front-end only;
    - [solve] bodies must be assignment statements (proper sets);
    - function calls: arity/kinds, no recursion, array parameters by
      reference with matching rank; functions called inside parallel
      constructs must be inlinable (straight-line, single return);
    - map sections: arrays exist, permute subscripts are affine in the
      index elements, fold factors divide the folded extent. *)

type array_info = { aty : Ast.base_ty; adims : int list }

(** Resolved compile-time information handed to later phases. *)
type info = {
  global_arrays : (string * array_info) list;
  global_scalars : (string * Ast.base_ty) list;
  global_sets : (string * int array) list;  (* set name -> element values *)
  funcs : (string * Ast.func) list;
}

(** [check program] validates a parsed program.  A program without a
    [main] function is reported last, at [eof] (the end of the source,
    {!Loc.end_of}).
    @raise Loc.Error with a source location on the first violation. *)
val check : ?eof:Loc.t -> Ast.program -> info

(** [const_eval e] evaluates a compile-time constant integer expression.
    @raise Loc.Error if the expression is not constant. *)
val const_eval : Ast.expr -> int
