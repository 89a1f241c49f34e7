(** Paris-like intermediate representation.

    This is the "assembly language" of the simulated Connection Machine,
    loosely modelled on Thinking Machines' Paris instruction set.  A program
    runs on the front end (scalar registers, labels, branches) and issues
    parallel macro-instructions that operate elementwise on {e fields}
    (per-VP memory) of the currently selected VP set, under that set's
    activity context.

    Both the UC compiler and the C* baseline generate this IR; the
    {!Machine} module executes it and charges simulated time. *)

(** Element kind of a field or scalar. *)
type kind = KInt | KFloat

(** Typed witness of a field's element array.  Kernels that serve both
    kinds ({!News}, {!Router}) match on it once per call, so each branch
    accesses an [int array] or a [float array] monomorphically: no float
    boxing and no write barrier per element. *)
type _ elt = EInt : int elt | EFloat : float elt

type binop =
  | Add | Sub | Mul | Div | Mod
  | Min | Max
  | Eq | Ne | Lt | Le | Gt | Ge
  | Land | Lor            (** logical, 0/1-valued *)
  | Band | Bor | Bxor | Shl | Shr
  | Any                   (** reduction/combine only: an arbitrary operand *)

type unop = Neg | Lnot | Bnot | ToFloat | ToInt | Abs

type scalar = SInt of int | SFloat of float

(** Instruction operand: a front-end register, an immediate, or (for
    parallel instructions only) a field of the current VP set. *)
type operand = Reg of int | Imm of scalar | Fld of int

(** Combining rule for router sends. *)
type combine =
  | Ccheck  (** overwrite; distinct values to one destination are an error
                (UC single-assignment rule) *)
  | Cover   (** overwrite, arbitrary winner (the [$,] operator) *)
  | Cadd | Cmin | Cmax | Cor | Cand | Cxor

type instr =
  (* ---- front end ---- *)
  | Fmov of int * operand                  (** reg := scalar *)
  | Fbin of binop * int * operand * operand
  | Funop of unop * int * operand
  | Frand of int * operand                 (** reg := lcg () mod operand *)
  | Fread of int * int * operand           (** reg := field.(addr) *)
  | Fwrite of int * operand * operand      (** field.(addr) := value *)
  | Jmp of int
  | Jz of operand * int                    (** branch if operand = 0 *)
  | Jnz of operand * int
  | Label of int
  | Halt
  | Comment of string                      (** no-op; free *)
  | Region of string                       (** no-op; subsequent cost is
                                               attributed to this region in
                                               the machine's profile *)
  | Fprint of string * operand option     (** append to the output log; free *)
  (* ---- parallel (current VP set, under context) ---- *)
  | Pmov of int * operand                  (** field := broadcast/copy *)
  | Pbin of binop * int * operand * operand
  | Punop of unop * int * operand
  | Pcoord of int * int                    (** field := own coordinate on axis *)
  | Ptable of int * int array              (** field := compile-time table
                                               (loaded with the program) *)
  | Prand of int * operand                 (** field := lcg () mod operand *)
  | Psel of int * operand * operand * operand  (** dst := cond ? a : b *)
  | Pget of int * int * int                (** dst := src.(addr); router *)
  | Psend of int * int * int * combine     (** dst.(addr) ⊕= src; router *)
  | Pnews of int * int * int * int         (** dst, src, axis, delta: grid shift *)
  | Preduce of binop * int * int           (** reg := reduce over active of field *)
  | Pcount of int                          (** reg := number of active VPs *)
  | Preduce_axis of binop * int * int      (** dst field (outer set) := reduce
                                               src field over trailing axes *)
  | Pscan of binop * int * int * int       (** dst := scan src along axis *)
  (* ---- VP set / context ---- *)
  | Cwith of int                           (** select current VP set *)
  | Cpush
  | Cand of int                            (** context &= (field <> 0) *)
  | Cpop
  | Creset                                 (** reset context of current set *)
  | Cread of int                           (** field := context flag as 0/1
                                               (written for all VPs) *)

(** A complete program.  VP set [i] has geometry [geoms.(i)]; field [i]
    lives on VP set [fst fields.(i)] with kind [snd fields.(i)]. *)
type program = {
  name : string;
  geoms : Geometry.t array;
  fields : (int * kind) array;
  nregs : int;
  nlabels : int;
  code : instr array;
}

(** Hex MD5 of the marshalled IR (geometries, fields, register and
    label counts, code; not the name): the program's identity, as a
    checkpoint records it. *)
val digest : program -> string

(** Identity element of a reduction operator (paper table in section 3.2).
    @raise Invalid_argument for non-reducible operators. *)
val identity : binop -> kind -> scalar

(** The UC predefined constant INF, as an int (floats use [infinity]). *)
val inf_int : int

(** Every binary and every unary operator, in declaration order: the
    operator grids of the tests range over these. *)
val binops : binop list
val unops : unop list

(** Whether the operator is a comparison (result 0 or 1). *)
val is_cmp : binop -> bool

(** [int_op_total op b]: whether an int [op] with right operand [b] can
    never fault.  Division, modulo and shifts are total only when [b] is
    an immediate that provably never faults; [Any] never is. *)
val int_op_total : binop -> operand -> bool

(** {1 Operator evaluation}

    The one definition of what each operator computes.  The machine's
    kernels and the IR optimizer's constant folding all evaluate
    through these functions, so a folded constant is the value the
    machine would have computed, and a fold
    that would fault is abandoned (the instruction kept) rather than
    mis-evaluated. *)

(** The machine fault: raised on any dynamic error of a program (kind
    mismatch, division or modulo by zero, shift amount out of range, an
    operator applied where it is not valid, ...).  [Machine.Error] is
    this same exception. *)
exception Program_error of string

(** [error fmt ...] raises {!Program_error} with the formatted message. *)
val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** The scalar as an int.  @raise Program_error on a float. *)
val to_int : scalar -> int

(** The scalar as a float (ints are converted). *)
val to_float : scalar -> float

(** Whether the scalar is non-zero. *)
val truthy : scalar -> bool

(** [int_binop op] is the machine's int [op]: comparisons and logical
    operators give 0 or 1.  The returned function raises {!Program_error} on
    division or modulo by zero and on a shift amount outside
    [0, Sys.int_size - 1]; [int_binop Any] raises at once. *)
val int_binop : binop -> int -> int -> int

(** [float_binop op] is the machine's float [op].  Only the arithmetic
    operators and [Min]/[Max] are valid on floats.
    @raise Program_error for any other operator. *)
val float_binop : binop -> float -> float -> float

(** [float_cmp op] is the comparison [op] on floats.  Only defined for
    the operators where {!is_cmp} holds. *)
val float_cmp : binop -> float -> float -> bool

(** Front-end binary operator: comparisons compare as floats, logical
    operators by {!truthy}, bitwise operators and shifts need ints, and
    arithmetic stays int when both operands are ints.
    @raise Program_error as the underlying operator does. *)
val fe_bin : binop -> scalar -> scalar -> scalar

(** [int_unop op] is the machine's [op] from int to int ([ToInt] is the
    identity).  @raise Program_error for [ToFloat]. *)
val int_unop : unop -> int -> int

(** [float_unop op] is the machine's [op] from float to float ([ToFloat]
    is the identity).  @raise Program_error for [Lnot], [Bnot] and
    [ToInt]. *)
val float_unop : unop -> float -> float

(** Front-end unary operator: [Lnot] by {!truthy}, [Bnot] needs an
    int, the conversions change kind, and the rest keep it.
    @raise Program_error on [Bnot] of a float. *)
val fe_unop : unop -> scalar -> scalar

(** {1 Instruction names and classes} *)

(** Short name of the instruction's opcode (["pbin"], ["preduce-axis"],
    ...), as fault messages print it. *)
val mnemonic : instr -> string

(** The hardware unit an instruction occupies, as {!Cost} charges it:
    the front end, a single-element front-end <-> CM transfer, nothing
    (labels, comments, region markers, prints, [Halt]), the context
    stack, the processor array, the NEWS grid, the router, the
    reduction network, the scan network. *)
type unit_class =
  | Ufe | Ufe_cm | Ufree | Ucontext | Upe | Unews | Urouter | Ureduce | Uscan

val unit_of : instr -> unit_class

val binop_name : binop -> string
val pp_binop : Format.formatter -> binop -> unit
val pp_instr : Format.formatter -> instr -> unit
val pp_program : Format.formatter -> program -> unit

(** Incremental program construction, used by both code generators. *)
module Builder : sig
  type t

  val create : string -> t

  (** Allocate a VP set; returns its id. *)
  val vpset : t -> Geometry.t -> int

  (** Allocate a field on a VP set; returns its id. *)
  val field : t -> vpset:int -> kind -> int

  (** Allocate a fresh front-end register. *)
  val reg : t -> int

  (** Allocate a fresh label id (place it later with {!place}). *)
  val label : t -> int

  val emit : t -> instr -> unit
  val place : t -> int -> unit

  (** Geometry of a VP set already allocated in this builder. *)
  val geom_of : t -> int -> Geometry.t

  (** VP set and kind of a field already allocated in this builder. *)
  val field_info : t -> int -> int * kind

  val finish : t -> program
end
