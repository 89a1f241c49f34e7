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

(** Identity element of a reduction operator (paper table in section 3.2).
    @raise Invalid_argument for non-reducible operators. *)
val identity : binop -> kind -> scalar

(** The UC predefined constant INF, as an int (floats use [infinity]). *)
val inf_int : int

(** Whether the operator is a comparison (result 0 or 1). *)
val is_cmp : binop -> bool

(** [int_op_total op b]: whether an int [op] with right operand [b] can
    never fault.  Division, modulo and shifts are total only when [b] is
    an immediate that provably never faults; [Any] never is. *)
val int_op_total : binop -> operand -> bool

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
