(** Code generation: UC abstract syntax to {!Cm.Paris} programs.

    Expects input already processed by {!Transform} (no user functions
    other than [main], no [solve]).  The lowering follows the CM execution
    model:

    - every distinct activity-space shape gets one VP set; conforming
      arrays share the VP set of their shape (the paper's default
      mapping), so an identity access [a[i]] is a local operation;
    - [st] predicates, [if], SIMD [while] and the short-circuit operators
      become context (activity-flag) manipulation; sub-expressions that
      could fault or perform [rand] are evaluated under the narrowed
      context, which reproduces C's short-circuit semantics elementwise;
    - nested constructs and reductions expand the activity space: the
      ambient activity is read out of the context ([Cread]) and fetched
      into the product space through the router, element values are
      recomputed from coordinates, and nested reductions finish with an
      axis reduction back onto the ambient space;
    - a parallel assignment evaluates its right-hand side in full before
      committing (two-phase), with identity-aligned accesses lowered to
      local field operations and everything else to router traffic with
      the checking combiner (the "one value per variable" rule);
    - map-section layouts ({!Mapping}) change the address arithmetic
      only. *)

type options = {
  news_opt : bool;      (** turn static-safe unit-offset accesses into NEWS shifts *)
  procopt : bool;       (** histogram processor optimization (paper section 4) *)
  use_mappings : bool;  (** honour map sections *)
  cse : bool;           (** reuse pure parallel sub-expressions (common
                            sub-expression detection, paper section 4) *)
  ir_opt : Cm.Iropt.config;
                        (** Paris-IR pass pipeline run on the lowered
                            program ({!Cm.Iropt.run}); named arrays and
                            scalars are the liveness roots *)
}

val default_options : options

(** {2 Communication events}

    The lowering walk is the one place that decides communication: where
    it emits a router or NEWS operation (or code whose communication a
    different layout would change) it can also record an {!event}, with
    the static execution count of the code it sits in.  {!Commpat}
    re-classifies the recorded events under candidate layouts, which is
    how [ucc tune] scores a layout without lowering or running it.

    Trip counts are exact for counted [for] loops with constant bounds,
    [seq] nests (the body is recorded once, at the product of the set
    sizes, each element standing for its first value) and constant
    front-end [if]s (the branch not taken records nothing).
    Data-dependent iteration ([*par], [*oneof], [*seq], [while]) counts
    8 rounds and flags its events approximate.  Code that may not run
    is counted once and flagged too: front-end branches and
    short-circuit operands, [oneof] bodies, [seq] bodies under a
    front-end predicate, and everything after a [return] on a
    conditional path.  Nothing after an unconditional [return] is
    recorded. *)

type sub =
  | Saffine of int * int  (** space axis, constant offset *)
  | Sopaque of (int array -> int) option
      (** pure-index evaluator over space coordinates, when available *)

(** One parallel array access, kept with enough structure (affine
    subscripts, the activity space) to be re-classified under any
    layout. *)
type access = {
  aname : string;
  aloc : Loc.t;
  arw : [ `Read | `Write ];
  adims : int list;         (** logical dims of the array *)
  asubs : sub list;
  aspace : int list;        (** dims of the activity space *)
  avalues : int array list; (** per space axis, the element values *)
  atrips : int;             (** static execution count *)
  aapprox : bool;           (** the execution count is estimated *)
}

type event =
  | Access of access
      (** a parallel read, or a write (one send per copy under
          [Copied]); [op=] and [swap] targets record a read and a write *)
  | Activity of { trips : int; size : int; approx : bool }
      (** ambient-activity expansion on space entry: one router op *)
  | Hist_send of { count : string; trips : int; isize : int; approx : bool }
      (** histogram processor optimization: one combining send *)
  | Fe_access of {
      fename : string;
      ferw : [ `Read | `Write ];
      fetrips : int;
    }  (** front-end element transfer; writes replicate under [Copied] *)

(** [plan ~news_opt layout ~adims ~aspace ~avalues affs] is the access
    plan, the one decision of how a parallel read reaches an array with
    [layout] and logical dims [adims] from a space of dims [aspace]
    whose axes take the values [avalues]; [affs] has, per subscript,
    [Some (axis, offset)] when it is a space element plus a constant.
    [`Aligned]: an array on the space's shape whose offsets all vanish
    under the layout (a local field access).  [`News (axis, delta)]:
    one ±1/±2 delta on the [Default] layout with [news_opt], every
    source in range; [`News_prefill] the same with some source out of
    range (its destination reads 0).  [`General]: the router.  The
    lowering and {!Commpat.classify} both ask it. *)
val plan :
  news_opt:bool ->
  Mapping.layout ->
  adims:int list ->
  aspace:int list ->
  avalues:int array list ->
  (int * int) option list ->
  [ `Aligned | `News of int * int | `News_prefill of int * int | `General ]

type recording = {
  events : event list;                (** in emission order *)
  arrays : (string * int list) list;  (** global arrays and their dims *)
  layouts : Mapping.table;            (** the table the walk ran under *)
}

type array_meta = {
  afield : int;
  aty : Ast.base_ty;
  adims : int list;
  alayout : Mapping.layout;
}

type scalar_meta = { sreg : int; sty : Ast.base_ty }

type compiled = {
  prog : Cm.Paris.program;
  carrays : (string * array_meta) list;
  cscalars : (string * scalar_meta) list;
}

(** [compile program] lowers a checked, transformed program.  [layouts]
    is the single seam through which layout information enters
    lowering: when given (normalized on entry), it replaces the
    program's own map sections — this is how [ucc tune] lowers with a
    synthesized {!Mapping.table}; when absent, the table comes from
    {!Mapping.of_program} unless [use_mappings] is off.  [obs]
    (default {!Obs.null}) is passed to the IR optimizer, which reports
    its per-pass statistics as ["iropt."]-prefixed counters (the
    surface behind [ucc --ir-opt-stats]).
    @raise Loc.Error on unsupported constructs. *)
val compile :
  ?layouts:Mapping.table ->
  ?options:options ->
  ?obs:Obs.t ->
  Ast.program ->
  compiled

(** [record program] lowers like {!compile}, without the IR optimizer,
    and returns the communication events the walk recorded.  [layouts]
    goes through the same seam as in {!compile}.
    @raise Loc.Error on unsupported constructs. *)
val record :
  ?layouts:Mapping.table -> ?options:options -> Ast.program -> recording
