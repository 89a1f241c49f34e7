(** Execution engine for {!Paris} programs.

    A machine instance owns the storage for one program: front-end
    registers, per-VP fields, per-VP-set activity contexts, a deterministic
    random-number generator and a {!Cost.meter}.  Inputs may be loaded into
    fields before {!run}; results are read back from fields or registers
    afterwards.

    Two engines execute the same program:

    - [`Fast] (the default) pre-decodes the program once ({!compile}).
      The instructions it has a specialised loop or fast path for —
      [Pmov], [Pbin], [Punop], [Psel], [Pcoord], [Ptable], [Prand],
      [Pnews], [Preduce], [Preduce_axis], [Pget], [Cand] and [Cread] —
      become kernels with operand shapes, field kinds, VP-set checks
      and geometry constants resolved at decode time, each running
      monomorphic int/float loops over its VP set's element range, run
      by run under a mask of few active runs.  Every other instruction,
      and every case a kernel's fast path refuses, runs the reference
      executor.
    - [`Reference] is the per-instruction tree-walking interpreter,
      kept as the semantic baseline for the kernels.

    Both engines share one dispatch loop and are observably identical
    bit for bit: registers, fields, output, statistics, simulated
    nanoseconds, error messages and the random stream all agree
    (enforced differentially by [test/test_engine.ml] and
    [test/test_kernels.ml]).  The fast engine is a wall-clock
    optimization only.

    [`Native] and [`Sharded n] name the retired native engine (IR
    compiled to OCaml and [Dynlink]ed) and the retired sharded engine
    (the kernels fanned out over worker domains).  They are kept so
    that old inputs, digests and checkpoints stay valid: both run on
    the fast kernels, exactly like [`Fast], and {!effective_engine}
    reports them as [`Fast]. *)

(** Raised on any dynamic error: kind mismatch, address out of range,
    conflicting parallel assignment, missing [Cwith], division by zero,
    shift amount out of range, or fuel exhaustion.  An [Error] is a
    program bug: retrying cannot help.  This is the same exception as
    [Paris.Program_error], the fault of {!Paris}'s operator
    evaluation. *)
exception Error of string

(** Raised when an injected transient fault (see {!Fault}) fires.
    Distinguishable from {!Error}: a [Fault] is transient, so a caller
    may retry the run (possibly from a {!checkpoint}).  This is the same
    exception as [Fault.Fault]. *)
exception Fault of string

type t

type engine = [ `Fast | `Reference | `Sharded of int | `Native ]

(** [create ?cost ?seed ?fuel ?engine ?faults program] allocates storage
    for [program].  [fuel] bounds the number of executed instructions
    (default 50M); [seed] initializes the deterministic LCG used by
    [rand]; [engine] selects the execution engine (default [`Fast]);
    [faults] installs a concrete fault plan consulted before every
    instruction — both engines consult it at the same point, so a plan
    perturbs them bit-identically.  [obs] attaches a telemetry scope
    (default {!Obs.null}); the machine only ever writes into it, so
    telemetry on or off never changes program results.
    @raise Invalid_argument if [engine] is [`Sharded n] with [n < 1]. *)
val create :
  ?cost:Cost.params ->
  ?seed:int ->
  ?fuel:int ->
  ?engine:engine ->
  ?faults:Fault.plan ->
  ?obs:Obs.t ->
  Paris.program ->
  t

val program : t -> Paris.program
val engine : t -> engine

(** Pre-decode the program into the instruction kernels {!run} executes
    (a no-op if already compiled).  {!run} compiles on first use;
    calling [compile] beforehand just front-loads the work.  Only the
    fast engine's decode opens a ["cm.decode"] span: the reference
    engine's kernels are its executor, resolved at run time. *)
val compile : t -> unit

(** Always [Error "native engine retired: runs on the fast kernels"].
    Kept for the benchmark harness until a benchmark change drops it. *)
val compile_native : t -> (unit, string) result

(** The engine that will actually execute: [`Native] and [`Sharded n]
    resolve to [`Fast]; every other engine is itself.  Batch/serve report rows
    record this as [engine_effective]. *)
val effective_engine : t -> engine

(** Execute from the current [pc] to [Halt] (or the end of code).
    A fresh machine starts at the first instruction; after {!run_slice}
    returned [`More], [run] continues where the slice stopped.
    @raise Error on any dynamic fault.
    @raise Fault when an injected transient fault fires; the machine is
    left exactly at the pre-instruction state. *)
val run : t -> unit

(** [run_slice m ~fuel_slice] executes at most [fuel_slice] instructions
    and reports whether the program completed.  Interleaving slices with
    {!checkpoint}/{!restore} is bit-identical to an uninterrupted {!run}
    (a property test in [test/test_engine.ml] enforces this).
    @raise Invalid_argument if [fuel_slice <= 0]. *)
val run_slice : t -> fuel_slice:int -> [ `Done | `More ]

(** Whether execution has reached the end of the program. *)
val finished : t -> bool

(** Count of instructions executed so far (the fault-plan serial). *)
val icount : t -> int

(** Serialize the full machine state — registers, fields, context
    stacks, meter, random stream, output, regions, pc, fault-plan
    cursor — into a versioned, self-describing string.  The program is
    identified by digest, not serialized. *)
val checkpoint : t -> string

(** [restore ?engine ?faults program data] rebuilds a machine from a
    {!checkpoint}.  [program] must be the very program the checkpoint
    was taken from (checked by digest).  The engine is free to differ
    from the checkpointing machine's: observables are engine-identical.
    If [faults] is the same concrete plan, its cursor resumes; if it
    differs (a retry attempt's new plan), events scheduled before the
    checkpoint are considered survived.
    @raise Error on a bad magic/version, corrupt data, or a program
    mismatch. *)
val restore :
  ?engine:engine -> ?faults:Fault.plan -> ?obs:Obs.t -> Paris.program -> string -> t

(** Fault-injection history, in order: bit flips applied and transient
    faults fired.  Engine-identical, so part of the differential
    snapshot. *)
val fault_log : t -> string list

val reg : t -> int -> Paris.scalar
val reg_int : t -> int -> int
val reg_float : t -> int -> float

(** Copy a field's contents out of the machine. *)
val field_ints : t -> int -> int array
val field_floats : t -> int -> float array

(** Load data into a field (length must match the VP-set size). *)
val set_field_ints : t -> int -> int array -> unit
val set_field_floats : t -> int -> float array -> unit

val meter : t -> Cost.meter

(** Lines appended by [Fprint] instructions, in program order. *)
val output : t -> string list

(** Simulated seconds attributed to each [Region] marker, largest first.
    Cost incurred before the first marker lands in ["(startup)"]. *)
val regions : t -> (string * float) list

(** Simulated elapsed seconds so far. *)
val elapsed_seconds : t -> float

(** Mirror the machine's aggregate statistics into its telemetry scope:
    every {!Cost.metrics} entry as a ["cm."]-prefixed counter (or
    ["cm.ns_*"] sample), ["cm.elapsed_ns"], per-region simulated seconds
    as ["cm.region.<name>"] samples, and the fault-log length.  Call
    once after a run; counters are monotonic, so publishing twice would
    double them.  A no-op on a disabled scope. *)
val publish : t -> unit
