(** Native compilation backend: Paris IR -> OCaml source -> [.cmxs].

    {!source} walks a {!Paris.program} and emits a self-contained OCaml
    module: monomorphic [for]-loops directly over the machine's int/float
    field arrays, VP-set activity checks specialized per instruction
    (branch-free bodies when the context is fully active), labels compiled
    to a tail-call state machine over a dense [match] on the program
    counter, and geometry constants, operand shapes and immediates baked in
    as literals.  {!entry_for} builds that module with
    [ocamlfind ocamlopt -shared], [Dynlink]s the resulting [.cmxs] and
    returns the entry point, which the generated code hands back through
    the {!register} hook — so [lib/cm] never depends on generated code.

    Soundness contract (enforced differentially by [test/test_engine.ml]
    and [make ci-native]): a native run is bit-identical to the fast and
    reference engines on registers, fields, output, statistics, simulated
    nanoseconds, regions, the random stream and error messages.  To keep
    that bar cheap, can-fault and order-sensitive instructions — router
    traffic ([Pget]/[Psend]), NEWS shifts, scans, axis reductions, tables,
    and integer [Pbin]s whose divisor/shift operand could fault mid-loop —
    are compiled to calls back into the fast engine's pre-decoded kernels
    ([c_kernel]) instead of being open-coded.

    Compiled entries are memoized per process (a [Dynlink]ed module cannot
    be unloaded) and content-addressed on disk through the {!store} hook
    Ucd.Cache installs: the key is the IR digest + {!version} + the
    compiler version, so a rebuilt repo or a codegen change never reuses a
    stale artifact. *)

(** Why native compilation is not available; {!entry_for} raises
    {!Unavailable} carrying one of these, and the machine falls back to
    the fast engine with a one-line warning, never an error. *)
type reason =
  | Bytecode_only  (** the running program is not native code, so
                       [Dynlink] cannot load [.cmxs] plugins *)
  | No_toolchain of string  (** [ocamlfind]/[ocamlopt] not on PATH, or the
                                compiled [cm] library artifacts were not
                                found next to the executable *)
  | Build_failed of string  (** [ocamlopt -shared] exited nonzero *)
  | Dynlink_failed of string  (** the built/cached [.cmxs] did not load *)
  | Disabled of string  (** turned off by {!force_unavailable} *)

val describe : reason -> string

exception Unavailable of reason

(** The ABI between the machine and a generated module.  The machine
    builds one per execution slice from its own state; the generated
    entry mutates the [c_*] state fields and the shared arrays in place.
    The context carries only the machine's state and the callbacks into
    its own bookkeeping (output, regions, kernels); operator evaluation
    ([Cm.Paris.fe_bin], [to_int], [truthy], ...) and the fault
    ([Cm.Paris.Program_error], which is [Machine.Error]) are called from
    {!Paris} directly. *)
type ctx = {
  c_regs : Paris.scalar array;
  c_ints : int array array;  (** per-field int data; [[||]] for floats *)
  c_floats : float array array;  (** per-field float data; [[||]] for ints *)
  c_ctxs : Context.t array;  (** per-VP-set activity contexts *)
  c_sizes : int array;  (** per-VP-set element counts *)
  c_meter : Cost.meter;
  mutable c_pc : int;
  mutable c_fuel : int;
  mutable c_icount : int;
  mutable c_rand : int;
  mutable c_cur : int;
  mutable c_racc : float ref;  (** current region's ns accumulator *)
  c_not_cur : string -> int -> int -> exn;
      (** [c_not_cur what field cur]: the [check_on_current] error for a
          field not on the current VP set (or no set selected) *)
  c_emit : string -> unit;  (** append one [Fprint] output line *)
  c_region : string -> int -> float ref;
      (** [c_region name icount] switches the machine's region and
          returns the new accumulator *)
  c_kernel : int -> int -> unit;
      (** [c_kernel pc cur] syncs [cur] and runs the fast engine's
          pre-decoded kernel for instruction [pc] *)
}

(** [entry ctx steps] executes at most [steps] instructions (use
    [max_int] for "to completion"), mutating [ctx] and its arrays. *)
type entry = ctx -> int -> unit

(** Called exactly once, at load time, by each generated module. *)
val register : entry -> unit

(** Bumped whenever emitted code could change shape; part of the cache
    key, so stale [.cmxs] artifacts are never reused. *)
val version : int

(** Content address of a program's native code: MD5 of the marshalled IR,
    {!version} and [Sys.ocaml_version]. *)
val key : Paris.program -> string

(** The generated OCaml source.  A pure function of the program: the same
    IR yields byte-identical source (unit-tested), which is what makes
    {!key} a sound cache address. *)
val source : Paris.program -> string

(** Persistent [.cmxs] store hook, installed by [Ucd.Cache] so compiled
    artifacts are shared across processes; [st_record] reports codegen and
    build wall-clock milliseconds for the cache's telemetry counters. *)
type store = {
  st_load : string -> string option;  (** key -> raw [.cmxs] bytes *)
  st_save : string -> string -> unit;
  st_record : codegen_ms:float -> build_ms:float -> unit;
}

val set_store : store option -> unit

(** One-time toolchain probe: [Ok ()] when native compilation can work
    here ([Dynlink.is_native], a compiler on PATH, the compiled [cm]
    library locatable), [Error message] otherwise.  Memoized. *)
val available : unit -> (unit, string) result

(** [entry_for prog] returns the compiled entry for [prog]: from the
    per-process memo, else the {!store} hook, else by emitting, building
    and loading it (in an [Obs] span ["cm.codegen"] when tracing).
    Thread-safe.
    @raise Unavailable with a typed {!reason} on any failure. *)
val entry_for : ?obs:Obs.t -> Paris.program -> entry

(** Which instructions compile natively vs call back into the fast
    kernels: [(native, fallback)] as mnemonic -> count, each sorted by
    mnemonic.  Purely static — the [paris] CLI footer uses it so codegen
    coverage is observable without running. *)
val coverage : Paris.program -> (string * int) list * (string * int) list

(** Cumulative process-wide counters (all codegen activity, any store). *)
type stats = {
  mem_hits : int;  (** entries served from the per-process memo *)
  disk_hits : int;  (** entries loaded from the {!store} hook *)
  builds : int;  (** entries emitted and compiled here *)
  codegen_ms : float;  (** total source-emission wall-clock ms *)
  build_ms : float;  (** total [ocamlopt]+[Dynlink] wall-clock ms *)
}

val stats : unit -> stats

(** Test hook: [force_unavailable (Some why)] makes every subsequent
    {!entry_for} raise [Unavailable (Disabled why)] — simulating a host
    without a toolchain; [force_unavailable None] restores reality. *)
val force_unavailable : string option -> unit
