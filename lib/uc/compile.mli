(** Compiler driver: source text to results on the simulated CM.

    Pipeline: {!Parser} -> {!Sema} -> {!Transform} (inlining, solve
    lowering) -> {!Codegen} -> {!Cm.Machine}.  Results are read back in
    logical order regardless of the data mapping in effect.

    Every stage takes an optional telemetry scope [obs] (default
    {!Obs.null}).  Compilation stages emit [compile.parse],
    [compile.sema], [compile.transform], [compile.fold] and
    [compile.codegen] spans (plus the IR optimizer's ["iropt."] events);
    execution stages hand the scope to the machine.  Telemetry never
    changes compilation or program results. *)

type t = {
  compiled : Codegen.compiled;
  machine : Cm.Machine.t;
}

(** Parse and type-check only (the first re-enterable stage; the result
    may be lowered many times under different option sets). *)
val parse_source : ?obs:Obs.t -> string -> Ast.program

(** Transform and fold an already-checked program: the input
    {!Codegen} takes. *)
val prepare : ?obs:Obs.t -> Ast.program -> Ast.program

(** Lower a program {!prepare} returned.  [layouts] is as for
    {!lower}; a caller that also searches layouts over the prepared
    program prepares it once for both. *)
val lower_prepared :
  ?layouts:Mapping.table ->
  ?options:Codegen.options ->
  ?obs:Obs.t ->
  Ast.program ->
  Codegen.compiled

(** Transform, fold and lower an already-checked program.  [layouts]
    overrides the program's own map sections with an explicit layout
    table (see {!Codegen.compile}) — the hook [ucc tune] and tuned
    batch jobs lower through. *)
val lower :
  ?layouts:Mapping.table ->
  ?options:Codegen.options ->
  ?obs:Obs.t ->
  Ast.program ->
  Codegen.compiled

(** Parse, check, transform and lower a program without running it.
    Equivalent to [lower ?layouts ?options (parse_source src)]. *)
val compile_source :
  ?layouts:Mapping.table ->
  ?options:Codegen.options ->
  ?obs:Obs.t ->
  string ->
  Codegen.compiled

(** Allocate a fresh machine for an already-lowered program without
    running anything: the entry point for sliced execution ({!step}).
    [faults] installs a concrete fault plan (see {!Cm.Fault}). *)
val start_compiled :
  ?cost:Cm.Cost.params ->
  ?seed:int ->
  ?fuel:int ->
  ?engine:Cm.Machine.engine ->
  ?faults:Cm.Fault.plan ->
  ?obs:Obs.t ->
  Codegen.compiled ->
  t

(** Execute at most [fuel_slice] instructions; [`More] means the run can
    be continued (or checkpointed and resumed later).
    @raise Cm.Machine.Error / [Cm.Machine.Fault] like a full run. *)
val step : t -> fuel_slice:int -> [ `Done | `More ]

val finished : t -> bool

(** Serialize the machine state (versioned; see {!Cm.Machine.checkpoint}). *)
val checkpoint : t -> string

(** Rebuild a suspended run from a {!checkpoint} against the same
    lowered program.  @raise Cm.Machine.Error on version or program
    mismatch. *)
val restore_compiled :
  ?engine:Cm.Machine.engine ->
  ?faults:Cm.Fault.plan ->
  ?obs:Obs.t ->
  Codegen.compiled ->
  string ->
  t

(** Execute an already-lowered program on a fresh machine.  [engine]
    selects the machine's execution engine (default [`Fast]); both
    engines are observably identical.  [faults] injects a fault plan. *)
val run_compiled :
  ?cost:Cm.Cost.params ->
  ?seed:int ->
  ?fuel:int ->
  ?engine:Cm.Machine.engine ->
  ?faults:Cm.Fault.plan ->
  ?obs:Obs.t ->
  Codegen.compiled ->
  t

(** [run_source src] compiles and executes a program.
    @raise Loc.Error on front-end errors, [Cm.Machine.Error] on dynamic
    faults, [Cm.Machine.Fault] on injected transient faults. *)
val run_source :
  ?options:Codegen.options ->
  ?cost:Cm.Cost.params ->
  ?seed:int ->
  ?fuel:int ->
  ?engine:Cm.Machine.engine ->
  ?faults:Cm.Fault.plan ->
  ?obs:Obs.t ->
  string ->
  t

(** Metadata (element type, dims, layout) of a global array.
    @raise Failure on an unknown name; the message lists the known
    global arrays. *)
val meta : t -> string -> Codegen.array_meta

(** Final contents of a global array, flattened row-major in logical
    element order (layouts are inverted).
    @raise Failure on an unknown name; the message lists the known
    global arrays. *)
val int_array : t -> string -> int array

val float_array : t -> string -> float array

(** Final value of a global scalar.
    @raise Failure on an unknown name; the message lists the known
    global scalars. *)
val scalar : t -> string -> Cm.Paris.scalar

(** Lines produced by [print]. *)
val output : t -> string list

(** Simulated elapsed seconds. *)
val elapsed_seconds : t -> float

val meter : t -> Cm.Cost.meter
