(** Dataflow optimizer for the Paris IR.

    Runs between lowering and {!Machine.compile}, shared by every
    producer of {!Paris.program} values (the UC compiler, the C* EDSL,
    hand-written harnesses).  One sweep runs four pass families once
    each, in this order, over one forward dataflow analysis:

    - {b constprop}: front-end constant/copy propagation ([Fmov]/[Fbin]/
      [Funop] chains fold to immediates), field-level constant, copy and
      affine-address propagation, and algebraic simplification of
      parallel instructions.  Immediates are pushed into parallel
      operands so the pre-decoded engine selects its broadcast fast
      paths.
    - {b get_to_send} (the paper's remote-read-to-remote-write
      conversion), in the same walk: a [Pget] or [Psend] whose address
      field provably holds each VP's own linear index degrades to a
      local [Pmov]; with copy propagation and DCE this turns a
      get-then-forward pair into a single [Psend], halving the router
      traffic of the pair.
    - {b peephole}: self-move and copy-chain collapsing, cancelling
      [Cpush]/[Cpop] pairs with no parallel instruction between them,
      jump threading, unreachable-code removal and dead-label/[Comment]
      compaction.
    - {b dce}: liveness-based dead-code elimination over registers and
      fields, rooted at the observable state ([live_out_fields] /
      [live_out_regs], the output log and the LCG stream).

    Peephole and DCE reuse the per-instruction facts of the constprop
    walk instead of re-analysing.  On compiler output (the UC compiler
    and the C* EDSL) one sweep is a fixed point: running the optimizer
    on its own output changes nothing.  Arbitrary IR may leave work
    that a second run would find; it is still optimized soundly.

    Every rewrite is semantics-preserving on both execution engines: a
    transformed program produces the same output log, the same final
    contents of every live-out register and field, the same LCG stream
    and the same error message on faulting programs, and its simulated
    elapsed time is never higher (instruction removal and router-to-PE
    downgrades only ever remove cost; operand substitutions are
    charge-neutral).  Instruction counts ([icount], fuel) do shrink, so
    fault-injection plans and fuel slicing address the optimized stream
    — which is why the optimizer configuration participates in job
    digests and the checkpoint program-digest guard. *)

type config = {
  constprop : bool;
  dce : bool;
  peephole : bool;
  get_to_send : bool;
}

(** All passes on. *)
val default : config

(** All passes off: {!run} returns the program unchanged. *)
val off : config

(** [true] when the configuration performs any work at all. *)
val enabled : config -> bool

(** Canonical one-token rendering (["constprop,dce,getsend,peephole"],
    or ["off"]), stable for content digests and reports. *)
val config_summary : config -> string

(** Parse a flag argument: ["on"]/["all"]/["default"], ["off"]/["none"],
    or a comma-separated subset of
    [constprop|dce|peephole|getsend]. *)
val config_of_string : string -> (config, string) result

type pass_stats = {
  pass : string;
  rewritten : int;  (** instructions replaced in place *)
  removed : int;  (** instructions deleted *)
}

type stats = {
  input_instrs : int;
  output_instrs : int;
  passes : pass_stats list;  (** [[]] when off, else one per pass family *)
}

(** [run prog] optimizes [prog].  [live_out_fields]/[live_out_regs]
    list the storage that is observable after the program halts (named
    UC arrays and scalars, a C* result member, ...); both default to
    {e everything}, under which dead-code elimination only deletes
    stores that are provably overwritten before any read.

    [obs] (default {!Obs.null}) receives an ["iropt.sweep"] span and
    the run's statistics as ["iropt."]-prefixed counters ([iropt.runs],
    [.instrs_in], [.instrs_out], and per pass [.<pass>.rewritten] /
    [.<pass>.removed]).  Telemetry never changes the optimized
    program. *)
val run :
  ?config:config ->
  ?live_out_fields:int list ->
  ?live_out_regs:int list ->
  ?obs:Obs.t ->
  Paris.program ->
  Paris.program * stats

(** Static instruction census by hardware class, for dump footers:
    [("fe", _); ("pe", _); ("context", _); ("news", _); ("router", _);
    ("reduce", _); ("scan", _); ("fe-cm", _); ("free", _)]. *)
val class_counts : Paris.program -> (string * int) list

(** Straight-line cost estimate in nanoseconds: every instruction
    charged once with its {!Cost} formula (unit congestion, full
    activity).  Loops are not unrolled, so this prices the static
    stream, not a run — useful to compare two dumps of the same
    program. *)
val static_cost_ns : ?params:Cost.params -> Paris.program -> float

(** Dump footer: {!class_counts} and {!static_cost_ns} in one block. *)
val pp_static_summary :
  ?params:Cost.params -> Format.formatter -> Paris.program -> unit
