(** The unit of work for the batch service: one UC source program plus
    everything that determines its observable result.

    A job's {!digest} is content-addressed: it depends only on the source
    text, the compile options, the seed, the fuel bound and the fault
    spec — the inputs that determine the simulation outcome.  The
    wall-clock [deadline] and the [retries] budget are execution policy,
    not content, so they do not participate in the digest (timed-out
    results are never cached, and neither are fault-bearing runs, whose
    outcome depends on the retry policy).

    Each knob is one row of {!knobs}; the manifest, the CLI flags, the
    wire codec, {!fields} and the report stamp fold over that table. *)

type t = {
  name : string;  (** display name; not part of the digest *)
  source : string;  (** complete UC source text *)
  options : Uc.Codegen.options;
  seed : int;
  fuel : int option;  (** instruction bound; [None] = machine default *)
  deadline : float option;  (** wall-clock seconds allowed for the run *)
  faults : Cm.Fault.spec option;  (** fault plan to run under (content) *)
  retries : int option;  (** extra attempts after a transient fault;
                             [None] = the runner policy's default *)
  engine : Cm.Machine.engine;
      (** execution engine (content: engines are observably identical,
          but wall-clock and report metadata are not, so results from
          different engines never share a cache entry) *)
  tune : bool;
      (** auto-tune the data layout ({!Uc.Layoutsel}) before lowering
          (content: the synthesized map section changes the emitted
          Paris program, though never the observable output) *)
}

val make :
  ?options:Uc.Codegen.options ->
  ?seed:int ->
  ?fuel:int ->
  ?deadline:float ->
  ?faults:Cm.Fault.spec ->
  ?retries:int ->
  ?engine:Cm.Machine.engine ->
  ?tune:bool ->
  name:string ->
  source:string ->
  unit ->
  t

(** Canonical engine rendering used in digests, reports and the CLI:
    ["fast"], ["reference"], ["sharded:N"] or ["native"]. *)
val engine_string : Cm.Machine.engine -> string

(** {1 The job-spec table} *)

(** A knob value in its wire form ([Int], [Float], [Bool] or [Str]). *)
type value = Jsonu.t

(** Knob bindings; a later binding overrides an earlier one. *)
type spec = (string * value) list

(** [Text] values are checked strings: a fault plan, a pass list, an engine. *)
type kind = Int | Float | Flag | Text

type knob = {
  key : string;  (** manifest and CLI spelling; on the wire [-] is [_] *)
  kind : kind;
  docv : string;  (** CLI metavariable *)
  doc : string;  (** help text *)
  default : value option;
      (** the value on a default {!make} job, if set; {!to_spec} leaves
          it out *)
  get : t -> value option;
  set : value -> t -> (t, string) result;  (** checked *)
  digest : t -> (string * string) option;  (** [None]: not content *)
  label : (Uc.Codegen.options -> string option) option;
      (** codegen knobs: the word in {!options_summary} *)
  alias : (string * value * string) option;
      (** an extra flag, its value and help ([no-ir-opt]) *)
}

(** Table order is wire order and stamp order. *)
val knobs : knob list

val find : string -> knob option
val lookup : string -> spec -> value option

(** Apply a spec knob by knob, in table order. *)
val apply : spec -> t -> (t, string) result

type source = Inline of string | Corpus of string

(** The resolver every surface builds its jobs with. *)
val resolve : name:string -> source:source -> spec -> (t, string) result

(** The non-default knobs, canonically rendered ([engine] as
    {!engine_string}): [resolve (to_spec j)] rebuilds [j]. *)
val to_spec : t -> spec

(** Check a wire value for a knob. *)
val value_of_json : knob -> Jsonu.t -> (value, string) result

(** Parse a manifest or CLI value by its knob's kind (flags:
    true/false/1/0/on/off); {!apply} checks it. *)
val value_of_string : knob -> string -> (value, string) result

(** A corpus name or file path, then [key=value] columns and bare flags
    or aliases, over [defaults]; [Ok None] for blank and [#] lines. *)
val of_manifest_line : ?defaults:spec -> string -> (t option, string) result

(** {1 Digest and stamp} *)

(** The canonical field list the digest is computed from.  Keys are
    sorted before hashing, so the digest is independent of the order in
    which fields are assembled. *)
val fields : t -> (string * string) list

(** [digest_of_fields kvs] hashes a canonical rendering of [kvs] sorted
    by key; permutations of the same bindings give the same digest. *)
val digest_of_fields : (string * string) list -> string

(** Hex digest identifying the job's content. *)
val digest : t -> string

(** Render the option record as stable one-token-per-flag text
    (["news procopt maps cse iropt"] subset). *)
val options_summary : Uc.Codegen.options -> string

(** The report's [options] field and lowered-IR memo key. *)
val options_stamp : t -> string
