(** Static communication-pattern analysis (paper section 4's cost
    reasoning, made a compiler stage).

    {!Codegen}'s lowering walk is the one place that decides
    communication; {!Codegen.record} returns the {!event}s it recorded
    there — array accesses with their affine subscript structure,
    space-entry activity expansions, histogram combining sends,
    front-end element transfers — with static trip counts.  This module
    re-classifies each access under {b any} candidate layout, which
    lets {!Layoutsel} score layouts without lowering or running
    anything. *)

(** The classification lattice: [Local] < [News _] < [Router]. *)
type pat =
  | Local           (** same-processor field access: no communication *)
  | News of int * int  (** grid shift by [delta] along [axis]: one NEWS op *)
  | Router          (** general communication: one router op *)

(** The events, as {!Codegen} records them. *)

type sub = Codegen.sub =
  | Saffine of int * int
  | Sopaque of (int array -> int) option

type access = Codegen.access = {
  aname : string;
  aloc : Loc.t;
  arw : [ `Read | `Write ];
  adims : int list;
  asubs : sub list;
  aspace : int list;
  avalues : int array list;
  atrips : int;
  aapprox : bool;
}

type event = Codegen.event =
  | Access of access
  | Activity of { trips : int; size : int; approx : bool }
  | Hist_send of { count : string; trips : int; isize : int; approx : bool }
  | Fe_access of { fename : string; ferw : [ `Read | `Write ]; fetrips : int }

type summary = {
  events : event list;                 (** in emission order *)
  arrays : (string * int list) list;   (** global arrays and their dims *)
  options : Codegen.options;
  base_layouts : Mapping.table;        (** table the walk ran under *)
}

(** Re-classify a {b read} access under a candidate layout; mirrors
    Codegen's access planner (NEWS needs the plain layout, a single
    unit-or-double offset and [news_opt]). *)
val classify : news_opt:bool -> access -> Mapping.layout -> pat

(** Writes never use NEWS: [Local] exactly when fully aligned,
    [Router] otherwise. *)
val classify_write : news_opt:bool -> access -> Mapping.layout -> pat

(** {!classify} or {!classify_write} according to the access's kind. *)
val pat_of : news_opt:bool -> access -> Mapping.layout -> pat

type prediction = {
  p_router_ops : int;
  p_news_ops : int;
  p_exact : bool;
      (** no estimated-trip event contributed a nonzero count *)
}

(** Predicted router/NEWS operation counts under a layout table.  On
    programs with static control flow these match the machine's meter
    ([router_ops]/[news_ops]) exactly. *)
val predict : summary -> Mapping.table -> prediction

(** The destination fan-in of a router access under a layout,
    estimated by evaluating the subscripts over every space point
    (capped: a space of more than 65536 points, or a subscript that
    depends on runtime values, gives 1).  Destinations are
    counted with {!Cm.Router.prepare}/{!Cm.Router.bump} on [?scratch]
    (a fresh one when omitted), so a caller estimating many accesses
    shares one set of counters. *)
val estimate_fanin :
  ?scratch:Cm.Router.scratch -> access -> Mapping.layout -> int

(** Record the events of a transformed, constant-folded program (the
    exact input {!Codegen.compile} takes) with {!Codegen.record}.
    [layouts] defaults through the same seam as lowering: the program's
    own map sections when [use_mappings], the default layout otherwise.
    @raise Loc.Error on programs Codegen would reject. *)
val analyze :
  ?options:Codegen.options -> ?layouts:Mapping.table -> Ast.program -> summary

(** {!Compile.parse_source}, {!Compile.prepare}, then {!analyze}. *)
val analyze_source :
  ?options:Codegen.options -> ?layouts:Mapping.table -> string -> summary

val pat_to_string : pat -> string
