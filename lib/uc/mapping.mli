(** Layout IR (paper section 4).

    The map section declares how arrays are laid out on the machine
    without touching program logic.  This module is the compiler's
    layout intermediate representation: a typed per-array description
    built either from the program's own map sections
    ({!of_program}) or synthesized by the auto-tuner
    ({!Layoutsel.tune}), normalized, digestable, and printable back to
    a UC [map] section.  {!Codegen.compile} consumes a {!table} through
    its [?layouts] seam; result extraction uses {!physical_index} to
    unscramble stored data.

    - [Shifted offs]: from [permute (I) b[i+c] :- a[i]]; element [x] of
      the target lives in slot [(x - c) mod n] (cyclic), so an access
      [b[i+c]] lands on the same processor as [a[i]].
    - [Folded f]: the leading axis is folded by [f]: element [x0] lives
      at physical coordinates [(x0 mod h, x0 / h)] with [h = n0 / f], so
      [a[i]] and [a[i + h]] become grid neighbours (the paper co-locates
      them on one processor; the simulator's nearest equivalent is
      adjacency on the NEWS grid).
    - [Copied m]: the array is replicated along a new leading axis of
      extent [m]; reads are spread across copies to reduce router
      congestion and writes update every copy. *)

type layout =
  | Default
  | Shifted of int array
  | Folded of int
  | Copied of int

(** One mapping step as written in a map section; a layout is the
    normalized composition of the steps that mention one array. *)
type step =
  | Permute of int array
  | Fold of int
  | Copy of int

(** Per-array layout table: the unit handed to {!Codegen.compile}.
    Arrays not mentioned get no entry (treat as [Default]). *)
type table = (string * layout) list

(** Canonical form: all-zero shifts, [fold by 1] and [copy along 1] are
    the identity mapping and collapse to [Default]. *)
val normalize : layout -> layout

(** Structural equality of normalized layouts. *)
val equal : layout -> layout -> bool

(** Decompose a layout into its mapping steps ([Default] = []). *)
val steps : layout -> step list

(** [compose l step] folds one more mapping step onto [l]; same-kind
    steps merge (shifts add, fold factors and copy counts multiply),
    cross-kind compositions are [Error] because the backend lays an
    array out exactly one way. *)
val compose : layout -> step -> (layout, string) result

(** Normalize a whole composition chain, outermost first. *)
val of_steps : step list -> (layout, string) result

(** Human-readable, e.g. ["permute[+1]"], ["fold by 2"]. *)
val to_string : layout -> string

(** Layout of [name] in the table, normalized; [Default] when absent. *)
val find : table -> string -> layout

(** Normalize a table: drop entries that normalize to [Default], sort
    by array name. *)
val canonical : table -> table

(** Canonical one-line rendering of a table (sorted, defaults
    dropped) — the pre-image of {!digest}. *)
val table_to_string : table -> string

(** Content digest of the canonical table, for job digests and caching:
    two tables that lay every array out identically share a digest. *)
val digest : table -> string

(** Per-array layouts implied by the program's map sections.
    @raise Loc.Error on conflicting mappings for an array — the message
    lists {e every} conflicting site with the competing layouts — and at
    the map-section site for a fold of a scalar, a non-positive fold
    factor, a fold factor that does not divide the array's leading
    dimension, a copy of a scalar, or a copy count below 1. *)
val of_program : Ast.program -> table

(** Render a table back to UC source: a [map] section that re-parses,
    round-trips through {!Pretty}, and reproduces the table via
    {!of_program}.  [None] when the table is all-default.  Permute
    subscripts borrow element names from the program's global index
    sets.
    @raise Invalid_argument when the program declares no index set (no
    legal map-section header can be formed). *)
val emit_map_section : Ast.program -> table -> string option

(** Physical geometry of an array with the given logical dims. *)
val physical_dims : layout -> int list -> int list

(** [physical_index layout dims coords] maps logical coordinates to the
    flat physical index (for [Copied], the index of copy 0).  It reads
    the two arrays and allocates nothing, so per-element callers
    (result extraction, fan-in estimation) reuse one coordinate array.
    @raise Invalid_argument if [coords] and [dims] differ in rank. *)
val physical_index : layout -> int array -> int array -> int

(** [axis_offset layout axis] is the cyclic shift applied on [axis]
    ([Shifted] only; 0 otherwise). *)
val axis_offset : layout -> int -> int
