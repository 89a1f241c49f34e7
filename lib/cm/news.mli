(** NEWS-grid nearest-neighbour communication.

    The CM-2 NEWS grid lets every processor fetch from a fixed-offset
    neighbour along one axis far more cheaply than through the general
    router.  [shift] models a grid shift: every destination whose source
    coordinate falls inside the geometry receives the source value;
    destinations whose source would fall off the edge keep their previous
    value (the code generator only emits NEWS ops under a context that
    masks such border positions). *)

(** [shift g ~axis ~delta src dst] writes [dst.(p) <- src.(p with
    coordinate[axis] incremented by delta)] for every in-range position.
    Returns the number of positions updated.
    @raise Invalid_argument on size/axis errors. *)
val shift :
  Geometry.t -> axis:int -> delta:int -> 'a array -> 'a array -> int

(** [shift_masked] is {!shift} restricted to positions where the
    destination mask is true. *)
val shift_masked :
  Geometry.t ->
  axis:int ->
  delta:int ->
  mask:bool array ->
  'a array ->
  'a array ->
  int

(** [shift_sub] is {!shift} restricted to destination positions in
    [\[lo, hi)]; {!shift} is its [\[0, size)] case.  Calls over disjoint
    ranges of distinct arrays may run concurrently.  With [src == dst]
    the ranges must run one after another in ascending order, which
    reproduces the whole-grid in-place shift. *)
val shift_sub :
  Geometry.t ->
  axis:int ->
  delta:int ->
  lo:int ->
  hi:int ->
  'a array ->
  'a array ->
  int

(** [shift_masked_sub] is {!shift_masked} restricted to destination
    positions in [\[lo, hi)], under the same rules as {!shift_sub}. *)
val shift_masked_sub :
  Geometry.t ->
  axis:int ->
  delta:int ->
  mask:bool array ->
  lo:int ->
  hi:int ->
  'a array ->
  'a array ->
  int
