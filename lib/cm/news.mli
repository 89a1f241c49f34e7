(** NEWS-grid nearest-neighbour communication.

    The CM-2 NEWS grid lets every processor fetch from a fixed-offset
    neighbour along one axis far more cheaply than through the general
    router.  [shift] models a grid shift: every destination whose source
    coordinate falls inside the geometry receives the source value;
    destinations whose source would fall off the edge keep their previous
    value (the code generator only emits NEWS ops under a context that
    masks such border positions). *)

(** [shift k g ~axis ~delta src dst] writes [dst.(p) <- src.(p with
    coordinate[axis] incremented by delta)] for every in-range position,
    restricted to positions where [mask] is true when one is given.
    [k] names the element kind, so the copies are monomorphic.  Returns
    the number of positions updated.
    @raise Invalid_argument on size/axis errors. *)
val shift :
  'a Paris.elt ->
  ?mask:bool array ->
  Geometry.t ->
  axis:int ->
  delta:int ->
  'a array ->
  'a array ->
  int

(** [shift_runs k g ~axis ~delta ~runs ~nruns src dst] is [shift k ~mask
    g ~axis ~delta src dst] for the mask whose active positions are the
    [nruns] ascending runs [runs.(2i) <= p < runs.(2i + 1)] (see
    {!Context.run_bounds}): the same writes in the same order, copied
    one run piece at a time.
    @raise Invalid_argument on size/axis errors or a bad run count. *)
val shift_runs :
  'a Paris.elt ->
  Geometry.t ->
  axis:int ->
  delta:int ->
  runs:int array ->
  nruns:int ->
  'a array ->
  'a array ->
  int
