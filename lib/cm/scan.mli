(** Scan (parallel prefix) and reduction primitives.

    These model the CM-2 scan network: log-depth combining trees over the
    elements of a VP set.  The combining operator must be associative; all
    operators used by UC reductions (add, min, max, and, or, xor, mul)
    qualify. *)

(** [inclusive op identity a] returns [b] with
    [b.(i) = a.(0) op ... op a.(i)]. *)
val inclusive : ('a -> 'a -> 'a) -> 'a array -> 'a array

(** [exclusive op identity a] returns [b] with [b.(0) = identity] and
    [b.(i) = a.(0) op ... op a.(i-1)]. *)
val exclusive : ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a array

(** [reduce op identity a] folds the whole array. *)
val reduce : ('a -> 'a -> 'a) -> 'a -> 'a array -> 'a

(** [masked_reduce op identity mask a] folds only the elements where
    [mask] is true; returns [identity] when none are. *)
val masked_reduce : ('a -> 'a -> 'a) -> 'a -> bool array -> 'a array -> 'a

(** [reduce_trailing_axes g ~outer_size op identity mask a dst] reduces a
    field laid out on geometry [g] over its trailing axes, writing one
    value per leading position into [dst] (of length [outer_size]).
    [outer_size] must divide [Geometry.size g]; positions where [mask]
    is false contribute [identity].  [dst] may be [a]. *)
val reduce_trailing_axes :
  Geometry.t ->
  outer_size:int ->
  ('a -> 'a -> 'a) ->
  'a ->
  bool array ->
  'a array ->
  'a array ->
  unit

(** [scan_axis g axis op a dst] writes into [dst] an inclusive scan
    along [axis], independently per lane, of a field laid out on [g].
    [dst] may be [a].  If [op] raises, [dst] holds the steps before. *)
val scan_axis :
  Geometry.t -> int -> ('a -> 'a -> 'a) -> 'a array -> 'a array -> unit
