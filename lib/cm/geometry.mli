(** Rectangular virtual-processor geometries.

    A geometry describes the shape of a virtual-processor (VP) set on the
    simulated Connection Machine: a non-empty list of positive extents, one
    per axis.  Elements are addressed either by a coordinate vector or by a
    row-major linear address. *)

type t

(** [create dims] builds a geometry with the given axis extents.
    @raise Invalid_argument if [dims] is empty or contains a non-positive
    extent. *)
val create : int list -> t

(** [dims g] returns the axis extents, outermost first. *)
val dims : t -> int list

(** [dim g axis] returns the extent of [axis] (0-based, outermost first).
    @raise Invalid_argument if [axis] is out of range. *)
val dim : t -> int -> int

(** [rank g] is the number of axes. *)
val rank : t -> int

(** [size g] is the total number of VPs, i.e. the product of the extents. *)
val size : t -> int

(** [linearize g coords] converts a coordinate vector to its row-major
    linear address.
    @raise Invalid_argument on rank mismatch or out-of-range coordinate. *)
val linearize : t -> int array -> int

(** [coords g addr] is the inverse of {!linearize}.
    @raise Invalid_argument if [addr] is out of range. *)
val coords : t -> int -> int array

(** [next_coords g c] advances the coordinate vector [c] in place to
    {!coords} of the next address (last axis fastest); from the last
    address it wraps to all zeros.  Starting from all zeros, [size g]
    steps visit every address in order without allocating.
    @raise Invalid_argument on rank mismatch. *)
val next_coords : t -> int array -> unit

(** [strides g] returns the row-major stride of each axis, so that
    [linearize g c = sum_i c.(i) * (strides g).(i)]. *)
val strides : t -> int array

(** [concat outer inner] is the geometry whose axes are those of [outer]
    followed by those of [inner].  Used for nested-reduction VP sets. *)
val concat : t -> t -> t

(** [is_prefix_of outer whole] is true when the axes of [outer] are exactly
    the leading axes of [whole]. *)
val is_prefix_of : t -> t -> bool

(** Structural equality of shapes. *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
