(** Per-VP-set activity context.

    On the CM every processor carries a context flag; parallel instructions
    only take effect on active processors.  UC's nested [st] predicates map
    to a stack of flag vectors: entering a guarded construct pushes a copy
    of the current flags and ANDs the predicate in, leaving pops.

    Each frame caches its active count, so {!count_active}, {!depth} and
    {!all_active} are O(1): execution engines use [all_active] to select
    branch-free loops over fully-active VP sets.  Frames are preallocated
    and reused, so {!push}, {!pop} and {!reset} allocate nothing once the
    stack has reached its deepest nesting.

    A frame also caches its runs of active positions ({!active_runs}),
    so a masked kernel can run its all-active loop once per run; every
    change to a frame's flags drops its cache. *)

type t

(** [create n] makes a context of [n] VPs, all active, stack depth 1. *)
val create : int -> t

val size : t -> int

(** Current activity vector (not a copy; callers must not mutate, and
    its contents are only meaningful until the next stack operation,
    which may reuse the array). *)
val active : t -> bool array

(** [is_active c p] tests VP [p] under the current context. *)
val is_active : t -> int -> bool

(** Number of currently active VPs.  O(1): maintained incrementally. *)
val count_active : t -> int

(** [all_active c] is [count_active c = size c].  O(1). *)
val all_active : t -> bool

(** Push a copy of the current flags. *)
val push : t -> unit

(** [land_mask c m] ANDs [m] into the current flags.
    @raise Invalid_argument on size mismatch. *)
val land_mask : t -> bool array -> unit

(** [land_ints c a] ANDs the truth of an int field ([a.(i) <> 0]) into the
    current flags without allocating an intermediate mask.
    @raise Invalid_argument on size mismatch. *)
val land_ints : t -> int array -> unit

(** [land_floats c a] ANDs the truth of a float field ([a.(i) <> 0.0])
    into the current flags without allocating an intermediate mask.
    @raise Invalid_argument on size mismatch. *)
val land_floats : t -> float array -> unit

(** [active_runs c] is the number of maximal runs of active positions
    in the current flags, or [-1] when there are more than [size c / 16]
    of them (a fragmented mask).  The runs are cached per frame: the
    first call after a change to the flags finds them, in one scan that
    stops once the runs hold every active position; later calls are
    O(1).  Allocates only the frame slot's run buffer, once. *)
val active_runs : t -> int

(** The current frame's runs after {!active_runs} returned [k >= 0]:
    run [i < k] is the positions [b.(2i) <= p < b.(2i + 1)], in
    ascending order.  Not a copy; valid until the next stack operation. *)
val run_bounds : t -> int array

(** A precomputed activity mask: the flags, count and runs that
    {!land_ints} of an int field leaves on an all-active frame. *)
type mask

(** [mask_of_ints a] computes the mask of [a.(i) <> 0]. *)
val mask_of_ints : int array -> mask

(** [install c t] sets the current flags, count and runs to [t]'s: on an
    all-active frame this is [land_ints] of the mask's source, without
    the per-element AND or a later scan for runs.
    @raise Invalid_argument on size mismatch or a frame that is not all
    active. *)
val install : t -> mask -> unit

(** Pop the top flags, restoring the previous context.
    @raise Failure if only the base context remains. *)
val pop : t -> unit

(** Depth of the stack (>= 1).  O(1). *)
val depth : t -> int

(** Snapshot of the whole stack, top first, as copies of the flag
    vectors — the serializable form used by [Machine.checkpoint]. *)
val frames : t -> bool array list

(** Rebuild a context from a {!frames} snapshot (active counts are
    recomputed).
    @raise Invalid_argument on an empty stack or mismatched sizes. *)
val of_frames : bool array list -> t

(** Reset to a single all-active context.  Refills the base flags only
    when a [land_*] narrowed them without a {!push}. *)
val reset : t -> unit
