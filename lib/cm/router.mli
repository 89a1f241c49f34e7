(** General-router communication with combining.

    Models the CM-2 hypercube router: every active VP may read from
    ([get]) or write to ([send]) an arbitrary linear address of a target
    field.  Sends to a common destination are combined; UC's parallel
    assignment uses the checking combiner, which requires all values
    delivered to one destination to be identical (paper section 3.4:
    "each variable in a par statement may be assigned at most one value;
    if multiple values are assigned, they must be identical"). *)

(** Delivery statistics, used by the cost model for congestion. *)
type stats = { messages : int; max_fanin : int }

(** Raised by a checking send when two distinct values reach the same
    destination address. *)
exception Conflict of int

(** Reusable fan-in counting state.  Per-address counters are tagged
    with an epoch that is bumped on every routing call, so a scratch can
    be shared by all [get]/[send] operations of one machine and makes
    them allocation-free in steady state (the counter arrays grow to the
    largest field ever routed and are then reused).  Not thread-safe:
    one scratch per machine. *)
type scratch

val scratch : unit -> scratch

(** [get k ~mask ~addr ~src ~dst ()] performs [dst.(p) <- src.(addr.(p))]
    for every [p] with [mask.(p)], in ascending [p] order; [k] names the
    element kind, so the moves are monomorphic.  [?scratch] supplies
    reusable fan-in counters; omitted, a fresh one is allocated for the
    call.
    @raise Invalid_argument if an address is outside [src] (after the
    deliveries before it). *)
val get :
  'a Paris.elt ->
  ?scratch:scratch ->
  mask:bool array ->
  addr:int array ->
  src:'a array ->
  dst:'a array ->
  unit ->
  stats

(** [send k ~mask ~addr ~src ~dst ~combine ()] delivers [src.(p)] to
    [dst.(addr.(p))] for every active [p], in ascending [p] order.  The
    first value to reach a destination overwrites it; later ones merge
    with [combine]: [Ccheck] requires them equal and raises {!Conflict}
    otherwise, [Cover] keeps the first, the others fold the arithmetic
    or bitwise operator in.
    @raise Invalid_argument if an address is outside [dst], or for a
    bitwise combine on floats. *)
val send :
  'a Paris.elt ->
  ?scratch:scratch ->
  mask:bool array ->
  addr:int array ->
  src:'a array ->
  dst:'a array ->
  combine:Paris.combine ->
  unit ->
  stats
