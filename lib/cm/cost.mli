(** Cost model for the simulated Connection Machine.

    The simulator charges time per Paris macro-instruction rather than per
    hardware cycle.  Every parallel instruction pays a fixed front-end
    dispatch overhead ([issue_ns]) plus a class-specific cost scaled by the
    virtual-processor ratio (VPs per physical processor, rounded up).  This
    mirrors the CM-2 execution model where the front end broadcasts
    macro-instructions to the sequencer and the per-instruction time grows
    with the VP ratio. *)

type params = {
  physical_procs : int;  (** number of physical processors (16K in the paper) *)
  issue_ns : float;      (** front-end dispatch overhead per parallel instruction *)
  fe_op_ns : float;      (** one front-end scalar operation *)
  pe_op_ns : float;      (** one elementwise ALU operation, per VP-ratio unit *)
  context_ns : float;    (** context push/pop/and *)
  news_ns : float;       (** NEWS-grid shift, per VP-ratio unit *)
  router_ns : float;     (** general-router get/send, per VP-ratio unit *)
  scan_ns : float;       (** scan / reduction network, per VP-ratio unit *)
  fe_cm_ns : float;      (** single-element front-end <-> CM transfer *)
}

(** Parameters loosely calibrated to a 16K CM-2 driven from a SUN-4 front
    end, tuned so that the benchmark figures land in the same ranges as the
    paper. *)
val cm2_16k : params

(** Aggregate statistics and simulated elapsed time. *)
type meter = {
  params : params;
  mutable elapsed_ns : float;
  mutable fe_ops : int;
  mutable pe_ops : int;        (** parallel ALU / move instructions *)
  mutable context_ops : int;
  mutable news_ops : int;
  mutable router_ops : int;    (** collective router operations *)
  mutable router_messages : int;  (** individual messages delivered *)
  mutable router_collisions : int;
      (** serialization steps beyond the first delivery at the hottest
          destination, summed over router ops ([max_fanin - 1] each) *)
  mutable router_max_fanin : int;  (** worst fan-in seen by any router op *)
  mutable reductions : int;
  mutable scans : int;
  mutable fe_cm_transfers : int;
  mutable ns_fe : float;  (** simulated ns attributed to each class,
                              issue overhead included; the eight [ns_*]
                              fields sum to [elapsed_ns] *)
  mutable ns_pe : float;
  mutable ns_context : float;
  mutable ns_news : float;
  mutable ns_router : float;
  mutable ns_reduce : float;
  mutable ns_scan : float;
  mutable ns_fe_cm : float;
}

val meter : params -> meter

(** [vp_ratio p n] is the number of VPs multiplexed on each physical
    processor for a VP set of [n] elements: [max 1 (ceil (n / physical))]. *)
val vp_ratio : params -> int -> int

(** The simulated ns one PE, NEWS or router instruction takes on a VP
    set of [size] elements: what the matching [charge_*] adds to
    [elapsed_ns]. *)

val pe_dt : params -> size:int -> float
val news_dt : params -> size:int -> float
val router_dt : params -> size:int -> max_fanin:int -> float

(** Charging functions; [size] is the VP-set size of the instruction. *)

val charge_fe : meter -> unit
val charge_pe : meter -> size:int -> unit
val charge_context : meter -> size:int -> unit
val charge_news : meter -> size:int -> unit

(** [charge_router m ~size ~messages ~max_fanin] charges one collective
    router operation.  Congestion is modelled by multiplying the base cost
    by [1 + log2 max_fanin]. *)
val charge_router : meter -> size:int -> messages:int -> max_fanin:int -> unit

val charge_reduce : meter -> size:int -> unit
val charge_scan : meter -> size:int -> unit
val charge_fe_cm : meter -> unit

(** Simulated elapsed time in seconds. *)
val elapsed_seconds : meter -> float

(** The canonical flat metrics view: every counter and per-class ns
    accumulator as [(name, value)] in a fixed order.  Deterministic and
    engine-identical; the single source for the batch report [metrics]
    column, [Machine.publish] and bench rows. *)
val metrics : meter -> (string * float) list

val pp_meter : Format.formatter -> meter -> unit
