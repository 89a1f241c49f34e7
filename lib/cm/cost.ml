type params = {
  physical_procs : int;
  issue_ns : float;
  fe_op_ns : float;
  pe_op_ns : float;
  context_ns : float;
  news_ns : float;
  router_ns : float;
  scan_ns : float;
  fe_cm_ns : float;
}

let cm2_16k =
  {
    physical_procs = 16384;
    issue_ns = 1.0e5;     (* 0.1 ms front-end dispatch per macro-instruction *)
    fe_op_ns = 1.0e3;     (* 1 us scalar op on the SUN-4 front end *)
    pe_op_ns = 5.0e4;     (* 50 us bit-serial 32-bit ALU sweep *)
    context_ns = 2.0e4;
    news_ns = 1.5e5;      (* 0.15 ms NEWS shift *)
    router_ns = 1.2e6;    (* 1.2 ms general-router collective op *)
    scan_ns = 8.0e5;      (* 0.8 ms scan / global reduce *)
    fe_cm_ns = 1.0e5;     (* 0.1 ms single-element transfer *)
  }

type meter = {
  params : params;
  mutable elapsed_ns : float;
  mutable fe_ops : int;
  mutable pe_ops : int;
  mutable context_ops : int;
  mutable news_ops : int;
  mutable router_ops : int;
  mutable router_messages : int;
  mutable router_collisions : int;
  mutable router_max_fanin : int;
  mutable reductions : int;
  mutable scans : int;
  mutable fe_cm_transfers : int;
  (* simulated ns attributed per instruction class (issue overhead
     included), so "where does the time go" is answerable without
     replaying the run; sums to elapsed_ns *)
  mutable ns_fe : float;
  mutable ns_pe : float;
  mutable ns_context : float;
  mutable ns_news : float;
  mutable ns_router : float;
  mutable ns_reduce : float;
  mutable ns_scan : float;
  mutable ns_fe_cm : float;
}

let meter params =
  {
    params;
    elapsed_ns = 0.0;
    fe_ops = 0;
    pe_ops = 0;
    context_ops = 0;
    news_ops = 0;
    router_ops = 0;
    router_messages = 0;
    router_collisions = 0;
    router_max_fanin = 0;
    reductions = 0;
    scans = 0;
    fe_cm_transfers = 0;
    ns_fe = 0.0;
    ns_pe = 0.0;
    ns_context = 0.0;
    ns_news = 0.0;
    ns_router = 0.0;
    ns_reduce = 0.0;
    ns_scan = 0.0;
    ns_fe_cm = 0.0;
  }

let vp_ratio p n =
  if n <= 0 then 1 else max 1 ((n + p.physical_procs - 1) / p.physical_procs)

let ratio p size = float_of_int (vp_ratio p size)

(* The simulated ns one instruction of a class takes; the charges below
   add exactly these. *)
let pe_dt p ~size = p.issue_ns +. (p.pe_op_ns *. ratio p size)
let news_dt p ~size = p.issue_ns +. (p.news_ns *. ratio p size)

let log2f x = if x <= 1 then 0.0 else log (float_of_int x) /. log 2.0

let router_dt p ~size ~max_fanin =
  let congestion = 1.0 +. log2f max_fanin in
  p.issue_ns +. (p.router_ns *. ratio p size *. congestion)

let charge_fe m =
  m.fe_ops <- m.fe_ops + 1;
  m.elapsed_ns <- m.elapsed_ns +. m.params.fe_op_ns;
  m.ns_fe <- m.ns_fe +. m.params.fe_op_ns

let charge_pe m ~size =
  m.pe_ops <- m.pe_ops + 1;
  let dt = pe_dt m.params ~size in
  m.elapsed_ns <- m.elapsed_ns +. dt;
  m.ns_pe <- m.ns_pe +. dt

let charge_context m ~size =
  m.context_ops <- m.context_ops + 1;
  let dt = m.params.issue_ns +. (m.params.context_ns *. ratio m.params size) in
  m.elapsed_ns <- m.elapsed_ns +. dt;
  m.ns_context <- m.ns_context +. dt

let charge_news m ~size =
  m.news_ops <- m.news_ops + 1;
  let dt = news_dt m.params ~size in
  m.elapsed_ns <- m.elapsed_ns +. dt;
  m.ns_news <- m.ns_news +. dt

let charge_router m ~size ~messages ~max_fanin =
  m.router_ops <- m.router_ops + 1;
  m.router_messages <- m.router_messages + messages;
  (* collisions = serialization steps beyond the first delivery at the
     hottest destination, the quantity the congestion term prices *)
  if max_fanin > 1 then
    m.router_collisions <- m.router_collisions + (max_fanin - 1);
  if max_fanin > m.router_max_fanin then m.router_max_fanin <- max_fanin;
  let dt = router_dt m.params ~size ~max_fanin in
  m.elapsed_ns <- m.elapsed_ns +. dt;
  m.ns_router <- m.ns_router +. dt

let charge_reduce m ~size =
  m.reductions <- m.reductions + 1;
  let dt = m.params.issue_ns +. (m.params.scan_ns *. ratio m.params size) in
  m.elapsed_ns <- m.elapsed_ns +. dt;
  m.ns_reduce <- m.ns_reduce +. dt

let charge_scan m ~size =
  m.scans <- m.scans + 1;
  let dt = m.params.issue_ns +. (m.params.scan_ns *. ratio m.params size) in
  m.elapsed_ns <- m.elapsed_ns +. dt;
  m.ns_scan <- m.ns_scan +. dt

let charge_fe_cm m =
  m.fe_cm_transfers <- m.fe_cm_transfers + 1;
  m.elapsed_ns <- m.elapsed_ns +. m.params.fe_cm_ns;
  m.ns_fe_cm <- m.ns_fe_cm +. m.params.fe_cm_ns

let elapsed_seconds m = m.elapsed_ns /. 1.0e9

(* The canonical flat metrics view: deterministic, engine-identical,
   fixed order.  Every consumer of "machine stats" (Report metrics
   column, Machine.publish, bench rows) goes through this one list so
   names never drift between surfaces. *)
let metrics m =
  [
    ("fe_ops", float_of_int m.fe_ops);
    ("pe_ops", float_of_int m.pe_ops);
    ("context_ops", float_of_int m.context_ops);
    ("news_ops", float_of_int m.news_ops);
    ("router_ops", float_of_int m.router_ops);
    ("router_messages", float_of_int m.router_messages);
    ("router_collisions", float_of_int m.router_collisions);
    ("router_max_fanin", float_of_int m.router_max_fanin);
    ("reductions", float_of_int m.reductions);
    ("scans", float_of_int m.scans);
    ("fe_cm_transfers", float_of_int m.fe_cm_transfers);
    ("ns_fe", m.ns_fe);
    ("ns_pe", m.ns_pe);
    ("ns_context", m.ns_context);
    ("ns_news", m.ns_news);
    ("ns_router", m.ns_router);
    ("ns_reduce", m.ns_reduce);
    ("ns_scan", m.ns_scan);
    ("ns_fe_cm", m.ns_fe_cm);
  ]

let pp_meter fmt m =
  Format.fprintf fmt
    "@[<v>elapsed: %.6f s@ fe ops: %d (%.6f s)@ pe ops: %d (%.6f s)@ \
     context ops: %d (%.6f s)@ news ops: %d (%.6f s)@ router ops: %d \
     (messages: %d, collisions: %d, max fan-in: %d; %.6f s)@ reductions: \
     %d (%.6f s)@ scans: %d (%.6f s)@ fe<->cm transfers: %d (%.6f s)@]"
    (elapsed_seconds m) m.fe_ops (m.ns_fe /. 1e9) m.pe_ops (m.ns_pe /. 1e9)
    m.context_ops (m.ns_context /. 1e9) m.news_ops (m.ns_news /. 1e9)
    m.router_ops m.router_messages m.router_collisions m.router_max_fanin
    (m.ns_router /. 1e9) m.reductions (m.ns_reduce /. 1e9) m.scans
    (m.ns_scan /. 1e9) m.fe_cm_transfers (m.ns_fe_cm /. 1e9)
