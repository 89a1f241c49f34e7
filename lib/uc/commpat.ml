(* Static communication-pattern analysis (the front half of `ucc tune`).

   Codegen's lowering walk records one event per communication-relevant
   operation, with its static execution count (Codegen.record).  This
   module classifies those events under any candidate layout, which is
   what lets Layoutsel score layouts without lowering or running each
   one: predicted router/NEWS counts, and router fan-in. *)

(* the communication-pattern lattice: Local < News < Router *)
type pat =
  | Local
  | News of int * int (* axis, delta *)
  | Router

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
  events : event list; (* in emission order *)
  arrays : (string * int list) list; (* every global array and its dims *)
  options : Codegen.options;
  base_layouts : Mapping.table; (* the table the walk was performed under *)
}

(* ---------------- classification ---------------- *)

(* Codegen's access plan under the candidate layout: NEWS, prefilled or
   not, is one NEWS op *)
let classify ~news_opt (a : access) (layout : Mapping.layout) : pat =
  let aff = function Saffine (ax, off) -> Some (ax, off) | Sopaque _ -> None in
  match
    Codegen.plan ~news_opt (Mapping.normalize layout) ~adims:a.adims
      ~aspace:a.aspace ~avalues:a.avalues (List.map aff a.asubs)
  with
  | `Aligned -> Local
  | `News (axis, d) | `News_prefill (axis, d) -> News (axis, d)
  | `General -> Router

(* a write is local exactly when the access is fully aligned; every
   other plan sends through the router (Codegen.gen_target) *)
let classify_write ~news_opt a layout =
  match classify ~news_opt a layout with
  | Local -> Local
  | News _ | Router -> Router

let pat_of ~news_opt a layout =
  match a.arw with
  | `Read -> classify ~news_opt a layout
  | `Write -> classify_write ~news_opt a layout

(* predicted router/NEWS operation counts under [table]; [exact] is
   false when an estimated-trip event contributed a nonzero count *)
type prediction = {
  p_router_ops : int;
  p_news_ops : int;
  p_exact : bool;
}

let predict summary (table : Mapping.table) : prediction =
  let news_opt = summary.options.Codegen.news_opt in
  let router = ref 0 and news = ref 0 and exact = ref true in
  let bump cell n approx =
    if n > 0 then begin
      cell := !cell + n;
      if approx then exact := false
    end
  in
  List.iter
    (fun ev ->
      match ev with
      | Access a -> (
          let layout = Mapping.find table a.aname in
          match pat_of ~news_opt a layout with
          | Local -> ()
          | News _ -> bump news a.atrips a.aapprox
          | Router ->
              let per_op =
                match a.arw, layout with
                | `Write, Mapping.Copied m -> m
                | _ -> 1
              in
              bump router (a.atrips * per_op) a.aapprox)
      | Activity { trips; approx; _ } -> bump router trips approx
      | Hist_send { trips; approx; _ } -> bump router trips approx
      | Fe_access _ -> ())
    summary.events;
  { p_router_ops = !router; p_news_ops = !news; p_exact = !exact }

(* ---------------- fan-in estimation (for scoring) ---------------- *)

(* Counting takes one word per address, so an estimate whose addresses
   span more than [max_counted] words sorts them instead: a small space
   over a huge array does not grow the counters to the array. *)
let max_counted = 1 lsl 18

(* the largest number of equal entries of [addrs], at least 1 *)
let max_multiplicity addrs =
  Array.sort Int.compare addrs;
  let best = ref 1 and run = ref 0 in
  Array.iteri
    (fun i x ->
      if i > 0 && addrs.(i - 1) = x then incr run else run := 1;
      if !run > !best then best := !run)
    addrs;
  !best

(* Destination fan-in of a router access under [layout]: evaluate the
   physical address per space point and take the hottest destination.
   Falls back to 1 when a subscript depends on runtime values or the
   space is too big to enumerate.  The walk reuses one coordinate and
   one subscript array and counts with Router's epoch-tagged counters,
   so a point costs no allocation. *)
let estimate_fanin ?scratch (a : access) (layout : Mapping.layout) : int =
  let layout = Mapping.normalize layout in
  let size = List.fold_left ( * ) 1 a.aspace in
  if
    size <= 0 || size > 65536
    || List.exists (function Sopaque None -> true | _ -> false) a.asubs
  then 1
  else begin
    let g = Cm.Geometry.create a.aspace in
    let dims = Array.of_list a.adims in
    let subs = Array.of_list a.asubs in
    let nsubs = Array.length subs in
    let coords = Array.make (Cm.Geometry.rank g) 0 in
    let vals = Array.make nsubs 0 in
    let total = Array.fold_left ( * ) 1 dims in
    (* reads spread across copies in leading-coordinate blocks
       (Codegen.gen_general_read); writes address copy 0 *)
    let spread =
      match layout, a.arw with Mapping.Copied m, `Read -> m | _ -> 1
    in
    let block = max 1 (Cm.Geometry.dim g 0 / spread) in
    let span = spread * total in
    let counted = span <= max_counted in
    let sc =
      match scratch with Some sc -> sc | None -> Cm.Router.scratch ()
    in
    let e = if counted then Cm.Router.prepare sc span else 0 in
    let addrs = if counted then [||] else Array.make size 0 in
    let valid = ref 0 and fanin = ref 1 in
    for _ = 1 to size do
      (* evaluate the subscripts until one leaves its dimension *)
      let k = ref 0 in
      while !k < nsubs
            && begin
                 let v =
                   match subs.(!k) with
                   | Saffine (ax, off) -> coords.(ax) + off
                   | Sopaque (Some f) -> f coords
                   | Sopaque None -> assert false
                 in
                 vals.(!k) <- v;
                 v >= 0 && v < dims.(!k)
               end
      do
        incr k
      done;
      if !k = nsubs then begin
        let base = Mapping.physical_index layout dims vals in
        let addr =
          if spread = 1 then base
          else ((coords.(0) / block mod spread) * total) + base
        in
        if counted then begin
          let f = Cm.Router.bump sc e addr in
          if f > !fanin then fanin := f
        end
        else addrs.(!valid) <- addr;
        incr valid
      end;
      Cm.Geometry.next_coords g coords
    done;
    if not counted then fanin := max_multiplicity (Array.sub addrs 0 !valid);
    !fanin
  end

(* ---------------- entry point ---------------- *)

(* [analyze prog] expects a transformed, constant-folded program (the
   exact input Codegen.compile takes).  [layouts] defaults to the
   program's own map sections, like the lowering seam. *)
let analyze ?(options = Codegen.default_options) ?layouts prog : summary =
  let r = Codegen.record ?layouts ~options prog in
  { events = r.events; arrays = r.arrays; options; base_layouts = r.layouts }

(* parse -> check -> transform -> fold -> analyze, one call for tools *)
let analyze_source ?options ?layouts src =
  analyze ?options ?layouts (Compile.prepare (Compile.parse_source src))

(* ---------------- pretty ---------------- *)

let pat_to_string = function
  | Local -> "local"
  | News (axis, d) -> Printf.sprintf "news(axis %d, %+d)" axis d
  | Router -> "router"
