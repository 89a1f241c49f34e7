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

let axis_offset = Mapping.axis_offset

(* mirror of Codegen.access_plan, parametrized by the layout *)
let classify ~news_opt (a : access) (layout : Mapping.layout) : pat =
  let layout = Mapping.normalize layout in
  let aligned_candidate =
    (match layout with
    | Mapping.Default | Mapping.Shifted _ -> true
    | _ -> false)
    && a.adims = a.aspace
    && List.length a.asubs = List.length a.aspace
    && List.for_all2
         (fun sub axis ->
           match sub with Saffine (ax, _) -> ax = axis | Sopaque _ -> false)
         a.asubs
         (List.init (List.length a.aspace) Fun.id)
  in
  if not aligned_candidate then Router
  else begin
    let deltas =
      List.mapi
        (fun k sub ->
          match sub with
          | Saffine (_, off) -> off - axis_offset layout k
          | Sopaque _ -> assert false)
        a.asubs
    in
    if List.for_all (fun d -> d = 0) deltas then Local
    else
      let nonzero =
        List.filteri (fun k _ -> List.nth deltas k <> 0) deltas
      in
      let axes =
        List.filteri
          (fun k _ -> List.nth deltas k <> 0)
          (List.init (List.length deltas) Fun.id)
      in
      match nonzero, axes with
      | [ d ], [ axis ] when news_opt && abs d <= 2 ->
          (* a cyclic (Shifted) layout wraps, NEWS does not; writes are
             handled by the caller (they never use NEWS) *)
          if layout <> Mapping.Default then Router else News (axis, d)
      | _ -> Router
  end

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

(* Destination fan-in of a router access under [layout]: evaluate the
   physical address per space point and take the hottest destination.
   Falls back to 1 when a subscript depends on runtime values or the
   space is too big to enumerate. *)
let estimate_fanin (a : access) (layout : Mapping.layout) : int * int =
  let layout = Mapping.normalize layout in
  let size = List.fold_left ( * ) 1 a.aspace in
  let evaluators =
    List.map
      (function
        | Saffine (ax, off) -> Some (fun (coords : int array) -> coords.(ax) + off)
        | Sopaque f -> f)
      a.asubs
  in
  if size <= 0 || size > 65536 || List.exists Option.is_none evaluators then
    (size, 1)
  else begin
    let g = Cm.Geometry.create a.aspace in
    let counts = Hashtbl.create 64 in
    let valid = ref 0 in
    let total = List.fold_left ( * ) 1 a.adims in
    let copies = match layout with Mapping.Copied m -> m | _ -> 1 in
    let block =
      match a.aspace with e0 :: _ -> max 1 (e0 / copies) | [] -> 1
    in
    for p = 0 to size - 1 do
      let coords = Cm.Geometry.coords g p in
      let subs = List.map (fun f -> (Option.get f) coords) evaluators in
      let in_range =
        List.for_all2 (fun v d -> v >= 0 && v < d) subs a.adims
      in
      if in_range then begin
        incr valid;
        let base = Mapping.physical_index layout a.adims subs in
        let addr =
          match layout with
          | Mapping.Copied _ when a.arw = `Read ->
              (* reads spread across copies in leading-coordinate blocks
                 (Codegen.gen_general_read) *)
              let sel = coords.(0) / block mod copies in
              (sel * total) + base
          | _ -> base
        in
        Hashtbl.replace counts addr
          (1 + Option.value ~default:0 (Hashtbl.find_opt counts addr))
      end
    done;
    let fanin = Hashtbl.fold (fun _ c acc -> max c acc) counts 1 in
    (!valid, fanin)
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
