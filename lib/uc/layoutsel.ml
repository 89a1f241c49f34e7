open Commpat

(* Layout optimizer (the back half of `ucc tune`).

   Enumerates candidate layouts per array and scores each one
   *statically* against the calibrated cost model: every communication
   event Codegen recorded is re-classified under the candidate and
   priced with Cm.Cost exactly the way the machine's meter would charge
   the corresponding Paris instruction.  No candidate is lowered or
   run.

   The per-array search is independent because the objective is
   separable: an event's cost depends only on the layout of the array
   it touches, so the argmin over a table decomposes into one argmin
   per array.  Default is always a candidate, which makes the chosen
   table's predicted cost never worse than the default's. *)

type choice = {
  cname : string;
  cdims : int list;
  clayout : Mapping.layout;
  crationale : string;
  cdefault_ns : float; (* predicted comm cost of this array's events *)
  cchosen_ns : float;
}

type result = {
  table : Mapping.table; (* canonical: non-default entries only *)
  choices : choice list; (* every global array, in declaration order *)
  summary : Commpat.summary;
  chosen_prediction : Commpat.prediction;
  default_prediction : Commpat.prediction;
  chosen_ns : float; (* whole-program predicted communication ns *)
  default_ns : float;
}

(* ---------------- static scoring ---------------- *)

(* rough PE charge for the address arithmetic a general access needs;
   keeps the model honest about layouts that trade router ops for
   heavier address computation (fold's div/mod split, copy's spread) *)
let address_pe_ops layout rank =
  let base = 1 + (2 * rank) in
  match layout with
  | Mapping.Default -> base
  | Mapping.Shifted offs ->
      base + (3 * Array.fold_left (fun n o -> if o <> 0 then n + 1 else n) 0 offs)
  | Mapping.Folded _ -> base + 4
  | Mapping.Copied _ -> base + 6

(* [fanins n] is an [estimate_fanin] for the events of a summary of [n]
   events, taking the event's number: one search scores an access under
   every candidate of its array and again under the chosen and default
   tables, and each (event, layout) pair is estimated once, on one set
   of counters. *)
let fanins n =
  let scratch = Cm.Router.scratch () in
  let memo = Array.make n [] in
  fun i a layout ->
    match List.find_opt (fun (l, _) -> Mapping.equal l layout) memo.(i) with
    | Some (_, r) -> r
    | None ->
        let r = estimate_fanin ~scratch a layout in
        memo.(i) <- (layout, r) :: memo.(i);
        r

(* Add event number [i]'s predicted ns under [table] to [ns.(0)]: the
   charges Machine.exec_pget / exec_psend / exec_pnews would make, one
   per trip, added in the order the meter would add them, so the sum is
   the meter's [elapsed_ns] bit for bit.  The running sum is a local
   float and [ns] a float array, so no charge allocates. *)
let charge_event params (ns : float array) ~fanin ~news_opt table (i, ev) =
  let acc = ref ns.(0) in
  (match ev with
  | Access a -> (
      let layout = Mapping.find table a.aname in
      let size = List.fold_left ( * ) 1 a.aspace in
      match pat_of ~news_opt a layout with
      | Local -> ()
      | News _ ->
          let dt = Cm.Cost.news_dt params ~size in
          for _ = 1 to a.atrips do acc := !acc +. dt done
      | Router ->
          let max_fanin = fanin i a layout in
          let copies =
            match a.arw, layout with
            | `Write, Mapping.Copied c -> c
            | _ -> 1
          in
          let ops = address_pe_ops layout (List.length a.adims) in
          let pe = Cm.Cost.pe_dt params ~size in
          (* writes check-combine at their real fan-in; a read's gather
             also pays its fan-in serialization *)
          let router = Cm.Cost.router_dt params ~size ~max_fanin in
          for _ = 1 to a.atrips do
            for _ = 1 to ops do acc := !acc +. pe done;
            for _ = 1 to copies do acc := !acc +. router done
          done)
  | Activity { trips; size; _ } ->
      let dt = Cm.Cost.router_dt params ~size ~max_fanin:1 in
      for _ = 1 to trips do acc := !acc +. dt done
  | Hist_send { trips; isize; _ } ->
      (* combining send: fan-in 1 by construction *)
      let dt = Cm.Cost.router_dt params ~size:isize ~max_fanin:1 in
      for _ = 1 to trips do acc := !acc +. dt done
  | Fe_access { fename; ferw; fetrips } ->
      let layout = Mapping.find table fename in
      let copies =
        match ferw, layout with `Write, Mapping.Copied c -> c | _ -> 1
      in
      let dt = params.Cm.Cost.fe_cm_ns in
      for _ = 1 to fetrips * copies do acc := !acc +. dt done);
  ns.(0) <- !acc

(* predicted communication cost (simulated ns) of numbered [events]
   under [table] *)
let score_numbered params ~fanin summary table events =
  let ns = [| 0.0 |] in
  let news_opt = summary.options.Codegen.news_opt in
  List.iter (charge_event params ns ~fanin ~news_opt table) events;
  ns.(0)

let score ?(params = Cm.Cost.cm2_16k) summary table events =
  score_numbered params
    ~fanin:(fanins (List.length events))
    summary table
    (List.mapi (fun i ev -> (i, ev)) events)

(* ---------------- candidate enumeration ---------------- *)

let touches name = function
  | Access a -> a.aname = name
  | Fe_access f -> f.fename = name
  | Activity _ -> false
  | Hist_send h -> h.count = name

(* offset vectors of aligned-candidate-shaped accesses: making one of
   them the layout turns those sites local *)
let shift_candidates name dims events =
  let rank = List.length dims in
  let vectors = ref [] in
  List.iter
    (fun ev ->
      match ev with
      | Access a
        when a.aname = name && a.adims = a.aspace
             && List.length a.asubs = rank ->
          let affine =
            List.mapi
              (fun k sub ->
                match sub with
                | Saffine (ax, off) when ax = k -> Some off
                | _ -> None)
              a.asubs
          in
          if List.for_all Option.is_some affine then begin
            let v = Array.of_list (List.map Option.get affine) in
            if Array.exists (fun o -> o <> 0) v && not (List.mem v !vectors)
            then vectors := v :: !vectors
          end
      | _ -> ())
    events;
  List.rev_map (fun v -> Mapping.Shifted v) !vectors

let copy_candidates ~fanin name events =
  (* replication only pays when some read gathers with high fan-in *)
  let worth =
    List.exists
      (function
        | i, Access ({ arw = `Read; _ } as a) when a.aname = name -> (
            match classify ~news_opt:true a Mapping.Default with
            | Router -> fanin i a Mapping.Default >= 2
            | _ -> false)
        | _ -> false)
      events
  in
  if worth then List.map (fun c -> Mapping.Copied c) [ 2; 4; 8 ] else []

let fold_candidates dims =
  match dims with
  | d0 :: _ when d0 mod 2 = 0 && d0 >= 4 -> [ Mapping.Folded 2 ]
  | _ -> []

(* ---------------- search ---------------- *)

let describe_layout name = function
  | Mapping.Default -> Printf.sprintf "%s stays on the default layout" name
  | l -> Printf.sprintf "%s remapped: %s" name (Mapping.to_string l)

let search_summary ?(params = Cm.Cost.cm2_16k) (summary : Commpat.summary) :
    result =
  let hist_targets =
    List.filter_map
      (function Hist_send h -> Some h.count | _ -> None)
      summary.events
  in
  let numbered = List.mapi (fun i ev -> (i, ev)) summary.events in
  let fanin = fanins (List.length numbered) in
  let score table events = score_numbered params ~fanin summary table events in
  let choices =
    List.map
      (fun (name, dims) ->
        let events = List.filter (fun (_, ev) -> touches name ev) numbered in
        let cost layout = score [ (name, layout) ] events in
        let default_ns = cost Mapping.Default in
        if List.mem name hist_targets then
          {
            cname = name;
            cdims = dims;
            clayout = Mapping.Default;
            crationale =
              "pinned: histogram combining-send target needs the default \
               layout";
            cdefault_ns = default_ns;
            cchosen_ns = default_ns;
          }
        else begin
          let candidates =
            Mapping.Default
            :: (shift_candidates name dims summary.events
               @ fold_candidates dims @ copy_candidates ~fanin name numbered)
          in
          let best_layout, best_ns =
            List.fold_left
              (fun (bl, bns) l ->
                let ns = cost l in
                (* strict improvement only: ties keep the simpler layout *)
                if ns < bns -. 1e-9 then (l, ns) else (bl, bns))
              (Mapping.Default, default_ns)
              (List.tl candidates)
          in
          let rationale =
            if best_layout = Mapping.Default then
              if events = [] then "unused in communication; default kept"
              else if default_ns = 0. then
                "every access local under the default layout"
              else
                Printf.sprintf
                  "default kept: no candidate beat %.3f ms predicted"
                  (default_ns /. 1e6)
            else
              Printf.sprintf "%s (predicted %.3f ms -> %.3f ms)"
                (describe_layout name best_layout)
                (default_ns /. 1e6) (best_ns /. 1e6)
          in
          {
            cname = name;
            cdims = dims;
            clayout = best_layout;
            crationale = rationale;
            cdefault_ns = default_ns;
            cchosen_ns = best_ns;
          }
        end)
      summary.arrays
  in
  let table =
    Mapping.canonical (List.map (fun c -> (c.cname, c.clayout)) choices)
  in
  {
    table;
    choices;
    summary;
    chosen_prediction = predict summary table;
    default_prediction = predict summary [];
    chosen_ns = score table numbered;
    default_ns = score [] numbered;
  }

(* The walk runs under the all-default table: `ucc tune` synthesizes a
   map section from scratch, ignoring any the program already has. *)
let search ?(options = Codegen.default_options) ?params prog =
  search_summary ?params (Commpat.analyze ~options ~layouts:[] prog)

let search_source ?(options = Codegen.default_options) ?params src =
  search_summary ?params (Commpat.analyze_source ~options ~layouts:[] src)
