open Paris

exception Error = Paris.Program_error
exception Fault = Fault.Fault

type fdata = FInt of int array | FFloat of float array

type engine = [ `Fast | `Reference | `Sharded of int | `Native ]

(* Unchecked element access.  These are the array primitives themselves,
   so the element type at each use picks the access: on an [int array]
   or a [bool array] a plain load or store with no write barrier, on a
   [float array] an unboxed one.  Every kernel annotates its
   arrays, so no access in them is polymorphic. *)
external ( .%() ) : 'a array -> int -> 'a = "%array_unsafe_get"
external ( .%()<- ) : 'a array -> int -> 'a -> unit = "%array_unsafe_set"

(* Live state of a fault plan: a cursor into the serial-sorted event
   array plus per-kind FIFO queues of armed transient faults (an armed
   router fault fires at the first router instruction at or after its
   serial, and so on). *)
type fstate = {
  f_events : (int * Fault.event) array;
  f_origin : string;  (* Fault.canonical of the plan *)
  mutable f_cursor : int;
  mutable f_router : int list;
  mutable f_news : int list;
  mutable f_chip : int list;
}

type t = {
  prog : program;
  meter : Cost.meter;
  regs : scalar array;
  fields : fdata array;
  contexts : Context.t array;
  labels : int array;  (* label id -> code index *)
  engine : engine;
  scratch : Router.scratch;  (* shared fan-in counters, both engines *)
  mutable scan_tmp : int array;  (* Pscan scratch for faultable operators *)
  mutable cur : int;   (* current VP set, -1 before the first Cwith *)
  mutable rand_state : int;
  mutable fuel : int;
  mutable output : string list;  (* reversed *)
  mutable pc : int;
  (* Simulated time is attributed to the current region by accumulating
     into the region's own ref; a [Region] marker just swaps which ref
     [region_acc] points at, so the steady state never touches the
     hashtable. *)
  mutable region_acc : float ref;
  mutable region_name : string;  (* name region_acc accumulates into *)
  regions : (string, float ref) Hashtbl.t;  (* region -> elapsed ns *)
  mutable kernels : (unit -> unit) array option;  (* decoded, lazy *)
  mutable icount : int;  (* executed instruction serial, both engines *)
  fstate : fstate option;
  mutable fault_log : string list;  (* reversed, like output *)
  (* Telemetry scope (Obs.null by default).  Strictly an observer: the
     machine only ever writes into it — region transitions, fault and
     checkpoint events, and the aggregate publish below — so a scope
     never changes program results (enforced by test/test_obs.ml). *)
  obs : Obs.t;
}

let fstate_of_plan ~from plan =
  let events = Fault.events plan in
  let n = Array.length events in
  let cursor = ref 0 in
  while !cursor < n && fst events.(!cursor) < from do incr cursor done;
  {
    f_events = events;
    f_origin = Fault.canonical plan;
    f_cursor = !cursor;
    f_router = [];
    f_news = [];
    f_chip = [];
  }

let resolve_labels prog =
  let labels = Array.make (max prog.nlabels 1) (-1) in
  Array.iteri
    (fun i instr ->
      match instr with
      | Label l ->
          if l < 0 || l >= prog.nlabels then error "undeclared label L%d" l;
          labels.(l) <- i
      | _ -> ())
    prog.code;
  labels

let check_engine = function
  | `Sharded s when s < 1 ->
      invalid_arg "Machine: shard count must be at least 1"
  | _ -> ()

let create ?(cost = Cost.cm2_16k) ?(seed = 12345) ?(fuel = 50_000_000)
    ?(engine = `Fast) ?faults ?(obs = Obs.null) prog =
  check_engine engine;
  let fields =
    Array.map
      (fun (vp, kind) ->
        let n = Geometry.size prog.geoms.(vp) in
        match kind with
        | KInt -> FInt (Array.make n 0)
        | KFloat -> FFloat (Array.make n 0.0))
      prog.fields
  in
  let contexts =
    Array.map (fun g -> Context.create (Geometry.size g)) prog.geoms
  in
  let regions = Hashtbl.create 16 in
  let region_acc = ref 0.0 in
  Hashtbl.add regions "(startup)" region_acc;
  {
    prog;
    meter = Cost.meter cost;
    regs = Array.make (max prog.nregs 1) (SInt 0);
    fields;
    contexts;
    labels = resolve_labels prog;
    engine;
    scratch = Router.scratch ();
    scan_tmp = [||];
    cur = -1;
    rand_state = seed land 0x3FFFFFFF;
    fuel;
    output = [];
    pc = 0;
    region_acc;
    region_name = "(startup)";
    regions;
    kernels = None;
    icount = 0;
    fstate = Option.map (fstate_of_plan ~from:0) faults;
    fault_log = [];
    obs;
  }

let engine m = m.engine
let output m = List.rev m.output
let fault_log m = List.rev m.fault_log
let icount m = m.icount

let set_region m name =
  m.region_name <- name;
  (if Obs.enabled m.obs then
     Obs.point m.obs "cm.region"
       ~attrs:[ ("name", Obs.Json.Str name); ("icount", Obs.Json.Int m.icount) ]);
  match Hashtbl.find_opt m.regions name with
  | Some acc -> m.region_acc <- acc
  | None ->
      let acc = ref 0.0 in
      Hashtbl.add m.regions name acc;
      m.region_acc <- acc

let regions m =
  Hashtbl.fold
    (fun name ns acc ->
      if !ns <> 0.0 then (name, !ns /. 1.0e9) :: acc else acc)
    m.regions []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

let program m = m.prog
let meter m = m.meter
let elapsed_seconds m = Cost.elapsed_seconds m.meter

(* ---- random stream and front-end operands ---- *)

let lcg m =
  m.rand_state <- ((m.rand_state * 1103515245) + 12345) land 0x3FFFFFFF;
  m.rand_state

let rand_mod m modulus =
  if modulus <= 0 then error "rand: non-positive modulus %d" modulus;
  lcg m mod modulus

let fe_val m = function
  | Reg r -> m.regs.(r)
  | Imm s -> s
  | Fld f -> error "field f%d used as a front-end operand" f

(* ---- field access ---- *)

let field_data m f =
  if f < 0 || f >= Array.length m.fields then error "unknown field f%d" f;
  m.fields.(f)

let field_vpset m f = fst m.prog.fields.(f)

let field_ints m f =
  match field_data m f with
  | FInt a -> Array.copy a
  | FFloat _ -> error "field f%d is a float field" f

let field_floats m f =
  match field_data m f with
  | FFloat a -> Array.copy a
  | FInt _ -> error "field f%d is an int field" f

let set_field_ints m f data =
  match field_data m f with
  | FInt a ->
      if Array.length data <> Array.length a then
        error "set_field_ints: length mismatch on f%d" f;
      Array.blit data 0 a 0 (Array.length a)
  | FFloat _ -> error "field f%d is a float field" f

let set_field_floats m f data =
  match field_data m f with
  | FFloat a ->
      if Array.length data <> Array.length a then
        error "set_field_floats: length mismatch on f%d" f;
      Array.blit data 0 a 0 (Array.length a)
  | FInt _ -> error "field f%d is an int field" f

let reg m r = m.regs.(r)
let reg_int m r = to_int m.regs.(r)
let reg_float m r = to_float m.regs.(r)

(* ---- parallel evaluation helpers ---- *)

let cur_vp m = if m.cur < 0 then error "no VP set selected (missing Cwith)" else m.cur
let cur_geom m = m.prog.geoms.(cur_vp m)
let cur_size m = Geometry.size (cur_geom m)
let cur_ctx m = m.contexts.(cur_vp m)

let check_on_current m f what =
  if field_vpset m f <> cur_vp m then
    error "%s: field f%d is not on the current VP set vp%d" what f (cur_vp m)

(* Elementwise int getter for a parallel operand on the current VP set. *)
let geti m op : int -> int =
  match op with
  | Reg r ->
      let v = to_int m.regs.(r) in
      fun _ -> v
  | Imm (SInt v) -> fun _ -> v
  | Imm (SFloat _) -> error "float immediate in int parallel context"
  | Fld f -> (
      check_on_current m f "operand";
      match field_data m f with
      | FInt a -> Array.get a
      | FFloat _ -> error "float field f%d in int parallel context" f)

(* Elementwise float getter (ints are coerced). *)
let getf m op : int -> float =
  match op with
  | Reg r ->
      let v = to_float m.regs.(r) in
      fun _ -> v
  | Imm s ->
      let v = to_float s in
      fun _ -> v
  | Fld f -> (
      check_on_current m f "operand";
      match field_data m f with
      | FInt a -> fun p -> float_of_int a.(p)
      | FFloat a -> Array.get a)

(* Whether an operand is float-kinded (fields by declaration, scalars by
   their runtime value). *)
let operand_is_float m = function
  | Reg r -> ( match m.regs.(r) with SFloat _ -> true | SInt _ -> false)
  | Imm (SFloat _) -> true
  | Imm (SInt _) -> false
  | Fld f -> ( match field_data m f with FFloat _ -> true | FInt _ -> false)

(* ---- reference engine: per-instruction tree walking ---- *)

let exec_pmov m dst a =
  check_on_current m dst "pmov";
  let mask = Context.active (cur_ctx m) in
  Cost.charge_pe m.meter ~size:(cur_size m);
  match field_data m dst with
  | FInt out ->
      let g = geti m a in
      Array.iteri (fun p act -> if act then out.(p) <- g p) mask
  | FFloat out ->
      let g = getf m a in
      Array.iteri (fun p act -> if act then out.(p) <- g p) mask

let exec_pbin m op dst a b =
  check_on_current m dst "pbin";
  let mask = Context.active (cur_ctx m) in
  Cost.charge_pe m.meter ~size:(cur_size m);
  match field_data m dst with
  | FInt out ->
      if is_cmp op && (operand_is_float m a || operand_is_float m b) then begin
        let fa = getf m a and fb = getf m b in
        let cmp = float_cmp op in
        Array.iteri
          (fun p act -> if act then out.(p) <- (if cmp (fa p) (fb p) then 1 else 0))
          mask
      end
      else begin
        let f = int_binop op in
        let ia = geti m a and ib = geti m b in
        Array.iteri (fun p act -> if act then out.(p) <- f (ia p) (ib p)) mask
      end
  | FFloat out ->
      let f = float_binop op in
      let fa = getf m a and fb = getf m b in
      Array.iteri (fun p act -> if act then out.(p) <- f (fa p) (fb p)) mask

let exec_punop m op dst a =
  check_on_current m dst "punop";
  let mask = Context.active (cur_ctx m) in
  Cost.charge_pe m.meter ~size:(cur_size m);
  match field_data m dst, op with
  | FInt out, ToInt ->
      let fa = getf m a in
      Array.iteri
        (fun p act -> if act then out.(p) <- int_of_float (fa p))
        mask
  | FInt out, _ ->
      let ia = geti m a in
      let f = int_unop op in
      Array.iteri (fun p act -> if act then out.(p) <- f (ia p)) mask
  | FFloat out, _ ->
      let fa = getf m a in
      let f = float_unop op in
      Array.iteri (fun p act -> if act then out.(p) <- f (fa p)) mask

let exec_pcoord m dst axis =
  check_on_current m dst "pcoord";
  let g = cur_geom m in
  if axis < 0 || axis >= Geometry.rank g then error "pcoord: bad axis %d" axis;
  let stride = (Geometry.strides g).(axis) in
  let extent = Geometry.dim g axis in
  let mask = Context.active (cur_ctx m) in
  Cost.charge_pe m.meter ~size:(cur_size m);
  match field_data m dst with
  | FInt out ->
      Array.iteri
        (fun p act -> if act then out.(p) <- p / stride mod extent)
        mask
  | FFloat _ -> error "pcoord into a float field"

let exec_ptable m dst table =
  (* compile-time constant data: loaded with the program, charged as one
     elementwise move; written regardless of context *)
  check_on_current m dst "ptable";
  if Array.length table <> cur_size m then
    error "ptable: table length does not match the VP set";
  Cost.charge_pe m.meter ~size:(cur_size m);
  match field_data m dst with
  | FInt out -> Array.blit table 0 out 0 (Array.length out)
  | FFloat _ -> error "ptable into a float field"

let exec_prand m dst modulus =
  check_on_current m dst "prand";
  let modv = to_int (fe_val m modulus) in
  let mask = Context.active (cur_ctx m) in
  Cost.charge_pe m.meter ~size:(cur_size m);
  match field_data m dst with
  | FInt out ->
      Array.iteri (fun p act -> if act then out.(p) <- rand_mod m modv) mask
  | FFloat _ -> error "prand into a float field"

let exec_psel m dst c a b =
  check_on_current m dst "psel";
  let mask = Context.active (cur_ctx m) in
  Cost.charge_pe m.meter ~size:(cur_size m);
  let fc = getf m c in
  match field_data m dst with
  | FInt out ->
      let ia = geti m a and ib = geti m b in
      Array.iteri
        (fun p act -> if act then out.(p) <- (if fc p <> 0.0 then ia p else ib p))
        mask
  | FFloat out ->
      let fa = getf m a and fb = getf m b in
      Array.iteri
        (fun p act -> if act then out.(p) <- (if fc p <> 0.0 then fa p else fb p))
        mask

let addr_array m f =
  check_on_current m f "address";
  match field_data m f with
  | FInt a -> a
  | FFloat _ -> error "address field f%d must be an int field" f

let exec_pget m dst src addr =
  check_on_current m dst "pget";
  let mask = Context.active (cur_ctx m) in
  let addr = addr_array m addr in
  let stats =
    try
      match field_data m dst, field_data m src with
      | FInt d, FInt s ->
          Router.get EInt ~scratch:m.scratch ~mask ~addr ~src:s ~dst:d ()
      | FFloat d, FFloat s ->
          Router.get EFloat ~scratch:m.scratch ~mask ~addr ~src:s ~dst:d ()
      | _ -> error "pget: kind mismatch between f%d and f%d" dst src
    with Invalid_argument msg -> error "pget: %s" msg
  in
  Cost.charge_router m.meter ~size:(cur_size m) ~messages:stats.messages
    ~max_fanin:stats.max_fanin

let check_float_combine = function
  | Cor | Cand | Cxor -> error "bitwise combine on a float field"
  | Ccheck | Cover | Cadd | Cmin | Cmax -> ()

let exec_psend m dst src addr combine =
  check_on_current m src "psend";
  let mask = Context.active (cur_ctx m) in
  let addr = addr_array m addr in
  let stats =
    try
      match field_data m dst, field_data m src with
      | FInt d, FInt s ->
          Router.send EInt ~scratch:m.scratch ~mask ~addr ~src:s ~dst:d
            ~combine ()
      | FFloat d, FFloat s ->
          check_float_combine combine;
          Router.send EFloat ~scratch:m.scratch ~mask ~addr ~src:s ~dst:d
            ~combine ()
      | _ -> error "psend: kind mismatch between f%d and f%d" dst src
    with
    | Invalid_argument msg -> error "psend: %s" msg
    | Router.Conflict a ->
        error
          "parallel assignment conflict: multiple distinct values sent to \
           element %d of field f%d"
          a dst
  in
  (* combining sends merge in the network, so they do not pay the
     destination fan-in serialisation that plain sends do *)
  let fanin = match combine with Ccheck -> stats.max_fanin | _ -> 1 in
  Cost.charge_router m.meter ~size:(cur_size m) ~messages:stats.messages
    ~max_fanin:fanin

let exec_pnews m dst src axis delta =
  check_on_current m dst "pnews";
  check_on_current m src "pnews";
  let g = cur_geom m in
  let mask = Context.active (cur_ctx m) in
  (try
     match field_data m dst, field_data m src with
     | FInt d, FInt s -> ignore (News.shift EInt ~mask g ~axis ~delta s d)
     | FFloat d, FFloat s -> ignore (News.shift EFloat ~mask g ~axis ~delta s d)
     | _ -> error "pnews: kind mismatch between f%d and f%d" dst src
   with Invalid_argument msg -> error "pnews: %s" msg);
  Cost.charge_news m.meter ~size:(cur_size m)

let reduce_any mask get_first n identity =
  let rec go p = if p >= n then identity else if mask.(p) then get_first p else go (p + 1) in
  go 0

let exec_preduce m op r fld =
  check_on_current m fld "preduce";
  let mask = Context.active (cur_ctx m) in
  Cost.charge_reduce m.meter ~size:(cur_size m);
  let result =
    match field_data m fld with
    | FInt a ->
        if op = Any then
          SInt (reduce_any mask (Array.get a) (Array.length a) Paris.inf_int)
        else
          SInt
            (Scan.masked_reduce (int_binop op)
               (to_int (identity op KInt))
               mask a)
    | FFloat a ->
        if op = Any then
          SFloat (reduce_any mask (Array.get a) (Array.length a) infinity)
        else
          SFloat
            (Scan.masked_reduce (float_binop op)
               (to_float (identity op KFloat))
               mask a)
  in
  m.regs.(r) <- result

let exec_pcount m r =
  Cost.charge_reduce m.meter ~size:(cur_size m);
  m.regs.(r) <- SInt (Context.count_active (cur_ctx m))

let exec_preduce_axis m op dst src =
  check_on_current m src "preduce-axis";
  let dst_vp = field_vpset m dst in
  let outer = m.prog.geoms.(dst_vp) in
  let whole = cur_geom m in
  if not (Geometry.is_prefix_of outer whole) then
    error "preduce-axis: geometry of f%d is not a prefix of the current set" dst;
  let mask = Context.active (cur_ctx m) in
  Cost.charge_reduce m.meter ~size:(cur_size m);
  let outer_size = Geometry.size outer in
  (try
     match field_data m dst, field_data m src with
     | FInt d, FInt s ->
         Scan.reduce_trailing_axes whole ~outer_size (int_binop op)
           (to_int (identity op KInt))
           mask s d
     | FFloat d, FFloat s ->
         Scan.reduce_trailing_axes whole ~outer_size (float_binop op)
           (to_float (identity op KFloat))
           mask s d
     | _ -> error "preduce-axis: kind mismatch between f%d and f%d" dst src
   with Invalid_argument msg -> error "preduce-axis: %s" msg)

(* Scans write [d] directly, in place when [d == s] (see Scan.scan_axis).
   A faultable int operator scans into the machine's scratch first, so a
   fault mid-scan leaves [d] untouched.  Both engines use this. *)
let scan_ints m g axis op (s : int array) (d : int array) =
  let f = int_binop op in
  (* total whatever the right operand *)
  if int_op_total op (Fld 0) then Scan.scan_axis g axis f s d
  else begin
    if Array.length m.scan_tmp <> Array.length s then
      m.scan_tmp <- Array.make (Array.length s) 0;
    let t = m.scan_tmp in
    Scan.scan_axis g axis f s t;
    for p = 0 to Array.length d - 1 do d.%(p) <- t.%(p) done
  end

let exec_pscan m op dst src axis =
  check_on_current m dst "pscan";
  check_on_current m src "pscan";
  let g = cur_geom m in
  Cost.charge_scan m.meter ~size:(cur_size m);
  try
    match field_data m dst, field_data m src with
    | FInt d, FInt s -> scan_ints m g axis op s d
    | FFloat d, FFloat s -> Scan.scan_axis g axis (float_binop op) s d
    | _ -> error "pscan: kind mismatch between f%d and f%d" dst src
  with Invalid_argument msg -> error "pscan: %s" msg

let exec_cand m fld =
  check_on_current m fld "cand";
  Cost.charge_context m.meter ~size:(cur_size m);
  let mask =
    match field_data m fld with
    | FInt a -> Array.map (fun v -> v <> 0) a
    | FFloat a -> Array.map (fun v -> v <> 0.0) a
  in
  Context.land_mask (cur_ctx m) mask

(* ---- fault injection ---- *)

(* Both engines call [inject] at the same point — after the fuel check,
   before any state of the instruction is touched — so a plan perturbs
   them bit-identically, and a raised [Fault] leaves the machine exactly
   at the pre-instruction state (resumable from an earlier checkpoint). *)

(* Memory bit flips resolve raw plan coordinates modulo the actual
   field/element/bit counts, so any integers address something real. *)
let apply_flip m ~field ~element ~bit =
  let nf = Array.length m.fields in
  if nf > 0 then begin
    let f = ((field mod nf) + nf) mod nf in
    let log kind e b =
      m.fault_log <-
        Printf.sprintf "bit flip at instruction %d: f%d[%d] bit %d (%s)"
          m.icount f e b kind
        :: m.fault_log;
      if Obs.enabled m.obs then begin
        Obs.count m.obs "cm.faults.flips" 1;
        Obs.point m.obs "cm.fault.flip"
          ~attrs:
            [
              ("icount", Obs.Json.Int m.icount);
              ("field", Obs.Json.Int f);
              ("element", Obs.Json.Int e);
              ("bit", Obs.Json.Int b);
              ("kind", Obs.Json.Str kind);
            ]
      end
    in
    match m.fields.(f) with
    | FInt a ->
        let len = Array.length a in
        if len > 0 then begin
          let e = ((element mod len) + len) mod len in
          let b = ((bit mod 32) + 32) mod 32 in
          a.(e) <- a.(e) lxor (1 lsl b);
          log "int" e b
        end
    | FFloat a ->
        let len = Array.length a in
        if len > 0 then begin
          let e = ((element mod len) + len) mod len in
          let b = ((bit mod 64) + 64) mod 64 in
          a.(e) <-
            Int64.float_of_bits
              (Int64.logxor (Int64.bits_of_float a.(e)) (Int64.shift_left 1L b));
          log "float" e b
        end
  end

let fire m instr kind sched =
  let msg =
    Printf.sprintf "transient %s fault at instruction %d (%s, armed at %d)"
      (Fault.kind_name kind) m.icount (mnemonic instr) sched
  in
  m.fault_log <- msg :: m.fault_log;
  if Obs.enabled m.obs then begin
    Obs.count m.obs "cm.faults.transients" 1;
    Obs.point m.obs "cm.fault.transient"
      ~attrs:
        [
          ("icount", Obs.Json.Int m.icount);
          ("kind", Obs.Json.Str (Fault.kind_name kind));
          ("armed_at", Obs.Json.Int sched);
          ("instr", Obs.Json.Str (mnemonic instr));
        ]
  end;
  raise (Fault.Fault msg)

let inject m instr =
  match m.fstate with
  | None -> ()
  | Some fs ->
      let s = m.icount in
      let n = Array.length fs.f_events in
      (* absorb every event scheduled at or before this serial: flips
         apply immediately, transients arm on their kind's queue *)
      while fs.f_cursor < n && fst fs.f_events.(fs.f_cursor) <= s do
        let sched, ev = fs.f_events.(fs.f_cursor) in
        fs.f_cursor <- fs.f_cursor + 1;
        match ev with
        | Fault.Flip { field; element; bit } -> apply_flip m ~field ~element ~bit
        | Fault.Transient Fault.Router -> fs.f_router <- fs.f_router @ [ sched ]
        | Fault.Transient Fault.News -> fs.f_news <- fs.f_news @ [ sched ]
        | Fault.Transient Fault.Chip -> fs.f_chip <- fs.f_chip @ [ sched ]
      done;
      if fs.f_router <> [] || fs.f_news <> [] || fs.f_chip <> [] then begin
        (* an armed fault fires at the first instruction that exercises
           its hardware; a chip fault can fire on any processor sweep *)
        let fire_chip () =
          match fs.f_chip with
          | sched :: rest ->
              fs.f_chip <- rest;
              fire m instr Fault.Chip sched
          | [] -> ()
        in
        match unit_of instr with
        | Urouter -> (
            match fs.f_router with
            | sched :: rest ->
                fs.f_router <- rest;
                fire m instr Fault.Router sched
            | [] -> fire_chip ())
        | Unews -> (
            match fs.f_news with
            | sched :: rest ->
                fs.f_news <- rest;
                fire m instr Fault.News sched
            | [] -> fire_chip ())
        | Upe | Ucontext | Ureduce | Uscan -> fire_chip ()
        | Ufe | Ufe_cm | Ufree -> ()
      end

let run_reference ?steps m =
  let code = m.prog.code in
  let n = Array.length code in
  let budget = ref (match steps with None -> max_int | Some s -> s) in
  let jump l =
    let target = m.labels.(l) in
    if target < 0 then error "jump to unplaced label L%d" l;
    m.pc <- target
  in
  while m.pc < n && !budget > 0 do
    if m.fuel <= 0 then error "fuel exhausted (non-terminating program?)";
    let i = m.pc in
    inject m code.(i);
    m.fuel <- m.fuel - 1;
    m.icount <- m.icount + 1;
    m.pc <- m.pc + 1;
    decr budget;
    let t0 = m.meter.Cost.elapsed_ns in
    (match code.(i) with
    | Label _ | Comment _ -> ()
    | Region r -> set_region m r
    | Fprint (s, a) ->
        let line =
          match a with
          | None -> s
          | Some op -> (
              match fe_val m op with
              | SInt i -> Printf.sprintf "%s%d" s i
              | SFloat f -> Printf.sprintf "%s%g" s f)
        in
        m.output <- line :: m.output
    | Halt -> m.pc <- n
    | Fmov (r, a) ->
        Cost.charge_fe m.meter;
        m.regs.(r) <- fe_val m a
    | Fbin (op, r, a, b) ->
        Cost.charge_fe m.meter;
        m.regs.(r) <- fe_bin op (fe_val m a) (fe_val m b)
    | Funop (op, r, a) ->
        Cost.charge_fe m.meter;
        m.regs.(r) <- fe_unop op (fe_val m a)
    | Frand (r, a) ->
        Cost.charge_fe m.meter;
        m.regs.(r) <- SInt (rand_mod m (to_int (fe_val m a)))
    | Fread (r, fld, a) ->
        Cost.charge_fe_cm m.meter;
        let addr = to_int (fe_val m a) in
        (match field_data m fld with
        | FInt arr ->
            if addr < 0 || addr >= Array.length arr then
              error "fread: address %d out of range on f%d" addr fld;
            m.regs.(r) <- SInt arr.(addr)
        | FFloat arr ->
            if addr < 0 || addr >= Array.length arr then
              error "fread: address %d out of range on f%d" addr fld;
            m.regs.(r) <- SFloat arr.(addr))
    | Fwrite (fld, a, v) ->
        Cost.charge_fe_cm m.meter;
        let addr = to_int (fe_val m a) in
        let value = fe_val m v in
        (match field_data m fld with
        | FInt arr ->
            if addr < 0 || addr >= Array.length arr then
              error "fwrite: address %d out of range on f%d" addr fld;
            arr.(addr) <- to_int value
        | FFloat arr ->
            if addr < 0 || addr >= Array.length arr then
              error "fwrite: address %d out of range on f%d" addr fld;
            arr.(addr) <- to_float value)
    | Jmp l ->
        Cost.charge_fe m.meter;
        jump l
    | Jz (a, l) ->
        Cost.charge_fe m.meter;
        if not (truthy (fe_val m a)) then jump l
    | Jnz (a, l) ->
        Cost.charge_fe m.meter;
        if truthy (fe_val m a) then jump l
    | Pmov (dst, a) -> exec_pmov m dst a
    | Pbin (op, dst, a, b) -> exec_pbin m op dst a b
    | Punop (op, dst, a) -> exec_punop m op dst a
    | Pcoord (dst, axis) -> exec_pcoord m dst axis
    | Ptable (dst, table) -> exec_ptable m dst table
    | Prand (dst, modulus) -> exec_prand m dst modulus
    | Psel (dst, c, a, b) -> exec_psel m dst c a b
    | Pget (dst, src, addr) -> exec_pget m dst src addr
    | Psend (dst, src, addr, combine) -> exec_psend m dst src addr combine
    | Pnews (dst, src, axis, delta) -> exec_pnews m dst src axis delta
    | Preduce (op, r, fld) -> exec_preduce m op r fld
    | Pcount r -> exec_pcount m r
    | Preduce_axis (op, dst, src) -> exec_preduce_axis m op dst src
    | Pscan (op, dst, src, axis) -> exec_pscan m op dst src axis
    | Cwith vp ->
        if vp < 0 || vp >= Array.length m.prog.geoms then
          error "cwith: unknown VP set vp%d" vp;
        Cost.charge_fe m.meter;
        m.cur <- vp
    | Cpush ->
        Cost.charge_context m.meter ~size:(cur_size m);
        Context.push (cur_ctx m)
    | Cand fld -> exec_cand m fld
    | Cpop ->
        Cost.charge_context m.meter ~size:(cur_size m);
        (try Context.pop (cur_ctx m)
         with Failure _ -> error "cpop: context stack underflow")
    | Creset ->
        Cost.charge_context m.meter ~size:(cur_size m);
        Context.reset (cur_ctx m)
    | Cread fld ->
        check_on_current m fld "cread";
        Cost.charge_context m.meter ~size:(cur_size m);
        (match field_data m fld with
        | FInt out ->
            let mask = Context.active (cur_ctx m) in
            Array.iteri (fun p act -> out.(p) <- (if act then 1 else 0)) mask
        | FFloat _ -> error "cread into a float field"));
    let dt = m.meter.Cost.elapsed_ns -. t0 in
    if dt > 0.0 then m.region_acc := !(m.region_acc) +. dt
  done

(* ---- fast engine: pre-decoded instruction kernels ---- *)

(* [compile] translates the program once into an array of closures, one
   per instruction, with operand shapes, field kinds, VP-set ids, label
   targets and geometry constants resolved at decode time.  The run loop
   is then [kernels.(pc) ()] over monomorphic int/float array loops.

   The invariant (enforced by test/test_engine.ml) is bit-identical
   observable behaviour with [run_reference]: same register, field and
   output contents, same statistics and simulated nanoseconds, same
   error messages, same LCG stream, including the exact order of
   per-element effects (router deliveries, rand draws, partial writes
   before a mid-loop fault).  Errors the reference discovers while
   executing (bad operator for a kind, operand kind mismatch, ...) are
   deferred here into lazy values forced at the same point of the
   kernel, after the same checks and charges. *)

(* A parallel operand resolves once per execution (registers are read at
   execution time) to one of these shapes; the loops specialize on them. *)
type ires = IArr of int array | IVal of int
type fres = FArr of float array | FIArr of int array | FVal of float

let[@inline] iget r p = match r with IArr a -> a.%(p) | IVal v -> v

let[@inline] fget r p =
  match r with
  | FArr a -> a.%(p)
  | FIArr a -> float_of_int a.%(p)
  | FVal v -> v

(* Kernel rules (DESIGN §8).  An elementwise kernel matches on the
   operator and the operand shapes once, outside its loop, and then runs
   a loop that only loads, computes and stores: no closure call per
   element, no polymorphic array access, no allocation that grows with
   the VP count.  The loops are generated at build time (lib/cm/unroll)
   from the operator tables below: a [match%table] case is one loop per
   row of its tables, and a [for%kernel] loop is one all-active and one
   masked [for%unroll] loop, four elements per trip, then at most three
   more, in ascending order, so a fold keeps its order and a faulting
   element leaves exactly the writes before it.  Operators and shapes
   without a table row (the faultable int operators, a scalar-scalar
   int pair) take Paris's closure; an int field read as floats takes
   the generic float loop, which matches the operand shape per
   element.

   Index safety: every loop below runs p over [lo, hi) with 0 <= lo <=
   hi <= nv where nv is the VP-set size.  Decode only admits field
   arrays of exactly that length, and the activity flags of a VP set
   have that length too, so the unchecked accesses are in bounds by
   construction.  An instruction's kernel sweeps the whole range
   [0, nv); a per-axis reduction folds one sub-range per outer
   position. *)

let b2i = Bool.to_int

(* The operator tables: one row per operator, its element expression
   over [x] and [y], as [Paris.int_binop], [float_binop], [float_cmp],
   [int_unop] and [float_unop] compute it.  Operands are never swapped:
   with two NaN operands a float result's payload depends on their
   order. *)
let%table int_op = function
  | Add -> x + y
  | Sub -> x - y
  | Mul -> x * y
  | Min -> Int.min x y
  | Max -> Int.max x y
  | Land -> b2i (x <> 0 && y <> 0)
  | Lor -> b2i (x <> 0 || y <> 0)
  | Band -> x land y
  | Bor -> x lor y
  | Bxor -> x lxor y

(* on ints or on floats (IEEE: NaN compares unequal) *)
let%table cmp = function
  | Eq -> b2i (x = y)
  | Ne -> b2i (x <> y)
  | Lt -> b2i (x < y)
  | Le -> b2i (x <= y)
  | Gt -> b2i (x > y)
  | Ge -> b2i (x >= y)

let%table float_op = function Add -> x +. y | Sub -> x -. y | Mul -> x *. y | Div -> x /. y

(* These rows call C per element ([fmod], and [signbit] inside
   [Float.min] and [max]).  With a call in the same function, ocamlopt
   keeps a kernel's arrays in stack slots, reloaded on every element of
   every loop, so [bin_fcall] holds their elementwise loops. *)
let%table float_call = function Mod -> Float.rem x y | Min -> Float.min x y | Max -> Float.max x y

let%table int_un = function Neg -> -x | Lnot -> b2i (x = 0) | Bnot -> lnot x | Abs -> abs x
let%table float_un = function Neg -> -.x | Abs -> Float.abs x

(* The elementwise kernels take their operands first and the range
   ([all], the flags [m], [lo, hi)) last, so decode applies them to the
   resolved operands and hands the rest to the sweep. *)
let mov_int (o : int array) r all (m : bool array) lo hi =
  match r with
  | IArr a -> for%kernel p = lo to hi - 1 do o.%(p) <- a.%(p) done
  | IVal v -> for%kernel p = lo to hi - 1 do o.%(p) <- v done

let mov_float (o : float array) r all (m : bool array) lo hi =
  match r with
  | FArr a when all -> Array.blit a lo o lo (hi - lo) (* a float blit is a memmove *)
  | FArr a -> for%kernel p = lo to hi - 1 do o.%(p) <- a.%(p) done
  | FVal v -> for%kernel p = lo to hi - 1 do o.%(p) <- v done
  | FIArr a -> for%kernel p = lo to hi - 1 do o.%(p) <- float_of_int a.%(p) done

(* [f] is Paris's closure for [op]: the loop of an operator without a
   row, or of two scalars.  A faultable operator raises at the first
   faulting active element, after the writes before it. *)
let bin_int (o : int array) op (f : int -> int -> int) ra rb all (m : bool array) lo hi =
  match%table op, ra, rb with
  | (int_op | cmp), IArr a, IArr b ->
      for%kernel p = lo to hi - 1 do o.%(p) <- op a.%(p) b.%(p) done
  | (int_op | cmp), IArr a, IVal k -> for%kernel p = lo to hi - 1 do o.%(p) <- op a.%(p) k done
  | (int_op | cmp), IVal k, IArr b -> for%kernel p = lo to hi - 1 do o.%(p) <- op k b.%(p) done
  | _ ->
      for%unroll p = lo to hi - 1 do
        if all || m.%(p) then o.%(p) <- f (iget ra p) (iget rb p)
      done

let bin_fcall (o : float array) op ra rb all (m : bool array) lo hi =
  match%table op with
  | float_call -> for%kernel p = lo to hi - 1 do o.%(p) <- op (fget ra p) (fget rb p) done
  | _ -> assert false

(* [op] must be valid on floats (the caller forced [float_binop op]). *)
let bin_float (o : float array) op ra rb all (m : bool array) lo hi =
  match%table op, ra, rb with
  | float_op, FArr a, FArr b -> for%kernel p = lo to hi - 1 do o.%(p) <- op a.%(p) b.%(p) done
  | float_op, FArr a, FVal k -> for%kernel p = lo to hi - 1 do o.%(p) <- op a.%(p) k done
  | float_op, FVal k, FArr b -> for%kernel p = lo to hi - 1 do o.%(p) <- op k b.%(p) done
  | float_op, _, _ ->
      for%kernel p = lo to hi - 1 do o.%(p) <- op (fget ra p) (fget rb p) done
  | _ -> bin_fcall o op ra rb all m lo hi

(* Float comparison into an int field. *)
let cmp_float (o : int array) op ra rb all (m : bool array) lo hi =
  match%table op, ra, rb with
  | cmp, FArr a, FArr b -> for%kernel p = lo to hi - 1 do o.%(p) <- op a.%(p) b.%(p) done
  | cmp, FArr a, FVal k -> for%kernel p = lo to hi - 1 do o.%(p) <- op a.%(p) k done
  | cmp, FVal k, FArr b -> for%kernel p = lo to hi - 1 do o.%(p) <- op k b.%(p) done
  | cmp, _, _ -> for%kernel p = lo to hi - 1 do o.%(p) <- op (fget ra p) (fget rb p) done
  | _ -> assert false

(* Unary operators; none faults, so a scalar operand is one value
   broadcast. *)
let un_int (o : int array) op r all (m : bool array) lo hi =
  match%table op, r with
  | _, IVal v -> mov_int o (IVal (int_unop op v)) all m lo hi
  | int_un, IArr a -> for%kernel p = lo to hi - 1 do o.%(p) <- op a.%(p) done
  | _ -> assert false

let un_float (o : float array) op r all (m : bool array) lo hi =
  match%table op, r with
  | ToFloat, _ -> mov_float o r all m lo hi
  | _, FVal v -> mov_float o (FVal (float_unop op v)) all m lo hi
  | float_un, FArr a -> for%kernel p = lo to hi - 1 do o.%(p) <- op a.%(p) done
  | float_un, _ -> for%kernel p = lo to hi - 1 do o.%(p) <- op (fget r p) done
  | _ -> assert false

let toint_loop (o : int array) r all (m : bool array) lo hi =
  match r with
  | FVal v -> mov_int o (IVal (int_of_float v)) all m lo hi
  | FArr a -> for%kernel p = lo to hi - 1 do o.%(p) <- int_of_float a.%(p) done
  | FIArr _ -> for%kernel p = lo to hi - 1 do o.%(p) <- int_of_float (fget r p) done

(* Selects: a scalar condition is a move of one operand; an int field
   condition (what comparisons produce) has typed loops per operand
   shape; any other condition, and an int field read as a float
   operand, takes the generic loop. *)
let[@inline] sel_test rc p =
  match rc with
  | FArr c -> c.%(p) <> 0.0
  | FIArr c -> c.%(p) <> 0
  | FVal v -> v <> 0.0

(* The generic loops are functions of their own: with one beside them,
   the typed loops reload [o] from the stack on every element. *)
let sel_int_generic (o : int array) rc ra rb all (m : bool array) lo hi =
  for%kernel p = lo to hi - 1 do o.%(p) <- (if sel_test rc p then iget ra p else iget rb p) done

let sel_float_generic (o : float array) rc ra rb all (m : bool array) lo hi =
  for%kernel p = lo to hi - 1 do o.%(p) <- (if sel_test rc p then fget ra p else fget rb p) done

let sel_int (o : int array) rc ra rb all (m : bool array) lo hi =
  match rc, ra, rb with
  | FVal v, _, _ -> mov_int o (if v <> 0.0 then ra else rb) all m lo hi
  | FIArr c, IArr a, IArr b ->
      for%kernel p = lo to hi - 1 do o.%(p) <- (if c.%(p) <> 0 then a.%(p) else b.%(p)) done
  | FIArr c, IArr a, IVal k ->
      for%kernel p = lo to hi - 1 do o.%(p) <- (if c.%(p) <> 0 then a.%(p) else k) done
  | FIArr c, IVal j, IArr b ->
      for%kernel p = lo to hi - 1 do o.%(p) <- (if c.%(p) <> 0 then j else b.%(p)) done
  | FIArr c, IVal j, IVal k ->
      for%kernel p = lo to hi - 1 do o.%(p) <- (if c.%(p) <> 0 then j else k) done
  | _ -> sel_int_generic o rc ra rb all m lo hi

let sel_float (o : float array) rc ra rb all (m : bool array) lo hi =
  match rc, ra, rb with
  | FVal v, _, _ -> mov_float o (if v <> 0.0 then ra else rb) all m lo hi
  | FIArr c, FArr a, FArr b ->
      for%kernel p = lo to hi - 1 do o.%(p) <- (if c.%(p) <> 0 then a.%(p) else b.%(p)) done
  | FIArr c, FArr a, FVal k ->
      for%kernel p = lo to hi - 1 do o.%(p) <- (if c.%(p) <> 0 then a.%(p) else k) done
  | FIArr c, FVal j, FArr b ->
      for%kernel p = lo to hi - 1 do o.%(p) <- (if c.%(p) <> 0 then j else b.%(p)) done
  | FIArr c, FVal j, FVal k ->
      for%kernel p = lo to hi - 1 do o.%(p) <- (if c.%(p) <> 0 then j else k) done
  | _ -> sel_float_generic o rc ra rb all m lo hi

(* Ranged coordinate fill (Pcoord's loop body): [p / stride mod extent]
   is constant on each run of [stride] positions, so the loop fills runs
   and steps the coordinate between them.  On the last axis (stride 1)
   every run is one position: the coordinate counts up from
   [lo mod extent] and wraps at [extent]. *)
let coord_loop (o : int array) ~stride ~extent all (m : bool array) lo hi =
  if stride = 1 then begin
    let c = ref (lo mod extent) in
    if all then
      for%unroll p = lo to hi - 1 do
        o.%(p) <- !c;
        c := if !c + 1 = extent then 0 else !c + 1
      done
    else
      for%unroll p = lo to hi - 1 do
        if m.%(p) then o.%(p) <- !c;
        c := if !c + 1 = extent then 0 else !c + 1
      done
  end
  else begin
    let c = ref (lo / stride mod extent) in
    let s = ref lo in
    while !s < hi do
      let e = Int.min hi (!s - (!s mod stride) + stride) and v = !c in
      for%kernel p = !s to e - 1 do o.%(p) <- v done;
      s := e;
      c := if v + 1 = extent then 0 else v + 1
    done
  end

(* Ranged context read (Cread's loop body). *)
let cread_loop (o : int array) all (m : bool array) lo hi =
  if all then for%unroll p = lo to hi - 1 do o.%(p) <- 1 done
  else
    for%unroll p = lo to hi - 1 do o.%(p) <- b2i m.%(p) done

(* Masked folds of [a.(lo .. hi - 1)] starting from [acc], for every
   operator with an identity: a sequential left fold, as the operator
   table's closure would compute it. *)
let ired all (m : bool array) lo hi op acc (a : int array) =
  let acc = ref acc in
  (match%table op with
  | int_op -> for%kernel p = lo to hi - 1 do acc := op !acc a.%(p) done
  | _ -> assert false);
  !acc

(* The float fold stores its result into [out.(i)]: a returned float
   would be boxed, once per call. *)
let fred all (m : bool array) lo hi op acc (a : float array) (out : float array) i =
  let acc = ref acc in
  (match%table op with
  | float_op | float_call -> for%kernel p = lo to hi - 1 do acc := op !acc a.%(p) done
  | _ -> assert false);
  out.%(i) <- !acc

(* [Any]: the first active element, or the identity when none is. *)
let iany (m : bool array) nv (a : int array) =
  let p = ref 0 in
  while !p < nv && not m.%(!p) do incr p done;
  if !p < nv then a.%(!p) else Paris.inf_int

let fany (m : bool array) nv (a : float array) =
  let p = ref 0 in
  while !p < nv && not m.%(!p) do incr p done;
  if !p < nv then a.%(!p) else infinity

(* Resolvers for parallel operands.  Decode-time facts (field identity,
   kind, VP set) are burned in; register contents are read per execution.
   Errors keep the reference's message and are raised when the resolver
   runs, i.e. at the same point of the instruction the reference raises
   from [geti]/[getf]. *)

let dec_int m vp op : unit -> ires =
  match op with
  | Reg r -> fun () -> IVal (to_int m.regs.(r))
  | Imm (SInt v) ->
      let r = IVal v in
      fun () -> r
  | Imm (SFloat _) -> fun () -> error "float immediate in int parallel context"
  | Fld f -> (
      if field_vpset m f <> vp then
        fun () -> error "operand: field f%d is not on the current VP set vp%d" f vp
      else
        match field_data m f with
        | FInt a ->
            let r = IArr a in
            fun () -> r
        | FFloat _ ->
            fun () -> error "float field f%d in int parallel context" f)

let dec_float m vp op : unit -> fres =
  match op with
  | Reg r -> fun () -> FVal (to_float m.regs.(r))
  | Imm s ->
      let r = FVal (to_float s) in
      fun () -> r
  | Fld f -> (
      if field_vpset m f <> vp then
        fun () -> error "operand: field f%d is not on the current VP set vp%d" f vp
      else
        match field_data m f with
        | FInt a ->
            let r = FIArr a in
            fun () -> r
        | FFloat a ->
            let r = FArr a in
            fun () -> r)

(* Float-ness of an operand when it is decidable at decode time (fields
   and immediates); [None] means a register whose kind is dynamic. *)
let static_is_float m = function
  | Imm (SFloat _) -> Some true
  | Imm (SInt _) -> Some false
  | Fld f -> (
      match field_data m f with FFloat _ -> Some true | FInt _ -> Some false)
  | Reg _ -> None

(* Replicates [check_on_current] for a statically known field/VP pair. *)
let kcheck_cur m vp what f =
  if m.cur <> vp then
    if m.cur < 0 then error "no VP set selected (missing Cwith)"
    else error "%s: field f%d is not on the current VP set vp%d" what f m.cur

(* Static facts about a parallel destination/source field. *)
let kpfield m f =
  let vp = field_vpset m f in
  (vp, Geometry.size m.prog.geoms.(vp), m.contexts.(vp), field_data m f)

(* Decode one instruction into its kernel.  Elementwise kernels resolve
   operands and take their checks, charges and faults in the reference's
   order, then run their write loop once over the VP set's whole element
   range, in ascending order, so a faulting element leaves exactly the
   writes before it. *)
let decode m code_len instr : unit -> unit =
  let meter = m.meter in
  let check_cur vp what f = kcheck_cur m vp what f in
  (* [body all mask 0 nv], the context read once *)
  let sweep nv ctx body = body (Context.all_active ctx) (Context.active ctx) 0 nv in
  let pfield f = kpfield m f in
  (* An elementwise instruction writing [dst]: the reference's VP-set
     check and charge, then [body ()] resolves the operands (raising
     where the reference does) and returns the kernel [sweep] runs. *)
  let pe what dst body =
    let vp, nv, ctx, _ = pfield dst in
    fun () ->
      check_cur vp what dst;
      Cost.charge_pe meter ~size:nv;
      sweep nv ctx (body ())
  in
  let dec_fe op =
    match op with
    | Reg r -> fun () -> m.regs.(r)
    | Imm s -> fun () -> s
    | Fld f -> fun () -> error "field f%d used as a front-end operand" f
  in
  (* Resolve the address field of a router op against the executing VP
     set, with [addr_array]'s error order: on-current first, then kind. *)
  let dec_addr vp f =
    if field_vpset m f <> vp then
      fun () ->
        (error "address: field f%d is not on the current VP set vp%d" f vp
          : int array)
    else
      match field_data m f with
      | FInt a -> fun () -> a
      | FFloat _ -> fun () -> error "address field f%d must be an int field" f
  in
  match instr with
  | Label _ | Comment _ -> fun () -> ()
  | Region r -> fun () -> set_region m r
  | Fprint (s, None) -> fun () -> m.output <- s :: m.output
  | Fprint (s, Some op) ->
      let g = dec_fe op in
      fun () ->
        let line =
          match g () with
          | SInt i -> Printf.sprintf "%s%d" s i
          | SFloat f -> Printf.sprintf "%s%g" s f
        in
        m.output <- line :: m.output
  | Halt -> fun () -> m.pc <- code_len
  | Fmov (r, a) ->
      let g = dec_fe a in
      fun () ->
        Cost.charge_fe meter;
        m.regs.(r) <- g ()
  | Fbin (op, r, a, b) ->
      let ga = dec_fe a and gb = dec_fe b in
      fun () ->
        Cost.charge_fe meter;
        (* the reference evaluates [fe_bin op (fe_val a) (fe_val b)];
           OCaml applies arguments right to left, so b's faults win *)
        let vb = gb () in
        let va = ga () in
        m.regs.(r) <- fe_bin op va vb
  | Funop (op, r, a) ->
      let g = dec_fe a in
      fun () ->
        Cost.charge_fe meter;
        m.regs.(r) <- fe_unop op (g ())
  | Frand (r, a) ->
      let g = dec_fe a in
      fun () ->
        Cost.charge_fe meter;
        m.regs.(r) <- SInt (rand_mod m (to_int (g ())))
  | Fread (r, fld, a) ->
      let fd = field_data m fld in
      let g = dec_fe a in
      fun () ->
        Cost.charge_fe_cm meter;
        let addr = to_int (g ()) in
        (match fd with
        | FInt arr ->
            if addr < 0 || addr >= Array.length arr then
              error "fread: address %d out of range on f%d" addr fld;
            m.regs.(r) <- SInt arr.(addr)
        | FFloat arr ->
            if addr < 0 || addr >= Array.length arr then
              error "fread: address %d out of range on f%d" addr fld;
            m.regs.(r) <- SFloat arr.(addr))
  | Fwrite (fld, a, v) ->
      let fd = field_data m fld in
      let ga = dec_fe a and gv = dec_fe v in
      fun () ->
        Cost.charge_fe_cm meter;
        let addr = to_int (ga ()) in
        let value = gv () in
        (match fd with
        | FInt arr ->
            if addr < 0 || addr >= Array.length arr then
              error "fwrite: address %d out of range on f%d" addr fld;
            arr.(addr) <- to_int value
        | FFloat arr ->
            if addr < 0 || addr >= Array.length arr then
              error "fwrite: address %d out of range on f%d" addr fld;
            arr.(addr) <- to_float value)
  | Jmp l ->
      fun () ->
        Cost.charge_fe meter;
        let target = m.labels.(l) in
        if target < 0 then error "jump to unplaced label L%d" l;
        m.pc <- target
  | Jz (a, l) ->
      let g = dec_fe a in
      fun () ->
        Cost.charge_fe meter;
        if not (truthy (g ())) then begin
          let target = m.labels.(l) in
          if target < 0 then error "jump to unplaced label L%d" l;
          m.pc <- target
        end
  | Jnz (a, l) ->
      let g = dec_fe a in
      fun () ->
        Cost.charge_fe meter;
        if truthy (g ()) then begin
          let target = m.labels.(l) in
          if target < 0 then error "jump to unplaced label L%d" l;
          m.pc <- target
        end
  | Pmov (dst, a) -> (
      let vp = field_vpset m dst in
      match field_data m dst with
      | FInt out ->
          let ga = dec_int m vp a in
          pe "pmov" dst (fun () -> mov_int out (ga ()))
      | FFloat out ->
          let ga = dec_float m vp a in
          pe "pmov" dst (fun () -> mov_float out (ga ())))
  | Pbin (op, dst, a, b) -> (
      let vp = field_vpset m dst in
      match field_data m dst with
      | FFloat out ->
          let lop = lazy (float_binop op) in
          let ga = dec_float m vp a and gb = dec_float m vp b in
          pe "pbin" dst (fun () ->
              let (_ : float -> float -> float) = Lazy.force lop in
              let ra = ga () in
              let rb = gb () in
              bin_float out op ra rb)
      | FInt out when is_cmp op ->
          (* float compare if either operand is float-kinded; decided
             statically unless a register is involved *)
          let iop = int_binop op in
          let fa = dec_float m vp a and fb = dec_float m vp b in
          let ia = dec_int m vp a and ib = dec_int m vp b in
          let floatness =
            match static_is_float m a, static_is_float m b with
            | Some true, _ | _, Some true -> fun () -> true
            | Some false, Some false -> fun () -> false
            | _ -> fun () -> operand_is_float m a || operand_is_float m b
          in
          pe "pbin" dst (fun () ->
              if floatness () then
                let ra = fa () in
                let rb = fb () in
                cmp_float out op ra rb
              else
                let ra = ia () in
                let rb = ib () in
                bin_int out op iop ra rb)
      | FInt out ->
          let lop = lazy (int_binop op) in
          let ia = dec_int m vp a and ib = dec_int m vp b in
          pe "pbin" dst (fun () ->
              let f = Lazy.force lop in
              let ra = ia () in
              let rb = ib () in
              bin_int out op f ra rb))
  | Punop (op, dst, a) -> (
      let vp = field_vpset m dst in
      match field_data m dst, op with
      | FInt out, ToInt ->
          let ga = dec_float m vp a in
          pe "punop" dst (fun () -> toint_loop out (ga ()))
      | FInt out, _ ->
          let ga = dec_int m vp a in
          pe "punop" dst (fun () ->
              (* reference order: operand first, then the operator check *)
              let ra = ga () in
              ignore (int_unop op : int -> int);
              un_int out op ra)
      | FFloat out, _ ->
          let ga = dec_float m vp a in
          pe "punop" dst (fun () ->
              let ra = ga () in
              ignore (float_unop op : float -> float);
              un_float out op ra))
  | Pcoord (dst, axis) ->
      let vp, nv, ctx, fd = pfield dst in
      let g = m.prog.geoms.(vp) in
      let axis_ok = axis >= 0 && axis < Geometry.rank g in
      let stride = if axis_ok then (Geometry.strides g).(axis) else 1 in
      let extent = if axis_ok then Geometry.dim g axis else 1 in
      fun () -> (
        check_cur vp "pcoord" dst;
        if not axis_ok then error "pcoord: bad axis %d" axis;
        Cost.charge_pe meter ~size:nv;
        match fd with
        | FInt out ->
            sweep nv ctx (coord_loop out ~stride ~extent)
        | FFloat _ -> error "pcoord into a float field")
  | Ptable (dst, table) ->
      let vp, nv, _, fd = pfield dst in
      let len_ok = Array.length table = nv in
      fun () -> (
        check_cur vp "ptable" dst;
        if not len_ok then error "ptable: table length does not match the VP set";
        Cost.charge_pe meter ~size:nv;
        match fd with
        | FInt out -> for%unroll p = 0 to nv - 1 do out.%(p) <- table.%(p) done
        | FFloat _ -> error "ptable into a float field")
  | Prand (dst, modulus) ->
      let vp, nv, ctx, fd = pfield dst in
      let gm = dec_fe modulus in
      fun () -> (
        check_cur vp "prand" dst;
        let modv = to_int (gm ()) in
        Cost.charge_pe meter ~size:nv;
        match fd with
        | FInt out when Context.all_active ctx ->
            for p = 0 to nv - 1 do out.%(p) <- rand_mod m modv done
        | FInt out ->
            let mask = Context.active ctx in
            for p = 0 to nv - 1 do
              if mask.%(p) then out.%(p) <- rand_mod m modv
            done
        | FFloat _ -> error "prand into a float field")
  | Psel (dst, cnd, a, b) -> (
      let vp = field_vpset m dst in
      let gc = dec_float m vp cnd in
      match field_data m dst with
      | FInt out ->
          let ga = dec_int m vp a and gb = dec_int m vp b in
          pe "psel" dst (fun () ->
              let rc = gc () in
              let ra = ga () in
              let rb = gb () in
              sel_int out rc ra rb)
      | FFloat out ->
          let ga = dec_float m vp a and gb = dec_float m vp b in
          pe "psel" dst (fun () ->
              let rc = gc () in
              let ra = ga () in
              let rb = gb () in
              sel_float out rc ra rb))
  | Pget (dst, src, addr) ->
      let vp, nv, ctx, fd_dst = pfield dst in
      let fd_src = field_data m src in
      let gaddr = dec_addr vp addr in
      fun () ->
        check_cur vp "pget" dst;
        let mask = Context.active ctx in
        let addr = gaddr () in
        let stats =
          try
            match fd_dst, fd_src with
            | FInt d, FInt s ->
                Router.get EInt ~scratch:m.scratch ~mask ~addr ~src:s ~dst:d ()
            | FFloat d, FFloat s ->
                Router.get EFloat ~scratch:m.scratch ~mask ~addr ~src:s ~dst:d
                  ()
            | _ -> error "pget: kind mismatch between f%d and f%d" dst src
          with Invalid_argument msg -> error "pget: %s" msg
        in
        Cost.charge_router meter ~size:nv ~messages:stats.messages
          ~max_fanin:stats.max_fanin
  | Psend (dst, src, addr, combine) ->
      let vp, nv, ctx, fd_src = pfield src in
      let fd_dst = field_data m dst in
      let gaddr = dec_addr vp addr in
      let checking = combine = Ccheck in
      fun () ->
        check_cur vp "psend" src;
        let mask = Context.active ctx in
        let addr = gaddr () in
        let stats =
          try
            match fd_dst, fd_src with
            | FInt d, FInt s ->
                Router.send EInt ~scratch:m.scratch ~mask ~addr ~src:s ~dst:d
                  ~combine ()
            | FFloat d, FFloat s ->
                check_float_combine combine;
                Router.send EFloat ~scratch:m.scratch ~mask ~addr ~src:s
                  ~dst:d ~combine ()
            | _ -> error "psend: kind mismatch between f%d and f%d" dst src
          with
          | Invalid_argument msg -> error "psend: %s" msg
          | Router.Conflict a ->
              error
                "parallel assignment conflict: multiple distinct values sent \
                 to element %d of field f%d"
                a dst
        in
        let fanin = if checking then stats.max_fanin else 1 in
        Cost.charge_router meter ~size:nv ~messages:stats.messages
          ~max_fanin:fanin
  | Pnews (dst, src, axis, delta) ->
      let vp, nv, ctx, fd_dst = pfield dst in
      let vp_src = field_vpset m src in
      let fd_src = field_data m src in
      let g = m.prog.geoms.(vp) in
      let shift : type a. a elt -> a array -> a array -> unit =
       fun k s d ->
        let mask =
          if Context.all_active ctx then None else Some (Context.active ctx)
        in
        ignore (News.shift k ?mask g ~axis ~delta s d)
      in
      fun () ->
        check_cur vp "pnews" dst;
        check_cur vp_src "pnews" src;
        (try
           match fd_dst, fd_src with
           | FInt d, FInt s -> shift EInt s d
           | FFloat d, FFloat s -> shift EFloat s d
           | _ -> error "pnews: kind mismatch between f%d and f%d" dst src
         with Invalid_argument msg -> error "pnews: %s" msg);
        Cost.charge_news meter ~size:nv
  | Preduce (op, r, fld) -> (
      let vp, nv, ctx, fd = pfield fld in
      match fd with
      | FInt a ->
          if op = Any then
            fun () ->
              check_cur vp "preduce" fld;
              Cost.charge_reduce meter ~size:nv;
              let v =
                if Context.all_active ctx then a.(0)
                else iany (Context.active ctx) nv a
              in
              m.regs.(r) <- SInt v
          else
            (* the reference evaluates the identity before the operator
               (right-to-left application), so keep that fault order *)
            let lident = lazy (to_int (identity op KInt)) in
            let lop = lazy (int_binop op) in
            fun () ->
              check_cur vp "preduce" fld;
              Cost.charge_reduce meter ~size:nv;
              let ident = Lazy.force lident in
              let (_ : int -> int -> int) = Lazy.force lop in
              let all = Context.all_active ctx and mask = Context.active ctx in
              m.regs.(r) <- SInt (ired all mask 0 nv op ident a)
      | FFloat a ->
          if op = Any then
            fun () ->
              check_cur vp "preduce" fld;
              Cost.charge_reduce meter ~size:nv;
              let v =
                if Context.all_active ctx then a.(0)
                else fany (Context.active ctx) nv a
              in
              m.regs.(r) <- SFloat v
          else
            let lident = lazy (to_float (identity op KFloat)) in
            let cell = [| 0.0 |] in
            fun () ->
              check_cur vp "preduce" fld;
              Cost.charge_reduce meter ~size:nv;
              let ident = Lazy.force lident in
              let all = Context.all_active ctx and mask = Context.active ctx in
              fred all mask 0 nv op ident a cell 0;
              m.regs.(r) <- SFloat cell.(0))
  | Pcount r ->
      fun () ->
        Cost.charge_reduce meter ~size:(cur_size m);
        m.regs.(r) <- SInt (Context.count_active (cur_ctx m))
  | Preduce_axis (op, dst, src) ->
      let vp, nv, ctx, fd_src = pfield src in
      let dst_vp = field_vpset m dst in
      let fd_dst = field_data m dst in
      let outer = m.prog.geoms.(dst_vp) in
      let prefix_ok = Geometry.is_prefix_of outer m.prog.geoms.(vp) in
      let outer_size = Geometry.size outer in
      let inner = nv / outer_size in
      let lident_i = lazy (to_int (identity op KInt)) in
      let lident_f = lazy (to_float (identity op KFloat)) in
      fun () ->
        check_cur vp "preduce-axis" src;
        if not prefix_ok then
          error "preduce-axis: geometry of f%d is not a prefix of the current set"
            dst;
        let mask = Context.active ctx in
        Cost.charge_reduce meter ~size:nv;
        (* one masked fold per outer position, written straight into the
           destination (Scan.reduce_trailing_axes's order and results) *)
        (try
           match fd_dst, fd_src with
           | FInt d, FInt s ->
               let ident = Lazy.force lident_i in
               (* 'any' faults here, after the identity, as in the reference *)
               let (_ : int -> int -> int) = int_binop op in
               for o = 0 to outer_size - 1 do
                 d.(o) <- ired false mask (o * inner) ((o + 1) * inner) op ident s
               done
           | FFloat d, FFloat s ->
               let ident = Lazy.force lident_f in
               let (_ : float -> float -> float) = float_binop op in
               for o = 0 to outer_size - 1 do
                 fred false mask (o * inner) ((o + 1) * inner) op ident s d o
               done
           | _ -> error "preduce-axis: kind mismatch between f%d and f%d" dst src
         with Invalid_argument msg -> error "preduce-axis: %s" msg)
  | Pscan (op, dst, src, axis) ->
      let vp, nv, _, fd_dst = pfield dst in
      let vp_src = field_vpset m src in
      let fd_src = field_data m src in
      let g = m.prog.geoms.(vp) in
      fun () ->
        check_cur vp "pscan" dst;
        check_cur vp_src "pscan" src;
        Cost.charge_scan meter ~size:nv;
        (try
           match fd_dst, fd_src with
           | FInt d, FInt s -> scan_ints m g axis op s d
           | FFloat d, FFloat s -> Scan.scan_axis g axis (float_binop op) s d
           | _ -> error "pscan: kind mismatch between f%d and f%d" dst src
         with Invalid_argument msg -> error "pscan: %s" msg)
  | Cwith vp ->
      let ok = vp >= 0 && vp < Array.length m.prog.geoms in
      fun () ->
        if not ok then error "cwith: unknown VP set vp%d" vp;
        Cost.charge_fe meter;
        m.cur <- vp
  | Cpush ->
      fun () ->
        Cost.charge_context meter ~size:(cur_size m);
        Context.push (cur_ctx m)
  | Cand fld -> (
      let vp, nv, ctx, fd = pfield fld in
      match fd with
      | FInt a ->
          fun () ->
            check_cur vp "cand" fld;
            Cost.charge_context meter ~size:nv;
            Context.land_ints ctx a
      | FFloat a ->
          fun () ->
            check_cur vp "cand" fld;
            Cost.charge_context meter ~size:nv;
            Context.land_floats ctx a)
  | Cpop ->
      fun () ->
        Cost.charge_context meter ~size:(cur_size m);
        (try Context.pop (cur_ctx m)
         with Failure _ -> error "cpop: context stack underflow")
  | Creset ->
      fun () ->
        Cost.charge_context meter ~size:(cur_size m);
        Context.reset (cur_ctx m)
  | Cread fld ->
      let vp, nv, ctx, fd = pfield fld in
      fun () -> (
        check_cur vp "cread" fld;
        Cost.charge_context meter ~size:nv;
        match fd with
        | FInt out -> sweep nv ctx (cread_loop out)
        | FFloat _ -> error "cread into a float field")

(* Decode the program once; a no-op on the reference engine, which has
   no kernels. *)
let compile m =
  match m.engine, m.kernels with
  | `Reference, _ | _, Some _ -> ()
  | _, None ->
      Obs.with_span m.obs "cm.decode" (fun () ->
          let code = m.prog.code in
          let n = Array.length code in
          m.kernels <-
            Some
              (Array.init n (fun i ->
                   (* a decode-time fault (e.g. an out-of-range field id in a
                      malformed program) becomes a kernel that re-raises it
                      when that instruction is reached *)
                   try decode m n code.(i)
                   with e -> fun () -> raise e)))

(* The dispatch loop of the fast engine. *)
let run_kernels ?steps m =
  compile m;
  let kernels = match m.kernels with Some k -> k | None -> assert false in
  let n = Array.length kernels in
  let meter = m.meter in
  let code = m.prog.code in
  let budget = ref (match steps with None -> max_int | Some s -> s) in
  while m.pc < n && !budget > 0 do
    if m.fuel <= 0 then error "fuel exhausted (non-terminating program?)";
    let i = m.pc in
    inject m (Array.unsafe_get code i);
    m.fuel <- m.fuel - 1;
    m.icount <- m.icount + 1;
    m.pc <- m.pc + 1;
    decr budget;
    let t0 = meter.Cost.elapsed_ns in
    (Array.unsafe_get kernels i) ();
    let dt = meter.Cost.elapsed_ns -. t0 in
    if dt > 0.0 then m.region_acc := !(m.region_acc) +. dt
  done

(* [`Native] and [`Sharded n] name the retired native and sharded
   engines; both run on the fast kernels.  [compile_native] stays for
   the benchmark harness until a benchmark change drops it. *)
let compile_native _ =
  Result.Error "native engine retired: runs on the fast kernels"

let effective_engine m =
  match m.engine with `Native | `Sharded _ -> `Fast | e -> e

let exec ?steps m =
  match m.engine with
  | `Reference -> run_reference ?steps m
  | `Fast | `Native | `Sharded _ -> run_kernels ?steps m

let run m = exec m

let finished m = m.pc >= Array.length m.prog.code

let run_slice m ~fuel_slice =
  if fuel_slice <= 0 then invalid_arg "Machine.run_slice: non-positive fuel_slice";
  exec ~steps:fuel_slice m;
  if finished m then `Done else `More

(* ---- checkpoint / restore ---- *)

(* Format: a magic string naming the version, then a Marshal'd plain
   record of the whole observable state.  The program itself is not
   serialized; a digest of it is, and [restore] refuses a checkpoint
   taken from a different program.  Bump the magic when the record
   changes shape. *)

let ckpt_magic = "ucm-ckpt-v2\n"

type ckpt = {
  ck_prog : string;  (* program digest *)
  ck_params : Cost.params;
  ck_elapsed_ns : float;
  ck_counters : int array;  (* the 11 meter counters, fixed order *)
  ck_class_ns : float array;  (* the 8 per-class ns accumulators *)
  ck_regs : scalar array;
  ck_fields : fdata array;
  ck_stacks : bool array list array;  (* per context, top first *)
  ck_cur : int;
  ck_rand : int;
  ck_fuel : int;
  ck_output : string list;
  ck_pc : int;
  ck_icount : int;
  ck_regions : (string * float) list;
  ck_region : string;
  (* fault plan identity, cursor and armed queues (router, news, chip) *)
  ck_fault : (string * int * int list * int list * int list) option;
  ck_log : string list;
}

let copy_fdata = function
  | FInt a -> FInt (Array.copy a)
  | FFloat a -> FFloat (Array.copy a)

let checkpoint m =
  let mt = m.meter in
  let ck =
    {
      ck_prog = Paris.digest m.prog;
      ck_params = mt.Cost.params;
      ck_elapsed_ns = mt.Cost.elapsed_ns;
      ck_counters =
        [|
          mt.Cost.fe_ops;
          mt.Cost.pe_ops;
          mt.Cost.context_ops;
          mt.Cost.news_ops;
          mt.Cost.router_ops;
          mt.Cost.router_messages;
          mt.Cost.reductions;
          mt.Cost.scans;
          mt.Cost.fe_cm_transfers;
          mt.Cost.router_collisions;
          mt.Cost.router_max_fanin;
        |];
      ck_class_ns =
        [|
          mt.Cost.ns_fe;
          mt.Cost.ns_pe;
          mt.Cost.ns_context;
          mt.Cost.ns_news;
          mt.Cost.ns_router;
          mt.Cost.ns_reduce;
          mt.Cost.ns_scan;
          mt.Cost.ns_fe_cm;
        |];
      ck_regs = Array.copy m.regs;
      ck_fields = Array.map copy_fdata m.fields;
      ck_stacks = Array.map Context.frames m.contexts;
      ck_cur = m.cur;
      ck_rand = m.rand_state;
      ck_fuel = m.fuel;
      ck_output = m.output;
      ck_pc = m.pc;
      ck_icount = m.icount;
      ck_regions =
        Hashtbl.fold (fun k v acc -> (k, !v) :: acc) m.regions []
        |> List.sort compare;
      ck_region = m.region_name;
      ck_fault =
        (match m.fstate with
        | None -> None
        | Some fs ->
            Some (fs.f_origin, fs.f_cursor, fs.f_router, fs.f_news, fs.f_chip));
      ck_log = m.fault_log;
    }
  in
  ckpt_magic ^ Marshal.to_string ck []

let restore ?(engine = `Fast) ?faults ?(obs = Obs.null) prog data =
  check_engine engine;
  let mlen = String.length ckpt_magic in
  if String.length data < mlen || String.sub data 0 mlen <> ckpt_magic then
    error "checkpoint: bad magic or unsupported version";
  let ck =
    try (Marshal.from_string data mlen : ckpt)
    with _ -> error "checkpoint: truncated or corrupt data"
  in
  if ck.ck_prog <> Paris.digest prog then
    error "checkpoint: program mismatch (checkpoint is from a different program)";
  let mt = Cost.meter ck.ck_params in
  mt.Cost.elapsed_ns <- ck.ck_elapsed_ns;
  mt.Cost.fe_ops <- ck.ck_counters.(0);
  mt.Cost.pe_ops <- ck.ck_counters.(1);
  mt.Cost.context_ops <- ck.ck_counters.(2);
  mt.Cost.news_ops <- ck.ck_counters.(3);
  mt.Cost.router_ops <- ck.ck_counters.(4);
  mt.Cost.router_messages <- ck.ck_counters.(5);
  mt.Cost.reductions <- ck.ck_counters.(6);
  mt.Cost.scans <- ck.ck_counters.(7);
  mt.Cost.fe_cm_transfers <- ck.ck_counters.(8);
  mt.Cost.router_collisions <- ck.ck_counters.(9);
  mt.Cost.router_max_fanin <- ck.ck_counters.(10);
  mt.Cost.ns_fe <- ck.ck_class_ns.(0);
  mt.Cost.ns_pe <- ck.ck_class_ns.(1);
  mt.Cost.ns_context <- ck.ck_class_ns.(2);
  mt.Cost.ns_news <- ck.ck_class_ns.(3);
  mt.Cost.ns_router <- ck.ck_class_ns.(4);
  mt.Cost.ns_reduce <- ck.ck_class_ns.(5);
  mt.Cost.ns_scan <- ck.ck_class_ns.(6);
  mt.Cost.ns_fe_cm <- ck.ck_class_ns.(7);
  let regions = Hashtbl.create 16 in
  List.iter (fun (k, v) -> Hashtbl.add regions k (ref v)) ck.ck_regions;
  let region_acc =
    match Hashtbl.find_opt regions ck.ck_region with
    | Some acc -> acc
    | None ->
        let acc = ref 0.0 in
        Hashtbl.add regions ck.ck_region acc;
        acc
  in
  let fstate =
    match faults with
    | None -> None
    | Some plan -> (
        match ck.ck_fault with
        | Some (origin, cursor, fr, fn, fc)
          when origin = Fault.canonical plan ->
            (* same concrete plan: resume its cursor and armed queues *)
            Some
              {
                f_events = Fault.events plan;
                f_origin = origin;
                f_cursor = cursor;
                f_router = fr;
                f_news = fn;
                f_chip = fc;
              }
        | _ ->
            (* a different plan (e.g. the next retry attempt's): events
               already behind the checkpoint are considered survived *)
            Some (fstate_of_plan ~from:ck.ck_icount plan))
  in
  {
    prog;
    meter = mt;
    regs = ck.ck_regs;
    fields = ck.ck_fields;
    contexts = Array.map Context.of_frames ck.ck_stacks;
    labels = resolve_labels prog;
    engine;
    scratch = Router.scratch ();
    scan_tmp = [||];
    cur = ck.ck_cur;
    rand_state = ck.ck_rand;
    fuel = ck.ck_fuel;
    output = ck.ck_output;
    pc = ck.ck_pc;
    region_acc;
    region_name = ck.ck_region;
    regions;
    kernels = None;
    icount = ck.ck_icount;
    fstate;
    fault_log = ck.ck_log;
    obs;
  }

(* checkpoint/restore lifecycle events, emitted by the wrappers below so
   the core functions above stay purely functional over machine state *)
let checkpoint m =
  let data = checkpoint m in
  (if Obs.enabled m.obs then begin
     Obs.count m.obs "cm.checkpoints" 1;
     Obs.point m.obs "cm.checkpoint"
       ~attrs:
         [
           ("icount", Obs.Json.Int m.icount);
           ("bytes", Obs.Json.Int (String.length data));
         ]
   end);
  data

let restore ?engine ?faults ?(obs = Obs.null) prog data =
  let m = restore ?engine ?faults ~obs prog data in
  (if Obs.enabled obs then begin
     Obs.count obs "cm.restores" 1;
     Obs.point obs "cm.restore" ~attrs:[ ("icount", Obs.Json.Int m.icount) ]
   end);
  m

(* Mirror the aggregate, deterministic statistics (meter counters,
   per-class ns, per-region simulated seconds, fault tallies) into the
   machine's scope.  Call once, after a run; counters are monotonic, so
   publishing twice would double them. *)
let publish m =
  if Obs.enabled m.obs then begin
    List.iter
      (fun (k, v) ->
        if String.length k >= 3 && String.sub k 0 3 = "ns_" then
          Obs.sample m.obs ("cm." ^ k) v
        else Obs.count m.obs ("cm." ^ k) (int_of_float v))
      (Cost.metrics m.meter);
    Obs.sample m.obs "cm.elapsed_ns" m.meter.Cost.elapsed_ns;
    List.iter
      (fun (name, secs) -> Obs.sample m.obs ("cm.region." ^ name) secs)
      (regions m);
    Obs.count m.obs "cm.faults.logged" (List.length m.fault_log)
  end
