(* Kernel differential grid and allocation bound for the Machine's
   instruction kernels.

   The grid runs every elementwise, NEWS, router, reduction (axis
   reductions too) and coordinate operator on every operand shape
   (field/field, field/imm, imm/field, register, imm/imm) and field
   kind, once on a fully active VP set and once under each of eight
   context masks, on `Reference and `Fast.  The kernels' element loops
   run four elements per trip and then a remainder of up to three, so
   the VP counts run from 1 to 9 and beyond, and between them the whole
   ranges have lengths at every residue mod 4 (checked below); one
   geometry has 2173 VPs, one an extent-1 axis.  Two masks are
   fragmented (an irregular one, and one whose inactive element moves
   through every lane position of the four-element groups), so the
   fast engine runs its masked loops under them; the other six have at
   most one run per 16 VPs on the larger sets (checked below), so it
   runs its all-active loops once per run.
   Inputs include NaN (three payloads, two of one sign), +-0.0,
   +-infinity, subnormals, max_int/min_int wraparound and float
   division by zero; the faulting int cases (division and modulo by
   zero, an out-of-range shift) run as programs of their own, one of
   them faulting on the third element of an unrolled group and one
   inside the second run of a mask.  Every case writes its own
   destination field (or register), so a divergence names the case;
   every field, register, the output, the meter and the error must be
   bit-identical to the reference.  The router cases (pget, psend) are
   also checked against an in-test loop over the address field, the
   mask and the combine, which also gives the messages and fan-in the
   meter must have charged.  The gets include affine addresses, which
   the fast engine reads in closed form, near misses, and addresses
   that must fail at the reference's element.

   The allocation test runs heat, stencil and shortest_path_n2 at two
   sizes on `Fast and requires the words allocated per run to stay the
   same up to a small constant: the kernels allocate nothing per
   element. *)

open Cm.Paris

let int_vals =
  [| 0; 1; -1; max_int; min_int; 7; -13; 1 lsl 40; 123456789; -(1 lsl 62); 2; 3 |]

let int_vals2 =
  [| max_int; 1; 0; -1; 3; min_int; 5; -(1 lsl 20); 64; -2; max_int - 1 |]

let nonzero = [| 3; -2; 1; -1; 7; max_int; min_int; 1 lsl 31; -5 |]
let nan2 = Int64.float_of_bits 0xFFF8_0000_0000_0000L (* the other sign *)
let nan3 = Int64.float_of_bits 0x7FF8_0000_0000_0ABCL (* another payload *)

let float_vals =
  [| 0.0; -0.0; nan; infinity; neg_infinity; 1.5; -2.25; 1e308; 5e-324;
     -1e-310; 3.0; nan2 |]

let float_vals2 =
  [| -0.0; 0.0; 2.0; nan3; neg_infinity; infinity; 1e308; -3.5; nan; 0.0;
     -7.0 |]

let cycle vals p = vals.(p mod Array.length vals)

let unop_name = function
  | Neg -> "neg" | Lnot -> "lnot" | Bnot -> "bnot" | ToFloat -> "tofloat"
  | ToInt -> "toint" | Abs -> "abs"

let combine_name = function
  | Ccheck -> "check" | Cover -> "over" | Cadd -> "add" | Cmin -> "min"
  | Cmax -> "max" | Cor -> "or" | Cand -> "and" | Cxor -> "xor"

(* ---- building one grid section ---- *)

type sec = {
  b : Builder.t;
  vp : int;
  nv : int;
  rank : int;
  dims : int list;
  mutable inits : (int * [ `I of int array | `F of float array ]) list;
  mutable labels : (string * string) list;  (* "f12"/"r3" -> case *)
  mutable code : instr list;  (* reversed *)
  mutable oracles : (int * [ `I of int array | `F of float array ]) list;
      (* field -> its expected contents *)
  mutable stats : (int * (int * int)) list;
      (* router destination -> the messages and fan-in its op charges *)
  (* inputs *)
  ia : int;
  ib : int;
  inz : int;  (* nonzero divisors *)
  ish : int;  (* shift amounts in range *)
  iaddr : int;  (* addresses with fan-in *)
  iperm : int;  (* a permutation *)
  imask : int;
  masks : (string * int) list;  (* the context masks every case runs under *)
  izero : int;  (* nonzero but for element 6: lane 2 of the second group *)
  fa : int;
  fb : int;
  ri : int;  (* max_int *)
  rnz : int;  (* -3 *)
  rsh : int;  (* 3 *)
  rf : int;  (* -0.0 *)
  rn : int;  (* NaN *)
}

let emit s is = s.code <- List.rev_append is s.code

let new_field s kind =
  let f = Builder.field s.b ~vpset:s.vp kind in
  (* a nonzero prior value per element, so a write the context should
     have suppressed shows up *)
  s.inits <-
    (f,
     match kind with
     | KInt -> `I (Array.init s.nv (fun p -> 1000 + p))
     | KFloat -> `F (Array.init s.nv (fun p -> 1000.5 +. float_of_int p)))
    :: s.inits;
  f

(* The active runs of a mask, as (lo, hi) pairs in ascending order. *)
let runs_of (m : int array) =
  let runs = ref [] and lo = ref (-1) in
  Array.iteri
    (fun p v ->
      if v <> 0 && !lo < 0 then lo := p
      else if v = 0 && !lo >= 0 then begin
        runs := (!lo, p) :: !runs;
        lo := -1
      end)
    m;
  if !lo >= 0 then runs := (!lo, Array.length m) :: !runs;
  List.rev !runs

(* [k] runs of two positions each, spread over the range: the fast
   engine runs a mask of at most [nv / 16] runs run by run, and one of
   more with its masked loops. *)
let k_runs nv k p =
  let step = if k = 0 then nv + 1 else nv / k in
  if step >= 3 && p / step < k && (p mod step = 1 || p mod step = 2) then 1 else 0

(* Active runs of lengths 1-9 behind gaps of 10-14, so that on the
   largest geometry the runs start and end on every residue mod 4 and
   stay under [nv / 16] of them (checked below). *)
let stripes nv =
  let a = Array.make nv 0 and p = ref 0 and i = ref 0 in
  while !p < nv do
    let len = 1 + (!i mod 9) in
    for q = !p to Int.min nv (!p + len) - 1 do a.(q) <- 1 done;
    p := !p + len + 10 + (!i mod 5);
    incr i
  done;
  a

(* The context masks, by name: two fragmented ones (an irregular mask,
   and one whose inactive element walks through the lanes of the
   four-element groups), then masks whose runs the fast engine visits:
   an interior box, stripes, exactly [nv / 16] runs and one more, no
   active element, and the last element alone (a run that ends at the
   end of the set). *)
let mask_data dims =
  let g = Cm.Geometry.create dims in
  let nv = Cm.Geometry.size g in
  let interior p =
    let c = Cm.Geometry.coords g p in
    let ok = ref true in
    List.iteri (fun k d -> if c.(k) < 1 || c.(k) > d - 2 then ok := false) dims;
    !ok
  in
  let ints f = Array.init nv f in
  [
    (" masked", ints (fun p -> if p mod 3 = 1 || p mod 7 = 5 then 0 else 1));
    (" lane-masked", ints (fun p -> if p mod 4 = p / 4 mod 4 then 0 else 1));
    (" box", ints (fun p -> Bool.to_int (interior p)));
    (" stripes", stripes nv);
    (" n/16 runs", ints (k_runs nv (nv / 16)));
    (" n/16+1 runs", ints (k_runs nv ((nv / 16) + 1)));
    (" empty", ints (fun _ -> 0));
    (" last", ints (fun p -> Bool.to_int (p = nv - 1)));
  ]

let section name dims =
  let b = Builder.create name in
  let g = Cm.Geometry.create dims in
  let vp = Builder.vpset b g in
  let nv = Cm.Geometry.size g in
  let s0 =
    {
      b; vp; nv; rank = List.length dims; dims; inits = []; labels = []; code = [];
      oracles = []; stats = [];
      ia = 0; ib = 0; inz = 0; ish = 0; iaddr = 0; iperm = 0; imask = 0;
      masks = []; izero = 0; fa = 0; fb = 0; ri = 0; rnz = 0; rsh = 0; rf = 0; rn = 0;
    }
  in
  let inp kind data =
    let f = Builder.field b ~vpset:vp kind in
    s0.inits <- (f, data) :: s0.inits;
    f
  in
  let ints f = inp KInt (`I (Array.init nv f)) in
  let floats f = inp KFloat (`F (Array.init nv f)) in
  let ia = ints (cycle int_vals) in
  let ib = ints (fun p -> cycle int_vals2 (p + 1)) in
  let inz = ints (cycle nonzero) in
  let ish = ints (fun p -> p * 5 mod 63) in
  let iaddr = ints (fun p -> p * p mod nv) in
  let iperm = ints (fun p -> nv - 1 - p) in
  let masks = List.map (fun (tag, m) -> (tag, inp KInt (`I m))) (mask_data dims) in
  let imask = List.assoc " masked" masks in
  let izero = ints (fun p -> if p = 6 then 0 else cycle nonzero p) in
  let fa = floats (cycle float_vals) in
  let fb = floats (fun p -> cycle float_vals2 (p + 2)) in
  let reg v =
    let r = Builder.reg b in
    s0.code <- Fmov (r, Imm v) :: s0.code;
    r
  in
  s0.code <- [ Cwith vp ];
  let ri = reg (SInt max_int) in
  let rnz = reg (SInt (-3)) in
  let rsh = reg (SInt 3) in
  let rf = reg (SFloat (-0.0)) in
  let rn = reg (SFloat nan) in
  { s0 with ia; ib; inz; ish; iaddr; iperm; imask; masks; izero; fa; fb; ri; rnz;
    rsh; rf; rn }

(* An input field of the section. *)
let input_field s kind data =
  let f = Builder.field s.b ~vpset:s.vp kind in
  s.inits <- (f, data) :: s.inits;
  f

(* Each case runs dense and under each mask. *)
let masks s = (" dense", None) :: List.map (fun (tag, f) -> (tag, Some f)) s.masks

let under mask is =
  match mask with None -> is | Some f -> [ Cpush; Cand f ] @ is @ [ Cpop ]

let input s f = List.assoc f s.inits
let as_ints = function `I a -> Array.copy a | `F _ -> invalid_arg "as_ints"
let as_floats = function `F a -> Array.copy a | `I _ -> invalid_arg "as_floats"

(* The activity flags a mask leaves on the fully active VP set. *)
let active s = function
  | None -> Array.make s.nv true
  | Some f -> Array.map (fun v -> v <> 0) (as_ints (input s f))

(* One case: [mk d] writes destination [d].  [expect act prior], when
   given, is a router case's oracle: the destination's contents after
   the case from its contents before and the activity flags, and the
   messages and fan-in the router op charges. *)
let case ?expect s label kind mk =
  List.iter
    (fun (tag, mask) ->
      let d = new_field s kind in
      s.labels <- (Printf.sprintf "f%d" d, label ^ tag) :: s.labels;
      Option.iter
        (fun f ->
          let contents, stats = f (active s mask) (input s d) in
          s.oracles <- (d, contents) :: s.oracles;
          s.stats <- (d, stats) :: s.stats)
        expect;
      emit s (under mask (mk d)))
    (masks s)

(* A reduction case writes a fresh register instead. *)
let reg_case s label mk =
  List.iter
    (fun (tag, mask) ->
      let r = Builder.reg s.b in
      s.labels <- (Printf.sprintf "r%d" r, label ^ tag) :: s.labels;
      emit s (under mask (mk r)))
    (masks s)

let shapes s ~a ~b ~k ~r =
  [
    ("field/field", Fld a, Fld b);
    ("field/imm", Fld a, k);
    ("imm/field", k, Fld b);
    ("reg/field", Reg r, Fld b);
    ("field/reg", Fld a, Reg r);
    ("imm/imm", k, k);
  ]

(* The operators valid at a kind are those whose Paris evaluator does
   not refuse them. *)
let valid evaluator op = match evaluator op with _ -> true | exception Program_error _ -> false
let int_ops = List.filter (valid int_binop) binops
let float_ops = List.filter (valid float_binop) binops
let cmps = List.filter is_cmp binops

let pbin_int s =
  List.iter
    (fun op ->
      let a, b, k, r =
        match op with
        | Div | Mod -> (s.ia, s.inz, Imm (SInt (-3)), s.rnz)
        | Shl | Shr -> (s.ia, s.ish, Imm (SInt 5), s.rsh)
        | _ -> (s.ia, s.ib, Imm (SInt max_int), s.ri)
      in
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "pbin.%s int %s" (binop_name op) sh) KInt
            (fun d -> [ Pbin (op, d, x, y) ]))
        (shapes s ~a ~b ~k ~r))
    int_ops

let pbin_float s =
  List.iter
    (fun op ->
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "pbin.%s float %s" (binop_name op) sh) KFloat
            (fun d -> [ Pbin (op, d, x, y) ]))
        (shapes s ~a:s.fa ~b:s.fb ~k:(Imm (SFloat (-0.0))) ~r:s.rn
        @ [ ("intfield/field", Fld s.ia, Fld s.fb); ("intimm/field", Imm (SInt 3), Fld s.fb) ]))
    float_ops;
  (* float comparisons into int fields, and an int compare whose
     register operand holds a float *)
  List.iter
    (fun op ->
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "pbin.%s float-cmp %s" (binop_name op) sh) KInt
            (fun d -> [ Pbin (op, d, x, y) ]))
        (shapes s ~a:s.fa ~b:s.fb ~k:(Imm (SFloat nan)) ~r:s.rf
        @ [ ("intfield/field", Fld s.ia, Fld s.fb); ("floatreg/intfield", Reg s.rf, Fld s.ib) ]))
    cmps

let unop_mov_sel s =
  let one_shapes a k r = [ ("field", Fld a); ("imm", k); ("reg", Reg r) ] in
  List.iter
    (fun op ->
      List.iter
        (fun (sh, x) ->
          case s (Printf.sprintf "punop.%s int %s" (unop_name op) sh) KInt
            (fun d -> [ Punop (op, d, x) ]))
        (one_shapes s.ia (Imm (SInt min_int)) s.ri))
    (List.filter (valid int_unop) unops);
  List.iter
    (fun (sh, x) ->
      case s ("punop.toint " ^ sh) KInt (fun d -> [ Punop (ToInt, d, x) ]))
    (one_shapes s.fb (Imm (SFloat (-2.5))) s.rf);
  List.iter
    (fun op ->
      List.iter
        (fun (sh, x) ->
          case s (Printf.sprintf "punop.%s float %s" (unop_name op) sh) KFloat
            (fun d -> [ Punop (op, d, x) ]))
        (one_shapes s.fa (Imm (SFloat nan3)) s.rn @ [ ("intfield", Fld s.ia) ]))
    (List.filter (valid float_unop) unops);
  List.iter
    (fun (sh, x) -> case s ("pmov int " ^ sh) KInt (fun d -> [ Pmov (d, x) ]))
    (one_shapes s.ia (Imm (SInt min_int)) s.ri);
  List.iter
    (fun (sh, x) -> case s ("pmov float " ^ sh) KFloat (fun d -> [ Pmov (d, x) ]))
    (one_shapes s.fa (Imm (SFloat nan2)) s.rf
    @ [ ("intfield", Fld s.ia); ("intimm", Imm (SInt (-4))) ]);
  let conds = [ ("intcond", Fld s.ib); ("floatcond", Fld s.fa); ("immcond", Imm (SInt 0)) ] in
  List.iter
    (fun (cn, c) ->
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "psel int %s %s" cn sh) KInt
            (fun d -> [ Psel (d, c, x, y) ]))
        (shapes s ~a:s.ia ~b:s.ib ~k:(Imm (SInt 1073741823)) ~r:s.ri);
      List.iter
        (fun (sh, x, y) ->
          case s (Printf.sprintf "psel float %s %s" cn sh) KFloat
            (fun d -> [ Psel (d, c, x, y) ]))
        (shapes s ~a:s.fa ~b:s.fb ~k:(Imm (SFloat (-0.0))) ~r:s.rn))
    conds

(* The router oracles: the active positions in ascending order; a get
   reads [src] at each one's address, a send delivers to it, where the
   first value to reach a destination overwrites it and later ones
   merge with the combine.  In place, [src] is [dst].  Each also
   returns the messages (one per active position) and the largest
   number of them that meet at one address (at least 1). *)
let fanin len act addr =
  let hits = Array.make len 0 and top = ref 1 and messages = ref 0 in
  Array.iteri
    (fun p a ->
      if act.(p) then begin
        incr messages;
        hits.(a) <- hits.(a) + 1;
        top := Int.max !top hits.(a)
      end)
    addr;
  (!messages, !top)

let get_oracle act addr src dst =
  let stats = fanin (Array.length src) act addr in
  Array.iteri (fun p a -> if act.(p) then dst.(p) <- src.(a)) addr;
  (dst, stats)

let send_oracle combine act addr src dst =
  let stats = fanin (Array.length dst) act addr in
  let seen = Array.make (Array.length dst) false in
  Array.iteri
    (fun p a ->
      if act.(p) then begin
        dst.(a) <- (if seen.(a) then combine dst.(a) src.(p) else src.(p));
        seen.(a) <- true
      end)
    addr;
  (dst, stats)

(* A combining send merges in the network and is charged a fan-in of
   1; the checking send pays its destination fan-in. *)
let charged c (dst, (messages, fanin)) = (dst, (messages, if c = Ccheck then fanin else 1))
let ints_of (d, st) = (`I d, st)
let floats_of (d, st) = (`F d, st)

(* The checking combine only ever meets distinct destinations here
   (its sends use a permutation). *)
let int_combine = function
  | Ccheck | Cover -> fun d _ -> d
  | Cadd -> ( + )
  | Cmin -> Int.min
  | Cmax -> Int.max
  | Cor -> ( lor )
  | Cand -> ( land )
  | Cxor -> ( lxor )

let float_combine = function
  | Ccheck | Cover -> fun d _ -> d
  | Cadd -> ( +. )
  | Cmin -> Float.min
  | Cmax -> Float.max
  | Cor | Cand | Cxor -> invalid_arg "float_combine"

(* Address fields affine in the coordinates, by name: broadcasts of a
   row and of a column (fan-in: the other extents), a transpose (the
   coordinates reversed), a reversal (negative coefficients), [i + j]
   (not injective beyond rank 1) and a transpose whose last address
   alone breaks the form. *)
let affine_addresses dims =
  let g = Cm.Geometry.create dims in
  let nv = Cm.Geometry.size g and d = Array.of_list dims in
  let last = Array.length d - 1 in
  let c p = Cm.Geometry.coords g p in
  let transpose p =
    let c = c p and acc = ref 0 in
    for k = last downto 0 do acc := (!acc * d.(k)) + c.(k) done;
    !acc
  in
  [
    ("row broadcast", fun p -> p - (c p).(last));
    ("column broadcast", fun p -> (c p).(last));
    ("transpose", transpose);
    ("reversal", fun p -> nv - 1 - p);
    ("i + j", fun p -> Array.fold_left ( + ) 0 (c p));
    ("transpose but the last", fun p -> if p = nv - 1 && nv > 1 then transpose 0 else transpose p);
  ]

let comm s =
  for axis = 0 to s.rank - 1 do
    List.iter
      (fun delta ->
        let tag = Printf.sprintf "axis %d delta %d" axis delta in
        case s ("pnews int " ^ tag) KInt (fun d -> [ Pnews (d, s.ia, axis, delta) ]);
        case s ("pnews float " ^ tag) KFloat (fun d -> [ Pnews (d, s.fa, axis, delta) ]);
        case s ("pnews int in place " ^ tag) KInt
          (fun d -> [ Pmov (d, Fld s.ia); Pnews (d, d, axis, delta) ]);
        case s ("pnews float in place " ^ tag) KFloat
          (fun d -> [ Pmov (d, Fld s.fa); Pnews (d, d, axis, delta) ]))
      (* an in-place shift by -5 reads what the group before wrote *)
      [ -1; 1; -2; -5 ]
  done;
  let ia = as_ints (input s s.ia) and fa = as_floats (input s s.fa) in
  let gets label addr_field =
    let addr = as_ints (input s addr_field) in
    case s ("pget int " ^ label) KInt
      (fun d -> [ Pget (d, s.ia, addr_field) ])
      ~expect:(fun act d -> ints_of (get_oracle act addr ia (as_ints d)));
    case s ("pget float " ^ label) KFloat
      (fun d -> [ Pget (d, s.fa, addr_field) ])
      ~expect:(fun act d -> floats_of (get_oracle act addr fa (as_floats d)));
    case s ("pget int in place " ^ label) KInt
      (fun d -> [ Pmov (d, Fld s.ia); Pget (d, d, addr_field) ])
      ~expect:(fun act d ->
        let d = as_ints d in
        Array.iteri (fun p a -> if a then d.(p) <- ia.(p)) act;
        ints_of (get_oracle act addr d d));
    (* the address field is the destination *)
    case s ("pget int into its address " ^ label) KInt
      (fun d -> [ Pmov (d, Fld addr_field); Pget (d, s.ia, d) ])
      ~expect:(fun act d ->
        let d = as_ints d in
        Array.iteri (fun p a -> if a then d.(p) <- addr.(p)) act;
        ints_of (get_oracle act d ia d))
  in
  gets "fan-in" s.iaddr;
  (* Affine addresses, which the fast engine gets in closed form on an
     all-active set, and near misses it must refuse. *)
  List.iter
    (fun (label, f) -> gets label (input_field s KInt (`I (Array.init s.nv f))))
    (affine_addresses s.dims);
  let send_addr c = if c = Ccheck then s.iperm else s.iaddr in
  List.iter
    (fun c ->
      let addr = as_ints (input s (send_addr c)) in
      case s ("psend int " ^ combine_name c) KInt
        (fun d -> [ Psend (d, s.ia, send_addr c, c) ])
        ~expect:(fun act d ->
          ints_of (charged c (send_oracle (int_combine c) act addr ia (as_ints d)))))
    [ Ccheck; Cover; Cadd; Cmin; Cmax; Cor; Cand; Cxor ];
  List.iter
    (fun c ->
      let addr = as_ints (input s (send_addr c)) in
      case s ("psend float " ^ combine_name c) KFloat
        (fun d -> [ Psend (d, s.fa, send_addr c, c) ])
        ~expect:(fun act d ->
          floats_of (charged c (send_oracle (float_combine c) act addr fa (as_floats d)))))
    [ Ccheck; Cover; Cadd; Cmin; Cmax ]

let reduce_coord s =
  let reducible kind op =
    match identity op kind with _ -> true | exception Invalid_argument _ -> false
  in
  List.iter
    (fun op ->
      reg_case s ("preduce int " ^ binop_name op) (fun r -> [ Preduce (op, r, s.ia) ]))
    (List.filter (reducible KInt) binops);
  (* fb holds two NaNs of one sign and distinct payloads, which a fold
     that swaps its accumulator and the element returns the other of *)
  List.iter
    (fun (src, f) ->
      List.iter
        (fun op ->
          reg_case s (Printf.sprintf "preduce float %s %s" (binop_name op) src)
            (fun r -> [ Preduce (op, r, f) ]))
        (List.filter (reducible KFloat) binops))
    [ ("fa", s.fa); ("fb", s.fb) ];
  (* axis reductions into each proper prefix of the geometry (a
     rank-1 set reduces into itself) *)
  let prefixes =
    if s.rank = 1 then [ s.dims ]
    else List.init (s.rank - 1) (fun k -> List.filteri (fun i _ -> i <= k) s.dims)
  in
  List.iter
    (fun outer ->
      let g = Cm.Geometry.create outer in
      let ovp = Builder.vpset s.b g and n = Cm.Geometry.size g in
      let tag = String.concat "x" (List.map string_of_int outer) in
      List.iter
        (fun (kind, src, sname) ->
          List.iter
            (fun op ->
              List.iter
                (fun (mtag, mask) ->
                  let d = Builder.field s.b ~vpset:ovp kind in
                  s.inits <-
                    (d,
                     match kind with
                     | KInt -> `I (Array.init n (fun p -> 1000 + p))
                     | KFloat -> `F (Array.init n (fun p -> 1000.5 +. float_of_int p)))
                    :: s.inits;
                  s.labels <-
                    ( Printf.sprintf "f%d" d,
                      Printf.sprintf "preduce-axis %s %s into %s%s" (binop_name op) sname tag
                        mtag )
                    :: s.labels;
                  emit s (under mask [ Preduce_axis (op, d, src) ]))
                (masks s))
            (List.filter (fun op -> op <> Any && reducible kind op) binops))
        [ (KInt, s.ia, "int"); (KFloat, s.fa, "fa"); (KFloat, s.fb, "fb") ])
    prefixes;
  for axis = 0 to s.rank - 1 do
    case s (Printf.sprintf "pcoord axis %d" axis) KInt (fun d -> [ Pcoord (d, axis) ])
  done;
  case s "cread" KInt (fun d -> [ Cread d ]);
  case s "ptable" KInt (fun d -> [ Ptable (d, Array.init s.nv (fun p -> (p * 31) - 7)) ])

(* The faulting int operators: each program stops at its fault, and the
   error and the writes before it must agree. *)
let faulting =
  [
    ("pbin.div by zero", fun s d -> [ Pbin (Div, d, Fld s.ia, Fld s.ib) ]);
    ("pbin.div by zero on lane 2", fun s d -> [ Pbin (Div, d, Fld s.ia, Fld s.izero) ]);
    ("pbin.mod by zero", fun s d -> [ Pbin (Mod, d, Fld s.ia, Fld s.ib) ]);
    ("pbin.shl out of range", fun s d -> [ Pbin (Shl, d, Fld s.ia, Fld s.ib) ]);
  ]

let finish s =
  List.iter (Builder.emit s.b) (List.rev s.code);
  Builder.finish s.b

(* ---- running and comparing ---- *)

let engines : (string * Cm.Machine.engine) list = [ ("fast", `Fast) ]

(* A run one instruction at a time, calling [step] after each. *)
let run ?(step = ignore) engine s prog =
  let m = Cm.Machine.create ~seed:11 ~engine prog in
  List.iter
    (fun (f, data) ->
      match data with
      | `I a -> Cm.Machine.set_field_ints m f a
      | `F a -> Cm.Machine.set_field_floats m f a)
    s.inits;
  let rec go () =
    let more = Cm.Machine.run_slice m ~fuel_slice:1 in
    step m;
    if more = `More then go ()
  in
  let status =
    match go () with
    | () -> "finished"
    | exception Cm.Machine.Error msg -> "error: " ^ msg
  in
  (status, m)

(* After each instruction of a section (straight-line code, so the
   instruction is [code.(icount - 1)]): a router op with an oracle must
   have charged its messages and fan-in, seen as the growth of
   [router_messages] and of [router_collisions] (which grows by the
   fan-in less one), and [router_max_fanin] must be the largest fan-in
   charged so far. *)
let router_meter s (prog : program) ename =
  let messages = ref 0 and collisions = ref 0 and top = ref 0 in
  fun m ->
    let mt = Cm.Machine.meter m in
    (match prog.code.(Cm.Machine.icount m - 1) with
    | Pget (d, _, _) | Psend (d, _, _, _) -> (
        match List.assoc_opt d s.stats with
        | None -> ()
        | Some (msgs, fan) ->
            top := Int.max !top fan;
            let got_m = mt.Cm.Cost.router_messages - !messages
            and got_f = mt.Cm.Cost.router_collisions - !collisions + 1 in
            if got_m <> msgs || got_f <> fan || mt.Cm.Cost.router_max_fanin <> !top then
              Alcotest.failf
                "%s: %s, %s (f%d): %d messages, fan-in %d, max fan-in %d; the oracle %d, %d, %d"
                prog.name ename
                (List.assoc (Printf.sprintf "f%d" d) s.labels)
                d got_m got_f mt.Cm.Cost.router_max_fanin msgs fan !top)
    | _ -> ());
    messages := mt.Cm.Cost.router_messages;
    collisions := mt.Cm.Cost.router_collisions

let bits f = Int64.bits_of_float f
let hex f = if Float.is_nan f then Printf.sprintf "nan/%Lx" (bits f) else Printf.sprintf "%h" f

(* The first divergence from the reference, named by case. *)
let diff s prog (st0, m0) (st1, m1) =
  let name key = Option.value ~default:key (List.assoc_opt key s.labels) in
  let first = ref None in
  let note msg = if !first = None then first := Some msg in
  if st0 <> st1 then note (Printf.sprintf "status %S vs %S" st0 st1);
  for r = prog.nregs - 1 downto 0 do
    let show = function SInt i -> string_of_int i | SFloat f -> hex f in
    let same =
      match Cm.Machine.reg m0 r, Cm.Machine.reg m1 r with
      | SInt a, SInt b -> a = b
      | SFloat a, SFloat b -> bits a = bits b
      | _ -> false
    in
    if not same then
      note
        (Printf.sprintf "%s (r%d): %s vs %s" (name (Printf.sprintf "r%d" r)) r
           (show (Cm.Machine.reg m0 r)) (show (Cm.Machine.reg m1 r)))
  done;
  Array.iteri
    (fun f (_, kind) ->
      let key = Printf.sprintf "f%d" f in
      match kind with
      | KInt ->
          let a = Cm.Machine.field_ints m0 f and b = Cm.Machine.field_ints m1 f in
          Array.iteri
            (fun p v ->
              if v <> b.(p) then
                note (Printf.sprintf "%s (%s) element %d: %d vs %d" (name key) key p v b.(p)))
            a
      | KFloat ->
          let a = Cm.Machine.field_floats m0 f and b = Cm.Machine.field_floats m1 f in
          Array.iteri
            (fun p v ->
              if bits v <> bits b.(p) then
                note
                  (Printf.sprintf "%s (%s) element %d: %s vs %s" (name key) key p
                     (hex v) (hex b.(p))))
            a)
    prog.fields;
  let mt m = Cm.Machine.meter m in
  if bits (mt m0).Cm.Cost.elapsed_ns <> bits (mt m1).Cm.Cost.elapsed_ns then
    note "simulated time";
  if Cm.Machine.output m0 <> Cm.Machine.output m1 then note "output";
  if Cm.Machine.icount m0 <> Cm.Machine.icount m1 then note "icount";
  !first

(* The cases with an oracle, on one engine's run. *)
let check_oracles s prog ename (_, m) =
  List.iter
    (fun (d, expected) ->
      let name = List.assoc (Printf.sprintf "f%d" d) s.labels in
      let differs p got want =
        Alcotest.failf "%s: %s, %s (f%d) element %d: %s, the oracle %s" prog.name ename
          name d p got want
      in
      match expected with
      | `I want ->
          let got = Cm.Machine.field_ints m d in
          Array.iteri
            (fun p w -> if got.(p) <> w then differs p (string_of_int got.(p)) (string_of_int w))
            want
      | `F want ->
          let got = Cm.Machine.field_floats m d in
          Array.iteri
            (fun p w -> if bits got.(p) <> bits w then differs p (hex got.(p)) (hex w))
            want)
    (List.rev s.oracles)

let check_section s =
  let prog = finish s in
  let ref_run = run ~step:(router_meter s prog "reference") `Reference s prog in
  check_oracles s prog "reference" ref_run;
  List.iter
    (fun (ename, engine) ->
      let run = run ~step:(router_meter s prog ename) engine s prog in
      check_oracles s prog ename run;
      match diff s prog ref_run run with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s differs from reference: %s" prog.name ename msg)
    engines

(* Rank 3 with an extent-1 axis, and a mid-sized set whose masks have
   a few runs per row. *)
let geometries =
  List.init 9 (fun n -> [ n + 1 ]) @ [ [ 11 ]; [ 4; 5 ]; [ 3; 1; 7 ]; [ 6; 11 ]; [ 41; 53 ] ]

(* The whole ranges the grid's kernels sweep have lengths at every
   residue mod 4, so every unrolled loop runs with every remainder. *)
let chunk_coverage () =
  let lengths = Array.make 4 false in
  List.iter
    (fun dims -> lengths.(List.fold_left ( * ) 1 dims mod 4) <- true)
    geometries;
  if not (Array.for_all Fun.id lengths) then
    Alcotest.fail "the grid's ranges miss a residue mod 4"

(* On the largest geometry every runny mask takes the runs path (at most
   [nv / 16] runs, one more for the mask meant to exceed it), and the
   stripes' runs start and end on every residue mod 4. *)
let mask_coverage () =
  let dims = [ 41; 53 ] in
  let nv = 41 * 53 in
  List.iter
    (fun (tag, m) ->
      let k = List.length (runs_of m) in
      let want =
        match tag with
        | " masked" | " lane-masked" -> None
        | " n/16+1 runs" -> Some (k = (nv / 16) + 1)
        | " n/16 runs" -> Some (k = nv / 16)
        | _ -> Some (k <= nv / 16)
      in
      if want = Some false then Alcotest.failf "mask%s has %d runs on %d VPs" tag k nv;
      if tag = " stripes" then begin
        let starts = Array.make 4 false and ends = Array.make 4 false in
        List.iter
          (fun (lo, hi) ->
            starts.(lo mod 4) <- true;
            ends.(hi mod 4) <- true)
          (runs_of m);
        if not (Array.for_all Fun.id starts && Array.for_all Fun.id ends) then
          Alcotest.fail "the stripes miss a residue mod 4"
      end)
    (mask_data dims)

(* The [for%unroll] rewrite itself, on every range length from empty to
   12 at every start residue: it visits the indices a plain loop visits,
   in the same order, and a body that raises at index [stop] leaves
   exactly the visits before it. *)
let unroll_test () =
  for lo = 0 to 3 do
    for len = -2 to 12 do
      let hi = lo + len in
      for stop = lo - 1 to hi do
        let seen = ref [] in
        (try
           for%unroll p = lo to hi - 1 do
             if p = stop then raise Exit;
             seen := p :: !seen
           done
         with Exit -> ());
        let expect =
          List.filter (fun p -> p < stop || stop < lo) (List.init (max 0 len) (( + ) lo))
        in
        if List.rev !seen <> expect then
          Alcotest.failf "for%%unroll over [%d, %d) stopping at %d visited [%s]" lo hi stop
            (String.concat "; " (List.rev_map string_of_int !seen))
      done
    done
  done

let grid_test (sname, fill) =
  Alcotest.test_case sname `Quick (fun () ->
      List.iter
        (fun dims ->
          let name =
            Printf.sprintf "%s [%s]" sname
              (String.concat "x" (List.map string_of_int dims))
          in
          let s = section name dims in
          fill s;
          check_section s)
        geometries)

(* Dense, each program must fault; masked, the fault may fall on an
   inactive element, and the run must agree either way. *)
let fault_test (label, mk) =
  Alcotest.test_case label `Quick (fun () ->
      List.iter
        (fun (dims, masked) ->
          let s = section label dims in
          let d = new_field s KInt in
          s.labels <- [ (Printf.sprintf "f%d" d, label) ];
          emit s (under (if masked then Some s.imask else None) (mk s d));
          let prog = finish s in
          let ref_run = run `Reference s prog in
          let st = fst ref_run in
          if (not masked) && not (String.length st > 6 && String.sub st 0 6 = "error:")
          then Alcotest.failf "%s: expected a fault, got %s" label st;
          List.iter
            (fun (ename, engine) ->
              match diff s prog ref_run (run engine s prog) with
              | None -> ()
              | Some msg -> Alcotest.failf "%s: %s differs: %s" label ename msg)
            engines)
        [ ([ 11 ], false); ([ 4; 5 ], false); ([ 4; 5 ], true) ])

(* Programs that must stop at an error, compared with the reference. *)
let must_fail label s prog =
  let ref_run = run `Reference s prog in
  let st = fst ref_run in
  if not (String.length st > 6 && String.sub st 0 6 = "error:") then
    Alcotest.failf "%s: expected an error, got %s" label st;
  List.iter
    (fun (ename, engine) ->
      match diff s prog ref_run (run engine s prog) with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: %s differs: %s" label ename msg)
    engines

(* A get on an all-active set whose addresses leave the source, or
   whose coefficients would overflow the closed form: the fast engine
   must refuse the form and fail at the reference's element. *)
let pget_faults =
  [
    ("shifted past the end", fun _ p -> p + 1);
    ("origin below zero", fun _ p -> p - 1);
    ("coefficient max_int", fun _ p -> p * max_int);
    ("coefficient min_int", fun _ p -> p * min_int);
    ("neighbour wraps", fun nv p -> nv - 1 + (p * max_int));
    ("last address max_int", fun nv p -> if p = nv - 1 then max_int else p);
  ]

let pget_fault_test (label, addr) =
  Alcotest.test_case ("pget " ^ label) `Quick (fun () ->
      List.iter
        (fun dims ->
          let s = section label dims in
          let a = input_field s KInt (`I (Array.init s.nv (addr s.nv))) in
          let d = new_field s KInt and e = new_field s KFloat in
          s.labels <- [ (Printf.sprintf "f%d" d, label ^ " int"); (Printf.sprintf "f%d" e, label ^ " float") ];
          emit s [ Pget (d, s.ia, a) ];
          emit s [ Pget (e, s.fa, a) ];
          must_fail label s (finish s))
        [ [ 11 ]; [ 4; 5 ]; [ 3; 1; 7 ]; [ 6; 11 ]; [ 41; 53 ] ])

(* A division by zero inside the second run of a runny mask: the fast
   engine's run-by-run loop must stop there, after the first run's
   writes and those before it in the second. *)
let second_run_fault () =
  List.iter
    (fun (dims, tag) ->
      let label = "pbin.div by zero in the second run of" ^ tag in
      let s = section label dims in
      let m = List.assoc tag s.masks in
      let lo, hi = List.nth (runs_of (as_ints (input s m))) 1 in
      let z = (lo + hi) / 2 in
      let divisor =
        input_field s KInt (`I (Array.init s.nv (fun p -> if p = z then 0 else cycle nonzero p)))
      in
      let d = new_field s KInt in
      s.labels <- [ (Printf.sprintf "f%d" d, label) ];
      emit s (under (Some m) [ Pbin (Div, d, Fld s.ia, Fld divisor) ]);
      must_fail label s (finish s))
    [ ([ 41; 53 ], " box"); ([ 41; 53 ], " stripes"); ([ 6; 11 ], " box") ]

(* Context sequences around the cached runs and table masks, run three
   times by a front-end loop so that the second and later executions
   reuse what the first cached: a table mask installed on an all-active
   frame, a second table ANDed in (no install: the frame is no longer
   all active), a nested frame and the pop back to a frame whose runs
   were cached, and full, empty and fragmented tables. *)
let context_test () =
  List.iter
    (fun dims ->
      let s = section "context sequences" dims in
      let nv = s.nv in
      let mask tag = as_ints (input s (List.assoc tag s.masks)) in
      let table = Array.map (fun v -> if v <> 0 then (v * 7) - 3 else 0) in
      let tables =
        [
          ("box", table (mask " box"));
          ("stripes", table (mask " stripes"));
          ("full", Array.make nv 5);
          ("empty", Array.make nv 0);
          ("fragmented", table (mask " masked"));
        ]
      in
      let counter = Builder.reg s.b and more = Builder.reg s.b in
      let top = Builder.label s.b in
      emit s [ Fmov (counter, Imm (SInt 0)); Label top ];
      let acc label =
        let d = new_field s KInt in
        s.labels <- (Printf.sprintf "f%d" d, label) :: s.labels;
        emit s [ Pbin (Add, d, Fld d, Fld s.ia) ]
      in
      List.iter
        (fun (t1, a) ->
          List.iter
            (fun (t2, b) ->
              let tag = Printf.sprintf "%s then %s" t1 t2 in
              let f1 = new_field s KInt and f2 = new_field s KInt in
              emit s [ Creset; Ptable (f1, a); Cand f1 ];
              acc (tag ^ ": after the first table");
              emit s [ Ptable (f2, b); Cand f2 ];
              acc (tag ^ ": after the second table");
              let n = new_field s KInt in
              s.labels <- (Printf.sprintf "f%d" n, tag ^ ": news") :: s.labels;
              emit s [ Pnews (n, s.ia, 0, 1) ];
              emit s [ Cpush; Cand s.imask ];
              acc (tag ^ ": nested");
              emit s [ Cpop ];
              acc (tag ^ ": popped");
              emit s [ Cpush; Ptable (f1, a); Cand f1 ];
              acc (tag ^ ": table under a pushed frame");
              emit s [ Cpop; Creset ])
            tables)
        tables;
      emit s
        [
          Fbin (Add, counter, Reg counter, Imm (SInt 1));
          Fbin (Lt, more, Reg counter, Imm (SInt 3));
          Jnz (Reg more, top);
        ];
      let prog = finish s in
      let ref_run = run `Reference s prog in
      List.iter
        (fun (ename, engine) ->
          match diff s prog ref_run (run engine s prog) with
          | None -> ()
          | Some msg -> Alcotest.failf "%s: %s differs: %s" prog.name ename msg)
        engines)
    [ [ 9 ]; [ 6; 11 ]; [ 41; 53 ] ]

(* The witness that lets a [Cand] install its table's mask: a run
   stopped between the [Ptable] and the [Cand], whose field is then
   rewritten from outside, must AND the new contents. *)
let witness_test () =
  let s = section "table witness" [ 41; 53 ] in
  let t = new_field s KInt and d = new_field s KInt in
  s.labels <- [ (Printf.sprintf "f%d" d, "masked by the rewritten table") ];
  emit s [ Creset; Ptable (t, Array.init s.nv (fun p -> p mod 3)); Cand t; Pmov (d, Fld s.ia) ];
  let prog = finish s in
  let icount_after_ptable =
    let rec find k = match prog.code.(k) with Ptable _ -> k + 1 | _ -> find (k + 1) in
    find 0
  in
  let go engine =
    let m = Cm.Machine.create ~seed:11 ~engine prog in
    List.iter
      (fun (f, data) ->
        match data with
        | `I a -> Cm.Machine.set_field_ints m f a
        | `F a -> Cm.Machine.set_field_floats m f a)
      s.inits;
    ignore (Cm.Machine.run_slice m ~fuel_slice:icount_after_ptable);
    Cm.Machine.set_field_ints m t (Array.init s.nv (fun p -> p mod 5));
    Cm.Machine.run m;
    ("finished", m)
  in
  match diff s prog (go `Reference) (go `Fast) with
  | None -> ()
  | Some msg -> Alcotest.failf "table witness: fast differs: %s" msg

(* ---- allocation does not grow with the VP count ---- *)

(* Words allocated by one run, decode excluded: minor allocations plus
   those made straight on the major heap.  The run starts on an empty
   minor heap: a minor collection inside the window skews the
   counters. *)
let run_words engine src =
  let prog = (Uc.Compile.compile_source src).Uc.Codegen.prog in
  let m = Cm.Machine.create ~engine prog in
  Cm.Machine.compile m;
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  Cm.Machine.run m;
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* The two runs of each program execute the same instructions and
   differ only in VP count.  What may differ
   is one flag vector per context nesting level, allocated by a
   machine's first [Cpush] at that depth.  Before the kernels were made
   allocation-free, heat (20 steps) allocated ~1.7M words per run at
   N=48 and ~2.7M at N=64. *)
let alloc_bound = 16_384.

let alloc_test () =
  let module P = Uc_programs.Programs in
  let progs =
    [
      ("heat", P.heat ~steps:20 ~n:48 (), P.heat ~steps:20 ~n:64 ());
      ("stencil", P.stencil ~n:2048 ~steps:40 (), P.stencil ~n:4096 ~steps:40 ());
      (* its gets take the affine kernel *)
      ("shortest_path_n2", P.shortest_path_n2 ~n:32 (), P.shortest_path_n2 ~n:48 ());
    ]
  in
  List.iter
    (fun (name, small, large) ->
      let ws = run_words `Fast small and wl = run_words `Fast large in
      if Float.abs (wl -. ws) >= alloc_bound then
        Alcotest.failf
          "%s: %.0f words per run at the small size, %.0f at the large one \
           (bound: a difference under %.0f)"
          name ws wl alloc_bound)
    progs

let () =
  Alcotest.run "kernels"
    [
      ( "grid",
        List.map grid_test
          [
            ("pbin int", pbin_int);
            ("pbin float", pbin_float);
            ("punop pmov psel", unop_mov_sel);
            ("pnews pget psend", comm);
            ("preduce pcoord", reduce_coord);
          ] );
      ( "unrolled loops",
        [
          Alcotest.test_case "rewrite keeps order and partial effects" `Quick unroll_test;
          Alcotest.test_case "grid chunks cover every residue mod 4" `Quick chunk_coverage;
        ] );
      ( "faults",
        List.map fault_test faulting
        @ [ Alcotest.test_case "pbin.div by zero in a second run" `Quick second_run_fault ]
        @ List.map pget_fault_test pget_faults );
      ( "context",
        [
          Alcotest.test_case "table masks and cached runs" `Quick context_test;
          Alcotest.test_case "table witness" `Quick witness_test;
          Alcotest.test_case "masks reach the runs path" `Quick mask_coverage;
        ] );
      ("allocation", [ Alcotest.test_case "independent of VP count" `Quick alloc_test ]);
    ]
