(* Each stack frame caches its active count so [count_active], [depth]
   and the [all_active] fast-path test are O(1); the count is maintained
   for free inside the O(n) mask updates, which already touch every
   flag.

   Frames are preallocated and reused: [frames.(0 .. depth - 1)] is the
   live stack (base first), and a slot above it keeps its flag vector
   for the next [push], so pushing, popping and resetting allocate
   nothing once the stack has reached its deepest nesting.  Flags are a
   [bool array], an immediate type, so the typed loops below store
   without a write barrier.

   A frame also caches its active runs, the maximal ranges of active
   positions, as ascending [lo; hi) pairs in [runs]: masked kernels run
   their all-active loop once per run instead of testing a flag per
   element.  The cache is filled on the first [active_runs] after a
   change and dropped by every change to the flags ([land_*], [push]'s
   copy, a refilling [reset]); a frame that [pop] exposes was not
   changed, so its cache stays valid.  A mask of more than [n / 16]
   runs is fragmented: the per-run overhead would outweigh the flag
   tests, so the cache records only that, and [runs] never grows past
   [2 * (n / 16) + 1] words, allocated once per frame slot. *)

type frame = {
  flags : bool array;
  mutable count : int;
  mutable runs : int array;  (* [lo0; hi0; lo1; hi1; ...] *)
  mutable nruns : int;  (* valid pairs, [fragmented] or [stale] *)
}

type t = { n : int; mutable frames : frame array; mutable depth : int }

let fragmented = -1
let stale = min_int

let base_frame n = { flags = Array.make n true; count = n; runs = [||]; nruns = stale }

let create n =
  if n < 0 then invalid_arg "Context.create: negative size";
  { n; frames = [| base_frame n |]; depth = 1 }

let size c = c.n
let top c = Array.unsafe_get c.frames (c.depth - 1)
let active c = (top c).flags
let is_active c p = (top c).flags.(p)
let count_active c = (top c).count
let all_active c = (top c).count = c.n

let push c =
  let f = top c in
  if c.depth = Array.length c.frames then
    c.frames <-
      Array.init (2 * c.depth) (fun i ->
          if i < c.depth then c.frames.(i) else base_frame c.n);
  let g = Array.unsafe_get c.frames c.depth in
  let src = f.flags and dst = g.flags in
  for%unroll i = 0 to c.n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done;
  g.count <- f.count;
  g.nruns <- stale;
  c.depth <- c.depth + 1

let land_mask c m =
  if Array.length m <> c.n then invalid_arg "Context.land_mask: size mismatch";
  let f = top c in
  let flags = f.flags in
  let count = ref 0 in
  for%unroll i = 0 to c.n - 1 do
    let v =
      Bool.to_int (Array.unsafe_get flags i)
      land Bool.to_int (Array.unsafe_get m i)
    in
    Array.unsafe_set flags i (v = 1);
    count := !count + v
  done;
  f.count <- !count;
  f.nruns <- stale

let land_ints c a =
  if Array.length a <> c.n then invalid_arg "Context.land_ints: size mismatch";
  let f = top c in
  let flags = f.flags in
  let count = ref 0 in
  for%unroll i = 0 to c.n - 1 do
    let v =
      Bool.to_int (Array.unsafe_get flags i)
      land Bool.to_int ((Array.unsafe_get a i : int) <> 0)
    in
    Array.unsafe_set flags i (v = 1);
    count := !count + v
  done;
  f.count <- !count;
  f.nruns <- stale

let land_floats c a =
  if Array.length a <> c.n then invalid_arg "Context.land_floats: size mismatch";
  let f = top c in
  let flags = f.flags in
  let count = ref 0 in
  for%unroll i = 0 to c.n - 1 do
    let v =
      Bool.to_int (Array.unsafe_get flags i)
      land Bool.to_int ((Array.unsafe_get a i : float) <> 0.0)
    in
    Array.unsafe_set flags i (v = 1);
    count := !count + v
  done;
  f.count <- !count;
  f.nruns <- stale

let pop c =
  if c.depth <= 1 then failwith "Context.pop: base context";
  c.depth <- c.depth - 1

let depth c = c.depth

let frames c =
  List.init c.depth (fun i -> Array.copy c.frames.(c.depth - 1 - i).flags)

let of_frames flags_list =
  match flags_list with
  | [] -> invalid_arg "Context.of_frames: empty stack"
  | first :: _ ->
      let n = Array.length first in
      let frame flags =
        if Array.length flags <> n then
          invalid_arg "Context.of_frames: frame size mismatch";
        let count = ref 0 in
        Array.iter (fun v -> if v then incr count) flags;
        { flags = Array.copy flags; count = !count; runs = [||]; nruns = stale }
      in
      let frames = Array.of_list (List.rev_map frame flags_list) in
      { n; frames; depth = Array.length frames }

(* The base frame is all-active unless a [land_*] narrowed it without a
   [push]; only then does [reset] have to refill it. *)
let reset c =
  let f = c.frames.(0) in
  if f.count <> c.n then begin
    let flags = f.flags in
    for%unroll i = 0 to c.n - 1 do
      Array.unsafe_set flags i true
    done;
    f.count <- c.n;
    f.nruns <- stale
  end;
  c.depth <- 1

(* The runs of [f] in ascending order, from the positions where the
   flags change (a run starts where a flag differs from the one before,
   inactive before position 0).  The scan has no data-dependent branch:
   every position is stored in the slot of the next change, and the
   slot index steps only where the flag changes, so a slot keeps the
   position of its change.  It goes by blocks of 64 positions and stops
   after the block that holds the last active position (a run still
   open there ends at the block's end, whose flag is inactive), or
   that ends past [2 * (n / 16)] changes: more than [n / 16] runs. *)
let fill_runs n f =
  let cap = 2 * (n / 16) in
  if Array.length f.runs < cap + 1 then f.runs <- Array.make (cap + 1) 0;
  let flags = f.flags and buf = f.runs in
  let k = ref 0 and prev = ref 0 and seen = ref 0 and i = ref 0 in
  while !i < n && !seen < f.count && !k <= cap do
    let e = Int.min n (!i + 64) in
    for%unroll p = !i to e - 1 do
      let v = Bool.to_int (Array.unsafe_get flags p) in
      Array.unsafe_set buf (Int.min !k cap) p;
      k := !k + (v lxor !prev);
      seen := !seen + v;
      prev := v
    done;
    i := e
  done;
  if !k > cap then f.nruns <- fragmented
  else begin
    if !k land 1 = 1 then begin
      buf.(!k) <- !i;
      incr k
    end;
    f.nruns <- !k / 2
  end

let active_runs c =
  let f = top c in
  if f.nruns = stale then fill_runs c.n f;
  f.nruns

let run_bounds c = (top c).runs

(* A table mask is a detached frame: its flags, count and runs are
   computed once, and [install] copies them into an all-active top,
   which is what [land_ints] of the table would leave there. *)
type mask = frame

let mask_of_ints a =
  let flags = Array.map (fun v -> v <> 0) a in
  let count = Array.fold_left (fun k v -> if v then k + 1 else k) 0 flags in
  let f = { flags; count; runs = [||]; nruns = stale } in
  fill_runs (Array.length a) f;
  f

let install c (t : mask) =
  if Array.length t.flags <> c.n then invalid_arg "Context.install: size mismatch";
  let f = top c in
  if f.count <> c.n then invalid_arg "Context.install: top frame not all active";
  let src = t.flags and dst = f.flags in
  for%unroll i = 0 to c.n - 1 do
    Array.unsafe_set dst i (Array.unsafe_get src i)
  done;
  f.count <- t.count;
  if Array.length f.runs < Array.length t.runs then
    f.runs <- Array.make (Array.length t.runs) 0;
  let buf = f.runs in
  for i = 0 to (2 * t.nruns) - 1 do
    Array.unsafe_set buf i (Array.unsafe_get t.runs i)
  done;
  f.nruns <- t.nruns
