(* Each stack frame caches its active count so [count_active], [depth]
   and the [all_active] fast-path test are O(1); the count is maintained
   for free inside the O(n) mask updates, which already touch every
   flag.

   Frames are preallocated and reused: [frames.(0 .. depth - 1)] is the
   live stack (base first), and a slot above it keeps its flag vector
   for the next [push], so pushing, popping and resetting allocate
   nothing once the stack has reached its deepest nesting.  Flags are a
   [bool array], an immediate type, so the typed loops below store
   without a write barrier. *)

type frame = { flags : bool array; mutable count : int }

type t = { n : int; mutable frames : frame array; mutable depth : int }

let base_frame n = { flags = Array.make n true; count = n }

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
  f.count <- !count

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
  f.count <- !count

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
  f.count <- !count

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
        { flags = Array.copy flags; count = !count }
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
    f.count <- c.n
  end;
  c.depth <- 1
