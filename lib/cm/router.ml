open Paris

type stats = { messages : int; max_fanin : int }

exception Conflict of int

(* Fan-in counting scratch: one word per address, [epoch lsl 31 lor
   count].  A count is valid only when its epoch is the current one;
   bumping the epoch invalidates every slot at once, so repeated routing
   operations are allocation-free once the array has grown to the
   largest field routed through it.  Counts stay below 2^31 (a field is
   far smaller); the epoch restarts, with the slots cleared, before it
   reaches 2^31, so a tag always fits a 63-bit int. *)
type scratch = { mutable tags : int array; mutable epoch : int }

let scratch () = { tags = [||]; epoch = 0 }

let count_bits = 31
let count_mask = (1 lsl count_bits) - 1

let prepare sc n =
  if Array.length sc.tags < n then begin
    sc.tags <- Array.make n 0;
    sc.epoch <- 0
  end;
  if sc.epoch = count_mask then begin
    Array.fill sc.tags 0 (Array.length sc.tags) 0;
    sc.epoch <- 0
  end;
  sc.epoch <- sc.epoch + 1;
  sc.epoch

(* [bump_unchecked sc e a] counts one more delivery to address [a] in
   the round stamped [e] and returns the fan-in so far.  [a] is in
   bounds: callers range-check it against a field no longer than the
   tag array. *)
let bump_unchecked sc e a =
  let w = Array.unsafe_get sc.tags a in
  let f = (if w lsr count_bits = e then w land count_mask else 0) + 1 in
  Array.unsafe_set sc.tags a ((e lsl count_bits) lor f);
  f

let bump sc e a =
  if a < 0 || a >= Array.length sc.tags then
    invalid_arg "Router.bump: address out of range";
  bump_unchecked sc e a

let check_lengths name mask addr =
  if Array.length mask <> Array.length addr then
    invalid_arg (name ^ ": mask/addr length mismatch")

(* Both operations walk the active positions in ascending order and
   stop at the first out-of-range address, after the deliveries before
   it.  The element moves match on the kind witness per element (a
   predictable branch), so each one is a typed load and store. *)

let get (type a) (k : a elt) ?scratch:sc ~mask ~addr ~(src : a array)
    ~(dst : a array) () =
  check_lengths "Router.get" mask addr;
  if Array.length dst <> Array.length addr then
    invalid_arg "Router.get: dst/addr length mismatch";
  let sc = match sc with Some sc -> sc | None -> scratch () in
  let len = Array.length src in
  let e = prepare sc len in
  let messages = ref 0 in
  let max_fanin = ref 0 in
  for p = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask p then begin
      let a = Array.unsafe_get addr p in
      if a < 0 || a >= len then invalid_arg "Router.get: address out of range";
      (match k with
      | EInt -> Array.unsafe_set dst p (Array.unsafe_get src a)
      | EFloat -> Array.unsafe_set dst p (Array.unsafe_get src a));
      incr messages;
      let f = bump_unchecked sc e a in
      if f > !max_fanin then max_fanin := f
    end
  done;
  { messages = !messages; max_fanin = max !max_fanin 1 }

(* The first value to reach a destination overwrites it; later ones
   merge with [combine] (the checking combine raises {!Conflict} on a
   distinct value instead). *)
let send (type a) (k : a elt) ?scratch:sc ~mask ~addr ~(src : a array)
    ~(dst : a array) ~combine () =
  check_lengths "Router.send" mask addr;
  if Array.length src <> Array.length addr then
    invalid_arg "Router.send: src/addr length mismatch";
  (match k, combine with
  | EFloat, (Cor | Cand | Cxor) ->
      invalid_arg "Router.send: bitwise combine on floats"
  | _ -> ());
  let sc = match sc with Some sc -> sc | None -> scratch () in
  let len = Array.length dst in
  let e = prepare sc len in
  let messages = ref 0 in
  let max_fanin = ref 0 in
  for p = 0 to Array.length mask - 1 do
    if Array.unsafe_get mask p then begin
      let a = Array.unsafe_get addr p in
      if a < 0 || a >= len then invalid_arg "Router.send: address out of range";
      incr messages;
      let f = bump_unchecked sc e a in
      if f > !max_fanin then max_fanin := f;
      match k with
      | EInt ->
          let v = Array.unsafe_get src p in
          if f = 1 then Array.unsafe_set dst a v
          else
            let d = Array.unsafe_get dst a in
            (match combine with
            | Ccheck -> if d <> v then raise (Conflict a)
            | Cover -> ()
            | Cadd -> Array.unsafe_set dst a (d + v)
            | Cmin -> Array.unsafe_set dst a (Int.min d v)
            | Cmax -> Array.unsafe_set dst a (Int.max d v)
            | Cor -> Array.unsafe_set dst a (d lor v)
            | Cand -> Array.unsafe_set dst a (d land v)
            | Cxor -> Array.unsafe_set dst a (d lxor v))
      | EFloat ->
          let v = Array.unsafe_get src p in
          if f = 1 then Array.unsafe_set dst a v
          else
            let d = Array.unsafe_get dst a in
            (match combine with
            | Ccheck -> if not (d = v) then raise (Conflict a)
            | Cover -> ()
            | Cadd -> Array.unsafe_set dst a (d +. v)
            | Cmin -> Array.unsafe_set dst a (Float.min d v)
            | Cmax -> Array.unsafe_set dst a (Float.max d v)
            | Cor | Cand | Cxor -> ())
    end
  done;
  { messages = !messages; max_fanin = max !max_fanin 1 }
