type t = { dims : int array; size : int }

let create dims =
  if dims = [] then invalid_arg "Geometry.create: empty dimension list";
  List.iter
    (fun d -> if d <= 0 then invalid_arg "Geometry.create: non-positive extent")
    dims;
  let dims = Array.of_list dims in
  { dims; size = Array.fold_left ( * ) 1 dims }

let dims g = Array.to_list g.dims

let dim g axis =
  if axis < 0 || axis >= Array.length g.dims then
    invalid_arg "Geometry.dim: axis out of range";
  g.dims.(axis)

let rank g = Array.length g.dims
let size g = g.size

let linearize g coords =
  let n = Array.length g.dims in
  if Array.length coords <> n then invalid_arg "Geometry.linearize: rank mismatch";
  let rec go i acc =
    if i >= n then acc
    else begin
      let c = coords.(i) in
      if c < 0 || c >= g.dims.(i) then
        invalid_arg "Geometry.linearize: coordinate out of range";
      go (i + 1) ((acc * g.dims.(i)) + c)
    end
  in
  go 0 0

let coords g addr =
  if addr < 0 || addr >= g.size then invalid_arg "Geometry.coords: address out of range";
  let n = Array.length g.dims in
  let out = Array.make n 0 in
  let rec go i rem =
    if i < 0 then ()
    else begin
      out.(i) <- rem mod g.dims.(i);
      go (i - 1) (rem / g.dims.(i))
    end
  in
  go (n - 1) addr;
  out

let next_coords g c =
  let n = Array.length g.dims in
  if Array.length c <> n then invalid_arg "Geometry.next_coords: rank mismatch";
  let rec go i =
    if i >= 0 then begin
      let x = Array.unsafe_get c i + 1 in
      if x < Array.unsafe_get g.dims i then Array.unsafe_set c i x
      else begin
        Array.unsafe_set c i 0;
        go (i - 1)
      end
    end
  in
  go (n - 1)

let strides g =
  let n = Array.length g.dims in
  let out = Array.make n 1 in
  for i = n - 2 downto 0 do
    out.(i) <- out.(i + 1) * g.dims.(i + 1)
  done;
  out

let concat outer inner = create (dims outer @ dims inner)

let is_prefix_of outer whole =
  let od = outer.dims and wd = whole.dims in
  Array.length od <= Array.length wd
  && (let ok = ref true in
      Array.iteri (fun i d -> if wd.(i) <> d then ok := false) od;
      !ok)

let equal a b = a.dims = b.dims

let pp fmt g =
  Format.fprintf fmt "[%s]"
    (String.concat "x" (List.map string_of_int (dims g)))
