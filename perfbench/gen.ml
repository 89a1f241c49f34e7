(* Seeded job lists for the three workloads.  Job [k] of a workload is a
   pure function of (seed, k): the lists are unbounded, a run takes as
   many as fit in its timed window, and the same seed always yields the
   same jobs in the same order. *)

module P = Uc_programs.Programs

type wjob = {
  job : Ucd.Job.t;
  body : string;  (** the source without its unique header comment *)
  pop : string;  (** population label for the percentile sanity check *)
}

let rng parts = Random.State.make (Array.of_list parts)
let range r lo hi = lo + Random.State.int r (hi - lo + 1)
let even r lo hi = 2 * range r (lo / 2) (hi / 2)

(* The header is a comment: it changes the source digest (so no AST, IR
   or run memo can serve the job) without changing what the program
   computes, which is why the oracle is keyed by [body]. *)
let header tag k = Printf.sprintf "// perfbench %s job %d\n" tag k

(* The machine seed reaches a program only through rand(). *)
let uses_rand body =
  let n = String.length body in
  let rec go i = i + 5 <= n && (String.sub body i 5 = "rand(" || go (i + 1)) in
  go 0

(* ---- compile: every generator of the corpus at small sizes ----

   Sizes keep parse + lower between ~0.1 and ~1.5 ms and the run well
   under half a millisecond, so the front end and the IR optimiser
   dominate a job.  Every corpus generator takes part so that each
   front-end construct (reductions, solve, oneof, map sections, seq in
   par, floats, rand) is on the path. *)
let small_gens : (string * (Random.State.t -> string)) list =
  [
    ("reductions", fun r -> P.reductions ~n:(range r 4 24));
    ("abs_sum", fun r -> P.abs_sum ~n:(range r 4 32));
    ("matmul", fun r -> P.matmul ~n:(range r 3 8));
    ("reciprocal", fun r -> P.reciprocal ~n:(range r 4 32));
    ("odd_even_flags", fun r -> P.odd_even_flags ~n:(range r 4 32));
    ("ranksort", fun r -> P.ranksort ~n:(range r 4 32));
    ("prefix_sums", fun r -> P.prefix_sums ~n:(range r 4 32));
    ("partial_sums_seq", fun r -> P.partial_sums_seq ~n:(range r 4 32));
    ("shortest_path_n2", fun r -> P.shortest_path_n2 ~n:(range r 3 8) ());
    ("shortest_path_n3", fun r -> P.shortest_path_n3 ~n:(range r 3 8) ());
    ("shortest_path_solve", fun r -> P.shortest_path_solve ~n:(range r 3 6) ());
    ("wavefront", fun r -> P.wavefront ~n:(range r 3 8));
    ("odd_even_sort", fun r -> P.odd_even_sort ~n:(range r 4 16));
    ("digit_count", fun r -> P.digit_count ~n:(range r 8 48));
    ("digit_count_det", fun r -> P.digit_count_det ~n:(range r 8 48));
    ("obstacle_grid", fun r -> P.obstacle_grid ~n:(range r 4 10));
    ( "stencil",
      fun r ->
        P.stencil ~mapped:(Random.State.bool r) ~n:(range r 4 24)
          ~steps:(range r 1 4) () );
    ( "folded_pairs",
      fun r -> P.folded_pairs ~folded:(Random.State.bool r) ~n:(even r 4 32) () );
    ( "copied_broadcast",
      fun r ->
        P.copied_broadcast ~copied:(Random.State.bool r) ~n:(range r 8 24)
          ~copies:(if Random.State.bool r then 2 else 4) () );
    ("heat", fun r -> P.heat ~steps:(range r 1 4) ~n:(range r 4 10) ());
    ("quickstart", fun _ -> P.quickstart);
  ]

let pick r l = List.nth l (Random.State.int r (List.length l))

(* A quarter of the jobs auto-tune their layout: Layoutsel costs about
   as much as compiling, so tuned jobs form the upper tail. *)
let compile_job ~seed k =
  let r = rng [ seed; k; 1 ] in
  let name, g = pick r small_gens in
  let body = g r in
  let tune = Random.State.int r 4 = 0 in
  (* few seeds per program: only rand() programs see them, and a small
     set bounds the number of distinct oracle runs *)
  let jseed = Random.State.int r 8 in
  let tag = Printf.sprintf "compile seed %d" seed in
  {
    job =
      Ucd.Job.make ~seed:jseed ~tune ~engine:`Fast
        ~name:(Printf.sprintf "c%d-%s" k name)
        ~source:(header tag k ^ body) ();
    body;
    pop = (if tune then name ^ "+tune" else name);
  }

(* ---- execute: the paper's figure programs at sizes where the fast
   engine takes ~5-100 ms ----

   Deterministic variants only: their result does not depend on the
   seed, so the interpreter runs once per program however many seeds
   the run draws.  Sources carry no header, so the lowered IR and the
   native code built in setup serve every job; the seed varies per
   round, so every job misses the run cache. *)
let exec_programs : (string * string) list =
  [
    ("shortest_path_n2", P.shortest_path_n2 ~n:64 ());
    ("shortest_path_n3", P.shortest_path_n3 ~n:24 ());
    ("obstacle_grid", P.obstacle_grid ~n:40);
    ("heat", P.heat ~steps:60 ~n:64 ());
    ("stencil", P.stencil ~n:4096 ~steps:200 ());
  ]

let exec_engines : Cm.Machine.engine list = [ `Fast; `Native; `Sharded 2 ]

let exec_deck = List.length exec_programs * List.length exec_engines

let shuffle r a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Rounds of one job per (program, engine), shuffled per round: the
   population shares are the same in every run, only the order moves
   with the seed.  Within a round the three engines of a program share
   one seed, so the cross-engine agreement check compares like with
   like; the engine is part of the digest, so they still miss the run
   cache. *)
let exec_job ~seed ~round pos =
  let order = shuffle (rng [ seed; round; 2 ]) (Array.init exec_deck Fun.id) in
  let idx = order.(pos) in
  let ne = List.length exec_engines in
  let pi = idx / ne in
  let name, body = List.nth exec_programs pi in
  let engine = List.nth exec_engines (idx mod ne) in
  let jseed = Hashtbl.hash (seed, round, pi) in
  let ename = Ucd.Job.engine_string engine in
  {
    job =
      Ucd.Job.make ~seed:jseed ~engine
        ~name:(Printf.sprintf "x%d.%d-%s-%s" round pos name ename)
        ~source:body ();
    body;
    pop = name ^ "/" ^ ename;
  }

(* The timed list: rounds 0, 1, ...  Setup warms round -1. *)
let exec_nth ~seed k = exec_job ~seed ~round:(k / exec_deck) (k mod exec_deck)

(* ---- serve: fresh jobs carry milliseconds of compile and run work ---- *)
(* Sizes come from short lists so that the number of distinct bodies,
   and with it the interpreter runs of the check, stays in the
   hundreds however many jobs a run reaches. *)
(* Fresh jobs take ~5-25 ms in the daemon's worker.  Smaller jobs made
   the figures follow thread scheduling on a two-core host more than the
   daemon's own work.  Sizes come from short lists so that the number of
   distinct bodies, and with it the interpreter runs of the check, stays
   small however many jobs a run reaches. *)
let serve_gens : (string * (Random.State.t -> string)) list =
  let one_of r l = List.nth l (Random.State.int r (List.length l)) in
  [
    ("shortest_path_n2", fun r -> P.shortest_path_n2 ~n:(one_of r [ 32; 36; 40 ]) ());
    ("matmul", fun r -> P.matmul ~n:(one_of r [ 28; 32; 36 ]));
    ("heat", fun r -> P.heat ~steps:(one_of r [ 24; 32 ]) ~n:(one_of r [ 32; 40 ]) ());
    ("obstacle_grid", fun r -> P.obstacle_grid ~n:(one_of r [ 24; 28 ]));
    ( "stencil",
      fun r ->
        P.stencil ~mapped:(Random.State.bool r)
          ~n:(one_of r [ 4096; 6144 ])
          ~steps:(one_of r [ 32; 48 ]) () );
    ("prefix_sums", fun r -> P.prefix_sums ~n:(one_of r [ 6144; 8192 ]));
    ("digit_count_det", fun r -> P.digit_count_det ~n:(one_of r [ 16384; 24576 ]));
  ]

let serve_fresh ~seed ~client k =
  let r = rng [ seed; client; k; 3 ] in
  let name, g = pick r serve_gens in
  let body = g r in
  let tag = Printf.sprintf "serve seed %d client %d" seed client in
  {
    job =
      Ucd.Job.make ~engine:`Fast
        ~name:(Printf.sprintf "s%d.%d-%s" client k name)
        ~source:(header tag k ^ body) ();
    body;
    pop = "fresh";
  }

(* Submission [i] of a client: rounds of three, two fresh and one resend
   of an earlier digest, in a seeded order.  A third (not half) of the
   load is the read path, so p50 and p90 both sit inside the fresh
   population instead of on the gap between hits and misses. *)
let serve_is_repeat ~seed ~client i =
  let round = i / 3 in
  let slot = Random.State.int (rng [ seed; client; round; 4 ]) 3 in
  i mod 3 = slot

let serve_repeat_pick ~seed ~client i n =
  Random.State.int (rng [ seed; client; i; 5 ]) n

(* Digest of a job-list prefix: the same seed prints the same digest. *)
let list_digest jobs =
  Digest.to_hex
    (Digest.string
       (String.concat "\n" (List.map (fun w -> Ucd.Job.digest w.job) jobs)))
