type source = Inline of string | Corpus of string

type t = {
  name : string;
  source : string;
  options : Uc.Codegen.options;
  seed : int;
  fuel : int option;
  deadline : float option;
  faults : Cm.Fault.spec option;
  retries : int option;
  engine : Cm.Machine.engine;
  tune : bool;
}

(* The one place job defaults live: every knob's default (help text,
   omit-when-default on the wire) is read back from this record. *)
let make ?(options = Uc.Codegen.default_options) ?(seed = 12345) ?fuel ?deadline
    ?faults ?retries ?(engine = `Fast) ?(tune = false) ~name ~source () =
  { name; source; options; seed; fuel; deadline; faults; retries; engine; tune }

let blank = make ~name:"" ~source:"" ()

(* The canonical engine rendering used in digests, reports and the CLI;
   every spelling that can change results gets its own string. *)
let engine_string : Cm.Machine.engine -> string = function
  | `Fast -> "fast"
  | `Reference -> "reference"
  | `Sharded n -> Printf.sprintf "sharded:%d" n
  | `Native -> "native"

(* the engine names, in display order — the single source for the
   help text and the validator *)
let engine_names = [ "fast"; "reference"; "sharded"; "native" ]

let engine_of_name ~shards name : (Cm.Machine.engine, string) result =
  match name with
  | "fast" -> Ok `Fast
  | "reference" -> Ok `Reference
  | "sharded" ->
      if shards < 1 then
        Error (Printf.sprintf "shard count must be at least 1 (got %d)" shards)
      else Ok (`Sharded shards)
  | "native" -> Ok `Native
  | s ->
      Error
        (Printf.sprintf "unknown engine %S (valid: %s)" s
           (String.concat ", " engine_names))

let default_shards = max 1 (Domain.recommended_domain_count ())

let faults_summary = function
  | None -> "none"
  | Some spec -> Cm.Fault.spec_string spec

(* ---- the job-spec table ---- *)

type value = Jsonu.t
type spec = (string * value) list
type kind = Int | Float | Flag | Text

type knob = {
  key : string;
  kind : kind;
  docv : string;
  doc : string;
  default : value option;
  get : t -> value option;
  set : value -> t -> (t, string) result;
  digest : t -> (string * string) option;
  label : (Uc.Codegen.options -> string option) option;
  alias : (string * value * string) option;
}

(* a kind, how its OCaml values render, and how they read back (None:
   a value of another kind; a float knob also takes an int) *)
let int = (Int, (fun n -> Jsonu.Int n), function Jsonu.Int n -> Some n | _ -> None)
let flag = (Flag, (fun b -> Jsonu.Bool b), function Jsonu.Bool b -> Some b | _ -> None)
let text = (Text, (fun s -> Jsonu.Str s), function Jsonu.Str s -> Some s | _ -> None)

let float =
  ( Float,
    (fun f -> Jsonu.Float f),
    function Jsonu.Float f -> Some f | Jsonu.Int n -> Some (float_of_int n) | _ -> None )

let knob ?(docv = "") ?(digest = fun _ -> None) ?label ?alias (kind, inj, prj)
    key ~doc ~get ~set =
  let get t = Option.map inj (get t) in
  let set v t =
    match prj v with
    | Some x -> set x t
    | None -> Error (Printf.sprintf "bad %s value %s" key (Jsonu.to_string v))
  in
  { key; kind; docv; doc; default = get blank; get; set; digest; label; alias }

(* [no-X]: a flag that turns codegen option X off; X is also its digest
   key and its word in the options stamp *)
let disable key label ~doc get set =
  knob flag key ~doc
    ~get:(fun t -> Some (not (get t.options)))
    ~set:(fun off t -> Ok { t with options = set t.options (not off) })
    ~digest:(fun t -> Some (label, string_of_bool (get t.options)))
    ~label:(fun o -> if get o then Some label else None)

let with_engine t = Result.map (fun engine -> { t with engine })
let iropt_summary t = Cm.Iropt.config_summary t.options.Uc.Codegen.ir_opt

(* The job spec, one row per knob.  Row order is wire order and stamp
   order, so new rows go at the end. *)
let knobs =
  [
    knob int "seed" ~docv:"N" ~doc:"Seed for rand()"
      ~get:(fun t -> Some t.seed)
      ~set:(fun n t -> Ok { t with seed = n })
      ~digest:(fun t -> Some ("seed", string_of_int t.seed));
    knob int "fuel" ~docv:"N" ~doc:"Instruction bound per job"
      ~get:(fun t -> t.fuel)
      ~set:(fun n t -> Ok { t with fuel = Some n })
      ~digest:(fun t ->
        Some ("fuel", Option.fold ~none:"default" ~some:string_of_int t.fuel));
    (* execution policy, not content: no digest *)
    knob float "deadline" ~docv:"SECS" ~doc:"Wall-clock deadline per job"
      ~get:(fun t -> t.deadline)
      ~set:(fun f t -> Ok { t with deadline = Some f });
    (* the digest takes the canonical plan, so equivalent spellings
       share it *)
    knob text "faults" ~docv:"PLAN"
      ~doc:
        "Fault-injection plan, e.g. \
         $(b,seed=7;horizon=20000;router=2;flip@100:0.3.5).  Transient \
         router/NEWS/chip faults abort the run (retryable); bit flips \
         silently corrupt memory.  See the README for the grammar."
      ~get:(fun t -> Option.map Cm.Fault.spec_string t.faults)
      ~set:(fun plan t ->
        match Cm.Fault.parse plan with
        | Ok spec -> Ok { t with faults = Some spec }
        | Error msg -> Error (Printf.sprintf "bad faults value %S (%s)" plan msg))
      ~digest:(fun t -> Some ("faults", faults_summary t.faults));
    knob int "retries" ~docv:"N"
      ~doc:"Extra attempts after a transient fault"
      ~get:(fun t -> t.retries)
      ~set:(fun n t -> Ok { t with retries = Some n });
    disable "no-news" "news" ~doc:"Disable the NEWS-grid optimization"
      (fun o -> o.Uc.Codegen.news_opt)
      (fun o b -> { o with Uc.Codegen.news_opt = b });
    disable "no-procopt" "procopt" ~doc:"Disable the processor optimization"
      (fun o -> o.Uc.Codegen.procopt)
      (fun o b -> { o with Uc.Codegen.procopt = b });
    disable "no-mappings" "maps" ~doc:"Ignore map sections"
      (fun o -> o.Uc.Codegen.use_mappings)
      (fun o b -> { o with Uc.Codegen.use_mappings = b });
    disable "no-cse" "cse" ~doc:"Disable common sub-expression elimination"
      (fun o -> o.Uc.Codegen.cse)
      (fun o b -> { o with Uc.Codegen.cse = b });
    (* the exact pass list, in the digest and in the stamp (which keys
       the lowered-IR memo): optimized and unoptimized streams must
       never share an entry *)
    knob text "ir-opt" ~docv:"PASSES"
      ~doc:
        "Paris-IR optimizer passes: $(b,on)/$(b,off) or a comma-separated \
         subset of $(b,constprop),$(b,dce),$(b,peephole),$(b,getsend)"
      ~alias:
        ( "no-ir-opt",
          Jsonu.Str "off",
          "Disable the Paris-IR optimizer (same as --ir-opt off)" )
      ~get:(fun t -> Some (iropt_summary t))
      ~set:(fun passes t ->
        match Cm.Iropt.config_of_string passes with
        | Ok c -> Ok { t with options = { t.options with Uc.Codegen.ir_opt = c } }
        | Error msg -> Error (Printf.sprintf "bad ir-opt value %S (%s)" passes msg))
      ~digest:(fun t -> Some ("iropt", iropt_summary t))
      ~label:(fun o ->
        let s = iropt_summary { blank with options = o } in
        if not (Cm.Iropt.enabled o.Uc.Codegen.ir_opt) then None
        else if s = iropt_summary blank then Some "iropt"
        else Some ("iropt=" ^ s));
    (* in the digest only when on, so untuned digests match earlier
       versions *)
    knob flag "tune"
      ~doc:
        "Auto-tune the data layout before lowering (see $(b,ucc tune)); the \
         synthesized map section replaces any in the source"
      ~get:(fun t -> Some t.tune)
      ~set:(fun b t -> Ok { t with tune = b })
      ~digest:(fun t -> if t.tune then Some ("tune", "true") else None);
    (* engines are observably identical, but their wall-clock and
       attempt counts are not: cache entries must never be shared *)
    knob text "engine" ~docv:"ENGINE"
      ~doc:
        (Printf.sprintf
           "Execution engine: %s.  $(b,fast) (the default) runs pre-decoded \
            instruction kernels; $(b,reference) is the tree-walking \
            interpreter.  $(b,sharded) names the retired sharded engine and \
            $(b,native) the retired native engine; both run on the fast \
            kernels.  All engines produce bit-identical results, statistics \
            and simulated time; only wall-clock speed differs."
           (String.concat ", " (List.map (Printf.sprintf "$(b,%s)") engine_names)))
      ~get:(fun t -> Some (engine_string t.engine))
      ~set:(fun s t ->
        (* [engine_string] back: "sharded:N" names its shard count *)
        match String.split_on_char ':' s with
        | [ "sharded"; n ] when int_of_string_opt n <> None ->
            with_engine t (engine_of_name ~shards:(int_of_string n) "sharded")
        | _ -> with_engine t (engine_of_name ~shards:default_shards s))
      ~digest:(fun t -> Some ("engine", engine_string t.engine));
    (* qualifies a sharded engine, so it follows [engine]; never rendered,
       the engine string carries the count *)
    knob int "shards" ~docv:"N"
      ~doc:
        "Shard count for $(b,--engine sharded) (default: this host's \
         recommended domain count).  It names the job and is part of its \
         digest; the retired sharded engine runs on the fast kernels \
         whatever N is."
      ~get:(fun _ -> None)
      ~set:(fun shards t ->
        match t.engine with
        | `Sharded _ -> with_engine t (engine_of_name ~shards "sharded")
        | _ -> Ok t);
  ]

let find key = List.find_opt (fun k -> k.key = key) knobs

(* later bindings win, so a manifest line's columns override the CLI's *)
let lookup key spec =
  List.fold_left (fun acc (k, v) -> if k = key then Some v else acc) None spec

let ( let* ) = Result.bind

let apply spec t =
  List.fold_left
    (fun acc k ->
      let* t = acc in
      Option.fold ~none:(Ok t) ~some:(fun v -> k.set v t) (lookup k.key spec))
    (Ok t) knobs

let resolve ~name ~source spec =
  let* text =
    match source with
    | Inline text -> Ok text
    | Corpus n ->
        Option.to_result ~none:(Printf.sprintf "unknown corpus program %S" n)
          (List.assoc_opt n Uc_programs.Programs.all_named)
  in
  apply spec (make ~name ~source:text ())

let to_spec t =
  List.filter_map
    (fun k ->
      match k.get t with
      | Some v when Some v <> k.default -> Some (k.key, v)
      | _ -> None)
    knobs

(* checked by applying it to the default job *)
let value_of_json k v = Result.map (fun _ -> v) (k.set v blank)

(* kind-checked only: [apply] checks the value *)
let value_of_string k s =
  let parsed f wrap =
    Option.to_result ~none:(Printf.sprintf "bad %s value %S" k.key s)
      (Option.map wrap (f s))
  in
  match k.kind with
  | Int -> parsed int_of_string_opt (fun n -> Jsonu.Int n)
  | Float -> parsed float_of_string_opt (fun f -> Jsonu.Float f)
  | Flag ->
      parsed
        (function "true" | "1" | "on" -> Some true | "false" | "0" | "off" -> Some false | _ -> None)
        (fun b -> Jsonu.Bool b)
  | Text -> Ok (Jsonu.Str s)

(* ---- the batch manifest ---- *)

let binding_of_token tok =
  match String.index_opt tok '=' with
  | Some i -> (
      let key = String.sub tok 0 i in
      match find key with
      | Some k ->
          let v = String.sub tok (i + 1) (String.length tok - i - 1) in
          Result.map (fun v -> (key, v)) (value_of_string k v)
      | None -> Error (Printf.sprintf "unknown key %S" key))
  | None ->
      (* a flag knob's key, or a knob's alias *)
      List.find_map
        (fun k ->
          match k.alias with
          | Some (a, v, _) when a = tok -> Some (k.key, v)
          | _ when k.key = tok && k.kind = Flag -> Some (tok, Jsonu.Bool true)
          | _ -> None)
        knobs
      |> Option.to_result ~none:(Printf.sprintf "unknown flag %S" tok)

let of_manifest_line ?(defaults = []) line =
  match String.split_on_char ' ' line |> List.filter (fun s -> s <> "") with
  | [] -> Ok None
  | target :: _ when target.[0] = '#' -> Ok None
  | target :: tokens ->
      let* spec =
        List.fold_left
          (fun acc tok ->
            let* spec = acc in
            Result.map (fun b -> spec @ [ b ]) (binding_of_token tok))
          (Ok defaults) tokens
      in
      let* source =
        if List.mem_assoc target Uc_programs.Programs.all_named then
          Ok (Corpus target)
        else
          try Ok (Inline (In_channel.with_open_bin target In_channel.input_all))
          with Sys_error msg ->
            Error
              (Printf.sprintf
                 "%s is neither a corpus program nor a readable file (%s)"
                 target msg)
      in
      Result.map Option.some (resolve ~name:target ~source spec)

(* ---- digest and stamp ---- *)

let options_summary o =
  String.concat " "
    (List.filter_map (fun k -> Option.bind k.label (fun f -> f o)) knobs)

(* tuned and untuned lowerings of the same source+options emit
   different Paris programs, so [tune] joins the stamp *)
let options_stamp t =
  options_summary t.options ^ if t.tune then " tune" else ""

let fields t =
  ("source", Digest.to_hex (Digest.string t.source))
  :: List.filter_map (fun k -> k.digest t) knobs

let digest_of_fields kvs =
  (* sort whole pairs, not just keys: a key-only sort is order-sensitive
     for duplicate keys (real field lists have none, but the digest
     should be a pure function of the multiset either way) *)
  let sorted = List.sort compare kvs in
  (* length-prefix each component so distinct field lists can't collide
     by concatenation *)
  let buf = Buffer.create 256 in
  List.iter
    (fun (k, v) ->
      Buffer.add_string buf (string_of_int (String.length k));
      Buffer.add_char buf ':';
      Buffer.add_string buf k;
      Buffer.add_char buf '=';
      Buffer.add_string buf (string_of_int (String.length v));
      Buffer.add_char buf ':';
      Buffer.add_string buf v;
      Buffer.add_char buf ';')
    sorted;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest t = digest_of_fields (fields t)
