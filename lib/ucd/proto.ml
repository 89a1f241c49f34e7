(* The `ucc serve` wire protocol.

   Framing: JSON lines — each frame is exactly one JSON object on one
   LF-terminated line, at most [max_frame] bytes including the newline.
   Strings are byte-transparent (Jsonu escapes control bytes and leaves
   everything else raw), so UC sources and report rows cross the wire
   unmodified.

   Versioning: the first client frame must be [hello] carrying
   [version]; the server answers [welcome] (exact match) or a
   [version_mismatch] error and closes.  Within a version, unknown
   *fields* are ignored (additive evolution); unknown message *types*
   are a [protocol] error. *)

let version = 1
let default_max_frame = 1 lsl 20

(* ---- error codes ---- *)

type error_code =
  | Protocol  (** malformed frame: not JSON, no "type", unknown type *)
  | Oversized  (** frame exceeded the server's size bound *)
  | Version_mismatch
  | Bad_request  (** well-formed but unusable: bad fault plan, unknown corpus name … *)
  | Overloaded  (** admission control: the pool queue is at its bound *)
  | Quota  (** the tenant's in-flight quota is exhausted *)
  | Shutting_down  (** the server is draining; no new work *)
  | Unknown_job
  | Denied  (** operator-only operation refused on this connection *)

let code_string = function
  | Protocol -> "protocol"
  | Oversized -> "oversized"
  | Version_mismatch -> "version_mismatch"
  | Bad_request -> "bad_request"
  | Overloaded -> "overloaded"
  | Quota -> "quota"
  | Shutting_down -> "shutting_down"
  | Unknown_job -> "unknown_job"
  | Denied -> "denied"

let code_of_string = function
  | "protocol" -> Some Protocol
  | "oversized" -> Some Oversized
  | "version_mismatch" -> Some Version_mismatch
  | "bad_request" -> Some Bad_request
  | "overloaded" -> Some Overloaded
  | "quota" -> Some Quota
  | "shutting_down" -> Some Shutting_down
  | "unknown_job" -> Some Unknown_job
  | "denied" -> Some Denied
  | _ -> None

(* ---- message types ---- *)

type priority = Low | Normal | High

let priority_string = function Low -> "low" | Normal -> "normal" | High -> "high"

let priority_of_string = function
  | "low" -> Some Low
  | "normal" -> Some Normal
  | "high" -> Some High
  | _ -> None

type source = Job.source = Inline of string | Corpus of string

(* The job knobs travel as a Job.spec (keyed like the manifest, one
   wire field per Job.knobs row); [seed] and [tune] keep record fields
   of their own for callers that set them directly. *)
type submit = {
  client_ref : string option;  (* echoed back in accepted/rejected *)
  name : string;
  source : source;
  seed : int option;
  tune : bool;
  spec : Job.spec;  (* every other knob *)
}

let submit_defaults ~name ~source =
  { client_ref = None; name; source; seed = None; tune = false; spec = [] }

type client_msg =
  | Hello of { version : int; tenant : string; priority : priority }
  | Submit of submit
  | Status of int  (* server-assigned job id *)
  | Status_digest of string  (* restart-stable: content digest, not id *)
  | Cancel of int
  | Trace of bool  (* subscribe/unsubscribe to this session's trace *)
  | Stats
  | Server_status  (* read-only liveness/depth/journal-lag probe *)
  | Drain  (* ask the server to stop accepting, drain and exit *)
  | Bye

type server_msg =
  | Welcome of { version : int; session : int; server : string }
  | Accepted of { client_ref : string option; job : int; digest : string }
  | Resumed of { client_ref : string option; job : int; digest : string }
      (* the digest was already in flight (or requeued from the journal);
         the caller is attached as a watcher of the existing job *)
  | Rejected of { client_ref : string option; code : error_code; msg : string }
  | Report of { job : int; row : Jsonu.t }
      (* the full Report.json_line object for the finished job *)
  | Status_reply of { job : int; state : string; row : Jsonu.t option }
  | Digest_reply of { digest : string; state : string; row : Jsonu.t option }
  | Cancel_reply of { job : int; ok : bool }
  | Trace_reply of bool
  | Trace_event of { job : int; event : Jsonu.t }  (* one Obs event *)
  | Stats_reply of Jsonu.t
  | Server_status_reply of Jsonu.t
  | Draining of { in_flight : int }
  | Shutdown of { msg : string }  (* server-initiated goodbye *)
  | Error of { code : error_code; msg : string }

(* ---- encoding ---- *)

let opt_field k f = function None -> [] | Some v -> [ (k, f v) ]
let flag_field k b = if b then [ (k, Jsonu.Bool true) ] else []

let wire_key = String.map (function '-' -> '_' | c -> c)

let spec_of_submit s =
  s.spec
  @ opt_field "seed" (fun v -> Jsonu.Int v) s.seed
  @ flag_field "tune" s.tune

let submit_obj s =
  let spec = spec_of_submit s in
  Jsonu.Obj
    ([ ("type", Jsonu.Str "submit") ]
    @ opt_field "ref" (fun r -> Jsonu.Str r) s.client_ref
    @ [ ("name", Jsonu.Str s.name) ]
    @ (match s.source with
      | Inline text -> [ ("source", Jsonu.Str text) ]
      | Corpus n -> [ ("corpus", Jsonu.Str n) ])
    (* bindings go out as given, in table order; a false flag is its
       default and stays off the wire *)
    @ List.filter_map
        (fun (k : Job.knob) ->
          match Job.lookup k.key spec with
          | Some v when v <> Jsonu.Bool false -> Some (wire_key k.key, v)
          | _ -> None)
        Job.knobs)

let client_json = function
  | Hello { version; tenant; priority } ->
      Jsonu.Obj
        [
          ("type", Jsonu.Str "hello");
          ("version", Jsonu.Int version);
          ("tenant", Jsonu.Str tenant);
          ("priority", Jsonu.Str (priority_string priority));
        ]
  | Submit s -> submit_obj s
  | Status job ->
      Jsonu.Obj [ ("type", Jsonu.Str "status"); ("job", Jsonu.Int job) ]
  | Status_digest digest ->
      Jsonu.Obj
        [ ("type", Jsonu.Str "status_digest"); ("digest", Jsonu.Str digest) ]
  | Cancel job ->
      Jsonu.Obj [ ("type", Jsonu.Str "cancel"); ("job", Jsonu.Int job) ]
  | Trace enable ->
      Jsonu.Obj [ ("type", Jsonu.Str "trace"); ("enable", Jsonu.Bool enable) ]
  | Stats -> Jsonu.Obj [ ("type", Jsonu.Str "stats") ]
  | Server_status -> Jsonu.Obj [ ("type", Jsonu.Str "server_status") ]
  | Drain -> Jsonu.Obj [ ("type", Jsonu.Str "drain") ]
  | Bye -> Jsonu.Obj [ ("type", Jsonu.Str "bye") ]

let server_json = function
  | Welcome { version; session; server } ->
      Jsonu.Obj
        [
          ("type", Jsonu.Str "welcome");
          ("version", Jsonu.Int version);
          ("session", Jsonu.Int session);
          ("server", Jsonu.Str server);
        ]
  | Accepted { client_ref; job; digest } ->
      Jsonu.Obj
        ([ ("type", Jsonu.Str "accepted") ]
        @ opt_field "ref" (fun r -> Jsonu.Str r) client_ref
        @ [ ("job", Jsonu.Int job); ("digest", Jsonu.Str digest) ])
  | Resumed { client_ref; job; digest } ->
      Jsonu.Obj
        ([ ("type", Jsonu.Str "resumed") ]
        @ opt_field "ref" (fun r -> Jsonu.Str r) client_ref
        @ [ ("job", Jsonu.Int job); ("digest", Jsonu.Str digest) ])
  | Rejected { client_ref; code; msg } ->
      Jsonu.Obj
        ([ ("type", Jsonu.Str "rejected") ]
        @ opt_field "ref" (fun r -> Jsonu.Str r) client_ref
        @ [
            ("code", Jsonu.Str (code_string code)); ("msg", Jsonu.Str msg);
          ])
  | Report { job; row } ->
      Jsonu.Obj
        [ ("type", Jsonu.Str "report"); ("job", Jsonu.Int job); ("row", row) ]
  | Status_reply { job; state; row } ->
      Jsonu.Obj
        ([
           ("type", Jsonu.Str "status_reply");
           ("job", Jsonu.Int job);
           ("state", Jsonu.Str state);
         ]
        @ opt_field "row" Fun.id row)
  | Digest_reply { digest; state; row } ->
      Jsonu.Obj
        ([
           ("type", Jsonu.Str "digest_reply");
           ("digest", Jsonu.Str digest);
           ("state", Jsonu.Str state);
         ]
        @ opt_field "row" Fun.id row)
  | Cancel_reply { job; ok } ->
      Jsonu.Obj
        [
          ("type", Jsonu.Str "cancel_reply");
          ("job", Jsonu.Int job);
          ("ok", Jsonu.Bool ok);
        ]
  | Trace_reply enabled ->
      Jsonu.Obj
        [ ("type", Jsonu.Str "trace_reply"); ("enable", Jsonu.Bool enabled) ]
  | Trace_event { job; event } ->
      Jsonu.Obj
        [
          ("type", Jsonu.Str "trace_event");
          ("job", Jsonu.Int job);
          ("event", event);
        ]
  | Stats_reply body ->
      Jsonu.Obj [ ("type", Jsonu.Str "stats_reply"); ("stats", body) ]
  | Server_status_reply body ->
      Jsonu.Obj [ ("type", Jsonu.Str "server_status_reply"); ("status", body) ]
  | Draining { in_flight } ->
      Jsonu.Obj
        [ ("type", Jsonu.Str "draining"); ("in_flight", Jsonu.Int in_flight) ]
  | Shutdown { msg } ->
      Jsonu.Obj [ ("type", Jsonu.Str "shutdown"); ("msg", Jsonu.Str msg) ]
  | Error { code; msg } ->
      Jsonu.Obj
        [
          ("type", Jsonu.Str "error");
          ("code", Jsonu.Str (code_string code));
          ("msg", Jsonu.Str msg);
        ]

let client_line m = Jsonu.to_string (client_json m)
let server_line m = Jsonu.to_string (server_json m)

(* ---- decoding ---- *)

(* Unknown fields are deliberately ignored (additive evolution within a
   version); missing or mistyped required fields are typed errors. *)

let field kvs k = List.assoc_opt k kvs

let str_field kvs k =
  match field kvs k with Some (Jsonu.Str s) -> Some s | _ -> None

let int_field kvs k =
  match field kvs k with Some (Jsonu.Int i) -> Some i | _ -> None

let bool_field kvs k =
  match field kvs k with Some (Jsonu.Bool b) -> Some b | _ -> None

(* NB: [server_msg]'s [Error] constructor shadows [Stdlib.Error] from
   here on; result-returning code below qualifies explicitly *)
let obj_of_line line =
  match Jsonu.of_string line with
  | Stdlib.Error msg -> Stdlib.Error (Protocol, "bad frame: " ^ msg)
  | Ok (Jsonu.Obj kvs) -> (
      match str_field kvs "type" with
      | Some ty -> Ok (ty, kvs)
      | None -> Stdlib.Error (Protocol, "frame has no \"type\" field"))
  | Ok _ -> Stdlib.Error (Protocol, "frame is not a JSON object")

let require what = function
  | Some v -> Ok v
  | None ->
      Stdlib.Error (Bad_request, Printf.sprintf "missing or mistyped %S" what)

let ( let* ) r f =
  match r with Ok v -> f v | Stdlib.Error e -> Stdlib.Error e

(* Shared with the journal: a stored [submit_obj] replays through the
   same decoder the wire uses, so a recovered job is rebuilt exactly as
   it was admitted. *)
let submit_of_fields kvs =
  let* name = require "name" (str_field kvs "name") in
  let* source =
    match (str_field kvs "source", str_field kvs "corpus") with
    | Some text, None -> Ok (Inline text)
    | None, Some n -> Ok (Corpus n)
    | Some _, Some _ ->
        Stdlib.Error (Bad_request, "submit has both \"source\" and \"corpus\"")
    | None, None ->
        Stdlib.Error (Bad_request, "submit needs \"source\" or \"corpus\"")
  in
  (* a known knob of the wrong kind is a typed error naming the field,
     never a silent default *)
  let* spec =
    List.fold_left
      (fun acc (k : Job.knob) ->
        let* spec = acc in
        match field kvs (wire_key k.key) with
        | None -> Ok spec
        | Some j -> (
            match Job.value_of_json k j with
            | Ok v -> Ok ((k.key, v) :: spec)
            | Stdlib.Error msg ->
                Stdlib.Error
                  (Bad_request, Printf.sprintf "bad %S: %s" (wire_key k.key) msg)))
      (Ok []) Job.knobs
  in
  Ok
    {
      client_ref = str_field kvs "ref";
      name;
      source;
      seed =
        (match Job.lookup "seed" spec with Some (Jsonu.Int n) -> Some n | _ -> None);
      tune = Job.lookup "tune" spec = Some (Jsonu.Bool true);
      spec = List.filter (fun (k, _) -> k <> "seed" && k <> "tune") spec;
    }

let submit_of_json = function
  | Jsonu.Obj kvs -> (
      match submit_of_fields kvs with
      | Ok s -> Ok s
      | Stdlib.Error (_, msg) -> Stdlib.Error msg)
  | _ -> Stdlib.Error "submit is not a JSON object"

let client_of_line line =
  let* ty, kvs = obj_of_line line in
  match ty with
  | "hello" ->
      let* v = require "version" (int_field kvs "version") in
      let tenant = Option.value (str_field kvs "tenant") ~default:"anonymous" in
      let* priority =
        match str_field kvs "priority" with
        | None -> Ok Normal
        | Some p -> (
            match priority_of_string p with
            | Some p -> Ok p
            | None -> Stdlib.Error (Bad_request, "bad priority " ^ p))
      in
      Ok (Hello { version = v; tenant; priority })
  | "submit" ->
      let* s = submit_of_fields kvs in
      Ok (Submit s)
  | "status" ->
      let* job = require "job" (int_field kvs "job") in
      Ok (Status job)
  | "status_digest" ->
      let* digest = require "digest" (str_field kvs "digest") in
      Ok (Status_digest digest)
  | "cancel" ->
      let* job = require "job" (int_field kvs "job") in
      Ok (Cancel job)
  | "trace" ->
      let* enable = require "enable" (bool_field kvs "enable") in
      Ok (Trace enable)
  | "stats" -> Ok Stats
  | "server_status" -> Ok Server_status
  | "drain" -> Ok Drain
  | "bye" -> Ok Bye
  | ty -> Stdlib.Error (Protocol, "unknown message type " ^ ty)

(* A refused submit is refused per submission, carrying its ref like
   any other rejected job; anything else is a connection-level error. *)
let bad_frame_reply line (code, msg) =
  match obj_of_line line with
  | Ok ("submit", kvs) -> Rejected { client_ref = str_field kvs "ref"; code; msg }
  | _ -> Error { code; msg }

let server_of_line line =
  match obj_of_line line with
  | Stdlib.Error (_, msg) -> Stdlib.Error msg
  | Ok (ty, kvs) -> (
      let str k = str_field kvs k and int k = int_field kvs k in
      let fail what = Stdlib.Error (Printf.sprintf "%s: missing %S" ty what) in
      match ty with
      | "welcome" -> (
          match (int "version", int "session", str "server") with
          | Some version, Some session, Some server ->
              Ok (Welcome { version; session; server })
          | _ -> fail "version/session/server")
      | "accepted" -> (
          match (int "job", str "digest") with
          | Some job, Some digest ->
              Ok (Accepted { client_ref = str "ref"; job; digest })
          | _ -> fail "job/digest")
      | "resumed" -> (
          match (int "job", str "digest") with
          | Some job, Some digest ->
              Ok (Resumed { client_ref = str "ref"; job; digest })
          | _ -> fail "job/digest")
      | "rejected" -> (
          match (str "code", str "msg") with
          | Some code, Some msg -> (
              match code_of_string code with
              | Some code -> Ok (Rejected { client_ref = str "ref"; code; msg })
              | None -> Stdlib.Error ("unknown reject code " ^ code))
          | _ -> fail "code/msg")
      | "report" -> (
          match (int "job", field kvs "row") with
          | Some job, Some row -> Ok (Report { job; row })
          | _ -> fail "job/row")
      | "status_reply" -> (
          match (int "job", str "state") with
          | Some job, Some state ->
              Ok (Status_reply { job; state; row = field kvs "row" })
          | _ -> fail "job/state")
      | "digest_reply" -> (
          match (str "digest", str "state") with
          | Some digest, Some state ->
              Ok (Digest_reply { digest; state; row = field kvs "row" })
          | _ -> fail "digest/state")
      | "cancel_reply" -> (
          match (int "job", bool_field kvs "ok") with
          | Some job, Some ok -> Ok (Cancel_reply { job; ok })
          | _ -> fail "job/ok")
      | "trace_reply" -> (
          match bool_field kvs "enable" with
          | Some e -> Ok (Trace_reply e)
          | None -> fail "enable")
      | "trace_event" -> (
          match (int "job", field kvs "event") with
          | Some job, Some event -> Ok (Trace_event { job; event })
          | _ -> fail "job/event")
      | "stats_reply" -> (
          match field kvs "stats" with
          | Some body -> Ok (Stats_reply body)
          | None -> fail "stats")
      | "server_status_reply" -> (
          match field kvs "status" with
          | Some body -> Ok (Server_status_reply body)
          | None -> fail "status")
      | "draining" -> (
          match int "in_flight" with
          | Some n -> Ok (Draining { in_flight = n })
          | None -> fail "in_flight")
      | "shutdown" ->
          Ok (Shutdown { msg = Option.value (str "msg") ~default:"" })
      | "error" -> (
          match (str "code", str "msg") with
          | Some code, Some msg -> (
              match code_of_string code with
              | Some code -> Ok (Error { code; msg })
              | None -> Stdlib.Error ("unknown error code " ^ code))
          | _ -> fail "code/msg")
      | ty -> Stdlib.Error ("unknown message type " ^ ty))

(* ---- framing: bounded line reader over a file descriptor ---- *)

type reader = {
  fd : Unix.file_descr;
  max_frame : int;
  buf : Buffer.t;  (* bytes of the current (incomplete) frame *)
  chunk : Bytes.t;
  mutable pending : string;  (* read-ahead beyond the last newline *)
  mutable over : bool;  (* current frame already past the bound *)
}

let reader ?(max_frame = default_max_frame) fd =
  {
    fd;
    max_frame = max 1 max_frame;
    buf = Buffer.create 512;
    chunk = Bytes.create 8192;
    pending = "";
    over = false;
  }

(* One frame per call.  `Oversized is returned once per offending frame
   (the remainder of that line is discarded as it streams in), so the
   caller can reply with a typed error and close. *)
let read_frame r =
  let take_line data =
    match String.index_opt data '\n' with
    | Some i ->
        let line = String.sub data 0 i in
        r.pending <- String.sub data (i + 1) (String.length data - i - 1);
        let was_over = r.over in
        r.over <- false;
        Buffer.clear r.buf;
        if was_over || String.length line > r.max_frame then Some `Oversized
        else Some (`Frame line)
    | None ->
        r.pending <- "";
        if r.over || Buffer.length r.buf + String.length data > r.max_frame
        then begin
          (* discard, but remember: the eventual newline ends a frame
             that was already too big *)
          Buffer.clear r.buf;
          r.over <- true
        end
        else Buffer.add_string r.buf data;
        None
  in
  let rec go () =
    if r.pending <> "" then begin
      let data = Buffer.contents r.buf ^ r.pending in
      Buffer.clear r.buf;
      match take_line data with Some res -> res | None -> go ()
    end
    else
      match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
      | 0 -> `Eof
      | n -> (
          let data =
            Buffer.contents r.buf ^ Bytes.sub_string r.chunk 0 n
          in
          Buffer.clear r.buf;
          match take_line data with Some res -> res | None -> go ())
      | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE | Unix.EBADF), _, _)
        ->
          `Eof
  in
  go ()
