(** The `ucc serve` wire protocol: versioned JSON-lines messages plus a
    bounded frame reader.

    {b Framing.}  One frame = one JSON object on one LF-terminated
    line, at most [max_frame] bytes.  Strings are byte-transparent (see
    {!Jsonu}), so UC sources and report rows cross the wire unmodified.

    {b Versioning.}  The first client frame must be [hello] carrying
    {!version}; the server answers [welcome] on an exact match, or a
    [version_mismatch] error and closes.  Within a version, unknown
    {e fields} are ignored (additive evolution); an unknown message
    {e type} is a [protocol] error. *)

val version : int

val default_max_frame : int
(** 1 MiB. *)

(** Typed failure vocabulary, used both in [rejected] (per-submission)
    and [error] (connection-level) frames. *)
type error_code =
  | Protocol  (** malformed frame: not JSON, no "type", unknown type *)
  | Oversized  (** frame exceeded the size bound *)
  | Version_mismatch
  | Bad_request  (** well-formed but unusable (bad fault plan, unknown corpus name …) *)
  | Overloaded  (** admission control: the pool queue is at its bound *)
  | Quota  (** the tenant's in-flight quota is exhausted *)
  | Shutting_down  (** the server is draining; no new work *)
  | Unknown_job
  | Denied
      (** operator-only operation ([drain]) refused on this connection
          (TCP clients may not shut the daemon down) *)

val code_string : error_code -> string
val code_of_string : string -> error_code option

type priority = Low | Normal | High

val priority_string : priority -> string
val priority_of_string : string -> priority option

type source = Job.source = Inline of string | Corpus of string

(** A job submission.  The job knobs travel as a {!Job.spec}, one wire
    field per {!Job.knobs} row in table order (the row key with [-]
    spelled [_], e.g. [no_news]; a false flag is not sent).  The daemon
    resolves the spec with {!Job.resolve}, like [ucc batch]. *)
type submit = {
  client_ref : string option;  (** echoed back in accepted/rejected *)
  name : string;
  source : source;
  seed : int option;  (** the [seed] knob, overriding [spec]'s *)
  tune : bool;  (** the [tune] knob: auto-tune the data layout *)
  spec : Job.spec;  (** every other knob *)
}

val submit_defaults : name:string -> source:source -> submit

(** The whole spec of a submit: [spec] plus the [seed]/[tune] fields. *)
val spec_of_submit : submit -> Job.spec

val submit_of_json : Jsonu.t -> (submit, string) result
(** Decode a stored {!submit_obj} rendering (the journal keeps accepted
    jobs in wire form); same field rules as the live decoder. *)

type client_msg =
  | Hello of { version : int; tenant : string; priority : priority }
  | Submit of submit
  | Status of int  (** server-assigned job id *)
  | Status_digest of string
      (** status by content digest — stable across a daemon restart,
          unlike job ids; answered with [Digest_reply] *)
  | Cancel of int
  | Trace of bool  (** subscribe/unsubscribe to this session's trace stream *)
  | Stats
  | Server_status
      (** read-only operational snapshot (uptime, queue depth, journal
          lag, per-tenant usage); allowed on TCP *)
  | Drain  (** ask the server to stop accepting, drain and exit *)
  | Bye

type server_msg =
  | Welcome of { version : int; session : int; server : string }
  | Accepted of { client_ref : string option; job : int; digest : string }
  | Resumed of { client_ref : string option; job : int; digest : string }
      (** the digest was already in flight (submitted on another
          connection, or requeued from the journal after a restart);
          the caller is attached as a watcher and will receive the
          existing job's [Report] — exactly-once semantics for
          idempotent resubmission *)
  | Rejected of { client_ref : string option; code : error_code; msg : string }
  | Report of { job : int; row : Jsonu.t }
      (** the full [Report.json_line] object for the finished job *)
  | Status_reply of { job : int; state : string; row : Jsonu.t option }
      (** state is ["queued"], ["running"], ["done"] (with [row]) or
          ["cancelled"] *)
  | Digest_reply of { digest : string; state : string; row : Jsonu.t option }
      (** state is ["queued"], ["running"], ["done"]/["faulted"] (with
          [row] when the report is still cached) or ["unknown"] *)
  | Cancel_reply of { job : int; ok : bool }
      (** [ok = false]: the job was already running, done or unknown *)
  | Trace_reply of bool
  | Trace_event of { job : int; event : Jsonu.t }  (** one {!Obs.event} *)
  | Stats_reply of Jsonu.t
  | Server_status_reply of Jsonu.t
  | Draining of { in_flight : int }
  | Shutdown of { msg : string }  (** server-initiated goodbye *)
  | Error of { code : error_code; msg : string }

val submit_obj : submit -> Jsonu.t
(** The wire rendering of a submit (what {!client_json} emits for
    [Submit]); the journal stores accepted jobs in this form. *)

val client_json : client_msg -> Jsonu.t
val server_json : server_msg -> Jsonu.t

val client_line : client_msg -> string
(** One frame, no newline. *)

val server_line : server_msg -> string

val client_of_line : string -> (client_msg, error_code * string) result
(** Decode one frame from a client.  The error carries the typed code
    the server should answer with ([Protocol] for malformed frames,
    [Bad_request] for missing or mistyped required fields, and for a
    known job knob whose value has the wrong kind or does not validate:
    [{"seed":"7"}], [{"no_news":"yes"}], an unknown engine).  Unknown
    fields are ignored. *)

val bad_frame_reply : string -> error_code * string -> server_msg
(** The reply to a frame {!client_of_line} refused: [Rejected] (with the
    frame's ref) for a submit, a connection-level [Error] otherwise. *)

val server_of_line : string -> (server_msg, string) result

(** {1 Framing} *)

val write_all : Unix.file_descr -> string -> unit
(** Write every byte of the string, across short writes.  Frames go out
    as [write_all fd (line ^ "\n")]; the journal appends its lines the
    same way.  @raise Unix.Unix_error as [Unix.write] does. *)

type reader

val reader : ?max_frame:int -> Unix.file_descr -> reader

val read_frame : reader -> [ `Frame of string | `Oversized | `Eof ]
(** Blocking.  [`Oversized] is returned once per offending frame (its
    bytes are discarded as they stream in), so the caller can reply
    with a typed error and close without buffering an unbounded line.
    A reset/closed peer reads as [`Eof]. *)
