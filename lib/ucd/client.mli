(** Client side of the serve protocol: connect + handshake, a thin
    blocking send/recv surface over {!Proto}, and {!submit_all}, the one
    submit loop (acks, row order, reconnect).  One request pipeline per
    connection — callers wanting concurrency open more connections.
    Used by [ucc submit], the loopback tests, and the bench load
    generator. *)

type addr = Unix_path of string | Tcp of string * int

type t

(** Connect, send [hello], await [welcome].  Ignores [SIGPIPE]
    process-wide.  Errors are human-readable strings (connect failure,
    version mismatch, protocol rejection). *)
val connect :
  ?tenant:string -> ?priority:Proto.priority -> addr -> (t, string) result

val send : t -> Proto.client_msg -> (unit, string) result

(** Next server frame, blocking.  [Error] on EOF, oversized or
    unparseable frames.  Frames come in server order, which is not
    submission order: a fast job's [report] may arrive before its
    [accepted].  {!submit_all} does that matching. *)
val recv : t -> (Proto.server_msg, string) result

(** Request/await helpers.  [other] receives any interleaved frames
    (reports, trace events) that arrive before the awaited reply;
    default drops them.  A server [error] frame answers the pending
    request and surfaces as [Error "code: msg"]. *)

val stats :
  ?other:(Proto.server_msg -> unit) -> t -> (Jsonu.t, string) result

(** Returns the server's in-flight count; the server begins a graceful
    shutdown.  Operator-only: a TCP connection gets [Error "denied: …"]
    and the server keeps running. *)
val drain : ?other:(Proto.server_msg -> unit) -> t -> (int, string) result

(** Status by content digest: [(state, row)] where [state] is
    ["queued"/"running"/"done"/"faulted"/"cancelled"/"unknown"] and
    [row] the report row when the server still has (or cached) it.
    Digests survive daemon restarts, so a job can be looked up after a
    reconnect ([ucc status --digest]). *)
val status_digest :
  ?other:(Proto.server_msg -> unit) ->
  t ->
  string ->
  (string * Jsonu.t option, string) result

(** The read-only operational snapshot behind [ucc status]: uptime,
    pool/queue depth, journal lag, per-tenant quota usage.  Allowed on
    TCP. *)
val server_status :
  ?other:(Proto.server_msg -> unit) -> t -> (Jsonu.t, string) result

val set_trace :
  ?other:(Proto.server_msg -> unit) -> t -> bool -> (bool, string) result

val close : t -> unit

(** One submission's outcome in {!submit_all}. *)
type outcome =
  | Row of { row : Jsonu.t; result : Report.result }
      (** the report row as the server sent it, and parsed *)
  | Rejected of { code : Proto.error_code; msg : string }
      (** the server's typed refusal; the job did not run *)
  | Pending  (** acked, but [~wait:false] returned before its row *)

(** Connect, submit every job (submission [i] carries ref ["i"]), and
    read until each is acked — with [~wait] (default [true]), until each
    has its row or rejection.  Returns the outcomes in submission order
    and the live connection, for follow-up requests such as {!stats}
    and {!drain}; the caller closes it.

    Rows are matched to submissions by the server job id echoed in
    [accepted]/[resumed]; a row that overtakes its ack is parked until
    the ack lands.  A row that does not parse as a report, a protocol
    [error] frame, or a [shutdown] without [~reconnect] is an [Error]
    (the connection is closed).

    [~reconnect] survives dropped connections and daemon restarts: a
    dead connection is redialled with capped seeded-jitter backoff (12
    attempts, 50 ms doubling capped at 1 s), the trace subscription is
    renewed, and only unfinished submissions are sent again.  A
    [shutting_down] rejection from a draining daemon leaves its
    submission unfinished, so it goes to the next daemon — the server
    deduplicates in-flight digests and answers finished ones from its
    cache, so nothing runs twice.  [~trace] subscribes to the session's
    live trace events.  [other] receives every frame the session does
    not consume: trace events, and the [shutdown] a reconnect rides out. *)
val submit_all :
  ?tenant:string ->
  ?priority:Proto.priority ->
  ?reconnect:bool ->
  ?wait:bool ->
  ?trace:bool ->
  ?other:(Proto.server_msg -> unit) ->
  addr ->
  Proto.submit list ->
  (t * outcome list, string) result
