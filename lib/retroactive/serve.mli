(** The [ultraverse serve] daemon: a concurrent multi-client what-if
    service over one shared, growing history.

    Wire protocol: length-prefixed frames ({!Uv_util.Frame_io} — 4-byte
    big-endian length, then the payload) over a Unix-domain or TCP
    socket. Every payload, in both directions, is a compact
    [uv.serve/1] {!Uv_obs.Report} envelope. Requests carry a [type]
    ([ping], [stats], [metrics], [health], [ingest], [whatif],
    [shutdown]) and a client-chosen [id] that is echoed verbatim in the
    response, so clients may pipeline. Responses are either

    {v {"id":…, "ok":true,  "type":…, "result":{…}} v}

    or a {e typed} error that never tears the connection down:

    {v {"id":…, "ok":false, "type":…, "error":{"code":…, "message":…,
        "retry_after_ms":…?, "phase":…?}} v}

    with [code] one of [saturated] (admission control rejected the
    request — retry after [retry_after_ms]), [deadline] (the
    per-request budget ran out, queue wait included), [fault],
    [internal], [bad_request], or [shutting_down]. Only protocol-level
    damage (an oversized frame, an unparsable envelope stream) closes a
    connection.

    Concurrency: what-if requests execute on a bounded
    {!Uv_util.Domain_pool.Queue} of worker domains over the shared
    {!Whatif.Service}; ingest runs exclusively (the service's writer
    side — a {e writer-priority} lock, so a saturating stream of
    what-ifs cannot starve committed-history writes) and republishes
    the cache snapshot. Each accepted connection gets a reader domain;
    responses are written under a per-connection mutex, so pipelined
    replies never interleave mid-frame.

    Durability: when a {!Durable.t} is attached ({!start}'s [durable]
    argument), [ingest] acknowledgments are withheld until the batch is
    fsynced through the group-commit buffer — an acked batch survives
    [kill -9]. Ingest frames may carry an [idem_key] string; re-sending
    a batch under the same key after a lost ack returns the recorded
    result ([duplicate: true]) without re-executing. The [health]
    request returns a [uv.health/1] payload (degraded flag, queue
    depths, lock pressure, durable-store watermarks) for supervisors.

    Overload: beyond queue-full [saturated] refusals, the daemon sheds
    deadline-doomed work at admission — when the queue backlog times
    the average run cost already exceeds a request's budget, it is
    refused immediately with [code deadline, phase admission] instead
    of being queued to fail. *)

type addr =
  | Unix_sock of string  (** path to a Unix-domain socket *)
  | Tcp of string * int  (** host, port; the server binds, clients connect *)

type config = {
  workers : int;  (** what-if worker domains (clamped to ≥ 1) *)
  queue_capacity : int;
      (** queued (not yet executing) what-ifs admitted before
          [saturated] rejections start *)
  max_clients : int;
      (** concurrent connections; excess connects receive one
          [saturated] error frame and are closed *)
  max_frame : int;
      (** request frame byte cap; also bounds JSON depth/strings via
          network-grade {!Uv_obs.Json.limits} *)
  default_deadline_ms : float option;
      (** budget applied to what-if requests that don't set their own *)
}

val default_config : config
(** 4 workers, capacity 32, 32 clients, 1 MiB frames, no default
    deadline. *)

type t

val start :
  ?config:config ->
  ?obs:Uv_obs.Trace.t ->
  ?durable:Durable.t ->
  Whatif.Service.t ->
  addr ->
  t
(** Bind, listen, and spawn the accept loop. [obs] (default: a fresh
    live collector) receives the [serve.*] counters; the [metrics]
    endpoint scrapes it. The what-if runs record into the service's own
    collector, its [Config.obs], not into [obs]: the [metrics] endpoint
    sees them only when the two are one collector, as the
    [ultraverse serve] CLI passes them. [durable]
    (freshly attached, {e not} yet started — [start] binds it to the
    service's ingest path and {!stop} closes it) makes ingest
    acknowledgments crash-safe. [SIGPIPE] is ignored process-wide on
    POSIX. @raise Unix.Unix_error when the address cannot be bound. *)

val service : t -> Whatif.Service.t
val obs : t -> Uv_obs.Trace.t

val port : t -> int option
(** The bound TCP port (useful with [Tcp (host, 0)]); [None] for Unix
    sockets. *)

val request_stop : t -> unit
(** Flip the server into shutdown mode and wake {!wait}. Idempotent,
    callable from any domain (the [shutdown] request uses it). *)

val wait : t -> unit
(** Block until {!request_stop} (e.g. a client's [shutdown] request). *)

val stop : t -> unit
(** Full synchronous teardown: stop accepting, wake and join every
    connection handler, drain and join the worker pool, close and (for
    Unix sockets) unlink the listener. Idempotent. *)

(** A minimal blocking client for the protocol — one outstanding
    request per call (pipelining clients can speak the frame protocol
    directly). Used by [ultraverse client], the serve bench and the
    tests. *)
module Client : sig
  type conn

  val connect : ?max_frame:int -> addr -> conn
  val close : conn -> unit

  (** A decoded response payload. *)
  type response =
    | Result of Uv_obs.Json.t  (** the [result] object of an [ok] reply *)
    | Refused of {
        code : string;
        message : string;
        retry_after_ms : float option;
        phase : string option;
      }  (** a typed error reply — the connection is still usable *)

  (** Typed transport failure — no raw [Unix.Unix_error] or
      [Frame_io.Closed] reaches the caller. *)
  type error =
    | Reset of string
        (** the transport died mid-request (peer reset, closed socket,
            refused connect). Retryable — with an [idem_key] on ingest,
            safely so even when the original request was executed. *)
    | Protocol of string
        (** the reply violated the protocol; retrying cannot help *)

  val error_to_string : error -> string

  val call_typed : conn -> Uv_obs.Json.t -> (response, error) result
  (** Send one request payload (the [uv.serve/1] envelope is added) and
      block for the reply. On [Error] the connection should be closed. *)

  val call : conn -> Uv_obs.Json.t -> (response, string) result
  (** {!call_typed} with the error rendered — legacy convenience. *)

  val call_retry :
    ?retries:int ->
    ?backoff_ms:float ->
    ?max_backoff_ms:float ->
    ?seed:int ->
    ?max_frame:int ->
    addr ->
    Uv_obs.Json.t ->
    (response, error) result * int
  (** One logical request with bounded retry: up to [1 + retries]
      attempts (default [retries = 4]), each on a fresh connection.
      Retried: {!Reset} (reconnect) and [saturated] refusals (backing
      off exponentially from [backoff_ms], default 25 ms, capped at
      [max_backoff_ms], with deterministic jitter from [seed], and
      honouring the server's [retry_after_ms] hint). {e Not} retried:
      [deadline] refusals (the budget is spent either way), other
      refusals, and {!Protocol} damage. Returns the final outcome and
      the number of attempts used — surfaced by [ultraverse client] as
      [attempts]. Pair with an [idem_key] on ingest so a retry after a
      lost ack cannot double-apply. *)

  val ping : conn -> (response, string) result

  val whatif :
    ?deadline_ms:float ->
    ?id:int ->
    tau:int ->
    op:string ->
    ?stmt:string ->
    conn ->
    unit ->
    (response, string) result
  (** [op] is [remove], [add] or [change]; [add]/[change] require
      [stmt]. *)

  val whatif_payload :
    ?deadline_ms:float ->
    ?id:int ->
    tau:int ->
    op:string ->
    ?stmt:string ->
    unit ->
    Uv_obs.Json.t
  (** The request payload {!whatif} sends — for use with {!call_retry}. *)

  val ingest :
    ?id:int -> ?idem_key:string -> conn -> string -> (response, string) result
  (** [idem_key] makes the batch safely re-sendable: the server
      deduplicates on it after a lost acknowledgment. *)

  val ingest_payload : ?id:int -> ?idem_key:string -> string -> Uv_obs.Json.t
  (** The request payload {!ingest} sends — for use with {!call_retry}. *)

  val stats : conn -> (response, string) result
  val metrics : conn -> (response, string) result

  val health : conn -> (response, string) result
  (** The [uv.health/1] supervision payload: [ok]/[degraded], queue
      depth and capacity, service-lock pressure, average run cost, and
      (when a store is attached) the durable watermarks and recovery
      report. *)

  val shutdown : conn -> (response, string) result
end
