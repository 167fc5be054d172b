(** Tracing and metrics collector for the what-if pipeline.

    One [t] is threaded through a pipeline run (engine, analyzer, wave
    executor, driver). It collects three kinds of data:

    - {b spans} — named intervals with monotonic start/duration
      ([Uv_util.Clock.now_ms]) tagged with the OCaml domain that recorded
      them, so parallel replay renders as one lane per domain;
    - {b counters} — monotonically increasing named integers;
    - {b histograms} — named distributions with count/sum/min/max and
      p50/p95 over a bounded sample reservoir.

    The collector is a two-state sum: [disabled] is a null sink — every
    operation is a single pattern-match branch, no clock read, no
    allocation, no lock — so instrumented code pays nothing when
    observability is off. [create ()] returns a live collector whose
    operations are safe to call concurrently from multiple domains
    (internally mutex-protected; spans are short critical sections).

    Exporters: {!chrome_json} renders the span set in Chrome trace-event
    format (load the file in chrome://tracing or Perfetto), and
    {!metrics_payload} renders counters, histograms and per-name span
    rollups as the [uv.metrics/1] payload. *)

type t

type span
(** In-flight span handle. [finish]ing it records the interval; dropping it
    records nothing. Handles from a disabled collector are free. *)

val disabled : t
(** The null sink. *)

val create : unit -> t
(** A live collector; time zero for exported timestamps is the call. *)

val enabled : t -> bool

val start : t -> ?cat:string -> ?args:(string * Json.t) list -> string -> span
(** Open a span named [name] on the calling domain. [cat] (default
    ["uv"]) becomes the Chrome event category; [args] are attached
    key/values. *)

val finish : t -> ?args:(string * Json.t) list -> span -> unit
(** Close and record a span; [args] are appended to the ones it was
    opened with (values known only at its end). Closing a span twice
    records it twice; don't. *)

val with_span : t -> ?cat:string -> ?args:(string * Json.t) list -> string -> (unit -> 'a) -> 'a
(** [with_span t name f] runs [f ()] inside a span, finishing it even when
    [f] raises. *)

val instant : t -> ?args:(string * Json.t) list -> string -> unit
(** Record a zero-duration marker event (Chrome phase ["i"]). *)

val incr : t -> ?by:int -> string -> unit
(** Add [by] (default 1) to a named counter, creating it at 0. *)

val observe : t -> string -> float -> unit
(** Record one sample into a named histogram, creating it empty. *)

val counter_value : t -> string -> int
(** Current value of a counter; 0 if absent or disabled. *)

val chrome_json : t -> Json.t
(** Chrome trace-event document: [{"traceEvents": [...]}] with one ["X"]
    (complete) event per finished span — timestamps and durations in
    microseconds relative to [create] — one ["i"] event per instant, and
    ["M"] metadata events naming each domain's lane. For [disabled] the
    event list is empty. *)

val chrome_string : t -> string

val metrics_payload : t -> Json.t
(** The [uv.metrics/1] payload: [{counters, histograms, spans}] where
    histograms carry count/sum/min/max/p50/p95 and [spans] aggregates
    finished spans by name (count, total/min/max duration). *)
