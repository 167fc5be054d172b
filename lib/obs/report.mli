(** Versioned JSON report envelope — the one wire format for every
    machine-readable output the tool produces.

    Every emitter wraps its payload as

    {v {"schema": "<name>/<major>", "tool": "ultraverse",
        "version": "<tool version>", "payload": {...}} v}

    so consumers can dispatch on [schema] without sniffing payload shape,
    and payload majors can evolve independently of the tool version. The
    schema registry is closed: emitting or parsing an unregistered schema
    is an error, which is what keeps the set documented in README honest. *)

val tool : string
(** ["ultraverse"]. *)

val version : string
(** Tool version stamped into every envelope (matches the CLI's). *)

val schemas : string list
(** The registry: [uv.whatif/2], [uv.lint/1], [uv.metrics/1],
    [uv.bench/1], [uv.templates/1], [uv.serve/1]. *)

val envelope : schema:string -> Json.t -> Json.t
(** Wrap a payload. @raise Invalid_argument on an unregistered schema. *)

val to_string : schema:string -> Json.t -> string
(** [envelope] rendered compactly. *)

val parse : ?limits:Json.limits -> ?expect:string -> string -> (Json.t, string) result
(** Parse an envelope and return its payload. Fails when the document is
    not valid JSON, violates [limits] (defaults to {!Json.default_limits};
    servers pass network-grade bounds), is missing any envelope field,
    carries an unregistered schema, names a different tool, or — when
    [expect] is given — carries a schema other than [expect]. *)
