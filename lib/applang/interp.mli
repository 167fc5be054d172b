(** The MiniJS interpreter, shared by the live application runtime and the
    dynamic-symbolic-execution driver.

    The interpreter is "instrumented" in the paper's sense (§3.2 step 1)
    through the {!hooks} record: every database API call, blackbox native
    API call, symbolic-container access, and branch on a symbolic
    condition is routed through a hook. The live runtime installs hooks
    that talk to the real engine and record draws; the concolic driver
    installs hooks that return symbolic values and collect the path
    condition. *)

exception Runtime_error of string

type hooks = {
  sql_exec : Value.cv -> Value.cv;
      (** the application executed [SQL_exec(query_string)] *)
  blackbox : string -> Value.cv list -> Value.cv option;
      (** non-deterministic / external API; [None] falls back to the
          built-in concrete implementation *)
  sym_access : Uv_symexec.Sym.t -> Value.cv;
      (** member/index access on a symbolic container — produce the
          derived leaf's value *)
  on_branch : Uv_symexec.Sym.t -> bool -> unit;
      (** a control-flow decision depended on a symbolic condition *)
}

val default_hooks : hooks
(** Pure concrete execution: [sql_exec] raises, blackboxes use built-in
    implementations, branches are not recorded. *)

val blackbox_apis : string list
(** APIs treated as blackboxes: ["Math.random"], ["Date.getTime"],
    ["Date.now"], ["http.send"], ["runtime.eval"]. *)

type t

val create : ?hooks:hooks -> ?seed:int -> unit -> t

val load : t -> Ast.program -> unit
(** Execute top-level statements (function declarations, globals). *)

val load_source : t -> string -> unit

val call_function : t -> string -> Value.cv list -> Value.cv
(** Invoke a top-level function (an application-level transaction). *)

val functions : t -> string list

val eval_expr : t -> Ast.expr -> Value.cv
(** Evaluate an expression in the global scope (tests). *)
