(** Human-readable textual form of the IR (Figure 3b).

    Scopes print as their iteration count with annotation suffixes
    ([1024:v], [320:b/300] for a padded scope); child relationship is
    rendered with vertical bars; buffer declarations
    ([name dtype [d1, d2:N] location -> aliases]) precede the body.  The
    output of {!program} parses back with {!Parser.program}. *)

val program : Types.program -> string
(** Full program: buffers, inputs/outputs, body. *)

val body : Types.program -> string
(** Body only — the state text fed to the PerfLLM embedding. *)

val stmt_str : Types.stmt -> string
val expr_str : ?prec:int -> Types.expr -> string

val expr_text : Types.expr -> string * int
(** [expr_str e] paired with the precedence [e] binds at (1 additive,
    2 multiplicative, [max_int] for atoms and call forms). *)

val un_text : Types.unop -> string * int -> string * int
val bin_text : Types.binop -> string * int -> string * int -> string * int
(** One node's {!expr_text} from its operands' — the step {!expr_str}
    repeats bottom-up, for callers that already hold operand texts. *)

val header_lines : Types.program -> string list
(** The lines {!program} prints before the body: buffer declarations,
    then [inputs:] and [outputs:]. *)

val access_str : Types.access -> string
val scope_header : Types.scope -> string
val buffer_str : Types.buffer -> string
val float_str : float -> string
val pp : Format.formatter -> Types.program -> unit
