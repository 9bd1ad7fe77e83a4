(** Minimal JSON reader, sufficient to validate and inspect the trace files
    and benchmark JSON this library emits (the toolchain has no JSON
    dependency to lean on), plus the one string escaper its writers share.  Not a general-purpose parser: numbers are
    floats, \u escapes decode the Basic Multilingual Plane only. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val parse : string -> (t, string) result

(** [member k j] is the value of field [k] when [j] is an object. *)
val member : string -> t -> t option

(** [add_escaped b s] appends [s] to [b] with JSON string escaping (no
    surrounding quotes). *)
val add_escaped : Buffer.t -> string -> unit
