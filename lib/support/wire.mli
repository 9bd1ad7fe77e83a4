(** The binary codec shared by every persisted or transmitted structure:
    object files ([Objfile], "PWNO"), penalty-profile artifacts
    ([Profile], "PWNP") and the compile server's messages ([Protocol]).
    Each of those modules keeps only its record layout, enum tables and
    version number; the encoding lives here.

    {b Reading.}  A {!reader} trusts nothing: every read is
    bounds-checked, a varint is at most 9 bytes, an unsigned value with
    the sign bit set is rejected, and a length or count may not exceed
    the bytes that remain (every element takes at least one byte), so a
    crafted count is refused before anything is allocated by it.  Any
    malformation raises {!Corrupt}.

    {b Container.}  {!seal} wraps a payload as

    {v
    magic             4 bytes
    version           32-bit LE word
    payload length    32-bit LE
    digest            16-byte MD5 of the payload
    payload
    v}

    and {!unseal} checks magic, version, length and digest before
    decoding, then rejects trailing payload bytes. *)

(** Raised on any malformed input. *)
exception Corrupt of string

(** [corrupt fmt ...] raises {!Corrupt} with the formatted message. *)
val corrupt : ('a, unit, string, 'b) format4 -> 'a

(** {2 Writers} *)

(** [put_byte b n] appends the single byte [n] (0-255). *)
val put_byte : Buffer.t -> int -> unit

(** [put_uint b n] appends [n] as an unsigned LEB128 varint, for
    naturally non-negative quantities (lengths, counts, registers,
    labels, addresses).  Raises [Invalid_argument] when [n < 0]. *)
val put_uint : Buffer.t -> int -> unit

(** [put_int b n] appends [n] as a zigzag varint: small magnitudes of
    either sign stay short. *)
val put_int : Buffer.t -> int -> unit

val put_bool : Buffer.t -> bool -> unit

(** A length varint, then the bytes. *)
val put_string : Buffer.t -> string -> unit

(** A count varint, then each element. *)
val put_list : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a list -> unit

(** A bool, then the value when present. *)
val put_option : Buffer.t -> (Buffer.t -> 'a -> unit) -> 'a option -> unit

(** [put_enum b table v] writes [v]'s index in [table] as one byte: an
    enumeration's code is its position in the format's table.  Raises
    [Invalid_argument] when [v] is not in [table]. *)
val put_enum : Buffer.t -> 'a array -> 'a -> unit

(** {2 Readers} *)

type reader

(** [reader s] reads [s] from its first byte. *)
val reader : string -> reader

(** [byte r] reads one byte. *)
val byte : reader -> int

(** [get_uint r] reads an unsigned varint; a value with the sign bit set
    is {!Corrupt}. *)
val get_uint : reader -> int

val get_int : reader -> int

(** A byte that must be 0 or 1. *)
val get_bool : reader -> bool

val get_string : reader -> string
val get_list : reader -> (reader -> 'a) -> 'a list
val get_option : reader -> (reader -> 'a) -> 'a option

(** [get_enum r what table] reads a {!put_enum} code; a code past the
    end of [table] is {!Corrupt}, naming [what]. *)
val get_enum : reader -> string -> 'a array -> 'a

(** [finish r] raises {!Corrupt} unless every byte has been read. *)
val finish : reader -> unit

(** {2 Container and files} *)

(** [seal ~magic ~version put] is the container around the payload
    [put] writes.  [magic] is 4 bytes. *)
val seal : magic:string -> version:int -> (Buffer.t -> unit) -> string

(** [unseal ~magic ~version get bytes] checks the container, decodes its
    payload with [get], and checks that [get] consumed all of it.
    Raises {!Corrupt} on any mismatch. *)
val unseal : magic:string -> version:int -> (reader -> 'a) -> string -> 'a

(** [save ~path bytes] writes [bytes] to a unique temp file beside
    [path] and renames it over [path].  On any failure the temp file is
    removed and the exception re-raised. *)
val save : path:string -> string -> unit

(** [load path] is the file's contents; raises [Sys_error] on I/O
    failure. *)
val load : string -> string
