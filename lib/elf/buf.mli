(** Little-endian binary cursors used by the ELF writer and reader.

    All 64-bit fields are represented as OCaml [int]s; the virtual
    addresses and sizes this reproduction manipulates stay far below
    2{^62}, and the writer refuses anything larger. *)

module W : sig
  type t

  val create : unit -> t
  val length : t -> int
  val u8 : t -> int -> unit
  val u16 : t -> int -> unit
  val u32 : t -> int -> unit
  val u64 : t -> int -> unit
  val bytes : t -> string -> unit
  val zeros : t -> int -> unit
  val pad_to : t -> int -> unit
  (** Pad with zero bytes up to an absolute offset (no-op if already
      there; raises if past it). *)

  val contents : t -> string

end

module R : sig
  type t

  exception Out_of_bounds of int

  val of_string : string -> t
  val length : t -> int
  val u8 : t -> pos:int -> int
  val u16 : t -> pos:int -> int
  val u32 : t -> pos:int -> int
  val u64 : t -> pos:int -> int
  (** @raise Failure if the value exceeds [max_int]. *)

  val sub : t -> pos:int -> len:int -> string
  val cstring : t -> pos:int -> string
  (** NUL-terminated string starting at [pos]. *)
end

(** Off-heap instruction buffers.

    A [Big.t] lives outside the OCaml heap, so parallel domains reading
    a multi-megabyte .text section share it without the GC tracing or
    copying it — the zero-copy substrate the decoder and analysis index
    read through. The type is a structural alias for a [Bigarray]
    1-d char array; the x86 and crypto layers declare the same alias
    and the three unify without inter-library dependencies. *)
module Big : sig
  type t = (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

  val create : int -> t
  val length : t -> int
  val get : t -> int -> char
  val of_string : string -> t

  val to_string : t -> string

  val sub : t -> pos:int -> len:int -> t
  (** Zero-copy view sharing storage with the parent buffer. *)

  val sub_string : t -> pos:int -> len:int -> string
  (** Copying extraction (for small slices that must be strings). *)
end
