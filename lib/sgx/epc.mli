(** Encrypted Page Cache model.

    Physical protected memory backing all enclaves on a machine. Pages
    are encrypted at rest under a hardware key that no software can read;
    software outside an enclave sees only ciphertext. The default
    capacity is 32000 pages (128 MB) — the paper's modification to
    OpenSGX, which ships with 2000 (Section 4). *)

val page_size : int
(** 4096 bytes. *)

val default_pages : int
(** 32000, as patched by the paper. *)

type t

exception Out_of_epc

val create : ?pages:int -> seed:string -> unit -> t
(** A fresh EPC whose hardware key derives from [seed]. *)

val capacity : t -> int
val free_pages : t -> int

type slot
(** An allocated EPC page. *)

val alloc : t -> slot
(** @raise Out_of_epc when the EPC is exhausted. *)

val release : t -> slot -> unit
(** Returns the page to the free pool and scrubs it. *)

val store : t -> slot -> string -> unit
(** Encrypt a full page (exactly [page_size] bytes) into the slot. *)

val load : t -> slot -> string
(** Decrypt the slot's page. *)

val store_sub : t -> slot -> pos:int -> string -> unit
(** Read-modify-write of part of a page. *)

val load_sub : t -> slot -> pos:int -> len:int -> string

val raw_ciphertext : t -> slot -> string
(** What an adversary probing the memory bus observes: the encrypted
    page contents. Exposed for tests and for the paper's threat-model
    demonstrations; never used by enclave code. *)
