(** Declarative binary codecs: one value describes both directions.

    A ['a codec] pairs an encoder and a decoder built from the same
    declaration, so a format cannot drift between its writer and its
    reader. Every integer and length is a big-endian int64; booleans and
    option tags are one byte ([0] or [1]). Records are declared field by
    field with {!record}, each field listed once:

    {[
      let point =
        Codec.(
          record (fun x y -> { x; y })
          @@ field (fun p -> p.x) int
          @@ field (fun p -> p.y) int
          @@ fields_end)
    ]}

    Files are framed by {!frame}: a format magic, the body, and a
    big-endian CRC-32 (IEEE 802.3) of the body. {!unframe} checks the
    magic and the CRC before it decodes anything, so every single-byte
    flip and every truncation is rejected with {!Corrupt}. *)

exception Corrupt of string

type cursor
(** Read position in the input being decoded. *)

type 'a codec = { put : Buffer.t -> 'a -> unit; get : cursor -> 'a }
(** [get] raises {!Corrupt} on malformed input. *)

val int : int codec
val i64 : int64 codec
val bool : bool codec
val bytes : bytes codec
val string : string codec
val option : 'a codec -> 'a option codec

val list : 'a codec -> 'a list codec
(** Length-prefixed. A length larger than the bytes that remain is
    rejected before anything is allocated. *)

val array : 'a codec -> 'a array codec
(** Same layout and length check as {!list}. *)

val pair : 'a codec -> 'b codec -> ('a * 'b) codec

val conv : ('b -> 'a) -> ('a -> 'b) -> 'a codec -> 'b codec
(** [conv to_repr of_repr c] encodes a ['b] as its ['a] representation. *)

(** {2 Records} *)

type ('r, 'k) fields
(** The fields of a record of type ['r] still to be listed; ['k] is the
    constructor type that consumes them. *)

val record : 'k -> ('r, 'k) fields -> 'r codec
(** [record ctor fields]: fields are written in declaration order and
    decoded values are passed to [ctor] in the same order. *)

val field : ('r -> 'a) -> 'a codec -> ('r, 'k) fields -> ('r, 'a -> 'k) fields
val fields_end : ('r, 'r) fields

(** {2 Framing} *)

val frame : magic:string -> 'a codec -> 'a -> bytes
(** [magic], the encoded body, then the CRC-32 of the body. *)

val unframe : magic:string -> 'a codec -> bytes -> 'a
(** Inverse of {!frame}. @raise Corrupt on a different magic (naming the
    magic found when it looks like one), a CRC mismatch, a malformed body
    or trailing bytes. *)

val crc32 : bytes -> int -> int -> int
(** [crc32 b off len]: CRC-32 of a byte range. *)
