(** Minimal JSON without a dependency: the single writer every artifact
    in the repository is serialized through, and a strict reader for
    the documents read back (bench baselines, health dumps).  Object
    fields keep textual order. *)

type t =
  | Null
  | Bool of bool
  | Int of int  (** exact; what the reader yields for integer literals *)
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

(** {1 Writer} *)

val to_string : t -> string
(** Compact serialization (no whitespace).  [Int] prints with [%d]; a
    finite [Number] with [%.9g] (so an integral float prints as ["1"]);
    a non-finite [Number] as [null].  Strings backslash-escape double
    quote, backslash and line feed, write every other control byte as
    a [\u00XX] escape, and pass all other bytes through. *)

val write_file : string -> t -> unit
(** [write_file path v] writes [to_string v] plus a trailing newline. *)

(** {1 Reader} *)

val parse : string -> (t, string) result
(** Whole-string parse; trailing non-whitespace is an error.  Numbers
    must follow the JSON grammar (no ["+1"], [".5"], ["1."], ["01"])
    and strings may not carry raw control bytes.  An integer literal
    (no fraction, no exponent) that fits an [int] yields [Int], every
    other number [Number]. *)

val parse_file : string -> (t, string) result

(** {1 Accessors} ([None] on shape mismatch) *)

val member : string -> t -> t option

val to_float : t -> float option
(** [Int] or [Number]. *)

val to_int : t -> int option
(** [Int], or a [Number] that is integral and in [int] range; never
    truncates. *)

val to_str : t -> string option
(** The payload of a [String]. *)

val to_list : t -> t list option
val to_obj : t -> (string * t) list option
