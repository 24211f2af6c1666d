(** Aligned ASCII tables and CSV output for experiment results. *)

type t

val make : headers:string list -> string list list -> t
(** Rows shorter than the header are padded with empty cells; longer rows
    raise [Invalid_argument]. *)

val render : t -> string
(** Aligned, boxed with [|] separators and a header rule. *)

val to_csv : t -> string
(** RFC-4180-ish: cells containing commas, quotes or newlines are quoted. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)
