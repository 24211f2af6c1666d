(** The daemon's decision table: every request id ever decided, with its
    decision, in flat unboxed storage.

    A row records an id and its state: granted, cancelled (granted, then
    preempted by a cancel) or refused.  A granted or cancelled row also
    holds its window ([bw], [sigma], [tau]) and the number of the
    {!Gridbw_core.Online} booking that holds its bandwidth; a refused row
    holds an interned reason and no floats.

    Layout (DESIGN §10): rows live in fixed-size pages of unboxed [int]
    and float arrays, so recording a decision allocates no heap block and
    growth never copies a row; ids are found through an open-addressing
    [int array] of row numbers (linear probing, load at most one half)
    that doubles and rehashes as rows are added.

    Rows are numbered from 0 in the order their ids were first recorded;
    a row number is valid for the table's life. *)

type t

type state = Granted | Cancelled | Refused

val create : unit -> t
(** An empty table.  No page is allocated until the first row. *)

val length : t -> int
(** Rows recorded: distinct ids. *)

val find : t -> int -> int
(** The row of an id, or [-1] if the id was never recorded. *)

val state : t -> int -> state
(** The state of a row. *)

val bw : t -> int -> float
val sigma : t -> int -> float

val tau : t -> int -> float
(** The window of a granted or cancelled row. *)

val booking : t -> int -> int
(** The {!Gridbw_core.Online} booking number of a granted or cancelled
    row. *)

val reason : t -> int -> string
(** The reason of a refused row: the string it was recorded with,
    interned (one copy per distinct reason). *)

val grant : t -> int -> bw:float -> sigma:float -> tau:float -> booking:int -> unit
(** Record id as granted with this window and booking, replacing any
    earlier decision of the id. *)

val refuse : t -> int -> string -> unit
(** Record id as refused with this reason, replacing any earlier
    decision of the id. *)

val cancel : t -> int -> unit
(** [cancel t row] turns a granted row into a cancelled one, keeping its
    window.  Other rows are left as they are. *)

(** {2 Layout, for tests} *)

val slots : t -> int
(** Index slots: a power of two, at least twice {!length}. *)

val home : t -> int -> int
(** The index slot where the search for an id starts, in [0, slots t). *)

val page_rows : int
(** Rows per page. *)
