(* The one wire-codec interface a record family implements over the
   length-prefixed binary form ({!Frame}).  Encoders append to a
   caller-owned [Buffer.t]; decoders read from a substring and report
   how far they got, so the same codec drives files, sockets, and
   incremental feeds without copying. *)

type 'a decoded =
  | Value of 'a * int  (* decoded value and the position just past it *)
  | Incomplete  (* the buffer ends mid-record: feed more bytes *)
  | Corrupt of string  (* the bytes at [pos] can never parse *)

module type S = sig
  type t

  val name : string
  (** Short identifier used in error messages and format negotiation. *)

  val encode : Buffer.t -> t -> unit
  (** Append one complete record, framing included. *)

  val decode : string -> pos:int -> t decoded
  (** Parse one record starting exactly at [pos]. *)
end

let to_string (type a) (module C : S with type t = a) v =
  let b = Buffer.create 256 in
  C.encode b v;
  Buffer.contents b

(* Decode a whole string as exactly one record. *)
let of_string (type a) (module C : S with type t = a) s =
  match C.decode s ~pos:0 with
  | Value (v, next) when next = String.length s -> Ok v
  | Value _ -> Error (C.name ^ ": trailing bytes after record")
  | Incomplete -> Error (C.name ^ ": truncated record")
  | Corrupt msg -> Error (C.name ^ ": " ^ msg)

(* Decode every record in a string, stopping cleanly at the end. *)
let all_of_string (type a) (module C : S with type t = a) s =
  let len = String.length s in
  let rec loop acc pos =
    if pos >= len then Ok (List.rev acc)
    else
      match C.decode s ~pos with
      | Value (v, next) -> loop (v :: acc) next
      | Incomplete -> Error (C.name ^ ": truncated record at end of input")
      | Corrupt msg -> Error (C.name ^ ": " ^ msg)
  in
  loop [] 0
