(* IEEE 802.3 CRC32 (reflected, the zlib polynomial), sliced by 8.  The
   state fits in a native [int] (63-bit on every supported platform), so
   the loops run unboxed; only the API surface is [int32].  Moved here
   from lib/store's WAL so the WAL, the binary trace frames, and the
   serve layer all share one implementation.

   Slicing-by-8 reads eight bytes a step through eight tables:
   [tables.(k lsl 8 + n)] is the CRC register after byte [n] is followed
   by [k] zero bytes, so the eight lookups of a step are independent and
   their XOR is the register after all eight.  Bytes left over at the
   end go one at a time through table 0, the byte-at-a-time table. *)

(* Built on first use: a table allocated when the module loads moves
   the major GC's phase in programs that never take a CRC. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) lsl 8) + n) in
         t.((k lsl 8) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

(* Unchecked little-endian 32-bit read; [sub]'s loop stays in bounds. *)
external get32u : string -> int -> int32 = "%caml_string_get32u"

let[@inline] u32 s i =
  let v = Int32.to_int (get32u s i) land 0xFFFFFFFF in
  if Sys.big_endian then
    ((v land 0xff) lsl 24)
    lor ((v land 0xff00) lsl 8)
    lor ((v lsr 8) land 0xff00)
    lor (v lsr 24)
  else v

let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg "Crc32.sub";
  let t = Lazy.force tables in
  let c = ref 0xFFFFFFFF in
  let i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let lo = u32 s !i lxor !c and hi = u32 s (!i + 4) in
    c :=
      Array.unsafe_get t ((7 lsl 8) lor (lo land 0xff))
      lxor Array.unsafe_get t ((6 lsl 8) lor ((lo lsr 8) land 0xff))
      lxor Array.unsafe_get t ((5 lsl 8) lor ((lo lsr 16) land 0xff))
      lxor Array.unsafe_get t ((4 lsl 8) lor (lo lsr 24))
      lxor Array.unsafe_get t ((3 lsl 8) lor (hi land 0xff))
      lxor Array.unsafe_get t ((2 lsl 8) lor ((hi lsr 8) land 0xff))
      lxor Array.unsafe_get t ((1 lsl 8) lor ((hi lsr 16) land 0xff))
      lxor Array.unsafe_get t (hi lsr 24);
    i := !i + 8
  done;
  for j = !i to pos + len - 1 do
    c :=
      Array.unsafe_get t ((!c lxor Char.code (String.unsafe_get s j)) land 0xff) lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let digest s = sub s ~pos:0 ~len:(String.length s)
