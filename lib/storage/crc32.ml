(* Standard CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320),
   table-driven.  Pure OCaml so the storage layer stays dependency-free.
   The table is built eagerly at module initialisation: a lazy one raises
   [CamlinternalLazy.Undefined] when two domains force it at once. *)

let table =
  Array.init 256 (fun n ->
      let c = ref (Int32.of_int n) in
      for _ = 0 to 7 do
        c :=
          if Int32.logand !c 1l <> 0l then
            Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
          else Int32.shift_right_logical !c 1
      done;
      !c)

let update crc b ~pos ~len =
  let c = ref (Int32.logxor crc 0xFFFFFFFFl) in
  for i = pos to pos + len - 1 do
    let idx =
      Int32.to_int (Int32.logand (Int32.logxor !c (Int32.of_int (Char.code (Bytes.get b i)))) 0xFFl)
    in
    c := Int32.logxor table.(idx) (Int32.shift_right_logical !c 8)
  done;
  Int32.logxor !c 0xFFFFFFFFl

let bytes b = update 0l b ~pos:0 ~len:(Bytes.length b)
let string s = bytes (Bytes.unsafe_of_string s)
