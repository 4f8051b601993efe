(* Flat JSON output that keeps every digit of a measured float.  NaN and
   the infinities are spelled as Python's json module reads them. *)

let num f =
  if Float.is_nan f then "NaN"
  else if f = Float.infinity then "Infinity"
  else if f = Float.neg_infinity then "-Infinity"
  else Printf.sprintf "%.17g" f

let int = string_of_int
let bool = string_of_bool
let str s = Printf.sprintf "%S" s

let obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k v) kvs) ^ "}"
