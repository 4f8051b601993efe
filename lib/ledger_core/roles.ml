open Ledger_crypto

type role = Regular_user | Dba | Regulator

type member = { name : string; role : role; pub : Ecdsa.public_key; id : Hash.t }

type certificate = { subject : Hash.t; signature : Ecdsa.signature }

(* Both tables are keyed by the raw 32-byte id, so a lookup allocates
   nothing.  [sorted] and [wire] are the same members in name order, kept
   as persistent lists: a read snapshot shares them as they are. *)
type registry = {
  by_id : (Hash.t, member) Hashtbl.t;
  certificates : (Hash.t, certificate) Hashtbl.t;
  mutable sorted : member list;
  mutable wire : (string * string * bytes) list;
}

let create_registry () =
  { by_id = Hashtbl.create 16; certificates = Hashtbl.create 16; sorted = [];
    wire = [] }

let role_to_string = function
  | Regular_user -> "user"
  | Dba -> "dba"
  | Regulator -> "regulator"

(* Insert [x] after every element whose name sorts at or before [name]:
   name order, ties in registration order. *)
let rec insert_by_name name_of name x = function
  | y :: rest when String.compare (name_of y) name <= 0 ->
      y :: insert_by_name name_of name x rest
  | l -> x :: l

let register reg ~name ~role pub =
  let key = Ecdsa.public_key_to_bytes pub and id = Ecdsa.public_key_id pub in
  if Hashtbl.mem reg.by_id id then
    invalid_arg ("Roles.register: key already registered for " ^ name);
  let m = { name; role; pub; id } in
  Hashtbl.replace reg.by_id id m;
  reg.sorted <- insert_by_name (fun m -> m.name) name m reg.sorted;
  reg.wire <-
    insert_by_name (fun (n, _, _) -> n) name (name, role_to_string role, key)
      reg.wire;
  m

let find reg id = Hashtbl.find_opt reg.by_id id
let members reg = reg.sorted
let wire_members reg = reg.wire
let find_by_name reg name = List.find_opt (fun m -> String.equal m.name name) reg.sorted
let with_role reg role = List.filter (fun m -> m.role = role) reg.sorted
let cardinal reg = Hashtbl.length reg.by_id

let certify ~ca_priv pub =
  let subject = Ecdsa.public_key_id pub in
  { subject; signature = Ecdsa.sign ca_priv subject }

let verify_certificate ~ca_pub pub cert =
  Hash.equal cert.subject (Ecdsa.public_key_id pub)
  && Ecdsa.verify ca_pub cert.subject cert.signature

let record_certificate reg cert =
  Hashtbl.replace reg.certificates cert.subject cert

let certificate_of reg id = Hashtbl.find_opt reg.certificates id
