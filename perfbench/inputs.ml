(* The three workloads and the inputs each run derives from its seed.

   Both processes of a run — the server and the load generator — build
   the same seeded ledger from the same generated batches, so the server
   only ever sees generated inputs (it is never told the seed), and the
   generator's replay ledger is identical to the served one. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_bench_util

type workload = Append_heavy | Read_verify | Audit_scan

let all = [ Append_heavy; Read_verify; Audit_scan ]

let name = function
  | Append_heavy -> "append_heavy"
  | Read_verify -> "read_verify"
  | Audit_scan -> "audit_scan"

let of_name s = List.find_opt (fun w -> name w = s) all

let ledger_name = "perfbench"

(* Served members c0..c15 have keys derived from the ledger and member
   names, so the generator rebuilds every credential from the names. *)
let members = 16
let member_name i = Printf.sprintf "c%d" i
let shared_clue k = Printf.sprintf "s%04d" k

let config =
  { Ledger.default_config with name = ledger_name; crypto = Crypto_profile.Real }

let credentials i =
  let priv, pub = Ecdsa.generate ~seed:(ledger_name ^ ":" ^ member_name i) in
  ( { Roles.name = member_name i; role = Roles.Regular_user; pub;
      id = Ecdsa.public_key_id pub },
    priv )

type shape = {
  seed_journals : int;
  shared_clues : int;
  zipf_s : float;
      (* clue popularity; for the seeded ledgers of read_verify and
         audit_scan, s = 0.8 over 600 clues gives lineages of 1 to ~300
         versions (a tail of clues gets none) *)
}

let shape = function
  | Append_heavy -> { seed_journals = 256; shared_clues = 1024; zipf_s = 1.1 }
  | Read_verify | Audit_scan ->
      { seed_journals = 4096; shared_clues = 600; zipf_s = 0.8 }

(* log-uniform over [64 B, 4 KiB] *)
let payload rng =
  let u = float_of_int (Det_rng.int rng 1_000_000) /. 1e6 in
  Det_rng.bytes rng (max 64 (min 4096 (int_of_float (64. *. (64. ** u)))))

type t = {
  batches : (int * (bytes * string list) list) list;
      (* (member index, entries), in commit order *)
}

let seed_batch = 64

(* Fisher-Yates with the run's generator *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Det_rng.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

(* The seed decides the payload bytes and the order of the seeded
   journals, not the shape: every seed gets the same clue-lineage
   lengths (the Zipf mass of each clue, rounded by largest remainder)
   and the same multiset of payload sizes (log-uniform quantiles), so
   runs on different seeds measure the same workload. *)
let generate workload ~seed =
  let sh = shape workload in
  let n = sh.seed_journals in
  let rng = Det_rng.create ~seed:((seed * 7919) + 17) in
  let mass = Array.init sh.shared_clues (fun k -> (float_of_int (k + 1)) ** (-. sh.zipf_s)) in
  let total = Array.fold_left ( +. ) 0. mass in
  let exact = Array.map (fun m -> m /. total *. float_of_int n) mass in
  let counts = Array.map (fun e -> int_of_float e) exact in
  let short = n - Array.fold_left ( + ) 0 counts in
  let by_rem = Array.init sh.shared_clues Fun.id in
  Array.stable_sort
    (fun a b -> compare (exact.(b) -. Float.of_int counts.(b)) (exact.(a) -. Float.of_int counts.(a)))
    by_rem;
  for i = 0 to short - 1 do
    counts.(by_rem.(i)) <- counts.(by_rem.(i)) + 1
  done;
  let clues = Array.make n "" and pos = ref 0 in
  Array.iteri
    (fun k c ->
      for _ = 1 to c do
        clues.(!pos) <- shared_clue k;
        incr pos
      done)
    counts;
  shuffle rng clues;
  let sizes =
    Array.init n (fun i ->
        int_of_float (64. *. (64. ** ((float_of_int i +. 0.5) /. float_of_int n))))
  in
  shuffle rng sizes;
  let rec go acc k =
    if k >= n then List.rev acc
    else begin
      let m = min seed_batch (n - k) in
      let entries =
        List.init m (fun i -> (Det_rng.bytes rng sizes.(k + i), [ clues.(k + i) ]))
      in
      go ((k / seed_batch mod members, entries) :: acc) (k + m)
    end
  in
  { batches = go [] 0 }

let save path (t : t) =
  let oc = open_out_bin path in
  Marshal.to_channel oc t [];
  close_out oc

let load path : t =
  let ic = open_in_bin path in
  let t = Marshal.from_channel ic in
  close_in ic;
  t

(* What a seeding client keeps from its receipt: the jsn, the leaf it
   verifies proofs against, and the clues it wrote. *)
type seeded = { jsn : int; tx : Hash.t; clues : string list }

(* Build the served ledger: register the members, then commit every seed
   batch through the batched append path.  In memory, no persist. *)
let build ?pool (t : t) =
  let l = Ledger.create ~config ~clock:(Clock.create ()) () in
  let creds =
    Array.init members (fun i ->
        Ledger.new_member l ~name:(member_name i) ~role:Roles.Regular_user)
  in
  let seeded =
    List.concat_map
      (fun (m, entries) ->
        let member, priv = creds.(m) in
        List.map2
          (fun (r : Receipt.t) (_, clues) ->
            { jsn = r.Receipt.jsn; tx = r.Receipt.tx_hash; clues })
          (Ledger.append_batch ?pool l ~member ~priv entries)
          entries)
      t.batches
  in
  (l, Array.of_list seeded)
