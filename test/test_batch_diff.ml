(* Differential property test: batched and one-at-a-time commits must
   produce byte-identical histories.

   Two ledgers share one deterministic config.  The reference ledger
   commits every entry immediately through {!Ledger.append}; the batched
   ledger buffers entries and pushes them through {!Ledger.append_batch}
   at Flush/Seal points.  Crypto cost is zeroed and the two simulated
   clocks are advanced in lockstep only after Flush/Seal ops, so every
   timestamp, nonce and signature is determined purely by the sequence
   of entries — any byte of divergence (commitment, cm root, world
   state, blocks, journals, receipts, proofs) is a batching bug. *)

open Ledger_crypto
open Ledger_storage
open Ledger_merkle
open Ledger_cmtree
open Ledger_core

type op = Append of int * int | Flush | Seal

let op_to_string = function
  | Append (p, c) -> Printf.sprintf "Append(%d,%d)" p c
  | Flush -> "Flush"
  | Seal -> "Seal"

let print_ops ops = String.concat "; " (List.map op_to_string ops)

let diff_config =
  { Ledger.default_config with
    name = "diff";
    block_size = 4;
    fam_delta = 3;
    latency = Latency_model.free;
    (* zero-cost crypto: sign/verify must not advance the clock, or the
       batched side (which signs at flush time) would drift from the
       reference side (which signs at append time) *)
    crypto = Crypto_profile.Simulated { sign_us = 0.; verify_us = 0. } }

let mk_ledger () =
  let clock = Clock.create () in
  let ledger = Ledger.create ~config:diff_config ~clock () in
  let user, key = Ledger.new_member ledger ~name:"duser" ~role:Roles.Regular_user in
  (clock, ledger, user, key)

let clues_of = function
  | 0 | 1 | 2 -> [ "k" ^ string_of_int 0 ]
  | 3 -> [ "k1" ]
  | 4 -> [ "k0"; "k1" ]
  | _ -> []

let payload_of p = Bytes.of_string (Printf.sprintf "payload-%d" p)

(* Run the op sequence against both ledgers; the batched side buffers
   appends and commits them in one {!Ledger.append_batch} per Flush/Seal. *)
let run_pair ops =
  let clock_a, a, user_a, key_a = mk_ledger () in
  let clock_b, b, user_b, key_b = mk_ledger () in
  let buffer = ref [] in
  let flush_b () =
    match List.rev !buffer with
    | [] -> ()
    | entries ->
        buffer := [];
        ignore (Ledger.append_batch b ~member:user_b ~priv:key_b ~seal:false entries)
  in
  let advance_both ms =
    Clock.advance_ms clock_a ms;
    Clock.advance_ms clock_b ms
  in
  List.iter
    (fun op ->
      match op with
      | Append (p, c) ->
          let payload = payload_of p and clues = clues_of c in
          ignore (Ledger.append a ~member:user_a ~priv:key_a ~clues payload);
          buffer := (payload, clues) :: !buffer
      | Flush ->
          flush_b ();
          advance_both 5.
      | Seal ->
          flush_b ();
          Ledger.seal_block a;
          Ledger.seal_block b;
          advance_both 5.)
    ops;
  flush_b ();
  Ledger.seal_block a;
  Ledger.seal_block b;
  (a, b)

let receipt_bytes r =
  let w = Wire.writer () in
  Service.w_receipt w r;
  Wire.contents w

let fail fmt = Printf.ksprintf (fun s -> QCheck.Test.fail_report s) fmt

let check_equal_histories a b =
  if Ledger.size a <> Ledger.size b then
    fail "size: %d vs %d" (Ledger.size a) (Ledger.size b);
  if not (Hash.equal (Ledger.commitment a) (Ledger.commitment b)) then
    fail "commitment diverged";
  if not (Hash.equal (Cm_tree.root_hash (Ledger.cm_tree a))
            (Cm_tree.root_hash (Ledger.cm_tree b))) then
    fail "cm-tree root diverged";
  if not (Option.equal Hash.equal (Ledger.world_state_root a)
            (Ledger.world_state_root b)) then
    fail "world-state root diverged";
  if Ledger.block_count a <> Ledger.block_count b then
    fail "block count: %d vs %d" (Ledger.block_count a) (Ledger.block_count b);
  List.iteri
    (fun h (ba, bb) ->
      let ea = Service.encode_response (Service.Block_r ba)
      and eb = Service.encode_response (Service.Block_r bb) in
      if not (Bytes.equal ea eb) then fail "block %d diverged" h)
    (List.combine (Ledger.blocks a) (Ledger.blocks b));
  for jsn = 0 to Ledger.size a - 1 do
    if not (Hash.equal (Ledger.tx_hash_of a jsn) (Ledger.tx_hash_of b jsn)) then
      fail "tx hash %d diverged" jsn;
    let ja = Journal_codec.encode (Ledger.journal a jsn)
    and jb = Journal_codec.encode (Ledger.journal b jsn) in
    if not (Bytes.equal ja jb) then fail "journal %d diverged" jsn;
    let ra = receipt_bytes (Ledger.get_receipt a jsn)
    and rb = receipt_bytes (Ledger.get_receipt b jsn) in
    if not (Bytes.equal ra rb) then fail "receipt %d diverged" jsn;
    let pa = Proof_codec.encode_fam_proof (Ledger.get_proof a jsn)
    and pb = Proof_codec.encode_fam_proof (Ledger.get_proof b jsn) in
    if not (Bytes.equal pa pb) then fail "fam proof %d diverged" jsn
  done;
  List.iter
    (fun clue ->
      let enc l =
        Service.encode_response
          (Service.Clue_bundle_r
             {
               proof = Ledger.prove_clue l ~clue ();
               clue_root = Cm_tree.root_hash (Ledger.cm_tree l);
             })
      in
      if not (Bytes.equal (enc a) (enc b)) then fail "clue proof %s diverged" clue)
    [ "k0"; "k1" ];
  true

let op_gen =
  QCheck.Gen.(
    frequency
      [ (8, map2 (fun p c -> Append (p, c)) (int_bound 999) (int_bound 4));
        (3, return Flush);
        (2, return Seal) ])

let arb_ops =
  QCheck.make ~print:print_ops QCheck.Gen.(list_size (int_range 5 40) op_gen)

(* ISSUE acceptance: >= 100 random interleavings of append/flush/seal. *)
let prop_batched_equals_unbatched =
  QCheck.Test.make ~name:"batched history == unbatched history" ~count:120
    arb_ops
    (fun ops ->
      let a, b = run_pair ops in
      check_equal_histories a b)

(* Deterministic edge: one batch spanning several blocks and a fam epoch
   roll, plus an empty batch, equals the sequential history. *)
let test_large_batch_edge () =
  let _, a, user_a, key_a = mk_ledger () in
  let _, b, user_b, key_b = mk_ledger () in
  let entries =
    List.init 40 (fun i -> (payload_of i, clues_of (i mod 5)))
  in
  List.iter
    (fun (payload, clues) ->
      ignore (Ledger.append a ~member:user_a ~priv:key_a ~clues payload))
    entries;
  Ledger.seal_block a;
  (match Ledger.append_batch b ~member:user_b ~priv:key_b [] with
  | [] -> ()
  | _ -> Alcotest.fail "empty batch returned receipts");
  let receipts = Ledger.append_batch b ~member:user_b ~priv:key_b entries in
  Alcotest.(check int) "receipt count" 40 (List.length receipts);
  List.iteri
    (fun i r ->
      Alcotest.(check bool)
        (Printf.sprintf "receipt %d verifies" i)
        true (Ledger.verify_receipt b r))
    receipts;
  Alcotest.(check bool) "identical histories" true (check_equal_histories a b);
  let audit = Audit.run b in
  Alcotest.(check bool) "batched ledger passes audit" true audit.Audit.ok

let suite =
  [ QCheck_alcotest.to_alcotest prop_batched_equals_unbatched;
    Alcotest.test_case "large batch spans blocks and epochs" `Quick
      test_large_batch_edge ]
