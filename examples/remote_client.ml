(* A remote client talking to the ledger service purely over bytes — the
   Fig. 1 deployment: the client signs requests locally (pi_c), ships
   them to the service, and verifies every returned proof object itself.

   Run with: dune exec examples/remote_client.exe *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_merkle
open Ledger_cmtree

let () =
  (* server side: the LSP's process *)
  let clock = Clock.create () in
  let ledger = Ledger.create ~clock () in
  let member, priv =
    Ledger.new_member ledger ~name:"remote-user" ~role:Roles.Regular_user
  in
  (* the only channel between client and server: bytes in, bytes out *)
  let send request = Service.handle ledger request in

  (* client side *)
  let client =
    Service.Client.create ~ledger_uri:(Ledger.uri ledger) ~member ~priv ()
  in
  let parse = Service.Client.parse in

  (* 1. append six documents over the wire *)
  let receipts =
    List.init 6 (fun i ->
        Clock.advance_ms clock 25.;
        let request =
          Service.Client.make_append client ~clues:[ "contract-7" ]
            ~client_ts:(Clock.now clock)
            (Bytes.of_string (Printf.sprintf "signed page %d" i))
        in
        match parse (send request) with
        | Some (Service.Receipt_r r) -> r
        | Some (Service.Error_r e) -> failwith e
        | _ -> failwith "unexpected response")
  in
  Printf.printf "appended %d journals over the wire\n" (List.length receipts);

  (* 2. fetch the commitment and keep it as the local trust root *)
  let commitment, size =
    match parse (send (Service.Client.make_get_commitment ())) with
    | Some (Service.Commitment_r { commitment; size }) -> (commitment, size)
    | _ -> failwith "no commitment"
  in
  Printf.printf "ledger commitment %s at size %d\n" (Hash.short_hex commitment) size;

  (* 3. existence: fetch a proof bundle and verify it locally against the
     receipt's tx-hash (which the client already holds); the bundled
     commitment must be the trust root kept in step 2 *)
  let r3 = List.nth receipts 3 in
  (match parse (send (Service.Client.make_get_proof_bundle ~jsn:r3.Receipt.jsn)) with
  | Some (Service.Proof_bundle_r { proof; commitment = c; _ }) ->
      Printf.printf "existence of jsn %d verified locally: %b\n" r3.Receipt.jsn
        (Hash.equal c commitment
        && Fam.verify ~commitment ~leaf:r3.Receipt.tx_hash proof)
  | _ -> failwith "no proof");

  (* 4. lineage: the whole clue, one batch proof, checked against the
     CM-Tree root shipped in the same bundle *)
  (match parse (send (Service.Client.make_get_clue_bundle ~clue:"contract-7" ())) with
  | Some (Service.Clue_bundle_r { proof = Some proof; clue_root }) ->
      (* the client recomputes entry digests from its receipts *)
      let known =
        List.mapi (fun v (r : Receipt.t) -> (v, r.Receipt.tx_hash)) receipts
      in
      Printf.printf "clue lineage verified locally: %b\n"
        (Cm_tree.verify_clue ~root:clue_root ~known proof)
  | _ -> failwith "no clue proof");

  (* 5. come back later: check the ledger only appended since our visit *)
  let old_size = size in
  let old_peaks = Fam.anchor_peaks (Ledger.make_anchor ledger) in
  Clock.advance_ms clock 500.;
  for i = 0 to 9 do
    let request =
      Service.Client.make_append client ~client_ts:(Clock.now clock)
        (Bytes.of_string (Printf.sprintf "later record %d" i))
    in
    ignore (send request)
  done;
  (match parse (send (Service.Client.make_get_extension ~old_size)) with
  | Some (Service.Extension_r proof) ->
      Printf.printf "append-only growth since size %d verified: %b\n" old_size
        (Ledger.verify_extension ledger ~old_size ~old_peaks proof)
  | _ -> failwith "no extension proof");
  print_endline "remote client demo complete"
