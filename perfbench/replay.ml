(* Single-threaded replay of a traced run's request frames against an
   identically seeded ledger, timing the calls each request decomposes
   into.

   The replay ledger is first brought, untimed, to the served ledger's
   state at the start of the traced window by applying the journals
   appended before it, fetched from the server.  The traced window's
   appends then replay in jsn order, so the replay ledger walks through
   the same states as the served one; its commitment must equal the
   server's at the end of the window.  The parts of an append (π_c check, journal hash, store
   append, fam/CM-Tree/query-index update, snapshot freezes, receipt
   sign) are re-run on shadow structures seeded to the same state, and
   what [Ledger.append_signed] spends beyond them is reported as a
   residual (block seal, view publish, slot install, world state).
   A layer whose calls the workload does not make has no value. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_merkle
open Ledger_cmtree
open Ledger_query
module RV = Ledger.Read_view

type t = {
  stats : (string * Spans.stat) list;  (** per replayed call, from its spans *)
  sizes : (string * float) list;  (** mean encoded proof sizes, bytes *)
  faithful : bool;  (** every replayed append matched the live run *)
  replayed : int;  (** appends replayed *)
}

let mean t name =
  match List.assoc_opt name t.stats with
  | Some st -> st.Spans.mean_us
  | None -> (
      match List.assoc_opt name t.sizes with Some v -> v | None -> nan)

let real = Crypto_profile.Real

(* Replaying is as slow as serving; the first [max_appends] appends (in
   jsn order) bound the replay's time. *)
let max_appends = 3000

(* Spans of the replay go to their own buffer: one request id per
   replayed frame, the decode/append/encode spans under a
   "service.handle_replay_us" span, the re-run parts beside it. *)
let run ~inputs ~prefix ~appends ~reads ~live_commitment ~live_size ~spans_out =
  let b = Spans.local () in
  let first = Spans.fresh b in
  let req = ref 0 and parent = ref (-1) in
  let time name f = Spans.time b ~parent:!parent ~req:!req name f in
  let l, _ = Inputs.build (Inputs.load inputs) in
  let faithful = ref true and replayed = ref 0 in
  List.iter
    (fun (tx, (j : Journal.t)) ->
      match j.Journal.client_sig with
      | None -> faithful := false
      | Some signature -> (
          match
            Ledger.append_signed l ~member_id:j.Journal.client_id ~payload:j.Journal.payload
              ~clues:j.Journal.clues ~client_ts:j.Journal.client_ts ~nonce:j.Journal.nonce
              ~signature
          with
          | Ok r when r.Receipt.jsn = j.Journal.jsn && Hash.equal r.Receipt.tx_hash tx -> ()
          | _ -> faithful := false))
    (prefix (Ledger.size l));
  let lsp_priv, lsp_pub = Ecdsa.generate ~seed:("lsp:" ^ Inputs.ledger_name) in
  (* shadow structures at the seeded state *)
  let stream = Stream_store.stream (Stream_store.create ()) "journals" in
  let fam = Fam.create ~delta:Inputs.config.Ledger.fam_delta in
  let cm = Cm_tree.create () in
  let q = Query_index.create () in
  Ledger.iter_journals l (fun j ->
      ignore (Stream_store.append stream j.Journal.payload);
      let tx = Ledger.tx_hash_of l j.Journal.jsn in
      ignore (Fam.append fam tx);
      List.iter
        (fun clue ->
          ignore (Cm_tree.insert cm ~clue tx);
          Query_index.add q ~clue ~jsn:j.Journal.jsn ~tx)
        j.Journal.clues);
  (* --- appends ------------------------------------------------------ *)
  let frames =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) appends
    |> List.filteri (fun i _ -> i < max_appends)
  in
  let rec go = function
    | [] -> ()
    | (jsn, tx, frame) :: rest when jsn = Ledger.size l -> (
        req := jsn;
        let root = Spans.reserve b and t0 = Unix.gettimeofday () in
        parent := root;
        let finish () =
          Spans.finish b ~id:root ~parent:(-1) ~req:jsn ~name:"service.handle_replay_us" ~t0;
          parent := -1
        in
        match time "service.decode_us" (fun () -> Service.decode_request frame) with
        | Some
            (Service.Append
               { member_id; payload; clues; client_ts; nonce; signature }) -> (
            match
              time "ledger.append_signed_us" (fun () ->
                  Ledger.append_signed l ~member_id ~payload ~clues ~client_ts
                    ~nonce ~signature)
            with
            | Error _ -> finish (); faithful := false
            | Ok r ->
                incr replayed;
                ignore
                  (time "service.encode_us" (fun () ->
                       Service.encode_response (Service.Receipt_r r)));
                finish ();
                if not (Hash.equal tx r.Receipt.tx_hash) then faithful := false;
                let member = Option.get (Roles.find (Ledger.registry l) member_id) in
                ignore
                  (time "crypto.pi_c_check_us" (fun () ->
                       Crypto_profile.check real ~pub:member.Roles.pub
                         (Journal.request_digest ~ledger_uri:(Ledger.uri l)
                            ~kind_tag:"normal" ~payload ~clues ~client_ts ~nonce)
                         signature));
                let digest =
                  Receipt.signing_digest ~jsn:r.Receipt.jsn
                    ~request_hash:r.Receipt.request_hash ~tx_hash:r.Receipt.tx_hash
                    ~block_hash:r.Receipt.block_hash ~timestamp:r.Receipt.timestamp
                in
                ignore
                  (time "crypto.receipt_sign_us" (fun () ->
                       Crypto_profile.sign_pure real ~priv:lsp_priv ~pub:lsp_pub digest));
                let j = Ledger.journal l r.Receipt.jsn in
                let tx = time "journal.tx_hash_us" (fun () -> Journal.tx_hash j) in
                ignore (time "journal_codec.encode_us" (fun () -> Journal_codec.encode j));
                ignore (time "stream_store.append_us" (fun () -> Stream_store.append stream payload));
                ignore (time "fam.append_us" (fun () -> Fam.append fam tx));
                time "cm_tree.insert_us" (fun () ->
                    List.iter (fun clue -> ignore (Cm_tree.insert cm ~clue tx)) clues);
                time "query_index.add_us" (fun () ->
                    List.iter (fun clue -> Query_index.add q ~clue ~jsn:r.Receipt.jsn ~tx) clues);
                ignore (time "fam.freeze_us" (fun () -> Fam.freeze fam));
                ignore (time "cm_tree.freeze_us" (fun () -> Cm_tree.freeze cm));
                ignore (time "query_index.freeze_us" (fun () -> Query_index.freeze q));
                go rest)
        | _ -> finish (); faithful := false)
    | _ -> ()
  in
  go frames;
  (* each replayed append already matched its live leaf; a full replay
     must also land on the server's final commitment *)
  if List.length appends <= max_appends
     && (Ledger.size l <> live_size
        || not (Hash.equal (Ledger.commitment l) live_commitment))
  then faithful := false;
  (* --- reads -------------------------------------------------------- *)
  let decoded =
    List.filter_map
      (fun f -> Option.map (fun r -> (f, r)) (Service.decode_request f))
      reads
  in
  let kind = function
    | Service.Get_proof_bundle { jsn } when jsn >= Ledger.size l -> 3 (* past a capped replay *)
    | Service.Get_proof_bundle _ -> 0
    | Service.Get_clue_bundle _ -> 1
    | Service.Query_page _ -> 2
    | _ -> 3
  in
  let take n xs = List.filteri (fun i _ -> i < n) xs in
  let of_kind k = take 200 (List.filter (fun (_, r) -> kind r = k) decoded) in
  let v = Ledger.read_view l in
  let proof_bytes = Loadgen.series () and clue_bytes = Loadgen.series () and page_bytes = Loadgen.series () in
  let read_one (frame, _) =
    incr req;
    match time "service.decode_us" (fun () -> Service.decode_request frame) with
    | Some (Service.Get_proof_bundle { jsn }) ->
        let p = time "fam.prove_us" (fun () -> RV.get_proof v jsn) in
        Loadgen.push proof_bytes (float_of_int (Bytes.length (Proof_codec.encode_fam_proof p)));
        let commitment = RV.commitment v in
        ignore
          (time "service.encode_us" (fun () ->
               Service.encode_response
                 (Service.Proof_bundle_r { proof = p; commitment; size = RV.size v })))
    | Some (Service.Get_clue_bundle { clue; first; last }) -> (
        let p = time "cm_tree.prove_clue_us" (fun () -> RV.prove_clue v ~clue ?first ?last ()) in
        ignore
          (time "service.encode_us" (fun () ->
               Service.encode_response
                 (Service.Clue_bundle_r { proof = p; clue_root = RV.clue_root v })));
        match p with
        | None -> faithful := false
        | Some p ->
            let w = Wire.writer () in
            Cm_tree.w_clue_proof w p;
            Loadgen.push clue_bytes (float_of_int (Bytes.length (Wire.contents w))))
    | Some (Service.Query_page { spec; window; after; page_size; pin = _ }) -> (
        let p =
          time "range_query.page_us" (fun () ->
              Range_query.page (RV.query_index v) ~spec ?window ?after ~page_size ())
        in
        Loadgen.push page_bytes (float_of_int (Range_query.page_bytes p));
        ignore
          (time "service.encode_us" (fun () ->
               Service.encode_response
                 (Service.Query_page_r
                    { page = p; query_root = RV.query_root v;
                      commitment = RV.commitment v; size = RV.size v;
                      epoch = RV.epoch v }))))
    | _ -> ()
  in
  List.iter read_one (of_kind 0 @ of_kind 1 @ of_kind 2);
  let spans = List.filter (fun s -> s.Spans.id >= first) (Spans.spans_of b) in
  Spans.write spans_out spans;
  let m s = if s.Loadgen.n = 0 then nan else Spans.mean (Loadgen.values s) in
  let t =
    { stats = Spans.summarise spans;
      sizes =
        [ ("proof.fam_bytes", m proof_bytes); ("proof.clue_bytes", m clue_bytes);
          ("proof.page_bytes", m page_bytes) ];
      faithful = !faithful && !replayed = List.length frames;
      replayed = !replayed }
  in
  let parts =
    [ "crypto.pi_c_check_us"; "crypto.receipt_sign_us"; "journal.tx_hash_us";
      "stream_store.append_us"; "fam.append_us"; "cm_tree.insert_us";
      "query_index.add_us"; "fam.freeze_us"; "cm_tree.freeze_us";
      "query_index.freeze_us" ]
  in
  { t with
    sizes =
      ( "ledger.append_unattributed_us",
        mean t "ledger.append_signed_us"
        -. List.fold_left (fun a n -> a +. mean t n) 0. parts )
      :: t.sizes }
