(* The read path (DESIGN.md §17), locked down three ways:

   1. by golden transcript — every read request kind, in and out of
      range and malformed, is served at every mutation boundary (append,
      block seal, occult (sync and async), reorganize, storage
      compaction, purge) and on an empty ledger.  One SHA-256 over the
      length-prefixed encoded responses per boundary must equal a fixed
      digest captured from the former locked, live-state read dispatch,
      so serving every read from the published {!Ledger.Read_view} kept
      every response byte (receipt timestamps and error strings
      included).  [Service.handle] and [Service.handle_read] must also
      agree on every request;
   2. pinned pagination — a paged scan that pins its first page's epoch
      either completes against that snapshot or gets a typed [Stale_r]
      refusal, never a silently cross-snapshot page;
   3. concurrently — reader domains hammer the snapshot path while a
      writer appends, seals and reorganizes; every proof must verify
      against the commitment shipped in the {e same} response, and no
      scan may mix two epochs without a [Stale_r]. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_merkle
open Ledger_cmtree
module Range_query = Ledger_query.Range_query

let tc = Alcotest.test_case

(* Real crypto (deterministic ECDSA, no simulated signing cost) + free
   latency (reads charge no simulated I/O): no read advances any clock,
   so every response is a pure function of the ledger state. *)
let make_env ?(entries = 10) ~name () =
  let clock = Clock.create () in
  let config =
    { Ledger.default_config with name; block_size = 4; fam_delta = 3;
      latency = Latency_model.free; crypto = Crypto_profile.Real }
  in
  let ledger = Ledger.create ~config ~clock () in
  let alice, alice_key =
    Ledger.new_member ledger ~name:"alice" ~role:Roles.Regular_user
  in
  let dba, dba_key = Ledger.new_member ledger ~name:"dba" ~role:Roles.Dba in
  let regulator, regulator_key =
    Ledger.new_member ledger ~name:"reg" ~role:Roles.Regulator
  in
  for i = 0 to entries - 1 do
    Clock.advance_ms clock 10.;
    ignore
      (Ledger.append ledger ~member:alice ~priv:alice_key
         ~clues:[ "rv-" ^ string_of_int (i mod 3) ]
         (Bytes.of_string (Printf.sprintf "rv %d" i)))
  done;
  ( clock, ledger,
    (alice, alice_key), (dba, dba_key), (regulator, regulator_key) )

let range lo hi = List.init (hi - lo + 1) (fun i -> lo + i)

(* Every read request kind, in range, out of range, and malformed, then
   a deterministic sweep over jsn -3..20, clue 0..4 and page_size
   -1..6. *)
let read_battery ledger =
  let size = Ledger.size ledger in
  let epoch = Ledger.view_epoch ledger in
  let open Service.Client in
  [
    make_get_commitment ();
    make_get_payload ~jsn:0;
    make_get_payload ~jsn:2;
    make_get_payload ~jsn:(size + 3);
    make_get_receipt ~jsn:(size - 1);
    make_get_receipt ~jsn:1;
    make_get_receipt ~jsn:(size + 7);
    make_get_extension ~old_size:(max 1 (size / 2));
    make_get_extension ~old_size:(size + 1);
    make_get_journal ~jsn:0;
    make_get_journal ~jsn:2;
    make_get_journal ~jsn:size;
    make_get_block ~height:0;
    make_get_block ~height:999;
    make_get_members ();
    make_get_checkpoint ();
    make_get_proof_bundle ~jsn:0;
    make_get_proof_bundle ~jsn:(size - 1);
    make_get_proof_bundle ~jsn:(size + 2);
    make_get_clue_bundle ~clue:"rv-0" ();
    make_get_clue_bundle ~clue:"rv-1" ~first:0 ~last:0 ();
    make_get_clue_bundle ~clue:"nope" ();
    make_query_page ~spec:(Range_query.Prefix "rv-") ~page_size:2 ();
    make_query_page ~spec:(Range_query.Prefix "rv-") ~pin:epoch ~page_size:2 ();
    make_query_page ~spec:(Range_query.Prefix "rv-") ~pin:(epoch + 1)
      ~page_size:2 ();
    make_query_page
      ~spec:(Range_query.Between { lo = "rv-0"; hi = None })
      ~page_size:8 ();
    make_query_page ~spec:(Range_query.Prefix "rv-") ~page_size:0 ();
    Bytes.of_string "not a request";
    Bytes.empty;
  ]
  @ List.concat_map
      (fun jsn ->
        [
          make_get_proof_bundle ~jsn;
          make_get_payload ~jsn;
          make_get_receipt ~jsn;
          make_get_journal ~jsn;
          make_get_block ~height:jsn;
          make_get_extension ~old_size:jsn;
        ])
      (range (-3) 20)
  @ List.concat_map
      (fun c ->
        let clue = "rv-" ^ string_of_int c in
        make_get_clue_bundle ~clue ()
        :: List.map
             (fun page_size ->
               make_query_page ~spec:(Range_query.Prefix clue) ~page_size ())
             (range (-1) 6))
      (range 0 4)

(* SHA-256 over the responses, each prefixed with its 4-byte big-endian
   length. *)
let transcript_digest responses =
  let ctx = Sha256.init () in
  List.iter
    (fun resp ->
      let len = Bytes.create 4 in
      Bytes.set_int32_be len 0 (Int32.of_int (Bytes.length resp));
      Sha256.update ctx len;
      Sha256.update ctx resp)
    responses;
  Hash.to_hex (Hash.of_bytes (Sha256.finalize ctx))

let check_golden ~ctx ~golden digest =
  if digest <> golden then
    Alcotest.failf "%s: transcript digest %s, golden %s" ctx digest golden

(* Digests of {!read_battery} at each boundary, served by the former
   locked, live-state read dispatch of [Service.handle]. *)
let golden_after_appends =
  "d1dfe3cd02bd680d1f56d320e192af4a467a24a7c836bd6e62e8e9b1af72502b"
let golden_after_seal =
  "ed5d47048e4226e9aa3d58f95b5b17081de7c879e5c35f03970e89761322d648"
let golden_after_occult_sync =
  "b74bf9054bdc95d600dac69c088fce4e5ac5cbfd4450cff54b549b127ed4345a"
let golden_after_occult_async =
  "6f8cca4b946aa58cf14c23a6b26e95743e0def2faa410ec375a319170fe394dc"
let golden_after_reorganize =
  "b55600bd5aa286b3948ba6a85ca88d2ed03693645a96aad0fdc429cd45adf443"
let golden_after_compact =
  "24b94c5bcd60f3c809732ecddbcbdea854fcda5e88a42c5823334f16c0c812d3"
let golden_after_purge =
  "030ec89d20e3a5f2915311b85fd0c684af1afff41e5ab3bd10e0200edfd38704"
let golden_after_post_purge_append =
  "3d80449d9047e189f192fb4687e18132957e0e883f6b734a67fe9c512e23bde3"
let golden_empty =
  "5034d3a90b9bc895d91fe49f256b04317b73967cfa15af92bdfe16a3c369aab0"

let check_battery ~ctx ~golden ledger =
  let responses =
    List.mapi
      (fun i req ->
        let resp = Service.handle ledger req in
        (match Service.handle_read ledger req with
        | None ->
            Alcotest.failf "%s: request %d misclassified as a mutation" ctx i
        | Some snap ->
            if not (Bytes.equal resp snap) then
              Alcotest.failf "%s: request %d: handle ≠ handle_read" ctx i);
        resp)
      (read_battery ledger)
  in
  check_golden ~ctx ~golden (transcript_digest responses)

let test_differential_over_mutations () =
  let clock, ledger, (alice, alice_key), (dba, dba_key), (reg, reg_key) =
    make_env ~entries:10 ~name:"rv-diff" ()
  in
  check_battery ~ctx:"after appends" ~golden:golden_after_appends ledger;
  Ledger.seal_block ledger;
  check_battery ~ctx:"after seal_block" ~golden:golden_after_seal ledger;
  (match
     Ledger.occult ledger ~target_jsn:2 ~mode:Ledger.Sync
       ~signers:[ (dba, dba_key); (reg, reg_key) ] ~reason:"rv diff"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check_battery ~ctx:"after occult(Sync)" ~golden:golden_after_occult_sync
    ledger;
  (match
     Ledger.occult ledger ~target_jsn:4 ~mode:Ledger.Async
       ~signers:[ (dba, dba_key); (reg, reg_key) ] ~reason:"rv diff"
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  (* async occult marked but not yet erased: the snapshot must reflect
     the live erasure state, not race ahead of reorganize *)
  check_battery ~ctx:"after occult(Async)" ~golden:golden_after_occult_async
    ledger;
  ignore (Ledger.reorganize ledger);
  check_battery ~ctx:"after reorganize" ~golden:golden_after_reorganize ledger;
  ignore (Ledger.compact_storage ledger);
  check_battery ~ctx:"after compact_storage" ~golden:golden_after_compact
    ledger;
  let request =
    { Ledger.upto_jsn = 3; survivors = [ 1 ]; erase_fam_nodes = false }
  in
  (match
     Ledger.purge ledger ~request
       ~signers:[ (dba, dba_key); (alice, alice_key) ]
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  check_battery ~ctx:"after purge" ~golden:golden_after_purge ledger;
  Clock.advance_ms clock 10.;
  ignore
    (Ledger.append ledger ~member:alice ~priv:alice_key ~clues:[ "rv-post" ]
       (Bytes.of_string "post purge"));
  check_battery ~ctx:"after post-purge append"
    ~golden:golden_after_post_purge_append ledger

let test_differential_empty_ledger () =
  let _, ledger, _, _, _ = make_env ~entries:0 ~name:"rv-empty" () in
  check_battery ~ctx:"empty ledger" ~golden:golden_empty ledger

let test_mutations_refused_on_read_path () =
  let clock, ledger, (alice, alice_key), _, _ =
    make_env ~entries:3 ~name:"rv-mut" ()
  in
  let client =
    Service.Client.create ~ledger_uri:(Ledger.uri ledger) ~member:alice
      ~priv:alice_key ()
  in
  Clock.advance_ms clock 10.;
  let append_req =
    Service.Client.make_append client ~client_ts:(Clock.now clock)
      (Bytes.of_string "must not commit")
  in
  let size0 = Ledger.size ledger in
  (match Service.handle_read ledger append_req with
  | None -> ()
  | Some _ -> Alcotest.fail "append served on the read path");
  Alcotest.(check int) "read path committed nothing" size0
    (Ledger.size ledger);
  let batch_req =
    Service.Client.make_append_batch client
      [ (Bytes.of_string "b0", [], Clock.now clock) ]
  in
  (match Service.handle_read ledger batch_req with
  | None -> ()
  | Some _ -> Alcotest.fail "append_batch served on the read path");
  (* the refused frames still commit fine through the locked path *)
  (match Service.Client.parse (Service.handle ledger append_req) with
  | Some (Service.Receipt_r _) -> ()
  | _ -> Alcotest.fail "locked path rejected the append");
  match Service.Client.parse (Service.handle ledger batch_req) with
  | Some (Service.Receipts_r _) -> ()
  | _ -> Alcotest.fail "locked path rejected the batch"

(* --- epoch-pinned pagination ---------------------------------------- *)

let parse_page ledger req =
  match Option.map Service.Client.parse (Service.handle_read ledger req) with
  | Some (Some r) -> r
  | _ -> Alcotest.fail "read path returned nothing for a query page"

let test_query_pin () =
  let clock, ledger, (alice, alice_key), _, _ =
    make_env ~entries:9 ~name:"rv-pin" ()
  in
  let spec = Range_query.Prefix "rv-" in
  let epoch, cursor =
    match
      parse_page ledger
        (Service.Client.make_query_page ~spec ~page_size:1 ())
    with
    | Service.Query_page_r { epoch; page; _ } ->
        (epoch, page.Range_query.cursor)
    | _ -> Alcotest.fail "first page failed"
  in
  Alcotest.(check int) "epoch is the published view's"
    (Ledger.view_epoch ledger) epoch;
  let after = match cursor with Some c -> c | None -> Alcotest.fail "one-page scan" in
  (* same-epoch pin is honoured and echoes the same epoch *)
  (match
     parse_page ledger
       (Service.Client.make_query_page ~spec ~after ~pin:epoch ~page_size:1 ())
   with
  | Service.Query_page_r { epoch = e2; _ } ->
      Alcotest.(check int) "pinned page on the same epoch" epoch e2
  | _ -> Alcotest.fail "pinned page refused on an unchanged view");
  (* a write republishes the view: the pin must now be refused, typed *)
  Clock.advance_ms clock 10.;
  ignore
    (Ledger.append ledger ~member:alice ~priv:alice_key ~clues:[ "rv-w" ]
       (Bytes.of_string "invalidates the pin"));
  let stale_req =
    Service.Client.make_query_page ~spec ~after ~pin:epoch ~page_size:1 ()
  in
  (match parse_page ledger stale_req with
  | Service.Stale_r { pinned; current } ->
      Alcotest.(check int) "refusal echoes the pin" epoch pinned;
      Alcotest.(check int) "refusal reports the current epoch"
        (Ledger.view_epoch ledger) current
  | Service.Query_page_r _ -> Alcotest.fail "stale pin served a page"
  | _ -> Alcotest.fail "unexpected response to a stale pin");
  (* the locked path refuses byte-identically *)
  Alcotest.(check bool) "locked path agrees on the refusal" true
    (Bytes.equal
       (Service.handle ledger stale_req)
       (Option.get (Service.handle_read ledger stale_req)));
  (* re-pinning on the current epoch resumes the scan *)
  match
    parse_page ledger
      (Service.Client.make_query_page ~spec ~after
         ~pin:(Ledger.view_epoch ledger) ~page_size:1 ())
  with
  | Service.Query_page_r _ -> ()
  | _ -> Alcotest.fail "fresh pin refused"

(* --- concurrent readers vs. a mutating writer ------------------------ *)

let test_concurrent_readers () =
  let clock, ledger, (alice, alice_key), (dba, dba_key), (reg, reg_key) =
    make_env ~entries:12 ~name:"rv-conc" ()
  in
  let seed_n = Ledger.size ledger in
  let tx = Array.init seed_n (Ledger.tx_hash_of ledger) in
  (* whole-clue lineage fixtures: the writer appends under fresh clues
     only, so the seed clues' version lists never change *)
  let known_of clue =
    List.mapi (fun v jsn -> (v, tx.(jsn))) (Ledger.clue_jsns ledger clue)
  in
  let lineages =
    List.map (fun c -> (c, known_of c)) [ "rv-0"; "rv-1"; "rv-2" ]
  in
  let spec = Range_query.Prefix "rv-" in
  let stop = Atomic.make false in
  let failure = Atomic.make None in
  let record msg =
    ignore (Atomic.compare_and_set failure None (Some msg))
  in
  let check_bundle jsn =
    match
      Option.map Service.Client.parse
        (Service.handle_read ledger
           (Service.Client.make_get_proof_bundle ~jsn))
    with
    | Some (Some (Service.Proof_bundle_r { proof; commitment; size })) ->
        if size < seed_n then record "bundle size went backwards";
        if not (Fam.verify ~commitment ~leaf:tx.(jsn) proof) then
          record "fam proof failed against its own bundled commitment"
    | Some _ -> record "proof bundle: unexpected response"
    | None -> record "read request misrouted to the mutation path"
  in
  let check_lineage (clue, known) =
    match
      Option.map Service.Client.parse
        (Service.handle_read ledger
           (Service.Client.make_get_clue_bundle ~clue ()))
    with
    | Some (Some (Service.Clue_bundle_r { proof = Some p; clue_root })) ->
        if not (Cm_tree.verify_clue ~root:clue_root ~known p) then
          record "clue proof failed against its own bundled root"
    | Some (Some (Service.Clue_bundle_r { proof = None; _ })) ->
        record "seed clue disappeared mid-run"
    | Some _ -> record "clue bundle: unexpected response"
    | None -> record "read request misrouted to the mutation path"
  in
  (* a pinned scan must complete on one epoch or be refused with Stale_r;
     a page from a different epoch without the refusal is equivocation *)
  let check_scan () =
    match
      Option.map Service.Client.parse
        (Service.handle_read ledger
           (Service.Client.make_query_page ~spec ~page_size:2 ()))
    with
    | Some (Some (Service.Query_page_r { page; query_root; epoch; _ })) -> (
        let rec follow acc cursor =
          match cursor with
          | None -> `Done (List.rev acc)
          | Some after -> (
              match
                Option.map Service.Client.parse
                  (Service.handle_read ledger
                     (Service.Client.make_query_page ~spec ~after ~pin:epoch
                        ~page_size:2 ()))
              with
              | Some
                  (Some
                     (Service.Query_page_r
                        { page; epoch = e; query_root = r; _ })) ->
                  if e <> epoch || not (Hash.equal r query_root) then `Mixed
                  else follow (page :: acc) page.Range_query.cursor
              | Some (Some (Service.Stale_r _)) -> `Stale
              | _ -> `Bad)
        in
        match follow [ page ] page.Range_query.cursor with
        | `Done pages -> (
            match
              Range_query.verify_pages ~root:query_root ~spec ~page_size:2
                pages
            with
            | Ok _ -> ()
            | Error e -> record ("pinned scan failed verification: " ^ e))
        | `Stale -> () (* typed retryable refusal: the allowed outcome *)
        | `Mixed -> record "scan mixed two epochs without a Stale_r"
        | `Bad -> record "scan: unexpected response")
    | Some (Some (Service.Error_r e)) -> record ("first page refused: " ^ e)
    | _ -> record "first page: unexpected response"
  in
  let reader rid =
    Domain.spawn (fun () ->
        let n = ref 0 in
        while not (Atomic.get stop) do
          incr n;
          check_bundle ((rid + !n) mod seed_n);
          check_lineage (List.nth lineages (!n mod List.length lineages));
          check_scan ()
        done;
        !n)
  in
  let readers = List.init 3 reader in
  (* writer: appends under fresh clues, seals blocks, occults + reorganizes *)
  for i = 0 to 11 do
    Clock.advance_ms clock 10.;
    ignore
      (Ledger.append ledger ~member:alice ~priv:alice_key
         ~clues:[ "w-" ^ string_of_int i ]
         (Bytes.of_string (Printf.sprintf "writer %d" i)));
    if i mod 4 = 3 then Ledger.seal_block ledger;
    if i = 5 then begin
      (match
         Ledger.occult ledger ~target_jsn:(seed_n + 1) ~mode:Ledger.Async
           ~signers:[ (dba, dba_key); (reg, reg_key) ] ~reason:"conc"
       with
      | Ok _ -> ()
      | Error e -> Alcotest.fail e);
      ignore (Ledger.reorganize ledger)
    end
  done;
  Atomic.set stop true;
  let iterations = List.map Domain.join readers in
  (match Atomic.get failure with
  | Some msg -> Alcotest.fail msg
  | None -> ());
  List.iteri
    (fun i n ->
      Alcotest.(check bool)
        (Printf.sprintf "reader %d made progress" i)
        true (n > 0))
    iterations

(* --- sharded fleet: golden transcript --------------------------------- *)

(* Digest of the sharded battery, served by the former locked,
   live-state fleet dispatch of [Sharded_service.handle]. *)
let golden_sharded =
  "5b623d7153a554e07aba116fe1c9b91fc64ce781405d62effed261b618ed0bc5"

let test_sharded_golden () =
  let module SL = Ledger_shard.Sharded_ledger in
  let module SS = Ledger_shard.Sharded_service in
  let clock = Clock.create () in
  let config =
    {
      SL.base =
        { Ledger.default_config with name = "rv-fleet"; block_size = 4;
          fam_delta = 3; latency = Latency_model.free;
          crypto = Crypto_profile.Real };
      shards = 2;
    }
  in
  let fleet = SL.create ~config ~clock () in
  let user, key = SL.new_member fleet ~name:"fu" ~role:Roles.Regular_user in
  for i = 0 to 11 do
    Clock.advance_ms clock 10.;
    ignore
      (SL.append fleet ~member:user ~priv:key
         ~clues:[ "f" ^ string_of_int (i mod 4) ]
         (Bytes.of_string (Printf.sprintf "f %d" i)))
  done;
  (match SL.seal_epoch fleet with Ok _ -> () | Error e -> Alcotest.fail e);
  let battery =
    [
      SS.Client.make_get_topology ();
      SS.Client.make_get_super_root ();
      SS.Client.make_get_super_root ~epoch:0 ();
      SS.Client.make_get_super_root ~epoch:99 ();
      SS.Client.make_get_sharded_proof ~shard:0 ~jsn:0;
      SS.Client.make_get_sharded_proof ~shard:1 ~jsn:0;
      SS.Client.make_get_sharded_proof ~shard:5 ~jsn:0;
      SS.Client.make_get_sharded_proof ~shard:0 ~jsn:999;
      SS.Client.make_get_announcement ();
      SS.Client.make_get_announcement ~epoch:0 ();
      SS.Client.make_get_announcement ~epoch:42 ();
      SS.Client.make_query_scatter ~spec:(Range_query.Prefix "f")
        ~page_size:4 ();
      SS.Client.make_query_scatter ~spec:(Range_query.Prefix "f")
        ~page_size:0 ();
      SS.Client.make_to_shard ~shard:0
        (Service.Client.make_get_commitment ());
      SS.Client.make_to_shard ~shard:1
        (Service.Client.make_get_proof_bundle ~jsn:0);
      SS.Client.make_to_shard ~shard:1
        (Service.Client.make_get_checkpoint ());
      SS.Client.make_to_shard ~shard:9
        (Service.Client.make_get_commitment ());
      SS.Client.make_to_shard ~shard:0 (Bytes.of_string "inner garbage");
      Bytes.of_string "sharded garbage";
    ]
  in
  let responses =
    List.mapi
      (fun i req ->
        let resp = SS.handle fleet req in
        (match SS.handle_read fleet req with
        | None -> Alcotest.failf "sharded request %d misclassified" i
        | Some snap ->
            if not (Bytes.equal resp snap) then
              Alcotest.failf "sharded request %d: handle ≠ handle_read" i);
        resp)
      battery
  in
  check_golden ~ctx:"sharded battery" ~golden:golden_sharded
    (transcript_digest responses);
  (* fleet mutations stay on the locked path *)
  (match SS.handle_read fleet (SS.Client.make_seal_epoch ()) with
  | None -> ()
  | Some _ -> Alcotest.fail "seal_epoch served on the read path");
  let sc = SS.Client.create ~config ~member:user ~priv:key () in
  Clock.advance_ms clock 10.;
  let _, routed =
    SS.Client.make_append sc ~client_ts:(Clock.now clock)
      (Bytes.of_string "routed")
  in
  (match SS.handle_read fleet routed with
  | None -> ()
  | Some _ -> Alcotest.fail "routed append served on the read path");
  (* a wrapped inner mutation is a mutation too *)
  let inner_client =
    Service.Client.create
      ~ledger_uri:(Ledger.uri (SL.shard fleet 0))
      ~member:user ~priv:key ()
  in
  Clock.advance_ms clock 10.;
  let wrapped =
    SS.Client.make_to_shard ~shard:0
      (Service.Client.make_append inner_client ~client_ts:(Clock.now clock)
         (Bytes.of_string "wrapped"))
  in
  match SS.handle_read fleet wrapped with
  | None -> ()
  | Some _ -> Alcotest.fail "wrapped inner append served on the read path"

(* --- what a publication shares with the writer ------------------------ *)

module RV = Ledger.Read_view

let sim_ledger ?(block_size = 4) name =
  let config =
    { Ledger.default_config with name; block_size; fam_delta = 3;
      latency = Latency_model.free; crypto = Crypto_profile.default_simulated }
  in
  Ledger.create ~config ~clock:(Clock.create ()) ()

let names v = List.map (fun (n, _, _) -> n) (RV.members_wire v)

(* [Get_members] serves the registry's shared wire list; it must equal
   what publishing used to build every time: sort the members by name,
   then encode every key. *)
let test_members_wire () =
  let ledger = sim_ledger "rv-members" in
  List.iter
    (fun (name, role) -> ignore (Ledger.new_member ledger ~name ~role))
    Roles.
      [ ("zed", Regular_user); ("mia", Dba); ("amy", Regulator);
        ("kai", Regular_user); ("bob", Regular_user) ];
  let reference =
    Roles.members (Ledger.registry ledger)
    |> List.sort (fun (a : Roles.member) (b : Roles.member) ->
           String.compare a.Roles.name b.Roles.name)
    |> List.map (fun (m : Roles.member) ->
           ( m.Roles.name,
             Roles.role_to_string m.Roles.role,
             Ecdsa.public_key_to_bytes m.Roles.pub ))
  in
  Alcotest.(check (list string)) "name order"
    [ "amy"; "bob"; "kai"; "mia"; "zed" ]
    (names (Ledger.read_view ledger));
  Alcotest.(check bool) "Get_members bytes" true
    (Bytes.equal
       (Service.handle ledger (Service.Client.make_get_members ()))
       (Service.encode_response (Service.Members_r reference)))

(* A view is a snapshot: a later registration, seal or index growth
   leaves it as it was published. *)
let test_view_isolation () =
  let ledger = sim_ledger "rv-isolation" in
  let alice, key = Ledger.new_member ledger ~name:"alice" ~role:Roles.Regular_user in
  let append () =
    ignore (Ledger.append ledger ~member:alice ~priv:key (Bytes.of_string "x"))
  in
  for _ = 1 to 6 do append () done;
  let before = Ledger.read_view ledger in
  ignore (Ledger.new_member ledger ~name:"bob" ~role:Roles.Regular_user);
  Alcotest.(check (list string)) "old view: no bob" [ "alice" ] (names before);
  Alcotest.(check (list string)) "new view: bob" [ "alice"; "bob" ]
    (names (Ledger.read_view ledger));
  (* jsn 5 sits in the open second block *)
  Ledger.seal_block ledger;
  Alcotest.(check int) "old view: one block" 1 (RV.block_count before);
  Alcotest.(check bool) "old view: jsn 5 unsealed" true
    (Hash.equal Hash.zero (RV.receipt before 5).Receipt.block_hash);
  Alcotest.(check bool) "new view: jsn 5 sealed" true
    (Hash.equal
       (Block.hash (Ledger.block ledger 1))
       (RV.receipt (Ledger.read_view ledger) 5).Receipt.block_hash);
  (* grow the block index well past its first capacity *)
  let hashes v = List.map Block.hash (RV.blocks v) in
  let sealed = hashes before in
  for _ = 1 to 100 do append () done;
  Alcotest.(check int) "grown" 27 (Ledger.block_count ledger);
  Alcotest.(check bool) "old view keeps its blocks" true
    (List.equal Hash.equal sealed (hashes before));
  Alcotest.(check int) "old view: one block still" 1 (RV.block_count before)

type block_op = Append | Batch of int * bool | Seal

let print_block_op = function
  | Append -> "A"
  | Batch (n, seal) -> Printf.sprintf "B%d%s" n (if seal then "s" else "")
  | Seal -> "S"

(* The receipt's block is found through the block index; it must be the
   block a linear search over all sealed blocks finds. *)
let prop_receipt_block =
  let gen =
    QCheck.Gen.(
      pair (int_range 1 6)
        (list_size (int_range 1 30)
           (frequency
              [ (5, return Append);
                (3, map2 (fun n s -> Batch (n, s)) (int_range 1 9) bool);
                (1, return Seal) ])))
  in
  let print (bs, ops) =
    Printf.sprintf "block_size=%d [%s]" bs
      (String.concat " " (List.map print_block_op ops))
  in
  QCheck.Test.make ~name:"receipt block_hash == linear block search" ~count:100
    (QCheck.make ~print gen) (fun (block_size, ops) ->
      let ledger = sim_ledger ~block_size "rv-blocks" in
      let alice, key =
        Ledger.new_member ledger ~name:"alice" ~role:Roles.Regular_user
      in
      let payload = Bytes.of_string "p" in
      List.iter
        (function
          | Append -> ignore (Ledger.append ledger ~member:alice ~priv:key payload)
          | Batch (n, seal) ->
              ignore
                (Ledger.append_batch ~pool:Ledger_par.Domain_pool.sequential
                   ledger ~member:alice ~priv:key ~seal
                   (List.init n (fun _ -> (payload, []))))
          | Seal -> Ledger.seal_block ledger)
        ops;
      let blocks = List.rev (Ledger.blocks ledger) in
      let reference jsn =
        match
          List.find_opt
            (fun (b : Block.t) ->
              jsn >= b.Block.start_jsn && jsn < b.Block.start_jsn + b.Block.count)
            blocks
        with
        | Some b -> Block.hash b
        | None -> Hash.zero
      in
      let v = Ledger.read_view ledger in
      List.for_all
        (fun jsn ->
          Hash.equal (reference jsn) (Ledger.get_receipt ledger jsn).Receipt.block_hash
          && Hash.equal (reference jsn) (RV.receipt v jsn).Receipt.block_hash)
        (List.init (Ledger.size ledger) Fun.id))

let suite =
  [
    tc "differential: every mutation boundary" `Slow
      test_differential_over_mutations;
    tc "differential: empty ledger" `Quick test_differential_empty_ledger;
    tc "mutations refused on the read path" `Quick
      test_mutations_refused_on_read_path;
    tc "query pagination: epoch pin and Stale_r" `Quick test_query_pin;
    tc "concurrent readers vs mutating writer" `Slow test_concurrent_readers;
    tc "sharded: golden transcript" `Slow test_sharded_golden;
    tc "members: shared wire list == sort-and-encode" `Quick test_members_wire;
    tc "a view does not see later registrations or seals" `Quick
      test_view_isolation;
    QCheck_alcotest.to_alcotest prop_receipt_block;
  ]
