(* Bechamel microbenchmarks: one Test.make per table/figure family,
   measuring the hot primitive under each experiment. *)

open Bechamel
open Toolkit
open Ledger_crypto
open Ledger_merkle
open Ledger_cmtree
open Ledger_baselines
open Ledger_storage

let leaf i = Hash.digest_string ("leaf" ^ string_of_int i)

let test_fig7_ecdsa_verify =
  (* Fig. 7 who factor: one real signature verification *)
  let priv, pub = Ecdsa.generate ~seed:"bench" in
  let digest = Hash.digest_string "bench message" in
  let signature = Ecdsa.sign priv digest in
  Test.make ~name:"fig7/ecdsa-verify"
    (Staged.stage (fun () -> assert (Ecdsa.verify pub digest signature)))

let test_fig7_ecdsa_verify_ref =
  (* same verification through the retained pre-kernel pipeline; the
     fast/ref ratio is the kernel's speedup and is gated in [run] *)
  let priv, pub = Ecdsa.generate ~seed:"bench" in
  let digest = Hash.digest_string "bench message" in
  let signature = Ecdsa.sign priv digest in
  Test.make ~name:"fig7/ecdsa-verify-ref"
    (Staged.stage (fun () -> assert (Ecdsa.Ref.verify pub digest signature)))

let test_fig8_fam_append =
  let fam = Fam.create ~delta:15 in
  let i = ref 0 in
  Test.make ~name:"fig8a/fam15-append"
    (Staged.stage (fun () ->
         incr i;
         ignore (Fam.append fam (leaf !i));
         ignore (Fam.commitment fam)))

let test_fig8_tim_append =
  let acc = Accumulator.create () in
  let i = ref 0 in
  Test.make ~name:"fig8a/tim-append"
    (Staged.stage (fun () ->
         incr i;
         ignore (Accumulator.append acc (leaf !i));
         ignore (Accumulator.root acc)))

let test_fig8_fam_getproof =
  let fam = Fam.create ~delta:8 in
  for i = 0 to (1 lsl 12) - 1 do
    ignore (Fam.append fam (leaf i))
  done;
  let anchor = Fam.make_anchor fam in
  let commitment = Fam.commitment fam in
  let i = ref 0 in
  Test.make ~name:"fig8b/fam-aoa-getproof"
    (Staged.stage (fun () ->
         i := (!i + 997) land ((1 lsl 12) - 1);
         let p = Fam.prove_anchored fam anchor !i in
         assert (
           Fam.verify_anchored anchor ~current_commitment:commitment
             ~leaf:(leaf !i) p)))

let test_fig9_cmtree_verify =
  let cm = Cm_tree.create () in
  for i = 0 to 49 do
    ignore (Cm_tree.insert cm ~clue:"target" (leaf i))
  done;
  for i = 50 to 1000 do
    ignore (Cm_tree.insert cm ~clue:(Printf.sprintf "bg%d" (i mod 97)) (leaf i))
  done;
  let known = List.init 50 (fun v -> (v, leaf v)) in
  Test.make ~name:"fig9/cmtree-verify-50"
    (Staged.stage (fun () ->
         let proof = Option.get (Cm_tree.prove_clue cm ~clue:"target" ()) in
         assert (Cm_tree.verify_clue ~root:(Cm_tree.root_hash cm) ~known proof)))

let test_table2_qldb_verify =
  let clock = Clock.create () in
  let qldb = Qldb_sim.create ~clock () in
  Qldb_sim.preload qldb (1 lsl 16);
  Qldb_sim.insert qldb ~id:"doc" (Bytes.make 1024 'x');
  Test.make ~name:"table2/qldb-getrevision"
    (Staged.stage (fun () -> assert (Qldb_sim.verify qldb ~id:"doc")))

let test_fig10_fabric_submit =
  let clock = Clock.create () in
  let fab = Fabric_sim.create ~clock () in
  let i = ref 0 in
  Test.make ~name:"fig10/fabric-submit"
    (Staged.stage (fun () ->
         incr i;
         Fabric_sim.submit fab ~key:(string_of_int !i) (Bytes.make 256 'y')))

let test_fig5_tsa_endorse =
  let clock = Clock.create () in
  let tsa = Ledger_timenotary.Tsa.create ~endorse_rtt_ms:0. ~clock "bench" in
  let digest = Hash.digest_string "anchor" in
  Test.make ~name:"fig5/tsa-endorse"
    (Staged.stage (fun () -> ignore (Ledger_timenotary.Tsa.endorse tsa digest)))

let tests =
  Test.make_grouped ~name:"ledgerdb" ~fmt:"%s %s"
    [
      test_fig5_tsa_endorse;
      test_fig7_ecdsa_verify;
      test_fig7_ecdsa_verify_ref;
      test_fig8_fam_append;
      test_fig8_tim_append;
      test_fig8_fam_getproof;
      test_fig9_cmtree_verify;
      test_fig10_fabric_submit;
      test_table2_qldb_verify;
    ]

(* Publish cost against member count: one simulated-profile append on a
   ledger with 1 registered member and on one with 256.  The view's
   member list is shared, not rebuilt, so the two must cost about the
   same.  Rounds alternate between the ledgers and each side keeps its
   fastest round, so a scheduler or GC pause cannot fake a gap.
   Returns the per-append ns at 1 and at 256 members. *)
let publish_cost ~rounds ~appends =
  let open Ledger_core in
  let ledger members =
    let config =
      { Ledger.default_config with
        name = "micro-publish"; crypto = Crypto_profile.default_simulated }
    in
    let l = Ledger.create ~config ~clock:(Clock.create ()) () in
    let creds =
      List.init members (fun i ->
          Ledger.new_member l ~name:(Printf.sprintf "m%03d" i)
            ~role:Roles.Regular_user)
    in
    (l, List.hd creds)
  in
  let round (l, (member, priv)) =
    let payload = Bytes.make 64 'p' in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to appends do
      ignore (Ledger.append l ~member ~priv payload)
    done;
    (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int appends
  in
  let one = ledger 1 and many = ledger 256 in
  let best_one = ref infinity and best_many = ref infinity in
  for _ = 1 to rounds do
    best_one := Float.min !best_one (round one);
    best_many := Float.min !best_many (round many)
  done;
  (!best_one, !best_many)

let benchmark ~smoke () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:Measure.[| run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    if smoke then
      (* fixed small budget: enough samples for OLS, fast enough to ride
         inside dune runtest *)
      Benchmark.cfg ~limit:50 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:(Some 500) ()
  in
  let raw_results = Benchmark.all cfg instances tests in
  let results =
    List.map (fun instance -> Analyze.all ols instance raw_results) instances
  in
  Analyze.merge ols instances results

(* ns-per-run OLS estimate for every test under the monotonic clock. *)
let estimates results =
  match Hashtbl.find_opt results (Measure.label Instance.monotonic_clock) with
  | None -> []
  | Some per_test ->
      Hashtbl.fold
        (fun name ols acc ->
          let ns =
            match Analyze.OLS.estimates ols with
            | Some (ns :: _) -> Some ns
            | Some [] | None -> None
          in
          (name, ns) :: acc)
        per_test []
      |> List.sort compare

let run ?(smoke = false) ?json () =
  print_endline "\nBechamel microbenchmarks (ns per run)";
  print_endline "=====================================";
  Bechamel_notty.Unit.add Instance.monotonic_clock "ns";
  let results = benchmark ~smoke () in
  let window =
    match Notty_unix.winsize Unix.stdout with
    | Some (w, h) -> { Bechamel_notty.w; h }
    | None -> { Bechamel_notty.w = 100; h = 1 }
  in
  let img =
    Bechamel_notty.Multiple.image_of_ols_results ~rect:window
      ~predictor:Measure.run results
  in
  Notty_unix.eol img |> Notty_unix.output_image;
  let ests = estimates results in
  (* Speedup gate: the wNAF/GLV kernel must keep ECDSA verification at
     least 10x faster than the reference pipeline (ISSUE 8 acceptance).
     Smoke runs use a tiny sample budget, so they gate at a loose 3x —
     enough to catch an accidental fallback to the slow path without
     flaking CI on scheduler noise. *)
  let speedup =
    match
      ( List.assoc_opt "ledgerdb fig7/ecdsa-verify" ests,
        List.assoc_opt "ledgerdb fig7/ecdsa-verify-ref" ests )
    with
    | Some (Some fast), Some (Some ref_ns) when fast > 0. -> Some (ref_ns /. fast)
    | _ -> None
  in
  (match speedup with
  | None -> failwith "bench_micro: missing ecdsa verify estimates"
  | Some s ->
      Printf.printf "ecdsa verify speedup (ref/fast): %.1fx\n" s;
      let floor = if smoke then 3.0 else 10.0 in
      if s < floor then
        failwith
          (Printf.sprintf
             "bench_micro: ecdsa verify speedup %.1fx below the %.0fx gate" s
             floor));
  let publish_1, publish_256 =
    if smoke then publish_cost ~rounds:7 ~appends:32
    else publish_cost ~rounds:15 ~appends:128
  in
  let publish_ratio = publish_256 /. publish_1 in
  Printf.printf
    "simulated append: %.1f us at 1 member, %.1f us at 256 (ratio %.2fx)\n"
    (publish_1 /. 1e3) (publish_256 /. 1e3) publish_ratio;
  (* publish must not grow with the member count *)
  if publish_ratio > 2.0 then
    failwith
      (Printf.sprintf
         "bench_micro: append at 256 members costs %.2fx the 1-member \
          append, above the 2x gate"
         publish_ratio);
  match json with
  | None -> ()
  | Some path ->
      let open Ledger_bench_util.Json_out in
      let tests =
        List.map
          (fun (name, ns) ->
            (name, match ns with Some v -> Float v | None -> Null))
          ests
      in
      write_file path
        (Obj
           [
             ("figure", Str "micro");
             ("unit", Str "ns_per_run");
             ("smoke", Bool smoke);
             ("verify_speedup", match speedup with Some s -> Float s | None -> Null);
             ("publish_ratio", Float publish_ratio);
             ( "publish_append_ns",
               Obj [ ("members_1", Float publish_1); ("members_256", Float publish_256) ] );
             ("tests", Obj tests);
           ]);
      Printf.printf "wrote %s\n" path
