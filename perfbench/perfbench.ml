(* perfbench gen    --workload W --seed N --out FILE
   perfbench server --inputs FILE --seeded FILE --trace 0|1 --spans FILE
   perfbench load   --workload W --seed N --port P --seconds S --trace 0|1
                    --inputs FILE --seeded FILE --work DIR [--connections N]

   run.py chains these: gen once, then the server (several times, to
   time set-up), then the load generator against the last server.  The
   generator prints one [LOAD {json}] line.  In a traced run it also
   prints [CTL trace 1] before its traced window and [CTL trace 0] after
   it, and waits for an [OK] line on its standard input each time: run.py
   turns the server's span recording on and off in between. *)

open Ledger_storage
open Ledger_core
open Ledger_net
open Ledger_bench_util

let args =
  let h = Hashtbl.create 8 in
  let rec go = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace h (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | a :: _ -> failwith ("perfbench: unexpected argument " ^ a)
  in
  go (List.tl (List.tl (Array.to_list Sys.argv)));
  h

let arg k =
  match Hashtbl.find_opt args k with
  | Some v -> v
  | None -> failwith ("perfbench: missing --" ^ k)

let workload () =
  match Inputs.of_name (arg "workload") with
  | Some w -> w
  | None -> failwith ("perfbench: unknown workload " ^ arg "workload")

let load_seeded path : Inputs.seeded array =
  let ic = open_in_bin path in
  let s = Marshal.from_channel ic in
  close_in ic;
  s

let sorted_values series_list =
  let a = Array.concat (List.map Loadgen.values series_list) in
  Array.sort compare a;
  a

let rate n d = if d > 0. then float_of_int n /. d else nan

(* The accounting of one measured phase: its ops, its duration and its
   JSON fields. *)
let phase_fields conns ~wall ~cpu ~gc_minor ~t_start =
  let open Loadgen in
  let sum f = List.fold_left (fun a c -> a + f c) 0 conns in
  let sumf f = List.fold_left (fun a c -> a +. f c) 0. conns in
  let all = sorted_values (List.concat_map (fun c -> [ c.append_lat; c.read_lat; c.page_lat ]) conns) in
  let apps = sorted_values (List.map (fun c -> c.append_lat) conns) in
  let reads = sorted_values (List.map (fun c -> c.read_lat) conns) in
  let pages = sorted_values (List.map (fun c -> c.page_lat) conns) in
  let pulled = sum (fun c -> c.pulled) in
  let ops = Array.length all + pulled in
  let last = List.fold_left (fun a c -> Float.max a c.last_end) t_start conns in
  let duration = last -. t_start in
  let per_op x = if ops = 0 then nan else float_of_int x /. float_of_int ops in
  let q a p = Spans.pct a p in
  let pull_s = sumf (fun c -> c.pull_s) in
  let n_pulls = List.length (List.concat_map (fun c -> c.pulls) conns) in
  ( ops, duration,
    let open Json in
    [ ("attempted", int (sum (fun c -> c.attempted)));
      ("failed", int (sum (fun c -> c.failed)));
      ("ops", int ops); ("duration_s", num duration);
      ("ops_per_s", num (rate ops duration));
      ("op_p50_ms", num (q all 0.5)); ("op_p99_ms", num (q all 0.99));
      ("op_n", int (Array.length all));
      ("append_p50_ms", num (q apps 0.5)); ("append_p99_ms", num (q apps 0.99));
      ("append_n", int (Array.length apps));
      ("read_p50_ms", num (q reads 0.5)); ("read_p99_ms", num (q reads 0.99));
      ("read_n", int (Array.length reads));
      ("scan_page_p50_ms", num (q pages 0.5)); ("scan_page_n", int (Array.length pages));
      ("scan_rows", int (sum (fun c -> c.rows)));
      ("scan_rows_per_s", num (rate (sum (fun c -> c.rows)) (sumf (fun c -> c.scan_s))));
      ("pulled_journals", int pulled);
      ("pull_journals_per_s", num (rate pulled pull_s));
      ("pulls", int n_pulls);
      ("requests", int (sum (fun c -> c.requests)));
      ("requests_per_op", num (per_op (sum (fun c -> c.requests))));
      ("req_bytes_per_op", num (per_op (sum (fun c -> c.req_bytes))));
      ("resp_bytes_per_op", num (per_op (sum (fun c -> c.resp_bytes))));
      ("wire_bytes_per_op", num (per_op (sum (fun c -> c.req_bytes + c.resp_bytes))));
      ("client_cpu_util", num (cpu /. (wall *. float_of_int (List.length conns))));
      ("client_gc_minor_per_op", num (per_op gc_minor)) ] )

(* Ask run.py to turn the server's span recording on or off, and wait
   until it has. *)
let server_trace on =
  Printf.printf "CTL trace %d\n%!" (if on then 1 else 0);
  match In_channel.input_line stdin with
  | Some "OK" -> ()
  | _ -> failwith "perfbench: no acknowledgement of the server trace switch"

let load () =
  let w = workload () and seed = int_of_string (arg "seed") in
  let seconds = float_of_string (arg "seconds") and trace = arg "trace" = "1" in
  let work = arg "work" in
  let seeded = load_seeded (arg "seeded") in
  let lineages = Hashtbl.create 1024 in
  Array.iter
    (fun (s : Inputs.seeded) ->
      List.iter
        (fun clue ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt lineages clue) in
          Hashtbl.replace lineages clue ((List.length prev, s.Inputs.tx) :: prev))
        s.Inputs.clues)
    seeded;
  Hashtbl.filter_map_inplace (fun _ l -> Some (List.rev l)) lineages;
  let sh = Inputs.shape w in
  let ctx =
    { Loadgen.workload = w; seeded; lineages; work; pulling = Atomic.make false;
      zipf_shared = Workload.zipf ~n:sh.Inputs.shared_clues ~s:sh.Inputs.zipf_s }
  in
  let n =
    match Hashtbl.find_opt args "connections" with
    | Some v -> max 1 (min Inputs.members (int_of_string v))
    | None -> min Inputs.members (Domain.recommended_domain_count ())
  in
  (* Crc32's table is a plain [lazy]: two connection domains framing
     their first requests at once race to force it, and the loser raises
     CamlinternalLazy.Undefined.  Force it here, before any domain
     starts. *)
  ignore (Ledger_storage.Crc32.string "");
  let conns = List.init n (Loadgen.connect ~port:(int_of_string (arg "port")) ~seed ~n) in
  let c0 = List.hd conns in
  let warmup = if w = Inputs.Audit_scan then 0. else 1. in
  let phase ~warmup ~seconds ~traced =
    List.iter Loadgen.reset conns;
    let wall, cpu, gc_minor, t_start = Loadgen.run_phase ctx conns ~warmup ~seconds ~traced in
    phase_fields conns ~wall ~cpu ~gc_minor ~t_start
  in
  (* A traced run measures untraced halves before and after its traced
     window, so that ledger growth over the run weighs on both sides of
     the tracing overhead alike.  The server records spans only inside
     the traced window; the ledger's size and commitment at its edges
     anchor the replay. *)
  let untraced, traced =
    if not trace then
      let _, _, u = phase ~warmup ~seconds ~traced:false in
      (u, None)
    else begin
      let o1, d1, u = phase ~warmup ~seconds:(seconds /. 2.) ~traced:false in
      let _, size0 = Loadgen.must_commitment c0 in
      server_trace true;
      let ot, dt, t = phase ~warmup:0. ~seconds ~traced:true in
      server_trace false;
      let edge = Loadgen.must_commitment c0 in
      let o2, d2, _ = phase ~warmup:0. ~seconds:(seconds /. 2.) ~traced:false in
      (u, Some (t, rate ot dt, rate (o1 + o2) (d1 +. d2), size0, edge))
    end
  in
  let checked, bad = Loadgen.integrity ctx conns ~seed in
  let fields =
    ref
      [ ("ocaml", Json.str Sys.ocaml_version); ("connections", Json.int n);
        ("seeded_journals", Json.int (Array.length seeded));
        ("untraced", Json.obj untraced); ("integrity_checked", Json.int checked);
        ("integrity_bad", Json.int bad) ]
  in
  let correct = ref (bad = 0) in
  (match traced with
  | None -> ()
  | Some (traced, traced_rate, untraced_rate, size0, (commitment, size)) ->
      (* Ledger.load of the last traced pull's staged snapshot, timed on
         its own after the window *)
      let load_s =
        match c0.Loadgen.kept_pull with
        | None -> nan
        | Some dir ->
            let t = Unix.gettimeofday () in
            (match Ledger.load ~config:Inputs.config ~clock:(Clock.create ()) ~dir () with
            | Ok _ -> ()
            | Error e -> failwith ("perfbench: staged snapshot does not reload: " ^ e));
            let dt = Unix.gettimeofday () -. t in
            Loadgen.rm_rf dir;
            dt
      in
      let spans = Spans.collect () in
      Spans.write (Filename.concat work "load_spans.txt") spans;
      let summary = Spans.summarise spans in
      let st name f = match List.assoc_opt name summary with Some s -> f s | None -> nan in
      let mean name = st name (fun s -> s.Spans.mean_us) in
      let pull_s = mean "replica.pull" /. 1e6 in
      (* client residual: an op's self time, its e2e latency minus its
         layer calls *)
      let op_self =
        let xs =
          List.filter_map
            (fun (n, s) ->
              if String.length n > 3 && String.sub n 0 3 = "op." then
                Some (s.Spans.self_us, s.Spans.count)
              else None)
            summary
        in
        let n = List.fold_left (fun a (_, c) -> a + c) 0 xs in
        List.fold_left (fun a (m, c) -> a +. (m *. float_of_int c)) 0. xs
        /. float_of_int (max 1 n)
      in
      let rows = List.fold_left (fun a c -> a + c.Loadgen.traced_rows) 0 conns in
      let page_verify_total =
        st "client.page_verify" (fun s -> s.Spans.mean_us *. float_of_int s.Spans.count)
      in
      let r =
        Replay.run ~inputs:(arg "inputs")
          ~prefix:(fun from -> Loadgen.fetch_journals c0 ~from ~upto:size0)
          ~appends:(List.concat_map (fun c -> c.Loadgen.appends) conns)
          ~reads:(List.concat_map (fun c -> c.Loadgen.reads) conns)
          ~live_commitment:commitment ~live_size:size
          ~spans_out:(Filename.concat work "replay_spans.txt")
      in
      if not r.Replay.faithful then correct := false;
      let layers =
        [ ("client.make_append_us", mean "client.make_append");
          ("client.receipt_check_us", mean "client.receipt_check");
          ("client.parse_us", mean "client.parse");
          ("client.fam_verify_us", mean "client.fam_verify");
          ("client.clue_verify_us", mean "client.clue_verify");
          ( "client.page_verify_us_per_row",
            if rows = 0 then nan else page_verify_total /. float_of_int rows );
          ("client.residual_us", op_self);
          ("net.rtt_p50_us", st "net.rtt" (fun s -> s.Spans.p50_us));
          ("net.rtt_p99_us", st "net.rtt" (fun s -> s.Spans.p99_us));
          ("net.rtt_mean_us", mean "net.rtt");
          ("replica.pull_s", pull_s); ("ledger.load_s", load_s);
          ("replica.fetch_s", pull_s -. load_s) ]
        @ List.map
            (fun n -> (n, Replay.mean r n))
            [ "service.decode_us"; "service.encode_us"; "service.handle_replay_us";
              "ledger.append_signed_us"; "crypto.pi_c_check_us";
              "crypto.receipt_sign_us"; "journal.tx_hash_us";
              "journal_codec.encode_us"; "stream_store.append_us"; "fam.append_us";
              "cm_tree.insert_us"; "query_index.add_us"; "fam.freeze_us";
              "cm_tree.freeze_us"; "query_index.freeze_us";
              "ledger.append_unattributed_us"; "fam.prove_us";
              "cm_tree.prove_clue_us"; "range_query.page_us"; "proof.fam_bytes";
              "proof.clue_bytes"; "proof.page_bytes" ]
      in
      fields :=
        !fields
        @ [ ("traced", Json.obj traced);
            ("untraced_ops_per_s", Json.num untraced_rate);
            ("traced_ops_per_s", Json.num traced_rate);
            ("layers", Json.obj (List.map (fun (k, v) -> (k, Json.num v)) layers));
            ("replayed_appends", Json.int r.Replay.replayed);
            ("replay_faithful", Json.bool r.Replay.faithful) ]);
  List.iter (fun c -> Net_transport.close c.Loadgen.ep) conns;
  print_string "LOAD ";
  print_endline (Json.obj (!fields @ [ ("correct", Json.bool !correct) ]))

let () =
  match Sys.argv with
  | [| _ |] -> prerr_endline "usage: perfbench (gen|server|load) --key value ..."; exit 2
  | _ -> (
      match Sys.argv.(1) with
      | "gen" -> Inputs.save (arg "out") (Inputs.generate (workload ()) ~seed:(int_of_string (arg "seed")))
      | "server" ->
          Server.run ~inputs:(arg "inputs") ~seeded_out:(arg "seeded")
            ~trace:(arg "trace" = "1") ~spans_out:(arg "spans")
      | "load" -> load ()
      | c -> failwith ("perfbench: unknown command " ^ c))
