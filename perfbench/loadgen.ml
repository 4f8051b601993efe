(* The load generator: closed-loop verifying clients over loopback TCP.

   One connection per domain, at most [nproc] of each.  Every connection
   signs (or builds) a request, sends it, waits, verifies the response and
   only then sends its next request — the Fig. 1 protocol, where every
   caller waits for its receipt or proof.  The generator calls the
   client-side public functions itself (not Load_gen.run) so that a traced
   run can put a span around each layer call. *)

open Ledger_crypto
open Ledger_storage
open Ledger_core
open Ledger_merkle
open Ledger_cmtree
open Ledger_query
open Ledger_net
open Ledger_bench_util

type series = { mutable v : float array; mutable n : int }

let series () = { v = Array.make 1024 0.; n = 0 }

let push s x =
  if s.n = Array.length s.v then begin
    let bigger = Array.make (2 * s.n) 0. in
    Array.blit s.v 0 bigger 0 s.n;
    s.v <- bigger
  end;
  s.v.(s.n) <- x;
  s.n <- s.n + 1

let values s = Array.sub s.v 0 s.n

type client = {
  svc : Service.Client.t;
  own_clue : string; (* appended to by this client only *)
}

type conn = {
  idx : int;
  ep : Net_transport.t;
  raw : Transport.t;
  rng : Det_rng.t;
  clients : client array;
  spans : Spans.buf; (* this connection's spans *)
  single : bool; (* the only connection: on audit_scan it also scans *)
  mutable traced : bool; (* record spans and keep request frames *)
  mutable next_req : int;
  (* measured-window accounting *)
  mutable recording : bool;
  mutable attempted : int;
  mutable failed : int;
  mutable requests : int;
  mutable req_bytes : int;
  mutable resp_bytes : int;
  mutable last_end : float;
  mutable append_lat : series;
  mutable read_lat : series;
  mutable page_lat : series;
  mutable sent : int; (* requests on this connection *)
  mutable rows : int;
  mutable traced_rows : int; (* rows of every traced scan, window or not *)
  mutable scan_s : float;
  mutable pulled : int;
  mutable pull_s : float;
  mutable pulls : (int * Hash.t) list; (* (size, commitment) per replica *)
  mutable kept_pull : string option; (* the last traced pull's staged snapshot *)
  (* what the clients learned: receipts, for proof checks *)
  mutable receipts : (int * Hash.t) list;
  mutable n_receipts : int;
  mutable receipt_arr : (int * Hash.t) array;
  (* the traced window's request frames, for the replay *)
  mutable appends : (int * Hash.t * bytes) list; (* jsn, tx, frame *)
  mutable reads : bytes list;
}

let lsp_pub = snd (Ecdsa.generate ~seed:("lsp:" ^ Inputs.ledger_name))

let span c ~parent ~req name f =
  if c.traced then Spans.time c.spans ~parent ~req name f else f ()

let frame_bytes b = Bytes.length b + Net_framing.overhead

let count_request c ~req_len ~resp_len =
  if c.recording then begin
    c.requests <- c.requests + 1;
    c.req_bytes <- c.req_bytes + req_len;
    c.resp_bytes <- c.resp_bytes + resp_len
  end

(* Net_server places a connection on whichever worker domain wins the
   accept race, so a fixed pair of connections shares one worker in about
   half of all runs.  Re-dialling every [redial_every] requests averages
   the placement within a run instead of fixing it for the whole run,
   while the dial itself stays below 1 % of requests. *)
let redial_every = 256

let send c frame =
  c.sent <- c.sent + 1;
  if c.sent mod redial_every = 0 then Net_transport.close c.ep;
  c.raw frame

let rpc c ~op ~req frame =
  let resp = span c ~parent:op ~req "net.rtt" (fun () -> send c frame) in
  count_request c ~req_len:(frame_bytes frame) ~resp_len:(frame_bytes resp);
  span c ~parent:op ~req "client.parse" (fun () -> Service.Client.parse resp)

(* Run one op; record its latency into [lat] when inside the window.  A
   failed or refused op, or one whose response does not verify, counts
   as failed and contributes no latency sample. *)
let run_op c lat name f =
  let req = c.next_req in
  c.next_req <- req + 1;
  let b = c.spans in
  let op = if c.traced then Spans.reserve b else -1 in
  let t0 = Unix.gettimeofday () in
  let ok = try f ~op ~req with Transport.Timeout _ | Failure _ -> false in
  let t1 = Unix.gettimeofday () in
  if c.traced then Spans.finish b ~id:op ~parent:(-1) ~req ~name ~t0;
  if c.recording then begin
    c.attempted <- c.attempted + 1;
    c.last_end <- t1;
    if ok then push lat ((t1 -. t0) *. 1e3) else c.failed <- c.failed + 1
  end;
  ok

let receipt_ok (r : Receipt.t) =
  Crypto_profile.check Crypto_profile.Real ~pub:lsp_pub
    (Receipt.signing_digest ~jsn:r.Receipt.jsn
       ~request_hash:r.Receipt.request_hash ~tx_hash:r.Receipt.tx_hash
       ~block_hash:r.Receipt.block_hash ~timestamp:r.Receipt.timestamp)
    r.Receipt.lsp_sig

let add_receipt c jsn tx =
  c.receipts <- (jsn, tx) :: c.receipts;
  c.n_receipts <- c.n_receipts + 1

let do_append c cl ~clue ~op ~req =
  let payload = Inputs.payload c.rng in
  let frame =
    span c ~parent:op ~req "client.make_append" (fun () ->
        Service.Client.make_append cl.svc ~clues:[ clue ]
          ~client_ts:(Int64.of_float (Unix.gettimeofday () *. 1e6))
          payload)
  in
  match rpc c ~op ~req frame with
  | Some (Service.Receipt_r r) ->
      let ok =
        span c ~parent:op ~req "client.receipt_check" (fun () -> receipt_ok r)
      in
      if ok then begin
        add_receipt c r.Receipt.jsn r.Receipt.tx_hash;
        if c.traced then
          c.appends <- (r.Receipt.jsn, r.Receipt.tx_hash, frame) :: c.appends
      end;
      ok
  | _ -> false

(* A proof-bundle verify of a receipt the clients hold: a seeded one or
   one this connection received. *)
let do_verify c ~seeded ~op ~req =
  let ns = Array.length seeded in
  let k = Det_rng.int c.rng (ns + c.n_receipts) in
  let jsn, tx =
    if k < ns then (seeded.(k).Inputs.jsn, seeded.(k).Inputs.tx)
    else begin
      if Array.length c.receipt_arr < c.n_receipts then
        c.receipt_arr <- Array.of_list (List.rev c.receipts);
      c.receipt_arr.(k - ns)
    end
  in
  let frame = Service.Client.make_get_proof_bundle ~jsn in
  if c.traced then c.reads <- frame :: c.reads;
  match rpc c ~op ~req frame with
  | Some (Service.Proof_bundle_r { proof; commitment; size }) ->
      size > jsn
      && span c ~parent:op ~req "client.fam_verify" (fun () ->
             Fam.verify ~commitment ~leaf:tx proof)
  | _ -> false

(* A seeded shared clue, by popularity; nobody appends to shared clues in
   read_verify, so the seeded versions are the whole lineage. *)
let seeded_clue c ~lineages ~zipf =
  let rec pick () =
    let clue = Inputs.shared_clue (Workload.zipf_draw zipf c.rng) in
    match Hashtbl.find_opt lineages clue with
    | Some known -> (clue, known)
    | None -> pick ()
  in
  pick ()

(* A whole-clue lineage read of a seeded clue, verified against every
   version the client knows. *)
let do_lineage c ~lineages ~zipf ~op ~req =
  let clue, known = seeded_clue c ~lineages ~zipf in
  let frame = Service.Client.make_get_clue_bundle ~clue () in
  if c.traced then c.reads <- frame :: c.reads;
  match rpc c ~op ~req frame with
  | Some (Service.Clue_bundle_r { proof = Some p; clue_root }) ->
      span c ~parent:op ~req "client.clue_verify" (fun () ->
          Cm_tree.verify_clue ~root:clue_root ~known p)
  | _ -> false

let page_size = 16

(* One paged scan, pinned to the epoch of its first page and verified
   as a whole with verify_pages.  Each page round is one op; its latency
   sample is the round trip plus its share of the scan's verification. *)
let do_scan c : bool =
  let spec =
    let n = Inputs.((shape Audit_scan).shared_clues) in
    if Det_rng.int c.rng 2 = 0 then
      Range_query.Prefix (Printf.sprintf "s0%d" (Det_rng.int c.rng (n / 100)))
    else
      let lo = Det_rng.int c.rng n in
      let hi = lo + 20 + Det_rng.int c.rng 100 in
      Range_query.Between
        { lo = Inputs.shared_clue lo; hi = Some (Inputs.shared_clue hi) }
  in
  let req = c.next_req in
  c.next_req <- req + 1;
  let recording = c.recording in
  let rec rounds after pin acc =
    let b = c.spans in
    let op = if c.traced then Spans.reserve b else -1 in
    let t0 = Unix.gettimeofday () in
    let frame =
      span c ~parent:op ~req "client.make_query_page" (fun () ->
          Service.Client.make_query_page ~spec ?after ?pin ~page_size ())
    in
    if c.traced then c.reads <- frame :: c.reads;
    let resp =
      try rpc c ~op ~req frame with Transport.Timeout _ | Failure _ -> None
    in
    let t1 = Unix.gettimeofday () in
    if c.traced then Spans.finish b ~id:op ~parent:(-1) ~req ~name:"op.scan_page" ~t0;
    match resp with
    | Some (Service.Query_page_r { page; query_root; epoch; _ }) -> (
        let acc = (page, query_root, t1 -. t0) :: acc in
        match page.Range_query.cursor with
        | Some cur -> rounds (Some cur) (Some epoch) acc
        | None -> Ok (List.rev acc))
    | _ -> Error (List.length acc + 1)
  in
  let outcome = rounds None None [] in
  let t_end = Unix.gettimeofday () in
  let n_pages, verified =
    match outcome with
    | Error n -> (n, None)
    | Ok pages ->
        let root = (fun (_, r, _) -> r) (List.hd pages) in
        let t0 = Unix.gettimeofday () in
        let v =
          span c ~parent:(-1) ~req "client.page_verify" (fun () ->
              if List.exists (fun (_, r, _) -> not (Hash.equal r root)) pages
              then Error "root changed mid-scan"
              else
                Range_query.verify_pages ~root ~spec ~page_size
                  (List.map (fun (p, _, _) -> p) pages))
        in
        let dv = Unix.gettimeofday () -. t0 in
        ( List.length pages,
          match v with
          | Ok rows -> Some (pages, List.length rows, dv)
          | Error _ -> None )
  in
  (match verified with
  | Some (_, rows, _) when c.traced -> c.traced_rows <- c.traced_rows + rows
  | _ -> ());
  if recording then begin
    c.attempted <- c.attempted + n_pages;
    c.last_end <- Unix.gettimeofday ();
    match verified with
    | None -> c.failed <- c.failed + n_pages
    | Some (pages, rows, dv) ->
        let share = dv /. float_of_int (List.length pages) in
        List.iter (fun (_, _, d) -> push c.page_lat ((d +. share) *. 1e3)) pages;
        c.rows <- c.rows + rows;
        c.scan_s <- c.scan_s +. (c.last_end -. t_end) +. List.fold_left (fun a (_, _, d) -> a +. d) 0. pages
  end;
  verified <> None

let rec rm_rf p =
  if Sys.file_exists p then
    if Sys.is_directory p then begin
      Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p

(* One full verifying replica pull.  Each pulled journal is one op; it
   has no latency of its own, as the journals are verified together when
   the replica reloads and re-derives every tree.  A traced pull keeps its
   staged snapshot (only the newest one), so that [Ledger.load] can be
   timed on it after the window. *)
let do_pull c ~dir =
  rm_rf dir;
  let pull_id = if c.traced then Spans.reserve c.spans else -1 in
  let req = c.next_req in
  c.next_req <- req + 1;
  let requests = ref 0 in
  let wrapped frame =
    let resp = span c ~parent:pull_id ~req "net.rtt" (fun () -> send c frame) in
    incr requests;
    count_request c ~req_len:(frame_bytes frame) ~resp_len:(frame_bytes resp);
    resp
  in
  let recording = c.recording in
  let t0 = Unix.gettimeofday () in
  let r =
    try
      Replica.pull_verbose ~transport:wrapped ~policy:Transport.no_retry
        ~config:Inputs.config ~resume:false
        ~pool:Ledger_par.Domain_pool.sequential ~clock:(Clock.create ())
        ~scratch_dir:dir ()
    with e -> Error (Replica.Protocol (Printexc.to_string e))
  in
  let t1 = Unix.gettimeofday () in
  if c.traced then begin
    Spans.finish c.spans ~id:pull_id ~parent:(-1) ~req ~name:"replica.pull" ~t0;
    Option.iter rm_rf c.kept_pull;
    c.kept_pull <- Some dir
  end
  else rm_rf dir;
  let state =
    match r with
    | Ok (replica, _) -> Some (Ledger.size replica, Ledger.commitment replica)
    | Error e ->
        Printf.eprintf "perfbench: pull failed: %s\n%!" (Replica.error_to_string e);
        None
  in
  if recording then begin
    c.last_end <- t1;
    match state with
    | Some (size, _) ->
        c.pulls <- Option.get state :: c.pulls;
        c.attempted <- c.attempted + size;
        c.pulled <- c.pulled + size;
        c.pull_s <- c.pull_s +. (t1 -. t0)
    | None ->
        c.attempted <- c.attempted + max 1 !requests;
        c.failed <- c.failed + max 1 !requests
  end;
  t1 -. t0

type context = {
  workload : Inputs.workload;
  seeded : Inputs.seeded array;
  lineages : (string, (int * Hash.t) list) Hashtbl.t;
  zipf_shared : Workload.zipf;
  work : string;
  pulling : bool Atomic.t; (* a pull is in flight on audit_scan *)
}

(* Connection [idx] of [n] (n <= Inputs.members) serves the members
   m with m mod n = idx, so every connection has at least one. *)
let connect ~port ~seed ~n idx =
  let ep = Net_transport.connect ~response_timeout_s:60. ~host:"127.0.0.1" ~port () in
  let ledger_uri = "ledger://" ^ Inputs.ledger_name in
  let mine = List.filter (fun m -> m mod n = idx) (List.init Inputs.members Fun.id) in
  {
    idx; ep; raw = Net_transport.transport ep;
    rng = Det_rng.create ~seed:((seed * 1_000_003) + idx);
    clients =
      Array.of_list
        (List.map
           (fun m ->
             let member, priv = Inputs.credentials m in
             { svc = Service.Client.create ~ledger_uri ~member ~priv ();
               own_clue = "p-" ^ Inputs.member_name m })
           mine);
    spans = Spans.create (); single = n = 1; traced = false; next_req = idx lsl 32; recording = false; attempted = 0;
    failed = 0; requests = 0; req_bytes = 0; resp_bytes = 0; last_end = 0.;
    append_lat = series (); read_lat = series (); page_lat = series ();
    sent = 0; rows = 0; traced_rows = 0; scan_s = 0.; pulled = 0; pull_s = 0.;
    pulls = []; kept_pull = None; receipts = []; n_receipts = 0; receipt_arr = [||];
    appends = []; reads = [];
  }

(* One closed-loop connection until [t_end]; ops that start before
   [t_start] warm caches and the heap and are not recorded.  On
   audit_scan connection 0 pulls and the others scan; the scan
   connections keep going until the last pull has finished, so the
   window always holds whole pulls.  A single connection scans after
   each pull for as long as the pull took. *)
let drive ctx c ~t_start ~t_end =
  let pick () = c.clients.(Det_rng.int c.rng (Array.length c.clients)) in
  let append ~shared_share =
    let cl = pick () in
    let clue =
      if Det_rng.int c.rng 100 < shared_share then
        Inputs.shared_clue (Workload.zipf_draw ctx.zipf_shared c.rng)
      else cl.own_clue
    in
    ignore (run_op c c.append_lat "op.append" (do_append c cl ~clue))
  in
  let verify () =
    ignore (run_op c c.read_lat "op.verify" (do_verify c ~seeded:ctx.seeded))
  in
  let k = ref 0 in
  while Unix.gettimeofday () < t_end || (c.idx > 0 && Atomic.get ctx.pulling) do
    c.recording <- Unix.gettimeofday () >= t_start;
    (match ctx.workload with
    | Inputs.Append_heavy ->
        if Det_rng.int c.rng 10 = 0 then verify () else append ~shared_share:75
    | Inputs.Read_verify ->
        let r = Det_rng.int c.rng 100 in
        if r < 5 then append ~shared_share:0
        else if r < 5 + 63 then verify ()
        else
          ignore
            (run_op c c.read_lat "op.lineage"
               (do_lineage c ~lineages:ctx.lineages ~zipf:ctx.zipf_shared))
    | Inputs.Audit_scan ->
        if c.idx = 0 then begin
          incr k;
          Atomic.set ctx.pulling true;
          let took = do_pull c ~dir:(Filename.concat ctx.work (Printf.sprintf "pull-%d" !k)) in
          Atomic.set ctx.pulling false;
          if c.single then begin
            let until = Unix.gettimeofday () +. took in
            while Unix.gettimeofday () < until do ignore (do_scan c) done
          end
        end
        else ignore (do_scan c));
  done;
  c.recording <- false

let run_phase ctx conns ~warmup ~seconds ~traced =
  List.iter (fun c -> c.traced <- traced) conns;
  let t0 = Unix.gettimeofday () in
  let t_start = t0 +. warmup and t_end = t0 +. warmup +. seconds in
  let cpu0 = Unix.times () and gc0 = Gc.quick_stat () in
  let others =
    List.map
      (fun c -> Domain.spawn (fun () -> drive ctx c ~t_start ~t_end))
      (List.tl conns)
  in
  drive ctx (List.hd conns) ~t_start ~t_end;
  List.iter Domain.join others;
  let cpu1 = Unix.times () and gc1 = Gc.quick_stat () in
  let wall = Unix.gettimeofday () -. t_start in
  let cpu =
    cpu1.Unix.tms_utime +. cpu1.Unix.tms_stime
    -. (cpu0.Unix.tms_utime +. cpu0.Unix.tms_stime)
  in
  (wall, cpu, gc1.Gc.minor_collections - gc0.Gc.minor_collections, t_start)

(* --- end-of-run integrity -------------------------------------------- *)

let must_commitment c =
  match Service.Client.parse (c.raw (Service.Client.make_get_commitment ())) with
  | Some (Service.Commitment_r { commitment; size }) -> (commitment, size)
  | _ -> failwith "final commitment unavailable"

(* The served journals [from, upto), with their leaves: the appends a
   traced run's replay must apply before the traced window's own. *)
let fetch_journals c ~from ~upto =
  List.init (upto - from) (fun i ->
      let jsn = from + i in
      match Service.Client.parse (c.raw (Service.Client.make_get_journal ~jsn)) with
      | Some (Service.Journal_r { tx; encoded }) -> (
          match Journal_codec.decode encoded with
          | Some j -> (tx, j)
          | None -> failwith (Printf.sprintf "journal %d does not decode" jsn))
      | _ -> failwith (Printf.sprintf "journal %d unavailable" jsn))

(* Verify a seeded sample of the run's receipts (the seeded ones on a
   workload without appends) against the final commitment with fam
   proofs, and every replica pulled against the server's final state.
   Returns (checks made, mismatches). *)
let integrity ctx conns ~seed =
  let c = List.hd conns in
  let commitment, size = must_commitment c in
  let run_receipts = List.concat_map (fun c -> c.receipts) conns |> Array.of_list in
  let pool =
    if Array.length run_receipts > 0 then run_receipts
    else Array.map (fun s -> (s.Inputs.jsn, s.Inputs.tx)) ctx.seeded
  in
  let rng = Det_rng.create ~seed:(seed + 99) in
  let sample = List.init (min 16 (Array.length pool)) (fun _ -> Det_rng.pick rng pool) in
  let bad = ref 0 in
  List.iter
    (fun (jsn, tx) ->
      match
        Service.Client.parse (c.raw (Service.Client.make_get_proof_bundle ~jsn))
      with
      | Some (Service.Proof_bundle_r { proof; commitment = cm; size = sz })
        when Hash.equal cm commitment && sz = size
             && Fam.verify ~commitment ~leaf:tx proof -> ()
      | _ -> incr bad)
    sample;
  let replicas = List.concat_map (fun c -> c.pulls) conns in
  List.iter
    (fun (sz, cm) -> if sz <> size || not (Hash.equal cm commitment) then incr bad)
    replicas;
  (List.length sample + List.length replicas, !bad)

(* Zero the measured-window accounting between phases; what the clients
   learned (receipts) and the captured frames carry over. *)
let reset c =
  c.attempted <- 0; c.failed <- 0; c.requests <- 0; c.req_bytes <- 0;
  c.resp_bytes <- 0; c.last_end <- 0.; c.append_lat <- series ();
  c.read_lat <- series (); c.page_lat <- series ();
  c.rows <- 0; c.scan_s <- 0.; c.pulled <- 0; c.pull_s <- 0.
