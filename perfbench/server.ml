(* The server process: the seeded ledger served by Net_server with
   lock-free reads, exactly as a deployment would run it.  A traced run
   wraps the [handle] and [read] closures with spans; nothing inside the
   library is instrumented.  It prints [READY <port>] once serving and
   then reads commands on its standard input:

   - [TRACE 1] / [TRACE 0] start and end a traced window (answered with
     [TRACED 1] / [TRACED 0]): spans are recorded, and CPU, GC and
     request counters accumulated, only inside traced windows;
   - [STOP] (or end of input) stops the server, which then prints its
     statistics as one [STATS {json}] line. *)

open Ledger_core
open Ledger_net

let vm_hwm_kb () =
  let ic = open_in "/proc/self/status" in
  let rec find () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf line "VmHWM: %d kB" Fun.id
    | _ -> find ()
    | exception End_of_file -> 0
  in
  let kb = find () in
  close_in ic;
  kb

let tracing = Atomic.make false

let wrap name f b =
  if not (Atomic.get tracing) then f b
  else begin
    let sb = Spans.local () in
    let id = Spans.reserve sb in
    let t0 = Unix.gettimeofday () in
    let r = f b in
    Spans.finish sb ~id ~parent:(-1) ~req:(-1) ~name:(name r) ~t0;
    r
  end

(* CPU seconds, minor and major collections, requests and reads served *)
type counters = { cpu : float; minor : int; major : int; served : int; reads : int }

let counters srv =
  let t = Unix.times () and g = Gc.quick_stat () and s = Net_server.stats srv in
  { cpu = t.Unix.tms_utime +. t.Unix.tms_stime; minor = g.Gc.minor_collections;
    major = g.Gc.major_collections; served = s.Net_server.served;
    reads = s.Net_server.read_served }

let diff a b =
  { cpu = b.cpu -. a.cpu; minor = b.minor - a.minor; major = b.major - a.major;
    served = b.served - a.served; reads = b.reads - a.reads }

let add a b =
  { cpu = a.cpu +. b.cpu; minor = a.minor + b.minor; major = a.major + b.major;
    served = a.served + b.served; reads = a.reads + b.reads }

let run ~inputs ~seeded_out ~trace ~spans_out =
  let l, seeded = Inputs.build (Inputs.load inputs) in
  let oc = open_out_bin seeded_out in
  Marshal.to_channel oc (seeded : Inputs.seeded array) [];
  close_out oc;
  let workers = Domain.recommended_domain_count () in
  let handle = Service.handle l and read = Service.handle_read l in
  let handle, read =
    if not trace then (handle, read)
    else
      ( wrap (fun _ -> "service.handle") handle,
        wrap (function Some _ -> "service.read" | None -> "service.read_miss") read )
  in
  let srv =
    Net_server.create
      ~config:{ Net_server.default_config with port = 0; workers }
      ~read handle
  in
  Printf.printf "READY %d\n%!" (Net_server.port srv);
  let zero = { cpu = 0.; minor = 0; major = 0; served = 0; reads = 0 } in
  (* [window]: the traced windows so far; [opened]: the counters at the
     start of the one in progress *)
  let rec serve window opened =
    match In_channel.input_line stdin, opened with
    | Some "TRACE 1", None ->
        let c = counters srv in
        Atomic.set tracing true;
        print_endline "TRACED 1";
        serve window (Some c)
    | Some "TRACE 0", Some c0 ->
        Atomic.set tracing false;
        let w = add window (diff c0 (counters srv)) in
        print_endline "TRACED 0";
        serve w None
    | (None | Some "STOP"), _ -> window
    | Some l, _ -> failwith ("perfbench server: unexpected command " ^ l)
  in
  let window = serve zero None in
  Net_server.stop srv;
  let s = Net_server.stats srv in
  let payload = ref 0 in
  Ledger.iter_journals l (fun j -> payload := !payload + Bytes.length j.Journal.payload);
  let spans = Spans.collect () in
  if trace then Spans.write spans_out spans;
  let stat name =
    match List.assoc_opt name (Spans.summarise spans) with
    | Some st -> st
    | None -> { Spans.count = 0; mean_us = nan; p50_us = nan; p99_us = nan; self_us = nan }
  in
  let h = stat "service.handle" and r = stat "service.read" and m = stat "service.read_miss" in
  let open Json in
  print_string "STATS ";
  print_endline
    (obj
       [ ("traced_cpu_s", num window.cpu);
         ("traced_gc_minor", int window.minor);
         ("traced_gc_major", int window.major);
         ("traced_served", int window.served);
         ("traced_read_served", int window.reads);
         ("vm_hwm_kb", int (vm_hwm_kb ()));
         ("workers", int workers);
         ("accepted", int s.Net_server.accepted);
         ("served", int s.Net_server.served);
         ("framing_errors", int s.Net_server.framing_errors);
         ("size", int (Ledger.size l));
         ("payload_bytes", int !payload);
         ("stored_bytes", int (Ledger.journal_bytes l));
         ("handle_n", int h.Spans.count); ("handle_mean_us", num h.Spans.mean_us);
         ("handle_p99_us", num h.Spans.p99_us);
         ("read_n", int r.Spans.count); ("read_mean_us", num r.Spans.mean_us);
         ("read_p99_us", num r.Spans.p99_us);
         ("read_miss_n", int m.Spans.count); ("read_miss_mean_us", num m.Spans.mean_us) ])
