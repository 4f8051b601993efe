(* In-memory span recorder for traced runs.

   A span is a name, a wall-clock interval, the span that caused it and
   the request it belongs to.  Each generator connection and each server
   domain records into its own buffer (no lock on the recording path);
   buffers are registered once under a mutex so they can be collected and
   written out when the run ends. *)

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  req : int;
  name : string;
  t0 : float;
  t1 : float;
}

type buf = { mutable a : span array; mutable n : int; base : int }

let dummy = { id = -1; parent = -1; req = -1; name = ""; t0 = 0.; t1 = 0. }
let registry = ref []
let registry_lock = Mutex.create ()

(* Ids are unique across buffers: buffer k hands out k·2^40 + i. *)
let create () =
  Mutex.lock registry_lock;
  let b = { a = Array.make 1024 dummy; n = 0; base = List.length !registry lsl 40 } in
  registry := b :: !registry;
  Mutex.unlock registry_lock;
  b

let key = Domain.DLS.new_key create
let local () = Domain.DLS.get key
let fresh b = b.base + b.n

let add b s =
  if b.n = Array.length b.a then begin
    let bigger = Array.make (2 * b.n) dummy in
    Array.blit b.a 0 bigger 0 b.n;
    b.a <- bigger
  end;
  b.a.(b.n) <- s;
  b.n <- b.n + 1

(* Reserve an id for a span whose children are recorded before it ends. *)
let reserve b =
  let id = fresh b in
  add b dummy;
  id

let finish b ~id ~parent ~req ~name ~t0 =
  let t1 = Unix.gettimeofday () in
  b.a.(id - b.base) <- { id; parent; req; name; t0; t1 }

let time b ~parent ~req name f =
  let id = reserve b in
  let t0 = Unix.gettimeofday () in
  let r = f () in
  finish b ~id ~parent ~req ~name ~t0;
  r

let spans_of b = List.filter (fun s -> s.id >= 0) (Array.to_list (Array.sub b.a 0 b.n))

(* Every span recorded so far, in every buffer. *)
let collect () =
  Mutex.lock registry_lock;
  let bufs = !registry in
  Mutex.unlock registry_lock;
  List.concat_map spans_of bufs

let write path spans =
  let oc = open_out path in
  output_string oc "# id parent req name start_us dur_us\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d %d %d %s %.1f %.1f\n" s.id s.parent s.req s.name
        (s.t0 *. 1e6) ((s.t1 -. s.t0) *. 1e6))
    spans;
  close_out oc

(* --- summaries ------------------------------------------------------- *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest-rank percentile of an ascending array *)
let pct a q =
  let n = Array.length a in
  if n = 0 then nan
  else a.(min (n - 1) (max 0 (int_of_float (Float.ceil (q *. float_of_int n)) - 1)))

let mean a =
  if Array.length a = 0 then nan
  else Array.fold_left ( +. ) 0. a /. float_of_int (Array.length a)

type stat = { count : int; mean_us : float; p50_us : float; p99_us : float; self_us : float }

(* Per-name duration and self-time statistics; self time is a span's
   duration minus the part its children cover. *)
let summarise spans =
  let child = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0. (Hashtbl.find_opt child s.parent)))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let d = (s.t1 -. s.t0) *. 1e6 in
      let self = d -. (1e6 *. Option.value ~default:0. (Hashtbl.find_opt child s.id)) in
      let ds, ss = Option.value ~default:([], []) (Hashtbl.find_opt by_name s.name) in
      Hashtbl.replace by_name s.name (d :: ds, self :: ss))
    spans;
  Hashtbl.fold
    (fun name (ds, ss) acc ->
      let a = sorted (Array.of_list ds) in
      ( name,
        { count = Array.length a; mean_us = mean a; p50_us = pct a 0.5;
          p99_us = pct a 0.99; self_us = mean (Array.of_list ss) } )
      :: acc)
    by_name []
