open Ledger_storage

type t = bytes -> bytes

exception Timeout of string

let () =
  Printexc.register_printer (function
    | Timeout msg -> Some ("Transport.Timeout: " ^ msg)
    | _ -> None)

type policy = {
  max_attempts : int;
  base_backoff_ms : float;
  max_backoff_ms : float;
  jitter : float;
  request_timeout_ms : float;
}

let default_policy =
  { max_attempts = 6; base_backoff_ms = 50.; max_backoff_ms = 2_000.;
    jitter = 0.5; request_timeout_ms = 1_000. }

let no_retry = { default_policy with max_attempts = 1 }

(* Deterministic jitter: a splitmix-style mix of (seed, attempt) mapped to
   [1 - jitter, 1], so concurrent clients with different seeds desynchronise
   their retries while a fixed seed replays the exact same schedule. *)
let jitter_factor policy ~seed ~attempt =
  if policy.jitter <= 0. then 1.
  else begin
    let z =
      Int64.add
        (Int64.mul (Int64.of_int (seed + 1)) 0x9E3779B97F4A7C15L)
        (Int64.mul (Int64.of_int (attempt + 1)) 0xBF58476D1CE4E5B9L)
    in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    let unit_f =
      Int64.to_float (Int64.logand z 0xFFFFFFL) /. float_of_int 0xFFFFFF
    in
    1. -. (policy.jitter *. unit_f)
  end

(* When the caller supplies a jitter source (e.g. the seeded fault-plan
   RNG), the backoff draw comes from it instead of the (seed, attempt)
   mix — one RNG then governs both the fault schedule and the retry
   schedule, so a chaos scenario replays end to end from one seed. *)
let backoff_ms_drawn policy ~seed ~attempt ~backoff_rng =
  let factor =
    match backoff_rng with
    | None -> jitter_factor policy ~seed ~attempt
    | Some draw ->
        let unit_f = Float.max 0. (Float.min 1. (draw ())) in
        if policy.jitter <= 0. then 1. else 1. -. (policy.jitter *. unit_f)
  in
  let exp =
    policy.base_backoff_ms *. (2. ** float_of_int (max 0 (attempt - 1)))
  in
  Float.min policy.max_backoff_ms exp *. factor

let backoff_ms policy ~seed ~attempt =
  backoff_ms_drawn policy ~seed ~attempt ~backoff_rng:None

type error = { attempts : int; reason : string }

let error_to_string e =
  Printf.sprintf "transport failed after %d attempt%s: %s" e.attempts
    (if e.attempts = 1 then "" else "s")
    e.reason

type failure = Refused of string | Transport of error

let failure_to_string = function
  | Refused msg -> "service refused: " ^ msg
  | Transport e -> error_to_string e

(* [count_failures] lets {!request_expect} reuse the single-attempt body
   without its inner one-shot exhaustion being recorded as a terminal
   transport failure — only the outer loop's give-up counts. *)
let request_counted ?backoff_rng ~count_failures ~policy ~seed ~on_retry ~clock
    transport payload =
  let rec go attempt =
    Ledger_obs.Metrics.incr "transport_attempts_total";
    let t0 = Clock.now clock in
    let outcome =
      match transport payload with
      | exception Timeout msg -> Error ("timeout: " ^ msg)
      | raw -> (
          let elapsed_ms = Clock.ms_of_us (Clock.elapsed_since clock t0) in
          if elapsed_ms > policy.request_timeout_ms then
            Error
              (Printf.sprintf "response after %.1f ms exceeded %.1f ms budget"
                 elapsed_ms policy.request_timeout_ms)
          else
            match Service.decode_response raw with
            | Some resp -> Ok resp
            | None -> Error "garbled response (undecodable)")
    in
    match outcome with
    | Ok resp -> Ok resp
    | Error reason ->
        if attempt >= policy.max_attempts then begin
          if count_failures then
            Ledger_obs.Metrics.incr "transport_failures_total";
          Error { attempts = attempt; reason }
        end
        else begin
          Ledger_obs.Metrics.incr "transport_retries_total";
          on_retry ~attempt ~reason;
          Clock.advance_ms clock
            (backoff_ms_drawn policy ~seed ~attempt ~backoff_rng);
          go (attempt + 1)
        end
  in
  go 1

let request ?(policy = default_policy) ?(seed = 0) ?backoff_rng
    ?(on_retry = fun ~attempt:_ ~reason:_ -> ()) ~clock transport payload =
  request_counted ?backoff_rng ~count_failures:true ~policy ~seed ~on_retry
    ~clock transport payload

let request_expect ?(policy = default_policy) ?(seed = 0) ?backoff_rng
    ?(on_retry = fun ~attempt:_ ~reason:_ -> ()) ~clock ~decode transport
    payload =
  (* A response that decodes but has the wrong shape is indistinguishable
     from a reordered/misdelivered one, so it is retried like a transport
     fault — the attempt budget is shared with byte-level faults.  An
     explicit [Error_r] is the service itself speaking: definitive, never
     retried. *)
  let one_shot = { policy with max_attempts = 1 } in
  let no_op_retry ~attempt:_ ~reason:_ = () in
  let rec go attempt =
    match
      request_counted ~count_failures:false ~policy:one_shot ~seed
        ~on_retry:no_op_retry ~clock transport payload
    with
    | Error { reason; _ } -> transient attempt reason
    | Ok (Service.Error_r msg) -> Error (Refused msg)
    | Ok resp -> (
        match decode resp with
        | Some v -> Ok v
        | None -> transient attempt "unexpected response shape")
  and transient attempt reason =
    if attempt >= policy.max_attempts then begin
      Ledger_obs.Metrics.incr "transport_failures_total";
      Error (Transport { attempts = attempt; reason })
    end
    else begin
      Ledger_obs.Metrics.incr "transport_retries_total";
      on_retry ~attempt ~reason;
      Clock.advance_ms clock (backoff_ms_drawn policy ~seed ~attempt ~backoff_rng);
      go (attempt + 1)
    end
  in
  go 1
