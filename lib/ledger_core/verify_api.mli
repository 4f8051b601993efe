(** The unified Verify API of §IV-C:

    {v Verify(lgid, CLUE, *{key, txdata, rho, root}, level) v}

    A single entry point dispatching on the verification target (journal
    existence, whole clue, clue version range, LSP receipt) and the trust
    level ([Server] when the LSP is trusted and verifies in place;
    [Client] when proof objects are assembled, shipped, and replayed by
    the caller).  This mirrors how the production service exposes one
    Verify endpoint over the underlying mechanisms. *)

open Ledger_crypto

type level = Server | Client
(** Where the validation runs (paper §II-C: "verified at server side when
    LSP can be fully trusted; verified at client side when LSP is
    distrusted"). *)

type target =
  | Existence of { jsn : int; payload_digest : Hash.t option }
      (** journal existence against the fam commitment *)
  | Clue of { key : string }
      (** entire N-lineage of a clue *)
  | Clue_range of { key : string; first : int; last : int }
      (** lineage within version boundaries *)
  | Receipt_check of Receipt.t
      (** an LSP receipt held by the client *)
  | Query_complete of {
      spec : Ledger_query.Range_query.spec;
      window : Ledger_query.Range_query.window option;
      page_size : int;
    }
      (** a full paginated range/prefix scan replayed with completeness
          proofs against the ordered query index (DESIGN.md §16); at
          [Server] level the ordered index is checked for internal
          consistency instead *)

type outcome = {
  target : target;
  level : level;
  ok : bool;
  detail : string;
}

val spec_str : Ledger_query.Range_query.spec -> string
(** Short human-readable rendering of a query spec (audit subjects,
    outcome printing). *)

val level_str : level -> string
(** ["server"] or ["client"] — the audit-log verifier label. *)

val recomputed_tx : Ledger.t -> Journal.t -> Hash.t
(** A journal's tx-hash recomputed from its stored content; for an
    occulted journal (payload gone, Protocol 2) the retained leaf hash
    stands in.  Shared by the [Server] existence check and the audit's
    replay. *)

val check : Ledger.t -> level:level -> target -> outcome
(** The verdict step: replay the proof (or, at [Server] level, the
    in-place check) against the ledger's current state.  Emits the
    [verify] span and one [verify_latency_us] sample (simulated µs on
    the ledger's clock) while observability is enabled, but writes no
    audit-log entry: the party that ran the check records it, exactly
    once ({!verify}, [verify_sharded], [Audit.run]). *)

val verify : Ledger.t -> level:level -> target -> outcome
(** {!check}, then one audit-log entry under the verifier
    {!level_str}[ level] when observability is enabled.  Every call
    replays its proof: a verdict is never reused, so tampering with
    stored journals shows up on the next call. *)

val record : verifier:string -> outcome -> unit
(** Append the outcome to the audit log under [verifier] (no-op while
    observability is disabled). *)

val verify_all : Ledger.t -> level:level -> target list -> outcome list * bool
(** All targets; the conjunction is the second component (any failure
    fails the batch, as in the audit). *)

val pp_outcome : Format.formatter -> outcome -> unit
