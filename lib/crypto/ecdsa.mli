(** ECDSA over secp256k1 with deterministic nonces.

    This is the non-repudiation primitive of the ledger (paper §III-C):
    clients sign requests (π_c), the LSP signs receipts (π_s), and the TSA
    signs digest–timestamp pairs (π_t).  Nonces are derived RFC-6979-style
    from HMAC-SHA256, so signing is deterministic and needs no entropy
    source inside the sealed test environment. *)

type private_key

type public_key = Secp256k1.point
(** Transparent alias so callers (and the vector suite) can feed curve
    points — including pathological ones like the point at infinity —
    straight into {!verify}; [Secp256k1.point] itself stays abstract. *)

type signature = { r : Uint256.t; s : Uint256.t }

val generate : seed:string -> private_key * public_key
(** Derive a keypair deterministically from a seed string.  Distinct seeds
    give (overwhelmingly) distinct keys. *)

val public_key : private_key -> public_key
(** Normalised to Z = 1, like the keys of {!generate} and
    {!public_key_of_bytes}: {!public_key_to_bytes} and {!public_key_id}
    on such a key serialise it without a field inversion. *)

val sign : private_key -> Hash.t -> signature
(** Sign a 32-byte message digest. *)

val verify : public_key -> Hash.t -> signature -> bool
(** Check a signature against a digest; total (never raises). *)

val public_key_to_bytes : public_key -> bytes
(** 64-byte uncompressed encoding (x ∥ y). *)

val public_key_of_bytes : bytes -> public_key option
(** Parse and validate a 64-byte encoding; [None] if not on the curve. *)

val public_key_id : public_key -> Hash.t
(** Digest of the encoded public key — used as a member identifier. *)

val signature_to_bytes : signature -> bytes
(** 64-byte encoding (r ∥ s). *)

val signature_of_bytes : bytes -> signature option

val pp_signature : Format.formatter -> signature -> unit

(** {1 Reference pipeline}

    Signer/verifier over {!Secp256k1.Ref} — the pre-kernel long-division
    scalar arithmetic and double-and-add ladders.  Nonce derivation is
    identical, so [Ref.sign] must produce bit-for-bit the same signature
    as {!sign}; the differential suites assert this on every build. *)

module Ref : sig
  val sign : private_key -> Hash.t -> signature
  val verify : public_key -> Hash.t -> signature -> bool
end
