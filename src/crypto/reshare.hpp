// Verifiable share redistribution (issue 9) — the cryptographic core of
// online membership reconfiguration.
//
// Redistribution (Desmedt–Jajodia; verifiable per Herzberg et al.) moves a
// shared secret from an old committee (n, t) to a new committee (n', t')
// WITHOUT reconstructing it: each old member j deals a fresh degree-t'
// sharing *of its own share* d_j to the new slots, committing to the
// polynomial so every sub-share is publicly checkable, and binding the
// dealing to the real old share by fixing the constant-term commitment to
// the old public verification value.  Any t+1 verified dealings S let new
// slot i interpolate
//
//     d'_i  =  sum_{j in S} lambda_j * subshare_{j,i}
//
// (lambda_j the Lagrange coefficients of S at 0), which is a degree-t'
// sharing of the ORIGINAL secret; the new per-slot verification values
// follow from the commitments alone, so even parties holding no share —
// clients, a retiring member — can compute the new public key material.
//
// Two instantiations, matching the two share algebras in the deployment:
//
//  * Discrete log (coin, TDH2): a plain Feldman dealing of the old share
//    over Z_q (crypto/vss.hpp); lambda over the field, exact.
//  * Threshold RSA (Shoup): shares live in a group of SECRET order m, so
//    the reshare polynomial is dealt over the integers (coefficients wide
//    enough to statistically hide the share), commitments are v^{a_k} in
//    Z_Nm, and recombination uses the Δ-cleared integer Lagrange
//    coefficients.  The Δ does not cancel: after the epoch the effective
//    clearing constant of the scheme is Δ(n')·Δ(n) — ScaledScheme below
//    carries that compounded factor so ThresholdSigPublicKey::combine
//    works unchanged — and reshared shares are SIGNED integers that grow
//    by a bounded number of bits per epoch (rsa_reshare_share_bits), which
//    the share-width-aware proof bounds in threshold_sig.hpp absorb.
//
// Everything here is committee-geometry only; the epoch protocol that
// orders dealings, fixes the applied set and fingers bad dealers lives in
// protocols/reconfig.hpp.
#pragma once

#include "crypto/threshold_sig.hpp"
#include "crypto/vss.hpp"

namespace sintra::crypto {

// ---- discrete-log redistribution (coin / TDH2 shares over Z_q) -----------

/// Deal old share x_j to a (n_new, t_new) committee: a Feldman dealing with
/// secret x_j, so commitments[0] == g^{x_j} — verifiers MUST check it
/// against the dealer's old public verification value, which is what binds
/// the dealing to the share the dealer really holds.
FeldmanDealing dl_reshare_deal(const Group& group, const BigInt& old_share, int n_new,
                               int t_new, Rng& rng);

/// Interpolate my new share from verified sub-shares of the applied dealers
/// (`old_slots` are the dealers' old committee slots, aligned with
/// `subshares`; exactly t_old+1 of them).
BigInt dl_combine_subshares(const Group& group, const std::vector<int>& old_slots,
                            const std::vector<BigInt>& subshares);

/// New per-slot verification values g^{d'_i} for every new slot, computed
/// from the applied dealers' commitments alone.
std::vector<Element> dl_new_verification(const Group& group, const std::vector<int>& old_slots,
                                         const std::vector<std::vector<Element>>& commitments,
                                         int n_new);

// ---- threshold-RSA redistribution (Shoup shares, unknown group order) ----

/// One old member's verifiable integer resharing of its RSA share.
struct RsaReshareDealing {
  /// C_0 = v^{d_j} (the dealer's OLD verification value — callers must
  /// check the equality), C_k = v^{a_k} for the random coefficients.
  std::vector<BigInt> commitments;
  /// g_j(i+1) for new slot i, over the signed integers (a_0 = d_j may be
  /// negative after a previous reshare; the random a_k are non-negative).
  std::vector<BigInt> subshares;

  /// Deal `old_share` (the dealer's current signed integer share) to the
  /// new committee.  `old_verification` is the dealer's public v^{d_j},
  /// reused verbatim as C_0; `coeff_bits` must be the public per-epoch
  /// width rsa_reshare_coeff_bits(share_bits) so that sub-share bounds are
  /// derivable by every verifier.
  static RsaReshareDealing deal(const BigInt& old_share, const BigInt& old_verification,
                                std::size_t coeff_bits, int n_new, int t_new,
                                const Montgomery::FixedBase& v, const Montgomery& mont,
                                Rng& rng);

  /// Expected v^{g_j(i+1)} for new slot i, from commitments alone.
  static BigInt subshare_image(const std::vector<BigInt>& commitments, int slot,
                               const Montgomery& mont);

  /// Publicly verify new slot `slot`'s (signed) sub-share; `v` is the
  /// key's fixed-base table (ThresholdSigPublicKey::v_table).
  static bool verify_subshare(const std::vector<BigInt>& commitments, int slot,
                              const BigInt& subshare, const Montgomery::FixedBase& v,
                              const Montgomery& mont);
};

/// Interpolate my new signed integer share: sum of Δ-cleared Lagrange
/// multiples of the applied dealers' sub-shares.  `delta_base` is the OLD
/// base clearing constant n_old! (NOT the compounded ScaledScheme delta —
/// the old scheme's coefficients are base-cleared and the compounding is
/// applied once, through the new scheme's delta()).
BigInt rsa_combine_subshares(const std::vector<int>& old_slots,
                             const std::vector<BigInt>& subshares, const BigInt& delta_base);

/// New per-slot verification values v^{d'_i}, from commitments alone.
std::vector<BigInt> rsa_new_verification(const std::vector<int>& old_slots,
                                         const std::vector<std::vector<BigInt>>& commitments,
                                         int n_new, const BigInt& delta_base,
                                         const Montgomery& mont);

// ---- public width bookkeeping (agreed by everyone, no secrets) -----------

/// Width of the random reshare-polynomial coefficients for an epoch whose
/// shares are bounded by `share_bits` bits: wide enough that t' sub-shares
/// statistically hide the share (64 bits of slack, matching the proof
/// slack in threshold_sig.cpp).
std::size_t rsa_reshare_coeff_bits(std::size_t share_bits);

/// Bound (in bits) on |g_j(i+1)| for a dealing with `coeff_bits`-bit
/// coefficients to an (n_new, t_new) committee.
std::size_t rsa_subshare_bits(std::size_t coeff_bits, int n_new, int t_new);

/// Bound (in bits) on the recombined new share |d'_i| — the `share_bits`
/// of the NEW epoch's public key, driving its proof-response bounds.
std::size_t rsa_reshare_share_bits(std::size_t coeff_bits, int n_old, int t_old, int n_new,
                                   int t_new);

// ---- compounded-Δ scheme wrapper -----------------------------------------

/// LinearScheme decorator for a post-reshare RSA key: coefficients() stay
/// those of the base (n', t') threshold scheme — they are what combine()
/// exponentiates shares by — while delta() carries the extra factor the
/// integer redistribution introduced (sum c'_i d'_i == Δ(n')·scale·d mod m,
/// scale = the old scheme's effective delta, compounding across epochs).
/// gcd(4·delta(), e) = 1 still holds: every factor is <= 64 < e = 65537.
class ScaledScheme final : public LinearScheme {
 public:
  ScaledScheme(std::shared_ptr<const LinearScheme> base, BigInt scale)
      : base_(std::move(base)), scale_(std::move(scale)) {}

  [[nodiscard]] int num_parties() const override { return base_->num_parties(); }
  [[nodiscard]] int num_units() const override { return base_->num_units(); }
  [[nodiscard]] int unit_owner(int unit) const override { return base_->unit_owner(unit); }
  [[nodiscard]] std::vector<BigInt> deal(const BigInt& secret, const BigInt& modulus,
                                         Rng& rng) const override {
    return base_->deal(secret, modulus, rng);
  }
  [[nodiscard]] bool qualified(PartySet parties) const override {
    return base_->qualified(parties);
  }
  [[nodiscard]] std::map<int, BigInt> coefficients(PartySet parties) const override {
    return base_->coefficients(parties);
  }
  [[nodiscard]] BigInt delta() const override { return base_->delta() * scale_; }

  [[nodiscard]] const BigInt& scale() const { return scale_; }
  [[nodiscard]] const LinearScheme& base() const { return *base_; }

 private:
  std::shared_ptr<const LinearScheme> base_;
  BigInt scale_;
};

}  // namespace sintra::crypto
