#include "crypto/reshare.hpp"

#include "common/assert.hpp"

namespace sintra::crypto {

namespace {

/// ceil(log2(v+1)) for small positive v — bit width of v as an exponent
/// bound contributor.
std::size_t bit_width(int v) {
  std::size_t bits = 0;
  for (unsigned u = static_cast<unsigned>(v); u != 0; u >>= 1) ++bits;
  return bits == 0 ? 1 : bits;
}

std::vector<int> interpolation_points(const std::vector<int>& old_slots) {
  std::vector<int> points;
  points.reserve(old_slots.size());
  for (int slot : old_slots) {
    SINTRA_REQUIRE(slot >= 0 && slot < 64, "reshare: old slot out of range");
    points.push_back(slot + 1);
  }
  return points;
}

}  // namespace

// ---- discrete log --------------------------------------------------------

FeldmanDealing dl_reshare_deal(const Group& group, const BigInt& old_share, int n_new,
                               int t_new, Rng& rng) {
  return FeldmanDealing::deal(group, old_share, n_new, t_new, rng);
}

BigInt dl_combine_subshares(const Group& group, const std::vector<int>& old_slots,
                            const std::vector<BigInt>& subshares) {
  SINTRA_REQUIRE(old_slots.size() == subshares.size() && !old_slots.empty(),
                 "reshare: dealer/sub-share mismatch");
  const std::vector<int> points = interpolation_points(old_slots);
  BigInt share;
  for (std::size_t j = 0; j < points.size(); ++j) {
    const BigInt lambda = lagrange_field(points, points[j], 0, group.q());
    share = group.scalar_add(share, group.scalar_mul(lambda, subshares[j]));
  }
  return share;
}

std::vector<Element> dl_new_verification(const Group& group, const std::vector<int>& old_slots,
                                         const std::vector<std::vector<Element>>& commitments,
                                         int n_new) {
  SINTRA_REQUIRE(old_slots.size() == commitments.size() && !old_slots.empty(),
                 "reshare: dealer/commitment mismatch");
  const std::vector<int> points = interpolation_points(old_slots);
  std::vector<BigInt> lambdas;
  lambdas.reserve(points.size());
  for (std::size_t j = 0; j < points.size(); ++j) {
    lambdas.push_back(lagrange_field(points, points[j], 0, group.q()));
  }
  std::vector<Element> verification;
  verification.reserve(static_cast<std::size_t>(n_new));
  for (int i = 0; i < n_new; ++i) {
    // g^{d'_i} = prod_j (g^{g_j(i+1)})^{lambda_j}, all from commitments.
    std::vector<std::pair<Element, BigInt>> pairs;
    pairs.reserve(commitments.size());
    for (std::size_t j = 0; j < commitments.size(); ++j) {
      pairs.emplace_back(FeldmanDealing::share_image(group, commitments[j], i), lambdas[j]);
    }
    verification.push_back(group.multi_exp(pairs));
  }
  return verification;
}

// ---- threshold RSA -------------------------------------------------------

RsaReshareDealing RsaReshareDealing::deal(const BigInt& old_share,
                                          const BigInt& old_verification,
                                          std::size_t coeff_bits, int n_new, int t_new,
                                          const Montgomery::FixedBase& v, const Montgomery& mont,
                                          Rng& rng) {
  SINTRA_REQUIRE(n_new >= 1 && t_new >= 0 && t_new < n_new, "reshare: bad new committee");
  SINTRA_REQUIRE(old_share.bit_length() <= coeff_bits,
                 "reshare: share wider than the public coefficient width");
  RsaReshareDealing dealing;
  std::vector<BigInt> coeffs;
  coeffs.reserve(static_cast<std::size_t>(t_new) + 1);
  coeffs.push_back(old_share);
  dealing.commitments.reserve(static_cast<std::size_t>(t_new) + 1);
  dealing.commitments.push_back(old_verification);
  for (int k = 1; k <= t_new; ++k) {
    coeffs.push_back(BigInt::random_bits(rng, coeff_bits));
    dealing.commitments.push_back(mont.pow_fixed(v, coeffs.back()));
  }
  dealing.subshares.reserve(static_cast<std::size_t>(n_new));
  for (int i = 0; i < n_new; ++i) {
    // Horner over the signed integers: no modulus exists to reduce by.
    const BigInt x(i + 1);
    BigInt acc;
    for (std::size_t k = coeffs.size(); k-- > 0;) {
      acc = acc * x + coeffs[k];
    }
    dealing.subshares.push_back(std::move(acc));
  }
  return dealing;
}

BigInt RsaReshareDealing::subshare_image(const std::vector<BigInt>& commitments, int slot,
                                         const Montgomery& mont) {
  SINTRA_REQUIRE(!commitments.empty(), "reshare: empty commitment vector");
  // Horner in the exponent: acc = C_t; acc = acc^x * C_{k}; x = slot + 1.
  const BigInt x(slot + 1);
  BigInt acc = commitments.back().mod(mont.modulus());
  for (std::size_t k = commitments.size() - 1; k-- > 0;) {
    acc = mont.mul_mod(mont.pow(acc, x), commitments[k].mod(mont.modulus()));
  }
  return acc;
}

bool RsaReshareDealing::verify_subshare(const std::vector<BigInt>& commitments, int slot,
                                        const BigInt& subshare,
                                        const Montgomery::FixedBase& v,
                                        const Montgomery& mont) {
  if (commitments.empty()) return false;
  for (const BigInt& c : commitments) {
    if (c.is_negative() || c.is_zero() || c >= mont.modulus()) return false;
  }
  try {
    return pow_signed(v, subshare, mont) == subshare_image(commitments, slot, mont);
  } catch (const ProtocolError&) {
    return false;  // non-invertible base under a negative exponent
  }
}

BigInt rsa_combine_subshares(const std::vector<int>& old_slots,
                             const std::vector<BigInt>& subshares, const BigInt& delta_base) {
  SINTRA_REQUIRE(old_slots.size() == subshares.size() && !old_slots.empty(),
                 "reshare: dealer/sub-share mismatch");
  const std::vector<int> points = interpolation_points(old_slots);
  BigInt share;
  for (std::size_t j = 0; j < points.size(); ++j) {
    share += lagrange_integer(points, points[j], delta_base) * subshares[j];
  }
  return share;
}

std::vector<BigInt> rsa_new_verification(const std::vector<int>& old_slots,
                                         const std::vector<std::vector<BigInt>>& commitments,
                                         int n_new, const BigInt& delta_base,
                                         const Montgomery& mont) {
  SINTRA_REQUIRE(old_slots.size() == commitments.size() && !old_slots.empty(),
                 "reshare: dealer/commitment mismatch");
  const std::vector<int> points = interpolation_points(old_slots);
  std::vector<BigInt> lambdas;
  lambdas.reserve(points.size());
  for (std::size_t j = 0; j < points.size(); ++j) {
    lambdas.push_back(lagrange_integer(points, points[j], delta_base));
  }
  std::vector<BigInt> verification;
  verification.reserve(static_cast<std::size_t>(n_new));
  for (int i = 0; i < n_new; ++i) {
    BigInt value(1);
    for (std::size_t j = 0; j < commitments.size(); ++j) {
      value = mont.mul_mod(
          value, pow_signed(RsaReshareDealing::subshare_image(commitments[j], i, mont),
                            lambdas[j], mont));
    }
    verification.push_back(std::move(value));
  }
  return verification;
}

// ---- width bookkeeping ---------------------------------------------------

std::size_t rsa_reshare_coeff_bits(std::size_t share_bits) { return share_bits + 64; }

std::size_t rsa_subshare_bits(std::size_t coeff_bits, int n_new, int t_new) {
  // |g(i+1)| <= 2^C * (t'+1) * (n')^{t'}.
  return coeff_bits + bit_width(t_new + 1) +
         static_cast<std::size_t>(t_new) * bit_width(n_new);
}

std::size_t rsa_reshare_share_bits(std::size_t coeff_bits, int n_old, int t_old, int n_new,
                                   int t_new) {
  // |d'| <= (t+1) * max|c_j| * max|subshare|; |c_j| <= Δ(n) * n^{t+1}.
  const std::size_t lagrange_bits = BigInt::factorial(static_cast<unsigned>(n_old)).bit_length() +
                                    static_cast<std::size_t>(t_old + 1) * bit_width(n_old);
  return rsa_subshare_bits(coeff_bits, n_new, t_new) + lagrange_bits + bit_width(t_old + 1);
}

}  // namespace sintra::crypto
