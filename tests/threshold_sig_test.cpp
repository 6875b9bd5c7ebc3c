// Threshold RSA signature tests (Shoup's scheme): share validity,
// combination, robustness, dual thresholds, and the generalized-structure
// instantiation used for protocol certificates.
#include <gtest/gtest.h>

#include "adversary/examples.hpp"
#include "crypto/batch.hpp"
#include "crypto/reshare.hpp"
#include "crypto/shamir.hpp"
#include "crypto/threshold_sig.hpp"

namespace sintra::crypto {
namespace {

/// The combine formula before its one-inversion form, kept as the
/// reference: w = prod value_j^{2 c_j} first, then y = w^a * x^b, with an
/// inversion for every negative exponent.
std::optional<BigInt> reference_combine(const ThresholdSigPublicKey& pk, BytesView message,
                                        const std::vector<SigShare>& shares) {
  const LinearScheme& scheme = pk.scheme();
  PartySet parties = 0;
  std::map<int, BigInt> by_unit;
  for (const SigShare& share : shares) {
    by_unit.emplace(share.unit, share.value);
    parties |= party_bit(scheme.unit_owner(share.unit));
  }
  if (!scheme.qualified(parties)) return std::nullopt;
  const BigInt& modulus = pk.modulus();
  BigInt w(1);
  for (const auto& [unit, coeff] : scheme.coefficients(parties)) {
    w = BigInt::mul_mod(w, pow_signed(by_unit.at(unit), coeff * BigInt(2), pk.mont()), modulus);
  }
  BigInt a;
  BigInt b;
  BigInt::extended_gcd(scheme.delta() * BigInt(4), pk.exponent(), a, b);
  const BigInt y = BigInt::mul_mod(pow_signed(w, a, pk.mont()),
                                   pow_signed(pk.hash_to_base(message), b, pk.mont()), modulus);
  if (!pk.verify(message, y)) return std::nullopt;
  return y;
}

std::vector<SigShare> sign_all(const ThresholdSigPublicKey& pk,
                               const std::vector<ThresholdSigSecretKey>& keys,
                               const std::vector<int>& parties, BytesView message, Rng& rng) {
  std::vector<SigShare> out;
  for (int p : parties) {
    for (auto& s : keys[static_cast<std::size_t>(p)].sign(pk, message, rng)) out.push_back(s);
  }
  return out;
}

class ThresholdSigTest : public ::testing::Test {
 protected:
  ThresholdSigTest()
      : rng_(123),
        deal_(ThresholdSigDeal::deal(RsaParams::precomputed(128),
                                     std::make_shared<ThresholdScheme>(5, 1), rng_)) {}

  std::vector<SigShare> shares_for(BytesView message, std::initializer_list<int> parties) {
    std::vector<SigShare> out;
    for (int p : parties) {
      for (auto& s : deal_.secret_keys[static_cast<std::size_t>(p)].sign(deal_.public_key,
                                                                         message, rng_)) {
        out.push_back(s);
      }
    }
    return out;
  }

  Rng rng_;
  ThresholdSigDeal deal_;
};

TEST_F(ThresholdSigTest, PrecomputedParamsAreSafePrimes) {
  Rng rng(1);
  for (int bits : {128, 256, 512}) {
    RsaParams params = RsaParams::precomputed(bits);
    EXPECT_TRUE(params.p.is_probable_prime(rng));
    EXPECT_TRUE(params.q.is_probable_prime(rng));
    EXPECT_TRUE(((params.p - BigInt(1)).shifted_right(1)).is_probable_prime(rng));
    EXPECT_TRUE(((params.q - BigInt(1)).shifted_right(1)).is_probable_prime(rng));
    EXPECT_EQ(params.p.bit_length(), static_cast<std::size_t>(bits));
  }
  EXPECT_THROW(RsaParams::precomputed(100), ProtocolError);
}

TEST_F(ThresholdSigTest, SharesVerify) {
  Bytes message = bytes_of("sign me");
  for (const auto& share : shares_for(message, {0, 1, 2, 3, 4})) {
    EXPECT_TRUE(deal_.public_key.verify_share(message, share));
  }
}

TEST_F(ThresholdSigTest, CombineAndVerify) {
  Bytes message = bytes_of("attack at dawn");
  auto sig = deal_.public_key.combine(message, shares_for(message, {0, 1}));
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(deal_.public_key.verify(message, *sig));
  EXPECT_FALSE(deal_.public_key.verify(bytes_of("attack at dusk"), *sig));
}

TEST_F(ThresholdSigTest, DisjointSubsetsProduceVerifyingSignatures) {
  Bytes message = bytes_of("consistent");
  auto a = deal_.public_key.combine(message, shares_for(message, {0, 1}));
  auto b = deal_.public_key.combine(message, shares_for(message, {2, 3}));
  ASSERT_TRUE(a && b);
  EXPECT_TRUE(deal_.public_key.verify(message, *a));
  EXPECT_TRUE(deal_.public_key.verify(message, *b));
  // RSA signatures are unique: both subsets yield the same signature.
  EXPECT_EQ(*a, *b);
}

TEST_F(ThresholdSigTest, UnqualifiedSetFails) {
  Bytes message = bytes_of("too few");
  EXPECT_FALSE(deal_.public_key.combine(message, shares_for(message, {0})).has_value());
}

TEST_F(ThresholdSigTest, TamperedShareValueRejected) {
  Bytes message = bytes_of("robust");
  auto shares = shares_for(message, {0, 1});
  SigShare bad = shares[0];
  bad.value = BigInt::mul_mod(bad.value, BigInt(2), deal_.public_key.modulus());
  EXPECT_FALSE(deal_.public_key.verify_share(message, bad));
}

TEST_F(ThresholdSigTest, ShareForOtherMessageRejected) {
  Bytes m1 = bytes_of("message one");
  Bytes m2 = bytes_of("message two");
  auto shares = shares_for(m1, {2});
  EXPECT_FALSE(deal_.public_key.verify_share(m2, shares[0]));
}

TEST_F(ThresholdSigTest, OversizedProofFieldsRejected) {
  Bytes message = bytes_of("bounds");
  auto shares = shares_for(message, {0});
  SigShare bad = shares[0];
  bad.a1 = deal_.public_key.modulus() + BigInt(1);  // commitment out of range
  EXPECT_FALSE(deal_.public_key.verify_share(message, bad));
  SigShare bad2 = shares[0];
  bad2.response = BigInt(1).shifted_left(4096);
  EXPECT_FALSE(deal_.public_key.verify_share(message, bad2));
  SigShare bad3 = shares[0];
  bad3.unit = 77;
  EXPECT_FALSE(deal_.public_key.verify_share(message, bad3));
  SigShare bad4 = shares[0];
  bad4.a2 = BigInt(0);
  EXPECT_FALSE(deal_.public_key.verify_share(message, bad4));
}

TEST_F(ThresholdSigTest, ForgedSignatureRejected) {
  Bytes message = bytes_of("forge me");
  EXPECT_FALSE(deal_.public_key.verify(message, BigInt(12345)));
  EXPECT_FALSE(deal_.public_key.verify(message, BigInt(0)));
  EXPECT_FALSE(deal_.public_key.verify(message, deal_.public_key.modulus()));
}

TEST_F(ThresholdSigTest, SerializationRoundTrip) {
  Bytes message = bytes_of("serialize");
  auto shares = shares_for(message, {3});
  Writer w;
  shares[0].encode(w);
  Reader r(w.data());
  SigShare decoded = SigShare::decode(r);
  r.expect_done();
  EXPECT_TRUE(deal_.public_key.verify_share(message, decoded));
}

TEST(ThresholdSigDualTest, HighThresholdScheme) {
  // The certificate key uses the n−t threshold: with n = 7, t = 2 any 5
  // combine and 4 do not — the quorum-certificate semantics of the stack.
  Rng rng(5);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(128),
                                     std::make_shared<ThresholdScheme>(7, 4), rng);
  Bytes message = bytes_of("quorum cert");
  std::vector<SigShare> shares;
  for (int p = 0; p < 5; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].sign(deal.public_key, message,
                                                                      rng)) {
      shares.push_back(s);
    }
  }
  std::vector<SigShare> four(shares.begin(), shares.begin() + 4);
  EXPECT_FALSE(deal.public_key.combine(message, four).has_value());
  auto sig = deal.public_key.combine(message, shares);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(deal.public_key.verify(message, *sig));
}

TEST(ThresholdSigGeneralTest, WorksOverExample1QuorumLsss) {
  // Certificate signatures over the generalized quorum structure of
  // Example 1: P ∖ S for S ∈ A* qualifies, a corruptible set does not.
  Rng rng(9);
  auto structure = adversary::example1_access().to_adversary_structure(9);
  auto scheme = std::make_shared<adversary::LsssScheme>(
      adversary::Formula::quorum_formula(structure), 9);
  auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(128), scheme, rng);
  Bytes message = bytes_of("general cert");

  auto sign_set = [&](std::vector<int> parties) {
    std::vector<SigShare> out;
    for (int p : parties) {
      for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].sign(deal.public_key,
                                                                        message, rng)) {
        EXPECT_TRUE(deal.public_key.verify_share(message, s));
        out.push_back(s);
      }
    }
    return out;
  };

  // Complement of the class-a set {0,1,2,3}: a legitimate quorum.
  auto sig = deal.public_key.combine(message, sign_set({4, 5, 6, 7, 8}));
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(deal.public_key.verify(message, *sig));
  // Complement of a pair: also a quorum.
  auto sig2 = deal.public_key.combine(message, sign_set({0, 1, 2, 3, 6, 7, 8}));
  ASSERT_TRUE(sig2.has_value());
  EXPECT_EQ(*sig, *sig2);  // RSA uniqueness across recombination sets
  // The class-a set itself: corruptible, cannot certify.
  EXPECT_FALSE(deal.public_key.combine(message, sign_set({0, 1, 2, 3})).has_value());
}

TEST(ThresholdSigCombineTest, MatchesReferenceFormulaOnThresholdAndLsssKeys) {
  Rng rng(31);
  auto example1 = adversary::example1_access().to_adversary_structure(9);
  const std::vector<std::pair<std::shared_ptr<const LinearScheme>,
                              std::vector<std::vector<int>>>>
      cases = {
          {std::make_shared<ThresholdScheme>(4, 1), {{0, 1}, {2, 3}, {0, 3}, {1, 2, 3}}},
          {std::make_shared<ThresholdScheme>(7, 4), {{0, 1, 2, 3, 4}, {2, 3, 4, 5, 6}}},
          {std::make_shared<adversary::LsssScheme>(
               adversary::Formula::quorum_formula(example1), 9),
           {{4, 5, 6, 7, 8}, {0, 1, 2, 3, 6, 7, 8}}},
      };
  for (const auto& [scheme, quorums] : cases) {
    for (int bits : {128, 256}) {
      auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(bits), scheme, rng);
      for (int m = 0; m < 3; ++m) {
        const Bytes message = bytes_of("statement " + std::to_string(m));
        for (const auto& quorum : quorums) {
          const auto shares = sign_all(deal.public_key, deal.secret_keys, quorum, message, rng);
          const auto want = reference_combine(deal.public_key, message, shares);
          ASSERT_TRUE(want.has_value());
          EXPECT_EQ(deal.public_key.combine(message, shares), want);
        }
      }
    }
  }
}

TEST(ThresholdSigCombineTest, MatchesReferenceFormulaOnResharedKey) {
  // Redistributed shares are signed integers (interpolating at dealers
  // {2, 3} gives 4 g_2 - 3 g_3, negative for some seeds) and the scheme's
  // coefficients carry a compounded delta: both signs of every exponent
  // occur.
  bool negative_share = false;
  for (std::uint64_t seed = 32; seed < 40; ++seed) {
    Rng rng(seed);
    auto scheme = std::make_shared<const ThresholdScheme>(4, 1);
    auto deal = ThresholdSigDeal::deal(RsaParams::precomputed(128), scheme, rng);
    const auto& pk = deal.public_key;
    const std::vector<int> dealers = {2, 3};
    const std::size_t coeff_bits = rsa_reshare_coeff_bits(pk.modulus().bit_length());
    std::vector<std::vector<BigInt>> commitments;
    std::vector<RsaReshareDealing> dealings;
    for (int j : dealers) {
      dealings.push_back(RsaReshareDealing::deal(
          deal.secret_keys[static_cast<std::size_t>(j)].unit_shares().at(j), pk.verification(j),
          coeff_bits, 5, 1, pk.v_table(), pk.mont(), rng));
      commitments.push_back(dealings.back().commitments);
    }
    std::vector<ThresholdSigSecretKey> keys;
    for (int slot = 0; slot < 5; ++slot) {
      std::vector<BigInt> subshares;
      for (const auto& dealing : dealings) {
        subshares.push_back(dealing.subshares[static_cast<std::size_t>(slot)]);
      }
      BigInt share = rsa_combine_subshares(dealers, subshares, scheme->delta());
      negative_share = negative_share || share.is_negative();
      keys.emplace_back(slot, std::map<int, BigInt>{{slot, std::move(share)}});
    }
    const ThresholdSigPublicKey new_pk(
        pk.modulus(), pk.exponent(), pk.v(),
        rsa_new_verification(dealers, commitments, 5, scheme->delta(), pk.mont()),
        std::make_shared<const ScaledScheme>(std::make_shared<const ThresholdScheme>(5, 1),
                                             scheme->delta()),
        rsa_reshare_share_bits(coeff_bits, 4, 1, 5, 1));
    const Bytes message = bytes_of("post-epoch " + std::to_string(seed));
    for (const std::vector<int>& quorum : {std::vector<int>{1, 4}, {0, 2}, {3, 4}}) {
      const auto shares = sign_all(new_pk, keys, quorum, message, rng);
      for (const SigShare& share : shares) EXPECT_TRUE(new_pk.verify_share(message, share));
      const auto want = reference_combine(new_pk, message, shares);
      ASSERT_TRUE(want.has_value());
      EXPECT_EQ(new_pk.combine(message, shares), want);
      EXPECT_TRUE(pk.verify(message, *want));
    }
  }
  EXPECT_TRUE(negative_share);  // the signed-share paths were exercised
}

TEST_F(ThresholdSigTest, ConsistentProofForWrongValueRejected) {
  // A share holder proves knowledge of d honestly (a1 = v^r, z = r + c d,
  // so v^z == a1 * v_unit^c holds) but ships a value other than x^{2d}:
  // only the second equation, (x^2)^z == a2 * value^c, can catch it.
  const Bytes message = bytes_of("wrong value");
  const ThresholdSigPublicKey& pk = deal_.public_key;
  const auto& [unit, d] = *deal_.secret_keys[0].unit_shares().begin();
  const BigInt& modulus = pk.modulus();
  const BigInt x = pk.hash_to_base(message);
  const BigInt x_squared = BigInt::mul_mod(x, x, modulus);
  SigShare forged;
  forged.unit = unit;
  forged.value = BigInt::mul_mod(BigInt::pow_mod(x_squared, d, modulus), x, modulus);
  const BigInt r = BigInt::random_bits(rng_, pk.share_bits() + 192);
  forged.a1 = BigInt::pow_mod(pk.v(), r, modulus);
  forged.a2 = BigInt::pow_mod(x_squared, r, modulus);
  const BigInt c = sig_share_challenge(modulus, unit, pk.v(), pk.verification(unit), x_squared,
                                       forged.value, forged.a1, forged.a2);
  forged.response = r + c * d;
  ASSERT_EQ(BigInt::pow_mod(pk.v(), forged.response, modulus),
            BigInt::mul_mod(forged.a1, BigInt::pow_mod(pk.verification(unit), c, modulus),
                            modulus));
  EXPECT_FALSE(pk.verify_share(message, forged));
  const std::vector<SigShare> set = {forged, shares_for(message, {1})[0]};
  EXPECT_FALSE(batch::verify_sig_shares(pk, message, set, rng_));
  EXPECT_EQ(batch::find_invalid_sig_shares(pk, message, set, rng_), std::vector<std::size_t>{0});
}

TEST_F(ThresholdSigTest, NonUnitShareFieldsRejectedWithoutInverse) {
  // A share field that shares the factor p with Nm: the inversion-free
  // checks must still fail it, single and batched, and combine must
  // report failure rather than throw.
  const RsaParams params = RsaParams::precomputed(128);
  const BigInt& modulus = deal_.public_key.modulus();
  ASSERT_EQ(modulus, params.p * params.q);
  Rng rng(33);
  const Bytes message = bytes_of("non-unit");
  const auto honest = shares_for(message, {0, 1});
  for (int field = 0; field < 3; ++field) {
    const BigInt k = BigInt(1) + BigInt::random_below(rng, params.q - BigInt(1));
    const BigInt non_unit = params.p * k;
    ASSERT_LT(non_unit, modulus);
    SigShare bad = honest[0];
    (field == 0 ? bad.value : field == 1 ? bad.a1 : bad.a2) = non_unit;
    EXPECT_FALSE(deal_.public_key.verify_share(message, bad)) << "field " << field;
    const std::vector<SigShare> set = {bad, honest[1]};
    EXPECT_FALSE(batch::verify_sig_shares(deal_.public_key, message, set, rng));
    EXPECT_EQ(batch::find_invalid_sig_shares(deal_.public_key, message, set, rng),
              std::vector<std::size_t>{0});
    if (field == 0) {
      EXPECT_FALSE(deal_.public_key.combine(message, set).has_value());
    }
  }
}

TEST(ThresholdSigGenerateTest, FreshSafePrimesWork) {
  // End-to-end with generated (small) safe primes instead of precomputed.
  Rng rng(17);
  RsaParams params = RsaParams::generate(rng, 96);
  auto deal =
      ThresholdSigDeal::deal(params, std::make_shared<ThresholdScheme>(4, 1), rng);
  Bytes message = bytes_of("fresh params");
  std::vector<SigShare> shares;
  for (int p = 0; p < 2; ++p) {
    for (auto& s : deal.secret_keys[static_cast<std::size_t>(p)].sign(deal.public_key, message,
                                                                      rng)) {
      shares.push_back(s);
    }
  }
  auto sig = deal.public_key.combine(message, shares);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(deal.public_key.verify(message, *sig));
}

}  // namespace
}  // namespace sintra::crypto
