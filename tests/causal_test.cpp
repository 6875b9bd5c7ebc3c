// Secure causal atomic broadcast tests: identical sequencing, duplicate
// ciphertext suppression (inside and past the remembered-id window),
// rejection of invalid ciphertexts, and the confidentiality-until-ordering
// property (front-running resistance).
#include <gtest/gtest.h>

#include <algorithm>

#include "protocols/causal.hpp"
#include "protocols/harness.hpp"

namespace sintra::protocols {
namespace {

using crypto::party_bit;

struct ScState {
  std::unique_ptr<SecureCausalBroadcast> sc;
  std::vector<std::pair<std::uint64_t, Bytes>> delivered;
};

Cluster<ScState> make_cluster(adversary::Deployment deployment, net::Scheduler& sched,
                              crypto::PartySet corrupted = 0, std::uint64_t seed = 1) {
  return Cluster<ScState>(
      std::move(deployment), sched,
      [](net::Party& party, int) {
        auto state = std::make_unique<ScState>();
        state->sc = std::make_unique<SecureCausalBroadcast>(
            party, "sc", [s = state.get()](std::uint64_t seq, Bytes plaintext, Bytes) {
              s->delivered.emplace_back(seq, std::move(plaintext));
            });
        return state;
      },
      corrupted, 0, seed);
}

TEST(CausalTest, RoundTripWithIdenticalSequencing) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 3);
    auto cluster = make_cluster(deployment, sched, 0, seed);
    cluster.start();
    Rng crng(seed + 100);
    const auto& pk = deployment.keys->public_keys().encryption;
    auto ct1 = pk.encrypt(bytes_of("first"), bytes_of("svc"), crng);
    auto ct2 = pk.encrypt(bytes_of("second"), bytes_of("svc"), crng);
    cluster.protocol(0)->sc->submit(ct1);
    cluster.protocol(1)->sc->submit(ct2);
    ASSERT_TRUE(cluster.run_until_all([](ScState& s) { return s.delivered.size() >= 2; },
                                      5000000))
        << "seed " << seed;
    // Identical (sequence, plaintext) at every party.
    auto& reference = cluster.protocol(0)->delivered;
    cluster.for_each([&](int, ScState& s) { EXPECT_EQ(s.delivered, reference); });
    EXPECT_EQ(reference[0].first, 0u);
    EXPECT_EQ(reference[1].first, 1u);
  }
}

TEST(CausalTest, DuplicateCiphertextDeliveredOnce) {
  // A client sends the same ciphertext to several servers: one delivery.
  Rng rng(7);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(7);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  Rng crng(9);
  const auto& pk = deployment.keys->public_keys().encryption;
  auto ct = pk.encrypt(bytes_of("once"), bytes_of("svc"), crng);
  cluster.for_each([&](int, ScState& s) { s.sc->submit(ct); });
  ASSERT_TRUE(cluster.run_until_all([](ScState& s) { return s.delivered.size() >= 1; },
                                    3000000));
  cluster.simulator().run(300000);
  cluster.for_each([](int, ScState& s) { EXPECT_EQ(s.delivered.size(), 1u); });
}

TEST(CausalTest, InvalidCiphertextRefusedAtSubmission) {
  Rng rng(8);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(8);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  Rng crng(10);
  const auto& pk = deployment.keys->public_keys().encryption;
  auto ct = pk.encrypt(bytes_of("x"), bytes_of("svc"), crng);
  ct.data.push_back(0x00);  // breaks the proof
  EXPECT_THROW(cluster.protocol(0)->sc->submit(ct), ProtocolError);
}

TEST(CausalTest, ToleratesCrashedParties) {
  Rng rng(9);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(9);
  auto cluster = make_cluster(deployment, sched, party_bit(3), 9);
  cluster.start();
  Rng crng(11);
  const auto& pk = deployment.keys->public_keys().encryption;
  cluster.protocol(0)->sc->submit(pk.encrypt(bytes_of("resilient"), bytes_of("svc"), crng));
  EXPECT_TRUE(cluster.run_until_all([](ScState& s) { return s.delivered.size() >= 1; },
                                    3000000));
}

TEST(CausalTest, CiphertextRevealsNothingBeforeOrdering) {
  // Structural confidentiality check: the ciphertext bytes that cross the
  // network before ordering contain no plaintext substring, and with fewer
  // than t+1 decryption shares the adversary's combine fails.
  Rng rng(12);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  const auto& pk = deployment.keys->public_keys().encryption;
  Rng crng(13);
  Bytes secret = bytes_of("SECRET-PATENT-CLAIMS");
  auto ct = pk.encrypt(secret, bytes_of("notary"), crng);
  Writer w;
  ct.encode(w, pk.group());
  const Bytes& wire = w.data();
  // No contiguous 4-byte window of the plaintext appears on the wire.
  for (std::size_t i = 0; i + 4 <= secret.size(); ++i) {
    auto it = std::search(wire.begin(), wire.end(), secret.begin() + static_cast<long>(i),
                          secret.begin() + static_cast<long>(i + 4));
    EXPECT_EQ(it, wire.end());
  }
  // Adversary holds t = 1 party's key: cannot decrypt alone.
  Rng arng(14);
  auto shares = deployment.keys->share(2).decryption.decrypt_shares(pk, ct, arng);
  EXPECT_FALSE(pk.combine(ct, shares).has_value());
}

TEST(CausalTest, SequencesContiguousAcrossManySubmissions) {
  Rng rng(15);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(15);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  Rng crng(16);
  const auto& pk = deployment.keys->public_keys().encryption;
  const int total = 8;
  for (int k = 0; k < total; ++k) {
    auto ct = pk.encrypt(bytes_of("doc" + std::to_string(k)), bytes_of("svc"), crng);
    cluster.protocol(k % 4)->sc->submit(ct);
  }
  ASSERT_TRUE(cluster.run_until_all(
      [&](ScState& s) { return s.delivered.size() >= static_cast<std::size_t>(total); },
      20000000));
  cluster.for_each([&](int, ScState& s) {
    for (int k = 0; k < total; ++k) {
      EXPECT_EQ(s.delivered[static_cast<std::size_t>(k)].first, static_cast<std::uint64_t>(k));
    }
  });
}

TEST(CausalTest, SlotsFreedAfterDecryptionWithBoundedIdWindow) {
  // More requests than the remembered-id cap, in waves: after each wave
  // only requests still in flight may hold a slot, and the id window that
  // replaces the old per-request tombstones never exceeds its cap.
  Rng rng(17);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(17);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  Rng crng(18);
  const auto& pk = deployment.keys->public_keys().encryption;
  constexpr std::size_t kCap = RecentWindow::kCap;
  constexpr std::size_t kWave = 256;
  const std::size_t total = kCap + kWave;
  for (std::size_t sent = 0; sent < total; sent += kWave) {
    for (std::size_t k = sent; k < sent + kWave; ++k) {
      auto ct = pk.encrypt(bytes_of("doc" + std::to_string(k)), bytes_of("svc"), crng);
      cluster.protocol(static_cast<int>(k % 4))->sc->submit(ct);
    }
    const std::size_t want = sent + kWave;
    ASSERT_TRUE(cluster.run_until_all([&](ScState& s) { return s.delivered.size() >= want; },
                                      400000000))
        << "after " << sent << " requests";
    cluster.for_each([&](int, ScState& s) {
      EXPECT_LE(s.sc->live_slots(), kWave);
      EXPECT_LE(s.sc->remembered_ids(), kCap);
    });
  }
  cluster.simulator().run(2000000);
  cluster.for_each([&](int, ScState& s) {
    EXPECT_EQ(s.delivered.size(), total);
    EXPECT_EQ(s.sc->remembered_ids(), kCap);
    EXPECT_LE(s.sc->live_slots(), kWave);
    // Identical sequencing everywhere, with the window evicting in order.
    EXPECT_EQ(s.delivered, cluster.protocol(0)->delivered);
  });
}

/// Random delivery, except that while `hold` is set it withholds the
/// decryption shares for ciphertext `id` sent to party `victim` by others.
class HoldSharesScheduler final : public net::Scheduler {
 public:
  HoldSharesScheduler(std::uint64_t seed, int victim) : rng_(seed), victim_(victim) {}

  Bytes id;
  bool hold = true;

  std::optional<std::size_t> pick(const std::vector<net::Message>& pending,
                                  std::uint64_t) override {
    free_.clear();
    for (std::size_t i = 0; i < pending.size(); ++i) {
      if (!held(pending[i])) free_.push_back(i);
    }
    if (free_.empty()) return std::nullopt;
    return free_[static_cast<std::size_t>(rng_.below(free_.size()))];
  }

 private:
  [[nodiscard]] bool held(const net::Message& m) const {
    return hold && m.to == victim_ && m.from != victim_ && m.tag == "sc" &&
           std::search(m.payload.begin(), m.payload.end(), id.begin(), id.end()) !=
               m.payload.end();
  }

  Rng rng_;
  int victim_;
  std::vector<std::size_t> free_;
};

TEST(CausalTest, ReplayPastWindowSequencedAlikeWhileOnePartyStillDecrypts) {
  // A ciphertext X is ordered, and party 3 cannot decrypt it yet (the
  // others' shares for X are withheld from it).  More than the window's
  // worth of other requests is then ordered, so every party forgets X's id
  // and atomic broadcast's own dedupe forgets X too, and X is submitted
  // again.  Party 3 still holds X's slot; the others erased theirs.  Every
  // party must treat the repeat the same way, a second sequence number for
  // X, and deliver identical (sequence, plaintext) lists.
  Rng rng(19);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  HoldSharesScheduler sched(19, 3);
  auto cluster = make_cluster(deployment, sched);
  cluster.start();
  Rng crng(20);
  const auto& pk = deployment.keys->public_keys().encryption;
  const auto x = pk.encrypt(bytes_of("replayed"), bytes_of("svc"), crng);
  sched.id = x.id(pk.group());
  cluster.protocol(0)->sc->submit(x);
  constexpr std::size_t kOthers = RecentWindow::kCap + 1;
  for (std::size_t k = 0; k < kOthers; ++k) {
    auto ct = pk.encrypt(bytes_of("doc" + std::to_string(k)), bytes_of("svc"), crng);
    cluster.protocol(static_cast<int>(k % 3))->sc->submit(ct);
  }
  auto others_delivered = [&](std::size_t want) {
    return cluster.simulator().run_until(
        [&] {
          for (int id = 0; id < 3; ++id) {
            if (cluster.protocol(id)->delivered.size() < want) return false;
          }
          return true;
        },
        400000000);
  };
  ASSERT_TRUE(others_delivered(1 + kOthers));
  EXPECT_TRUE(cluster.protocol(3)->delivered.empty());  // stuck behind X

  cluster.protocol(1)->sc->submit(x);
  ASSERT_TRUE(others_delivered(2 + kOthers));
  cluster.simulator().run(2000000);  // party 3 orders the repeat too
  EXPECT_TRUE(cluster.protocol(3)->delivered.empty());

  sched.hold = false;
  ASSERT_TRUE(cluster.run_until_all(
      [&](ScState& s) { return s.delivered.size() >= 2 + kOthers; }, 20000000));
  cluster.simulator().run(2000000);
  const auto& reference = cluster.protocol(0)->delivered;
  ASSERT_EQ(reference.size(), 2 + kOthers);
  EXPECT_EQ(reference.front().second, bytes_of("replayed"));
  EXPECT_EQ(reference.back().second, bytes_of("replayed"));
  cluster.for_each([&](int, ScState& s) {
    EXPECT_EQ(s.delivered, reference);
    EXPECT_EQ(s.sc->live_slots(), 0u);
  });
}

}  // namespace
}  // namespace sintra::protocols
