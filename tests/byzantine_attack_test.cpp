// Active Byzantine attack tests: attackers that HOLD their dealt keys and
// misuse them — replaying shares across instances, forging certificates,
// injecting bogus shares — plus cross-instance domain-separation checks.
// These are the attacks the paper's robustness machinery (NIZK validity
// proofs, statement domain separation, quorum certificates) exists for.
#include <gtest/gtest.h>

#include "app/ca.hpp"
#include "app/client.hpp"
#include "crypto/sha256.hpp"
#include "protocols/abba.hpp"
#include "protocols/consistent.hpp"
#include "protocols/harness.hpp"
#include "protocols/optimistic.hpp"
#include "protocols/vba.hpp"

namespace sintra {
namespace {

using crypto::BigInt;
using crypto::CoinShare;
using crypto::SigShare;

// ---- cross-instance replay (domain separation) ------------------------------

class ReplayTest : public ::testing::Test {
 protected:
  ReplayTest() : rng_(42), deployment_(adversary::Deployment::threshold(4, 1, rng_)) {}
  Rng rng_;
  adversary::Deployment deployment_;
};

TEST_F(ReplayTest, CoinShareBoundToName) {
  // A coin share for instance A replayed into instance B must not verify:
  // the Chaum–Pedersen proof covers the coin base H(name).
  const auto& pk = deployment_.keys->public_keys().coin;
  Bytes name_a = bytes_of("ba/instance-a/coin/1");
  Bytes name_b = bytes_of("ba/instance-b/coin/1");
  auto shares = deployment_.keys->share(0).coin.share(pk, name_a, rng_);
  ASSERT_FALSE(shares.empty());
  EXPECT_TRUE(pk.verify_share(name_a, shares[0]));
  EXPECT_FALSE(pk.verify_share(name_b, shares[0]));
}

TEST_F(ReplayTest, SigShareBoundToStatement) {
  const auto& pk = deployment_.keys->public_keys().cert_sig;
  Bytes stmt_a = bytes_of("abba pre r1 v1 instance-a");
  Bytes stmt_b = bytes_of("abba pre r1 v1 instance-b");
  auto shares = deployment_.keys->share(1).cert_sig.sign(pk, stmt_a, rng_);
  EXPECT_TRUE(pk.verify_share(stmt_a, shares[0]));
  EXPECT_FALSE(pk.verify_share(stmt_b, shares[0]));
}

TEST_F(ReplayTest, CombinedSignatureBoundToStatement) {
  const auto& pk = deployment_.keys->public_keys().cert_sig;
  Bytes stmt_a = bytes_of("statement a");
  std::vector<SigShare> shares;
  for (int p = 0; p < 3; ++p) {
    for (auto& s : deployment_.keys->share(p).cert_sig.sign(pk, stmt_a, rng_)) {
      shares.push_back(s);
    }
  }
  auto sig = pk.combine(stmt_a, shares);
  ASSERT_TRUE(sig.has_value());
  EXPECT_TRUE(pk.verify(stmt_a, *sig));
  EXPECT_FALSE(pk.verify(bytes_of("statement b"), *sig));
}

TEST_F(ReplayTest, Tdh2ShareBoundToCiphertext) {
  const auto& pk = deployment_.keys->public_keys().encryption;
  auto ct_a = pk.encrypt(bytes_of("a"), bytes_of("l"), rng_);
  auto ct_b = pk.encrypt(bytes_of("b"), bytes_of("l"), rng_);
  auto shares = deployment_.keys->share(2).decryption.decrypt_shares(pk, ct_a, rng_);
  ASSERT_FALSE(shares.empty());
  EXPECT_TRUE(pk.verify_share(ct_a, shares[0]));
  EXPECT_FALSE(pk.verify_share(ct_b, shares[0]));
}

TEST_F(ReplayTest, SharesAcrossKeySchemesDoNotCrossVerify) {
  // cert_sig and reply_sig are different dealings of different access
  // structures; shares must not cross-verify even on the same statement.
  const auto& cert_pk = deployment_.keys->public_keys().cert_sig;
  const auto& reply_pk = deployment_.keys->public_keys().reply_sig;
  Bytes stmt = bytes_of("same statement");
  auto cert_shares = deployment_.keys->share(0).cert_sig.sign(cert_pk, stmt, rng_);
  EXPECT_FALSE(reply_pk.verify_share(stmt, cert_shares[0]));
}

TEST_F(ReplayTest, ShareFromOtherPartyNotAttributable) {
  // Unit-ownership checks: party 1's share claimed by party 0 is detected
  // because the unit index maps to its true owner.
  const auto& pk = deployment_.keys->public_keys().cert_sig;
  Bytes stmt = bytes_of("ownership");
  auto shares = deployment_.keys->share(1).cert_sig.sign(pk, stmt, rng_);
  EXPECT_EQ(pk.scheme().unit_owner(shares[0].unit), 1);  // not 0
}

// ---- active ABBA attacker with keys -----------------------------------------

/// Byzantine voter: sends pre-votes with garbage certificate shares and
/// fabricated hard justifications for every round it hears about.
class ForgingVoter final : public net::Process {
 public:
  ForgingVoter(net::Simulator& sim, int id, adversary::Deployment deployment,
               std::uint64_t seed)
      : party_(sim, id, std::move(deployment), seed), rng_(seed) {}

  void on_start() override {
    // Round-1 pre-votes with a forged anchor (random BigInt).
    for (int value : {0, 1}) {
      Writer w;
      w.u8(0);  // kPreVote
      w.u32(1);
      w.u8(static_cast<std::uint8_t>(value));
      w.u8(0);  // kJustAnchor
      BigInt::from_bytes(rng_.bytes(32)).encode(w);  // forged anchor signature
      w.u32(0);  // zero shares
      blast(w.take());
    }
    // A forged DECIDE certificate.
    Writer w;
    w.u8(3);  // kDecide
    w.u32(1);
    w.u8(1);
    BigInt::from_bytes(rng_.bytes(32)).encode(w);
    blast(w.take());
  }
  void on_message(const net::Message&) override {}

 private:
  void blast(Bytes payload) {
    for (int to = 0; to < party_.n(); ++to) {
      if (to == party_.id()) continue;
      net::Message m;
      m.from = party_.id();
      m.to = to;
      m.tag = "ba/0";
      m.payload = payload;
      party_.network().submit(std::move(m));
    }
  }

  net::Party party_;
  Rng rng_;
};

struct AbbaState {
  std::unique_ptr<protocols::Abba> abba;
  std::optional<bool> decision;
};

/// Submits `payload` on `tag` as if party `from` had sent it to each of
/// `to`.  Called before the protocols start, FIFO delivery lands it ahead
/// of every honest message.
void inject(net::Simulator& sim, int from, std::initializer_list<int> to, const std::string& tag,
            const Bytes& payload) {
  for (int dest : to) {
    net::Message m;
    m.from = from;
    m.to = dest;
    m.tag = tag;
    m.payload = payload;
    sim.submit(std::move(m));
  }
}

protocols::Cluster<AbbaState> abba_cluster(const adversary::Deployment& deployment,
                                           net::Scheduler& sched, std::uint64_t seed) {
  return protocols::Cluster<AbbaState>(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<AbbaState>();
        s->abba = std::make_unique<protocols::Abba>(
            party, "ba/0", [p = s.get()](bool v, int) { p->decision = v; });
        return s;
      },
      0, 0, seed);
}

TEST(AbbaAttackTest, ForgedJustificationsRejectedAndAgreementHolds) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    auto deployment = adversary::Deployment::threshold(4, 1, rng);
    net::RandomScheduler sched(seed * 5);
    auto cluster = abba_cluster(deployment, sched, seed);
    cluster.attach_custom(3, std::make_unique<ForgingVoter>(cluster.simulator(), 3,
                                                            deployment, seed));
    cluster.start();
    // All honest parties propose 1: validity must give 1 despite the
    // attacker's forged 0-votes and forged DECIDE for... 1 (which is
    // invalid anyway and must be rejected on signature grounds).
    cluster.for_each([](int, AbbaState& s) { s.abba->start(true); });
    ASSERT_TRUE(cluster.run_until_all([](AbbaState& s) { return s.decision.has_value(); },
                                      3000000))
        << "seed " << seed;
    cluster.for_each([&](int, AbbaState& s) {
      EXPECT_TRUE(*s.decision) << "validity violated under forging attacker, seed " << seed;
    });
  }
}

/// Replays a victim's recorded pre-vote into a different ABBA instance.
class CrossInstanceReplayer final : public net::Process {
 public:
  explicit CrossInstanceReplayer(net::Simulator& sim, int id) : sim_(sim), id_(id) {}
  void on_message(const net::Message& message) override {
    // Capture traffic for instance A and mirror it into instance B.
    if (message.tag != "ba/A") return;
    net::Message replay = message;
    replay.from = id_;
    replay.tag = "ba/B";
    for (int to = 0; to < sim_.n(); ++to) {
      if (to == id_) continue;
      replay.to = to;
      net::Message copy = replay;
      sim_.submit(std::move(copy));
    }
  }

 private:
  net::Simulator& sim_;
  int id_;
};

struct TwoAbbaState {
  std::unique_ptr<protocols::Abba> a;
  std::unique_ptr<protocols::Abba> b;
  std::optional<bool> decision_a;
  std::optional<bool> decision_b;
};

TEST(AbbaAttackTest, CrossInstanceReplayCannotFlipOutcome) {
  // Instance A decides 1 (all honest input 1); instance B has all honest
  // input 0.  The attacker mirrors A's traffic into B.  Domain separation
  // (the instance tag inside every signed statement and coin name) makes
  // the replayed material worthless: B must still decide 0.
  Rng rng(9);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(9);
  protocols::Cluster<TwoAbbaState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<TwoAbbaState>();
        s->a = std::make_unique<protocols::Abba>(
            party, "ba/A", [p = s.get()](bool v, int) { p->decision_a = v; });
        s->b = std::make_unique<protocols::Abba>(
            party, "ba/B", [p = s.get()](bool v, int) { p->decision_b = v; });
        return s;
      },
      0, 0, 9);
  cluster.attach_custom(3,
                        std::make_unique<CrossInstanceReplayer>(cluster.simulator(), 3));
  cluster.start();
  cluster.for_each([](int, TwoAbbaState& s) {
    s.a->start(true);
    s.b->start(false);
  });
  ASSERT_TRUE(cluster.run_until_all(
      [](TwoAbbaState& s) {
        return s.decision_a.has_value() && s.decision_b.has_value();
      },
      5000000));
  cluster.for_each([](int, TwoAbbaState& s) {
    EXPECT_TRUE(*s.decision_a);
    EXPECT_FALSE(*s.decision_b) << "cross-instance replay flipped the outcome";
  });
}

// ---- well-formed-but-invalid shares vs the optimistic combiner ---------------

/// Holds its dealt certificate key and signs the CORRECT statement, then
/// perturbs the proof response: the share is structurally perfect (right
/// unit, in-range values) and only the deferred batch verification can
/// tell it from an honest one.
class BadCertShareSender final : public net::Process {
 public:
  BadCertShareSender(net::Simulator& sim, int id, adversary::Deployment deployment,
                     Bytes message)
      : sim_(sim), id_(id), deployment_(std::move(deployment)), message_(std::move(message)) {}

  void on_start() override {
    Rng rng(7777);
    const auto& pk = deployment_.keys->public_keys().cert_sig;
    const Bytes stmt = protocols::consistent_statement("cbc/x", message_);
    auto shares = deployment_.keys->share(id_).cert_sig.sign(pk, stmt, rng);
    // Tamper the share VALUE, keeping the honest proof: the combined
    // signature comes out wrong, which is exactly what the optimistic
    // combine-then-verify path must catch.  (Tampering only the proof
    // would be harmless — the value still combines correctly, and the
    // fast path rightly never looks at per-share proofs.)
    for (auto& s : shares) s.value = BigInt::mul_mod(s.value, BigInt(2), pk.modulus());
    Writer w;
    w.u8(1);  // ConsistentBroadcast::kShare
    w.vec(shares, [](Writer& wr, const SigShare& s) { s.encode(wr); });
    net::Message m;
    m.from = id_;
    m.to = 0;  // the designated sender / combiner
    m.tag = "cbc/x";
    m.payload = w.take();
    sim_.submit(std::move(m));
  }
  void on_message(const net::Message&) override {}

 private:
  net::Simulator& sim_;
  int id_;
  adversary::Deployment deployment_;
  Bytes message_;
};

struct CbcState {
  std::unique_ptr<protocols::ConsistentBroadcast> cbc;
  std::optional<Bytes> delivered;
};

TEST(OptimisticCombineAttackTest, CbcFingersInvalidShareAndStillDelivers) {
  // FIFO delivery guarantees the attacker's unsolicited share reaches the
  // sender before any honest share, so the first combine-then-verify
  // attempt provably contains it: the optimistic path must fall back,
  // finger exactly the attacker, and then certify from the honest quorum.
  Rng rng(3);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  const Bytes message = bytes_of("certify me");
  protocols::Cluster<CbcState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<CbcState>();
        s->cbc = std::make_unique<protocols::ConsistentBroadcast>(
            party, "cbc/x", 0,
            [p = s.get()](protocols::CertifiedMessage cm) { p->delivered = cm.message; });
        return s;
      },
      0, 0, 3);
  cluster.attach_custom(3, std::make_unique<BadCertShareSender>(cluster.simulator(), 3,
                                                                deployment, message));
  cluster.start();
  cluster.protocol(0)->cbc->start(message);
  ASSERT_TRUE(cluster.run_until_all(
      [](CbcState& s) { return s.delivered.has_value(); }, 1000000));
  cluster.for_each([&](int, CbcState& s) { EXPECT_EQ(*s.delivered, message); });
  // The combiner fingered exactly the attacker — nobody else.
  EXPECT_EQ(cluster.protocol(0)->cbc->suspected(), crypto::party_bit(3));
}

TEST(OptimisticCombineAttackTest, AbbaCoinFingersInvalidShareAndTerminates) {
  // Sneakiest Byzantine coin strategy: party 3 follows the protocol
  // everywhere EXCEPT that the coin share its peers receive is tampered
  // (real coin key, correct coin name, perturbed DLEQ response).  We model
  // it by running party 3 honestly and pre-injecting the tampered share
  // under its identity; FIFO delivery lands the injected copy first, so
  // the honest copy is deduplicated away at every peer and the bad share
  // provably sits in the round-1 combine set.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  auto cluster = abba_cluster(deployment, sched, 11);
  cluster.start();
  {
    Rng attacker_rng(8888);
    const auto& pk = deployment.keys->public_keys().coin;
    Writer name;  // must match Abba::coin_name(tag="ba/0", round=1)
    name.str("sintra/abba/coin");
    name.str("ba/0");
    name.u32(1);
    auto shares = deployment.keys->share(3).coin.share(pk, name.data(), attacker_rng);
    for (auto& s : shares) s.proof.z = pk.group().scalar_add(s.proof.z, BigInt(1));
    Writer w;
    w.u8(2);  // Abba::kCoinShare
    w.u32(1);
    w.vec(shares, [&](Writer& wr, const CoinShare& s) { s.encode(wr, pk.group()); });
    inject(cluster.simulator(), 3, {0, 1, 2}, "ba/0", w.data());
  }
  // 2-2 input split: round 1 cannot hard-decide, so the coin IS consulted
  // and every party must run the batched combine over a set containing
  // the tampered share.
  std::vector<int> inputs = {1, 0, 1, 0};
  cluster.for_each([&](int id, AbbaState& s) {
    s.abba->start(inputs[static_cast<std::size_t>(id)] == 1);
  });
  ASSERT_TRUE(cluster.run_until_all(
      [](AbbaState& s) { return s.decision.has_value(); }, 3000000));
  std::optional<bool> common;
  crypto::PartySet fingered_union = 0;
  cluster.for_each([&](int id, AbbaState& s) {
    if (!common.has_value()) common = s.decision;
    EXPECT_EQ(*s.decision, *common) << "agreement violated under coin-share attacker";
    // Nobody ever suspects an honest party...
    EXPECT_EQ(s.abba->suspected() & ~crypto::party_bit(3), 0u) << "party " << id;
    fingered_union |= s.abba->suspected();
  });
  // ...and the batched fallback caught the tampered share somewhere.
  EXPECT_EQ(fingered_union, crypto::party_bit(3));
}

// ---- the share collector's admission rule and culprit path -------------------

TEST(ShareCollectorAttackTest, AbbaCoinRejectsEmptyShareSet) {
  // Party 3 claims a round-1 coin share with no shares behind it.  Counted
  // as support, it would let one honest share look like a qualified set;
  // the combine then fails with nobody to blame.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  auto cluster = abba_cluster(deployment, sched, 11);
  cluster.start();
  Writer w;
  w.u8(2);  // Abba::kCoinShare
  w.u32(1);
  w.vec(std::vector<CoinShare>{}, [](Writer&, const CoinShare&) {});
  inject(cluster.simulator(), 3, {0, 1, 2}, "ba/0", w.data());
  // 2-2 split: round 1 cannot hard-decide, so the coin is consulted.
  std::vector<int> inputs = {1, 0, 1, 0};
  cluster.for_each([&](int id, AbbaState& s) {
    s.abba->start(inputs[static_cast<std::size_t>(id)] == 1);
  });
  ASSERT_TRUE(cluster.run_until_all(
      [](AbbaState& s) { return s.decision.has_value(); }, 3000000));
  std::optional<bool> common;
  cluster.for_each([&](int id, AbbaState& s) {
    if (!common.has_value()) common = s.decision;
    EXPECT_EQ(*s.decision, *common);
    EXPECT_EQ(s.abba->suspected(), 0u) << "party " << id;
  });
}

// ---- ABBA votes on the share collector -----------------------------------------
//
// Input, pre-vote and main-vote shares are no longer checked on arrival:
// a qualified set is combined optimistically and a quorum split across
// values is batch-verified.  Party 3 runs honestly, but a copy of one of
// its votes with a bad share is injected first under its identity, so the
// honest copy is deduplicated away at every peer.

/// Abba::statement(kind, round, value) for the instance "ba/0".
Bytes abba_statement(std::string_view kind, int round, std::uint8_t value) {
  Writer w;
  w.str("sintra/abba");
  w.str("ba/0");
  w.str(kind);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(value);
  return w.take();
}

/// A certificate on `stmt` combined from the key shares of `signers`.
BigInt certify(const crypto::ThresholdSigPublicKey& pk, const adversary::Deployment& deployment,
               bool cert_key, const Bytes& stmt, std::initializer_list<int> signers) {
  Rng rng(4242);
  std::vector<SigShare> shares;
  for (int signer : signers) {
    const auto& keys = deployment.keys->share(signer);
    for (auto& s : (cert_key ? keys.cert_sig : keys.reply_sig).sign(pk, stmt, rng)) {
      shares.push_back(std::move(s));
    }
  }
  auto sigma = pk.combine(stmt, shares);
  EXPECT_TRUE(sigma.has_value());
  return sigma.value_or(BigInt(1));
}

/// Party 3's vote message of `type` (Abba::kPreVote = 0, kMainVote = 1):
/// `head` holds the fields between the round and the shares; the shares
/// sign `stmt` and are tampered, or left out, as asked.
Bytes party3_vote(const adversary::Deployment& deployment, std::uint8_t type, int round,
                  const Bytes& head, const Bytes& stmt, bool tamper, bool empty) {
  Rng rng(777);
  const auto& pk = deployment.keys->public_keys().cert_sig;
  auto shares = deployment.keys->share(3).cert_sig.sign(pk, stmt, rng);
  if (tamper) {
    // A wrong share value: the combine fails and so does the proof.
    for (auto& s : shares) s.value = BigInt::mul_mod(s.value, BigInt(2), pk.modulus());
  }
  if (empty) shares.clear();
  Writer w;
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(round));
  w.raw(head);
  w.vec(shares, [](Writer& wr, const SigShare& s) { s.encode(wr); });
  return w.take();
}

/// A round-1 pre-vote for `value` from party 3, anchored by the input
/// shares of parties 2 and 3 (who both propose `value` where it is used).
Bytes party3_prevote(const adversary::Deployment& deployment, std::uint8_t value, bool tamper,
                     bool empty) {
  const auto& reply_pk = deployment.keys->public_keys().reply_sig;
  Writer head;
  head.u8(value);
  head.u8(0);  // Abba::kJustAnchor
  certify(reply_pk, deployment, false, abba_statement("input", 0, value), {2, 3}).encode(head);
  return party3_vote(deployment, 0, 1, head.data(), abba_statement("pre", 1, value), tamper,
                     empty);
}

/// Injects `payloads` from party 3 to parties 0-2, starts a 4-party ABBA
/// on `inputs` and runs it to a decision.  Every party must decide the
/// same value and no honest party may be suspected; returns the union of
/// the parties' suspects.
crypto::PartySet run_vote_attack(const adversary::Deployment& deployment,
                                 const std::vector<Bytes>& payloads, std::vector<int> inputs) {
  net::FifoScheduler sched;
  auto cluster = abba_cluster(deployment, sched, 11);
  cluster.start();
  for (const Bytes& payload : payloads) inject(cluster.simulator(), 3, {0, 1, 2}, "ba/0", payload);
  cluster.for_each([&](int id, AbbaState& s) {
    s.abba->start(inputs[static_cast<std::size_t>(id)] == 1);
  });
  EXPECT_TRUE(cluster.run_until_all(
      [](AbbaState& s) { return s.decision.has_value(); }, 3000000));
  std::optional<bool> common;
  crypto::PartySet fingered = 0;
  cluster.for_each([&](int id, AbbaState& s) {
    if (!s.decision.has_value()) return;
    if (!common.has_value()) common = s.decision;
    EXPECT_EQ(*s.decision, *common) << "agreement violated, party " << id;
    EXPECT_EQ(s.abba->suspected() & ~crypto::party_bit(3), 0u) << "party " << id;
    fingered |= s.abba->suspected();
  });
  return fingered;
}

TEST(AbbaVoteAttackTest, TamperedPreVoteShareFingered) {
  // Every party proposes 1, so party 3's bad pre-vote sits in the first
  // qualified set for 1 everywhere: its combine fails and bisects.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  EXPECT_EQ(run_vote_attack(deployment, {party3_prevote(deployment, 1, true, false)},
                            {1, 1, 1, 1}),
            crypto::party_bit(3));
}

TEST(AbbaVoteAttackTest, TamperedMainVoteShareFingered) {
  // A round-1 abstain main-vote with a bad share among honest 1-votes: the
  // first quorum is split, so the batch verification fingers it.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  Bytes mainvote = party3_vote(deployment, 1, 1, Bytes{2} /* Abba::kAbstain */,
                               abba_statement("main", 1, 2), true, false);
  EXPECT_EQ(run_vote_attack(deployment, {mainvote}, {1, 1, 1, 1}), crypto::party_bit(3));
}

TEST(AbbaVoteAttackTest, EmptyVoteShareRejected) {
  // Votes carrying no shares fail admission (ProtocolError) and count for
  // nothing; with no bad share ever combined, nobody is fingered, and
  // party 3's honest votes are still heard.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  Bytes prevote = party3_prevote(deployment, 1, false, true);
  Bytes mainvote = party3_vote(deployment, 1, 1, Bytes{2}, abba_statement("main", 1, 2), false,
                               true);
  EXPECT_EQ(run_vote_attack(deployment, {prevote, mainvote}, {1, 1, 1, 1}), 0u);
}

TEST(AbbaVoteAttackTest, SplitQuorumBatchVerifyFingersCulprit) {
  // Parties 2 and 3 propose 0, so 0 is anchored; party 3's round-1 pre-vote
  // for 0 carries a bad share.  At most parties 2 and 3 pre-vote 0, so no
  // value's set qualifies on its own: the first quorum at every peer is
  // split, and only the batch verification of the pending votes can have
  // fingered party 3.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  EXPECT_EQ(run_vote_attack(deployment, {party3_prevote(deployment, 0, true, false)},
                            {1, 1, 0, 0}),
            crypto::party_bit(3));
}

TEST(AbbaVoteAttackTest, ReplayedCoinPrevoteBufferedOnce) {
  // A COIN-justified round-2 pre-vote (real abstain certificate for round
  // 1) waits for the round-1 coin.  Replayed 1000 times before that coin
  // exists, it must occupy one buffer entry and one budget charge.
  Rng rng(11);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  const auto& cert_pk = deployment.keys->public_keys().cert_sig;
  Writer head;
  head.u8(1);  // value
  head.u8(2);  // Abba::kJustCoin
  certify(cert_pk, deployment, true, abba_statement("main", 1, 2), {0, 1, 2}).encode(head);
  const Bytes prevote = party3_vote(deployment, 0, 2, head.data(), abba_statement("pre", 2, 1),
                                    false, false);
  net::FifoScheduler sched;
  auto cluster = abba_cluster(deployment, sched, 11);
  cluster.start();
  for (int i = 0; i < 1000; ++i) inject(cluster.simulator(), 3, {0}, "ba/0", prevote);
  cluster.simulator().run_until([] { return false; }, 5000);  // nobody starts: no coin
  EXPECT_EQ(cluster.protocol(0)->abba->deferred_coin_prevote_count(), 1u);
  const std::size_t charged = cluster.party(0)->budget().instance_total("ba/0");
  EXPECT_GT(charged, 0u);
  EXPECT_LE(charged, prevote.size() + 16);
}

struct VbaState {
  std::unique_ptr<protocols::Vba> vba;
  std::optional<Bytes> decision;
};

protocols::Cluster<VbaState> vba_cluster(const adversary::Deployment& deployment,
                                         net::Scheduler& sched, std::uint64_t seed) {
  return protocols::Cluster<VbaState>(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<VbaState>();
        s->vba = std::make_unique<protocols::Vba>(
            party, "vba/0", [](BytesView) { return true; },
            [p = s.get()](Bytes value) { p->decision = std::move(value); });
        return s;
      },
      0, 0, seed);
}

/// Party 3's permutation-coin share message for "vba/0": its real shares,
/// each value multiplied by `tweak` (nullopt sends no shares at all).
Bytes vba_perm_share(const adversary::Deployment& deployment,
                     const std::optional<crypto::Element>& tweak) {
  const auto& pk = deployment.keys->public_keys().coin;
  std::vector<CoinShare> shares;
  if (tweak.has_value()) {
    Writer name;  // must match Vba::perm_coin_name(tag="vba/0")
    name.str("sintra/vba/perm");
    name.str("vba/0");
    Rng attacker_rng(8888);
    shares = deployment.keys->share(3).coin.share(pk, name.data(), attacker_rng);
    for (auto& s : shares) s.value = pk.group().mul(s.value, *tweak);
  }
  Writer w;
  w.u8(0);  // Vba::kPermShare
  w.vec(shares, [&](Writer& wr, const CoinShare& s) { s.encode(wr, pk.group()); });
  return w.take();
}

void propose_and_decide(protocols::Cluster<VbaState>& cluster) {
  cluster.for_each([](int id, VbaState& s) { s.vba->propose(bytes_of("v" + std::to_string(id))); });
  ASSERT_TRUE(cluster.run_until_all(
      [](VbaState& s) { return s.decision.has_value(); }, 5000000));
  std::optional<Bytes> common;
  cluster.for_each([&](int, VbaState& s) {
    if (!common.has_value()) common = s.decision;
    EXPECT_EQ(*s.decision, *common) << "agreement violated";
  });
}

TEST(ShareCollectorAttackTest, VbaPermCoinRejectsEmptyShareSet) {
  Rng rng(5);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  auto cluster = vba_cluster(deployment, sched, 5);
  cluster.start();
  inject(cluster.simulator(), 3, {0, 1, 2}, "vba/0", vba_perm_share(deployment, std::nullopt));
  propose_and_decide(cluster);
  cluster.for_each([](int id, VbaState& s) { EXPECT_EQ(s.vba->suspected(), 0u) << id; });
}

TEST(ShareCollectorAttackTest, VbaPermCoinFingersTamperedShareAndDecides) {
  // Party 3 runs honestly, but the permutation-coin share its peers see
  // first carries a wrong value (real key, correct coin name): every
  // honest party's first combine holds it and must finger exactly 3.
  Rng rng(5);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  auto cluster = vba_cluster(deployment, sched, 5);
  cluster.start();
  const auto& group = deployment.keys->public_keys().coin.group();
  inject(cluster.simulator(), 3, {0, 1, 2}, "vba/0", vba_perm_share(deployment, group.g()));
  propose_and_decide(cluster);
  cluster.for_each([](int id, VbaState& s) {
    EXPECT_EQ(s.vba->suspected(), id == 3 ? 0u : crypto::party_bit(3)) << "party " << id;
  });
}

TEST(ShareCollectorAttackTest, CbcRejectsEmptyShareSet) {
  // An empty share message from party 3 must not count toward the
  // sender's quorum: with it, two honest shares would look like n - t.
  Rng rng(3);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  const Bytes message = bytes_of("certify me");
  protocols::Cluster<CbcState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<CbcState>();
        s->cbc = std::make_unique<protocols::ConsistentBroadcast>(
            party, "cbc/x", 0,
            [p = s.get()](protocols::CertifiedMessage cm) { p->delivered = cm.message; });
        return s;
      },
      0, 0, 3);
  cluster.start();
  Writer w;
  w.u8(1);  // ConsistentBroadcast::kShare
  w.vec(std::vector<SigShare>{}, [](Writer&, const SigShare&) {});
  inject(cluster.simulator(), 3, {0}, "cbc/x", w.data());
  cluster.protocol(0)->cbc->start(message);
  ASSERT_TRUE(cluster.run_until_all(
      [](CbcState& s) { return s.delivered.has_value(); }, 1000000));
  cluster.for_each([&](int, CbcState& s) { EXPECT_EQ(*s.delivered, message); });
  EXPECT_EQ(cluster.protocol(0)->cbc->suspected(), 0u);
}

/// Optimistic-broadcast party that answers every ASSIGN from sequencer 0
/// with a bad slot share: its real shares with doubled values, or none.
class BadSlotShareSender final : public net::Process {
 public:
  BadSlotShareSender(net::Simulator& sim, int id, adversary::Deployment deployment, bool empty)
      : sim_(sim), id_(id), deployment_(std::move(deployment)), empty_(empty) {
    auto genesis = crypto::hash_domain("sintra/opt/genesis", bytes_of("opt"));
    chain_ = Bytes(genesis.begin(), genesis.end());
  }

  void on_message(const net::Message& message) override {
    Reader r(message.payload);
    if (message.tag != "opt" || message.from != 0 || r.u8() != 0) return;  // kAssign only
    const std::uint64_t seq = r.u64();
    const Bytes payload = r.bytes();
    if (seq != next_seq_) return;  // FIFO from the sequencer: slots arrive in order
    ++next_seq_;
    Writer link;  // must match OptimisticBroadcast::chain_after
    link.raw(chain_);
    link.u64(seq);
    link.bytes(payload);
    auto digest = crypto::hash_domain("sintra/opt/chain", link.data());
    chain_ = Bytes(digest.begin(), digest.end());
    std::vector<SigShare> shares;
    if (!empty_) {
      Writer stmt;  // must match OptimisticBroadcast::slot_statement
      stmt.str("sintra/opt/slot");
      stmt.str("opt");
      stmt.u64(seq);
      stmt.raw(chain_);
      const auto& pk = deployment_.keys->public_keys().cert_sig;
      shares = deployment_.keys->share(id_).cert_sig.sign(pk, stmt.data(), rng_);
      for (auto& s : shares) s.value = BigInt::mul_mod(s.value, BigInt(2), pk.modulus());
    }
    Writer w;
    w.u8(1);  // OptimisticBroadcast::kShare
    w.u64(seq);
    w.vec(shares, [](Writer& wr, const SigShare& s) { s.encode(wr); });
    inject(sim_, id_, {0}, "opt", w.data());
  }

 private:
  net::Simulator& sim_;
  int id_;
  adversary::Deployment deployment_;
  bool empty_;
  Rng rng_{4242};
  Bytes chain_;
  std::uint64_t next_seq_ = 0;
};

struct OptState {
  std::unique_ptr<protocols::OptimisticBroadcast> opt;
  std::vector<Bytes> log;
};

/// Party 1 is the attacker: under FIFO its share reaches sequencer 0 right
/// after the sequencer's own, so it sits in the first quorum-sized set.
void run_slot_attack(bool empty, crypto::PartySet expect_suspected) {
  Rng rng(13);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  protocols::Cluster<OptState> cluster(
      deployment, sched,
      [](net::Party& party, int) {
        auto s = std::make_unique<OptState>();
        s->opt = std::make_unique<protocols::OptimisticBroadcast>(
            party, "opt", /*sequencer=*/0,
            [p = s.get()](Bytes payload) { p->log.push_back(std::move(payload)); });
        return s;
      },
      0, 0, 13);
  cluster.attach_custom(
      1, std::make_unique<BadSlotShareSender>(cluster.simulator(), 1, deployment, empty));
  cluster.start();
  const std::vector<Bytes> payloads = {bytes_of("tx-a"), bytes_of("tx-b")};
  for (const Bytes& payload : payloads) cluster.protocol(0)->opt->submit(payload);
  ASSERT_TRUE(cluster.run_until_all(
      [&](OptState& s) { return s.log.size() == payloads.size(); }, 1000000));
  cluster.for_each([&](int, OptState& s) {
    EXPECT_EQ(s.log, payloads);
    EXPECT_FALSE(s.opt->pessimistic()) << "slots must commit on the fast path";
  });
  EXPECT_EQ(cluster.protocol(0)->opt->suspected(), expect_suspected);
}

TEST(ShareCollectorAttackTest, OptimisticSlotRejectsEmptyShareSet) {
  run_slot_attack(/*empty=*/true, 0);
}

TEST(ShareCollectorAttackTest, OptimisticSlotFingersTamperedShareAndCommits) {
  run_slot_attack(/*empty=*/false, crypto::party_bit(1));
}

// ---- client-facing attacks ---------------------------------------------------

/// Sends the client a reply with ANOTHER party's (stolen? no — replayed)
/// signature shares attached under its own sender id.
class ShareMisattributor final : public net::Process {
 public:
  ShareMisattributor(net::Simulator& sim, int id, adversary::Deployment deployment,
                     std::uint64_t seed)
      : sim_(sim), id_(id), deployment_(std::move(deployment)), rng_(seed) {}

  void on_message(const net::Message& message) override {
    if (message.tag != "svc") return;
    try {
      Reader r(message.payload);
      app::RequestEnvelope envelope = app::RequestEnvelope::decode(r);
      // Craft a denial and sign it with our OWN reply key shares — a real
      // signature on fraudulent content.  The client must outvote it.
      app::CaResponse forged;
      forged.status = app::CaResponse::Status::kDenied;
      Bytes reply = forged.encode();
      const Bytes stmt = app::reply_statement("svc", envelope, reply);
      auto shares = deployment_.keys->share(id_).reply_sig.sign(
          deployment_.keys->public_keys().reply_sig, stmt, rng_);
      Writer w;
      w.u8(app::kReplyOk);
      w.u64(envelope.request_id);
      w.bytes(reply);
      w.vec(shares, [](Writer& wr, const SigShare& s) { s.encode(wr); });
      net::Message out;
      out.from = id_;
      out.to = envelope.client;
      out.tag = "svc/reply";
      out.payload = w.take();
      sim_.submit(std::move(out));
    } catch (const ProtocolError&) {
    }
  }

 private:
  net::Simulator& sim_;
  int id_;
  adversary::Deployment deployment_;
  Rng rng_;
};

struct SvcState {
  std::unique_ptr<app::Replica> replica;
};

TEST(ClientAttackTest, ValidlySignedLieStillOutvoted) {
  // The attacker's reply carries VALID signature shares (it owns the key
  // share) on fraudulent content.  One fault set cannot exceed itself:
  // the client's "beyond one corruptible set" rule keeps waiting for a
  // second voucher for that content, which never comes.
  Rng rng(21);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::RandomScheduler sched(21);
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto s = std::make_unique<SvcState>();
        s->replica = std::make_unique<app::Replica>(
            party, "svc", app::Replica::Mode::kAtomic,
            std::make_unique<app::CertificationAuthority>());
        return s;
      },
      0, /*extra_endpoints=*/1, 21);
  cluster.attach_custom(3, std::make_unique<ShareMisattributor>(cluster.simulator(), 3,
                                                                deployment, 33));
  std::map<std::uint64_t, app::ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<app::ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", app::Replica::Mode::kAtomic, 17,
      [&](std::uint64_t id, app::ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  app::ServiceClient* client = client_owner.get();
  cluster.attach_client(4, std::move(client_owner));
  cluster.start();

  app::CaRequest issue;
  issue.op = app::CaRequest::Op::kIssue;
  issue.subject = "victim";
  issue.credentials = "credential:victim";
  Bytes body = issue.encode();
  std::uint64_t id = client->request(Bytes(body));
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.contains(id); }, 10000000));
  EXPECT_EQ(app::CaResponse::decode(replies.at(id).reply).status,
            app::CaResponse::Status::kOk);
  EXPECT_TRUE(client->verify_receipt(id, body, replies.at(id)));
}

/// The client's endpoint, with replica 3 turned bad on the way in: every
/// reply is held back until replica 3's has arrived, whose signature shares
/// are then tampered and handed on first, followed by the held replies.
class TamperedReplyProxy final : public net::Process {
 public:
  TamperedReplyProxy(std::unique_ptr<app::ServiceClient> client, crypto::BigInt modulus)
      : client_(std::move(client)), modulus_(std::move(modulus)) {}

  void on_start() override { client_->on_start(); }

  void on_message(const net::Message& message) override {
    if (message.tag != "svc/reply" || released_) return client_->on_message(message);
    if (message.from != 3) {
      held_.push_back(message);
      return;
    }
    Reader r(message.payload);
    Writer w;
    w.u8(r.u8());    // status
    w.u64(r.u64());  // request id
    w.bytes(r.bytes());
    auto shares = r.vec<SigShare>([](Reader& rd) { return SigShare::decode(rd); });
    for (auto& share : shares) share.value = BigInt::mul_mod(share.value, BigInt(2), modulus_);
    w.vec(shares, [](Writer& wr, const SigShare& share) { share.encode(wr); });
    net::Message tampered = message;
    tampered.payload = w.take();
    released_ = true;
    client_->on_message(tampered);
    for (const net::Message& held : held_) client_->on_message(held);
  }

 private:
  std::unique_ptr<app::ServiceClient> client_;
  crypto::BigInt modulus_;  ///< of the reply key
  std::vector<net::Message> held_;
  bool released_ = false;
};

TEST(ClientAttackTest, TamperedReplyShareStrippedAndReceiptVerifies) {
  // The client no longer checks reply shares one by one: it combines once
  // the supporters of a reply qualify.  Replica 3's tampered share is in
  // that first set, so the combine fails, bisection strips it, and the
  // next honest reply completes a receipt that verifies.
  Rng rng(21);
  auto deployment = adversary::Deployment::threshold(4, 1, rng);
  net::FifoScheduler sched;
  protocols::Cluster<SvcState> cluster(
      deployment, sched,
      [&](net::Party& party, int) {
        auto s = std::make_unique<SvcState>();
        s->replica = std::make_unique<app::Replica>(
            party, "svc", app::Replica::Mode::kAtomic,
            std::make_unique<app::CertificationAuthority>());
        return s;
      },
      0, /*extra_endpoints=*/1, 21);
  std::map<std::uint64_t, app::ServiceClient::Receipt> replies;
  auto client_owner = std::make_unique<app::ServiceClient>(
      cluster.simulator(), 4, deployment, "svc", app::Replica::Mode::kAtomic, 17,
      [&](std::uint64_t id, app::ServiceClient::Receipt receipt) {
        replies.emplace(id, std::move(receipt));
      });
  app::ServiceClient* client = client_owner.get();
  cluster.attach_client(4, std::make_unique<TamperedReplyProxy>(
                              std::move(client_owner),
                              deployment.keys->public_keys().reply_sig.modulus()));
  cluster.start();

  app::CaRequest ca_request;
  ca_request.op = app::CaRequest::Op::kIssue;
  ca_request.subject = "alice";
  ca_request.credentials = "credential:alice";
  Bytes body = ca_request.encode();
  std::uint64_t id = client->request(Bytes(body));
  ASSERT_TRUE(cluster.simulator().run_until([&] { return replies.contains(id); }, 10000000));
  EXPECT_EQ(app::CaResponse::decode(replies.at(id).reply).status,
            app::CaResponse::Status::kOk);
  EXPECT_TRUE(client->verify_receipt(id, body, replies.at(id)));
  EXPECT_EQ(client->suspected(), crypto::party_bit(3));
}

}  // namespace
}  // namespace sintra
