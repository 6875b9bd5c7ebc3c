// Deferred collection of one threshold set: the optimistic combine
// pipeline shared by every protocol that turns a qualified set of shares
// into one value (the ABBA and VBA coins, the CBC and optimistic-broadcast
// certificates).
//
// Shares pass structural admission only on arrival.  Once the owner's
// readiness test holds, combine() runs one combine-then-verify job over
// the buffered set through Party::offload; the random-linear-combination
// weights are seeded on the loop thread, so sequential runs replay
// bit-exactly.  The job's result re-enters the owner as a verdict
// self-message:
//
//   [owner header][u32 attempt][vec<u32> bad units][u8 ok][value if ok]
//
// The owner's header (message type plus instance key) routes it back to
// this collector.  A failed attempt fingers the owners of the bad units,
// strips their shares for good and leaves the owner to re-arm through its
// readiness test; a set that failed without culprits is not retried until
// a new sender is admitted.
//
// An owner that tallies senders (the ABBA votes) also needs to know which
// shares are valid when no single set qualifies.  verified() names the
// senders a successful combine used, a failed combine's bisection cleared,
// or verify_pending() passed: one batch over the unverified shares of
// several collectors (one statement each), whose verdict is
//
//   [owner header] per collector: [u64 senders checked][vec<u32> bad units]
//
// A verify verdict states facts about fixed shares, so applying it twice
// (a WAL-logged copy plus its regenerated twin) changes nothing.
#pragma once

#include <algorithm>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "crypto/batch.hpp"
#include "net/party.hpp"

namespace sintra::protocols {

/// What differs between coin and signature shares: the key, the
/// optimistic combine, and how the combined value travels in a verdict.
template <typename Share>
struct ShareKind;

template <>
struct ShareKind<crypto::CoinShare> {
  using PublicKey = crypto::CoinPublicKey;
  using Value = Bytes;  ///< combined coin value
  static constexpr auto combine = &crypto::batch::combine_coin_optimistic;
  static void encode(Writer& w, const Value& value) { w.bytes(value); }
  static Value decode(Reader& r) { return r.bytes(); }
};

template <>
struct ShareKind<crypto::SigShare> {
  using PublicKey = crypto::ThresholdSigPublicKey;
  using Value = crypto::BigInt;  ///< combined threshold signature
  static constexpr auto combine = &crypto::batch::combine_sig_optimistic;
  static void encode(Writer& w, const Value& value) { value.encode(w); }
  static Value decode(Reader& r) { return crypto::BigInt::decode(r); }
};

template <typename Share>
class ShareCollector {
  using Kind = ShareKind<Share>;

 public:
  using PublicKey = typename Kind::PublicKey;
  using Value = typename Kind::Value;

  /// Senders whose shares are buffered.
  [[nodiscard]] crypto::PartySet support() const { return support_; }

  /// Buffered senders whose shares are known to be valid.
  [[nodiscard]] crypto::PartySet verified() const { return verified_; }

  /// Structural admission of one sender's share message: it must carry
  /// exactly the units `from` owns, each once (so never an empty set).
  /// Returns false, admitting nothing, once the set is done or `from` was
  /// already admitted or proven bad; throws ProtocolError on a malformed
  /// set.
  bool admit(const PublicKey& pk, int from, std::vector<Share> shares) {
    if (done_ || crypto::contains(support_ | rejected_, from)) return false;
    // The combiner derives parties from the shares it is given, so a
    // sender counts toward readiness only with its whole unit set.
    std::vector<int> units;
    units.reserve(shares.size());
    for (const Share& share : shares) units.push_back(share.unit);
    std::sort(units.begin(), units.end());
    SINTRA_REQUIRE(!units.empty() && units == pk.scheme().units_of(from),
                   "share message must carry exactly the sender's units");
    support_ |= crypto::party_bit(from);
    shares_.insert(shares_.end(), std::make_move_iterator(shares.begin()),
                   std::make_move_iterator(shares.end()));
    failed_ = false;
    return true;
  }

  /// Start an optimistic combine of the buffered shares over `statement`
  /// unless the set is done, an attempt is in flight, or the current set
  /// already failed without culprits.  Readiness is the caller's test.
  void combine(net::Party& host, const std::string& tag, const PublicKey& pk, Bytes statement,
               Bytes header) {
    if (done_ || inflight_ || failed_) return;
    inflight_ = true;
    attempt_support_ = support_;
    const int attempt = ++attempt_;
    const std::uint64_t seed = host.rng().next();
    // The job owns copies of everything except pk, which is immutable for
    // the party's lifetime and therefore safe to read from a worker.
    host.offload(tag, [&pk, statement = std::move(statement), header = std::move(header),
                       shares = shares_, attempt, seed]() -> Bytes {
      Rng rng(seed);
      auto result = Kind::combine(pk, statement, shares, rng);
      Writer w;
      w.raw(header);
      w.u32(static_cast<std::uint32_t>(attempt));
      w.vec(result.bad, [&](Writer& wr, const std::size_t& i) {
        wr.u32(static_cast<std::uint32_t>(shares[i].unit));
      });
      w.boolean(result.value.has_value());
      if (result.value.has_value()) Kind::encode(w, *result.value);
      return w.take();
    });
  }

  /// Apply the verdict whose owner header the caller has already read.
  /// Returns the combined value when the in-flight attempt succeeded.
  /// Otherwise returns nullopt: the verdict was stale, or the attempt
  /// failed, in which case the culprits are added to `suspected`, their
  /// shares are stripped and the caller should re-arm.
  std::optional<Value> on_verdict(net::Party& host, int from, const PublicKey& pk,
                                  Reader& reader, crypto::PartySet& suspected) {
    // Verdicts are results this party computed for itself; a peer has no
    // business injecting one.
    SINTRA_REQUIRE(from == host.id(), "share verdict from another party");
    const int attempt = static_cast<int>(reader.u32());
    auto bad_units = reader.vec<std::uint32_t>([](Reader& r) { return r.u32(); });
    std::optional<Value> value;
    if (reader.boolean()) value = Kind::decode(reader);
    reader.expect_done();
    // Idempotency: threaded-mode verdicts are WAL-logged *and* regenerated
    // when the triggering shares replay, so a verdict acts only if it is
    // the one the in-flight attempt is waiting for.
    if (done_ || !inflight_ || attempt != attempt_) return std::nullopt;
    inflight_ = false;
    const crypto::PartySet culprits = reject(pk, bad_units, suspected);
    if (culprits != 0) {
      verified_ |= attempt_support_ & ~culprits;  // the bisection checked every share
    } else if (value.has_value()) {
      // The combine used a qualified subset; only those shares are vouched for.
      for (const auto& [unit, coefficient] : pk.scheme().coefficients(attempt_support_)) {
        verified_ |= crypto::party_bit(pk.scheme().unit_owner(unit));
      }
    }
    failed_ = !value.has_value() && culprits == 0;
    done_ = value.has_value();
    return value;
  }

  /// One collector's part of a verify_pending() batch.
  struct Pending {
    ShareCollector* collector = nullptr;
    Bytes statement;  ///< what this collector's shares sign
  };

  /// Batch-verify, as one job through Party::offload, the shares of every
  /// buffered sender that is neither verified nor already being verified,
  /// across `sets`.  No job starts when nothing is left to check.
  /// Signature shares only (one multi-statement batch).
  static void verify_pending(net::Party& host, const std::string& tag, const PublicKey& pk,
                             const std::vector<Pending>& sets, Bytes header) {
    std::vector<crypto::PartySet> checked;
    std::vector<crypto::batch::SigShareGroup> groups;
    for (const auto& [collector, statement] : sets) {
      const crypto::PartySet fresh =
          collector->support_ & ~(collector->verified_ | collector->verifying_);
      collector->verifying_ |= fresh;
      checked.push_back(fresh);
      crypto::batch::SigShareGroup group{statement, {}};
      for (const Share& share : collector->shares_) {
        if (crypto::contains(fresh, pk.scheme().unit_owner(share.unit))) {
          group.shares.push_back(share);
        }
      }
      groups.push_back(std::move(group));
    }
    if (std::all_of(checked.begin(), checked.end(), [](crypto::PartySet s) { return s == 0; })) {
      return;
    }
    const std::uint64_t seed = host.rng().next();
    host.offload(tag, [&pk, header = std::move(header), checked = std::move(checked),
                       groups = std::move(groups), seed]() -> Bytes {
      Rng rng(seed);
      const bool ok = crypto::batch::verify_sig_share_groups(pk, groups, rng);
      Writer w;
      w.raw(header);
      for (std::size_t i = 0; i < groups.size(); ++i) {
        w.u64(checked[i]);
        const auto& shares = groups[i].shares;
        std::vector<std::size_t> bad;
        if (!ok) bad = crypto::batch::find_invalid_sig_shares(pk, groups[i].message, shares, rng);
        w.vec(bad, [&](Writer& wr, const std::size_t& j) {
          wr.u32(static_cast<std::uint32_t>(shares[j].unit));
        });
      }
      return w.take();
    });
  }

  /// Apply a verify_pending() verdict whose owner header the caller has
  /// already read; `sets` lists the collectors in the order they were
  /// passed.  Culprits are fingered and stripped as in on_verdict().
  static void on_verified(net::Party& host, int from, const PublicKey& pk, Reader& reader,
                          const std::vector<ShareCollector*>& sets,
                          crypto::PartySet& suspected) {
    SINTRA_REQUIRE(from == host.id(), "share verdict from another party");
    for (ShareCollector* collector : sets) {
      const crypto::PartySet checked = reader.u64();
      auto bad_units = reader.vec<std::uint32_t>([](Reader& r) { return r.u32(); });
      collector->reject(pk, bad_units, suspected);
      collector->verifying_ &= ~checked;
      collector->verified_ |= checked & collector->support_;  // support_ lost the culprits
    }
    reader.expect_done();
  }

  /// Instance GC: free the buffered shares.
  void clear() { std::vector<Share>().swap(shares_); }

 private:
  /// Finger the owners of `bad_units` and strip their shares for good:
  /// Byzantine senders pay.  Returns the culprits.
  crypto::PartySet reject(const PublicKey& pk, const std::vector<std::uint32_t>& bad_units,
                          crypto::PartySet& suspected) {
    const auto& scheme = pk.scheme();
    crypto::PartySet culprits = 0;
    for (std::uint32_t unit : bad_units) {
      SINTRA_REQUIRE(static_cast<int>(unit) < scheme.num_units(), "verdict unit out of range");
      culprits |= crypto::party_bit(scheme.unit_owner(static_cast<int>(unit)));
    }
    suspected |= culprits;
    rejected_ |= culprits;
    support_ &= ~culprits;
    verified_ &= ~culprits;
    std::erase_if(shares_, [&](const Share& s) {
      return (culprits & crypto::party_bit(scheme.unit_owner(s.unit))) != 0;
    });
    return culprits;
  }

  crypto::PartySet support_ = 0;
  crypto::PartySet rejected_ = 0;   ///< senders with a proven-bad share
  crypto::PartySet verified_ = 0;   ///< senders with known-valid shares
  crypto::PartySet verifying_ = 0;  ///< senders in an outstanding verify job
  crypto::PartySet attempt_support_ = 0;  ///< the in-flight combine's senders
  std::vector<Share> shares_;
  int attempt_ = 0;        ///< verdicts are matched to the attempt
  bool inflight_ = false;  ///< a combine job is outstanding
  bool failed_ = false;    ///< the current set failed without culprits
  bool done_ = false;      ///< a combine succeeded; the set is closed
};

}  // namespace sintra::protocols
