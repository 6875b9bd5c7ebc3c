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
    const auto& scheme = pk.scheme();
    crypto::PartySet culprits = 0;
    for (std::uint32_t unit : bad_units) {
      SINTRA_REQUIRE(static_cast<int>(unit) < scheme.num_units(), "verdict unit out of range");
      culprits |= crypto::party_bit(scheme.unit_owner(static_cast<int>(unit)));
    }
    // Byzantine senders pay: their shares leave the set for good and they
    // are fingered for the caller.
    suspected |= culprits;
    rejected_ |= culprits;
    support_ &= ~culprits;
    std::erase_if(shares_, [&](const Share& s) {
      return (culprits & crypto::party_bit(scheme.unit_owner(s.unit))) != 0;
    });
    failed_ = !value.has_value() && culprits == 0;
    done_ = value.has_value();
    return value;
  }

  /// Instance GC: free the buffered shares.
  void clear() { std::vector<Share>().swap(shares_); }

 private:
  crypto::PartySet support_ = 0;
  crypto::PartySet rejected_ = 0;  ///< senders with a proven-bad share
  std::vector<Share> shares_;
  int attempt_ = 0;        ///< verdicts are matched to the attempt
  bool inflight_ = false;  ///< a combine job is outstanding
  bool failed_ = false;    ///< the current set failed without culprits
  bool done_ = false;      ///< a combine succeeded; the set is closed
};

}  // namespace sintra::protocols
