#include "protocols/abba.hpp"

namespace sintra::protocols {

using crypto::BigInt;
using crypto::CoinShare;
using crypto::SigShare;

namespace {
void encode_shares(Writer& w, const std::vector<SigShare>& shares) {
  w.vec(shares, [](Writer& wr, const SigShare& s) { s.encode(wr); });
}

std::vector<SigShare> decode_shares(Reader& r) {
  return r.vec<SigShare>([](Reader& rd) { return SigShare::decode(rd); });
}
}  // namespace

Abba::Abba(net::Party& host, std::string tag, DecideFn decide)
    : ProtocolInstance(host, std::move(tag)), decide_(std::move(decide)) {
  host_.register_checkpoint(
      tag_, [this] { return checkpoint_save(); }, [this](Reader& r) { checkpoint_load(r); });
}

Abba::~Abba() { host_.unregister_checkpoint(tag_); }

Bytes Abba::checkpoint_save() const {
  Writer w;
  w.boolean(started_);
  w.u8(my_input_.has_value() ? (*my_input_ ? 1 : 0) : 2);
  w.boolean(decided_);
  if (decided_) {
    w.u8(*decision_ ? 1 : 0);
    w.u32(static_cast<std::uint32_t>(decide_round_));
    w.bytes(decide_raw_);
  }
  return w.take();
}

void Abba::checkpoint_load(Reader& reader) {
  started_ = reader.boolean();
  const std::uint8_t input = reader.u8();
  if (input <= 1) my_input_ = input == 1;
  if (reader.boolean()) {
    decided_ = true;
    decision_ = reader.u8() == 1;
    decide_round_ = static_cast<int>(reader.u32());
    decide_raw_ = reader.bytes();
    // Re-fire the decision into the rebuilt parent/harness — the WAL
    // entries that produced it may have been compacted away, so the
    // callback is the only way that state comes back.
    if (decide_) decide_(*decision_, decide_round_);
  }
}

void Abba::enable_watchdog(std::uint64_t timeout) {
  if (!watchdog_) watchdog_ = std::make_unique<StallWatchdog>(host_);
  watchdog_->arm(
      timeout, [this] { return decided_; }, [this] { return progress_; },
      [this] { resummarize(); });
}

void Abba::resummarize() {
  // Re-send our own (already broadcast, receiver-deduped) current state so
  // a peer that lost it — a restart with a lossy network — can catch up.
  if (decided_) {
    if (!decide_raw_.empty()) broadcast(decide_raw_);
    return;
  }
  if (started_) broadcast_input();
  if (!last_prevote_raw_.empty()) broadcast(last_prevote_raw_);
  if (!last_mainvote_raw_.empty()) broadcast(last_mainvote_raw_);
  if (!last_coin_raw_.empty()) broadcast(last_coin_raw_);
}

Bytes Abba::statement(std::string_view kind, int round, std::uint8_t value) const {
  Writer w;
  w.str("sintra/abba");
  w.str(tag_);
  w.str(kind);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(value);
  return w.take();
}

Bytes Abba::coin_name(int round) const {
  Writer w;
  w.str("sintra/abba/coin");
  w.str(tag_);
  w.u32(static_cast<std::uint32_t>(round));
  return w.take();
}

Abba::Round& Abba::round_state(int round) {
  return rounds_[round];
}

std::size_t Abba::deferred_coin_prevote_count() const {
  std::size_t count = 0;
  for (const auto& [round, state] : rounds_) count += state.deferred_coin_prevotes.size();
  return count;
}

Abba::Votes& Abba::votes(Vote kind, int round, int value) {
  const auto v = static_cast<std::size_t>(value);
  switch (kind) {
    case kVoteInput: return input_votes_.at(v);
    case kVotePre: return round_state(round).prevotes.at(v);
    case kVoteMain: return round_state(round).mainvotes.at(v);
  }
  throw ProtocolError("abba: bad vote kind");
}

const crypto::ThresholdSigPublicKey& Abba::vote_key(Vote kind) const {
  return kind == kVoteInput ? host_.public_keys().reply_sig : host_.public_keys().cert_sig;
}

Bytes Abba::vote_statement(Vote kind, int round, int value) const {
  static constexpr std::array<std::string_view, 3> kNames = {"input", "pre", "main"};
  return statement(kNames.at(kind), round, static_cast<std::uint8_t>(value));
}

void Abba::combine_votes(Vote kind, int round, int value) {
  Votes& set = votes(kind, round, value);
  const auto& pk = vote_key(kind);
  if (!pk.scheme().qualified(set.support())) return;
  Writer header;
  header.u8(kVoteVerdict);
  header.u8(kind);
  header.u32(static_cast<std::uint32_t>(round));
  header.u8(static_cast<std::uint8_t>(value));
  set.combine(host_, tag_, pk, vote_statement(kind, round, value), header.take());
}

void Abba::verify_votes(Vote kind, int round) {
  std::vector<Votes::Pending> sets;
  const int values = kind == kVoteMain ? 3 : 2;
  for (int v = 0; v < values; ++v) {
    sets.push_back({&votes(kind, round, v), vote_statement(kind, round, v)});
  }
  Writer header;
  header.u8(kVoteBatchVerdict);
  header.u8(kind);
  header.u32(static_cast<std::uint32_t>(round));
  Votes::verify_pending(host_, tag_, vote_key(kind), sets, header.take());
}

void Abba::check_cert(const std::optional<BigInt>& known, const crypto::ThresholdSigPublicKey& pk,
                      const Bytes& stmt, const BigInt& sigma, const char* what) {
  // RSA signatures are unique, so one equal to a certificate this party
  // already verified needs no exponentiation.
  if (known.has_value() && *known == sigma) return;
  SINTRA_REQUIRE(pk.verify(stmt, sigma), what);
}

void Abba::start(bool input) {
  if (started_) {
    // At-least-once re-entry (crash-recovery replay re-runs application
    // start calls): same input re-broadcasts INPUT, which receivers
    // dedup via input_voted_; a flipped input would equivocate — reject.
    SINTRA_REQUIRE(my_input_.has_value() && *my_input_ == input, "abba: conflicting re-start");
    broadcast_input();
    return;
  }
  started_ = true;
  my_input_ = input;
  broadcast_input();
}

void Abba::broadcast_input() {
  const bool input = *my_input_;
  Writer w;
  w.u8(kInput);
  w.u8(input ? 1 : 0);
  auto shares = host_.keys().reply_sig.sign(host_.public_keys().reply_sig,
                                            statement("input", 0, input ? 1 : 0), host_.rng());
  encode_shares(w, shares);
  broadcast(w.take());
}

void Abba::on_input(int from, Reader& reader) {
  const std::uint8_t value = reader.u8();
  SINTRA_REQUIRE(value <= 1, "abba: bad input value");
  auto shares = decode_shares(reader);
  reader.expect_done();
  if (crypto::contains(input_arrived_, from)) return;  // one input per party
  const bool admitted =
      input_votes_[value].admit(host_.public_keys().reply_sig, from, std::move(shares));
  input_arrived_ |= crypto::party_bit(from);
  if (admitted) {
    bump_progress();
    combine_votes(kVoteInput, 0, value);  // the anchor sigma_input(value)
  }
  try_first_prevote();
}

void Abba::try_first_prevote() {
  if (!started_ || round_state(1).sent_prevote) return;
  // Prefer our own input; fall back to the other value if only that one
  // anchors (waiting for our own could deadlock when inputs are split).
  const int mine = *my_input_ ? 1 : 0;
  for (int v : {mine, 1 - mine}) {
    if (anchor_[v].has_value()) {
      send_prevote(1, v == 1, kJustAnchor, *anchor_[v]);
      return;
    }
  }
}

void Abba::send_prevote(int round, bool value, Justification justification,
                        const BigInt& evidence) {
  Round& state = round_state(round);
  if (state.sent_prevote) return;
  state.sent_prevote = true;
  Writer w;
  w.u8(kPreVote);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(value ? 1 : 0);
  w.u8(justification);
  evidence.encode(w);
  auto shares = host_.keys().cert_sig.sign(host_.public_keys().cert_sig,
                                           statement("pre", round, value ? 1 : 0), host_.rng());
  encode_shares(w, shares);
  last_prevote_raw_ = w.take();
  broadcast(last_prevote_raw_);
}

void Abba::park_deferred(std::uint8_t type, int round, int from, Reader& reader) {
  // Far-future horizon: a message more than kDeferWindow rounds ahead of
  // us can only be adversarial (honest parties run within one round of
  // each other) — drop it outright instead of parking.
  static constexpr int kDeferWindow = 64;
  if (round > current_round_ + kDeferWindow) return;
  for (const auto& [parked_round, parked_from, parked_raw] : deferred_) {
    if (parked_round == round && parked_from == from && !parked_raw.empty() &&
        parked_raw[0] == type) {
      return;  // first-per-(peer, type, round) only
    }
  }
  Writer w;
  w.u8(type);
  w.u32(static_cast<std::uint32_t>(round));
  w.raw(BytesView(reader.raw(reader.remaining())));
  Bytes raw = w.take();
  const std::size_t cost = raw.size() + 16;
  auto& budget = host_.budget();
  while (!budget.try_charge(from, tag_, cost)) {
    // Over budget: evict this peer's farthest-future parked message, but
    // never one nearer than the incoming round — when the incoming message
    // is itself the farthest future, it is the one that goes.
    std::size_t victim = deferred_.size();
    int victim_round = round;
    for (std::size_t i = 0; i < deferred_.size(); ++i) {
      const auto& [parked_round, parked_from, parked_raw] = deferred_[i];
      if (parked_from == from && parked_round > victim_round) {
        victim = i;
        victim_round = parked_round;
      }
    }
    if (victim == deferred_.size()) return;
    budget.release(from, tag_, std::get<2>(deferred_[victim]).size() + 16);
    deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(victim));
    budget.note_eviction();
  }
  deferred_.emplace_back(round, from, std::move(raw));
}

void Abba::handle(int from, Reader& reader) {
  if (decided_) {
    // Instance done, rounds freed.  A peer still talking missed the
    // decision; answer once with the transferable decide certificate.
    if (from != me() && !decide_raw_.empty() && !(helped_ & crypto::party_bit(from))) {
      helped_ |= crypto::party_bit(from);
      host_.send(from, tag_, Bytes(decide_raw_));
    }
    return;
  }
  const std::uint8_t type = reader.u8();
  switch (type) {
    case kInput: return on_input(from, reader);
    case kPreVote: return on_prevote(from, reader);
    case kMainVote: return on_mainvote(from, reader);
    case kCoinShare: return on_coin_share(from, reader);
    case kCoinVerdict: return on_coin_verdict(from, reader);
    case kVoteVerdict: return on_vote_verdict(from, reader);
    case kVoteBatchVerdict: return on_vote_batch_verdict(from, reader);
    case kDecide: return on_decide(from, reader);
    default: throw ProtocolError("abba: unknown message type");
  }
}

void Abba::on_prevote(int from, Reader& reader) {
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(round >= 1 && round < 1 << 20, "abba: implausible round");
  if (round > current_round_ + 1) {
    // Far ahead of us; park the whole message (budget-bounded, farthest-
    // future evicted first) until we catch up.
    return park_deferred(kPreVote, round, from, reader);
  }
  const std::size_t cost = reader.remaining() + 16;  // if buffered for the coin
  const std::uint8_t value_byte = reader.u8();
  SINTRA_REQUIRE(value_byte <= 1, "abba: bad pre-vote value");
  const bool value = value_byte == 1;
  const auto justification = static_cast<Justification>(reader.u8());
  const BigInt evidence = BigInt::decode(reader);
  auto shares = decode_shares(reader);
  reader.expect_done();

  const auto& cert_pk = host_.public_keys().cert_sig;
  if (round == 1) {
    SINTRA_REQUIRE(justification == kJustAnchor, "abba: round-1 pre-vote must be anchored");
    check_cert(anchor_[value_byte], host_.public_keys().reply_sig,
               statement("input", 0, value_byte), evidence, "abba: bad input anchor");
  } else if (justification == kJustHard) {
    auto& known = round_state(round - 1).sigma_pre[value_byte];
    check_cert(known, cert_pk, statement("pre", round - 1, value_byte), evidence,
               "abba: bad hard justification");
    if (!known.has_value()) known = evidence;
  } else if (justification == kJustCoin) {
    Round& prev = round_state(round - 1);
    check_cert(prev.sigma_main_abstain, cert_pk, statement("main", round - 1, kAbstain),
               evidence, "abba: bad abstain certificate");
    if (!prev.sigma_main_abstain.has_value()) prev.sigma_main_abstain = evidence;
    if (!prev.coin.has_value()) {
      return defer_coin_prevote(prev, from, value, std::move(shares), cost);
    }
    SINTRA_REQUIRE(*prev.coin == value, "abba: coin pre-vote contradicts coin");
  } else {
    throw ProtocolError("abba: bad justification kind");
  }
  accept_prevote(round, from, value, std::move(shares));
}

void Abba::defer_coin_prevote(Round& prev, int from, bool value, std::vector<SigShare> shares,
                              std::size_t cost) {
  // First per sender, and budget-charged: a replayed message must not grow
  // the buffer (the charge is released on adopt_coin, or by decide()).
  if (crypto::contains(prev.deferred_coin_from, from)) return;
  if (!host_.budget().try_charge(from, tag_, cost)) return;
  prev.deferred_coin_from |= crypto::party_bit(from);
  prev.deferred_coin_prevotes.push_back({from, value, std::move(shares), cost});
}

void Abba::accept_prevote(int round, int from, bool value, std::vector<SigShare> shares) {
  Round& state = round_state(round);
  if (crypto::contains(state.prevote_arrived, from)) return;  // one pre-vote per party
  const bool admitted =
      state.prevotes[value ? 1 : 0].admit(host_.public_keys().cert_sig, from, std::move(shares));
  state.prevote_arrived |= crypto::party_bit(from);
  if (!admitted) return;
  bump_progress();
  maybe_mainvote(round);
}

void Abba::maybe_mainvote(int round) {
  Round& state = round_state(round);
  if (state.sent_mainvote) return;
  const auto& prevotes = state.prevotes;
  const crypto::PartySet vouched = prevotes[0].verified() | prevotes[1].verified();
  if (!quorum().is_quorum(vouched)) {
    // Vouch for the arrived votes: combine sigma_pre(round, v) once v's set
    // qualifies, or batch-verify a quorum split across both values.
    bool qualified = false;
    for (int v = 0; v < 2; ++v) {
      if (host_.public_keys().cert_sig.scheme().qualified(prevotes[v].support())) {
        qualified = true;
        combine_votes(kVotePre, round, v);
      }
    }
    if (!qualified && quorum().is_quorum(prevotes[0].support() | prevotes[1].support())) {
      verify_votes(kVotePre, round);
    }
    return;
  }

  std::uint8_t vote = kAbstain;  // conflicting pre-votes seen
  std::optional<BigInt> evidence;
  if (prevotes[0].verified() == 0 || prevotes[1].verified() == 0) {
    const int v = prevotes[1].verified() != 0 ? 1 : 0;
    // A unanimous quorum: main-vote v once sigma_pre(round, v) is in hand.
    if (!state.sigma_pre[v].has_value()) return combine_votes(kVotePre, round, v);
    vote = static_cast<std::uint8_t>(v);
    evidence = state.sigma_pre[v];
  }
  state.sent_mainvote = true;

  Writer w;
  w.u8(kMainVote);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(vote);
  if (vote != kAbstain) evidence->encode(w);
  auto shares = host_.keys().cert_sig.sign(host_.public_keys().cert_sig,
                                           statement("main", round, vote), host_.rng());
  encode_shares(w, shares);
  last_mainvote_raw_ = w.take();
  broadcast(last_mainvote_raw_);
}

void Abba::on_mainvote(int from, Reader& reader) {
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(round >= 1 && round < 1 << 20, "abba: implausible round");
  if (round > current_round_ + 1) {
    return park_deferred(kMainVote, round, from, reader);
  }
  const std::uint8_t vote = reader.u8();
  SINTRA_REQUIRE(vote <= kAbstain, "abba: bad main-vote value");
  const auto& cert_pk = host_.public_keys().cert_sig;
  Round& state = round_state(round);

  if (vote != kAbstain) {
    BigInt sigma = BigInt::decode(reader);
    check_cert(state.sigma_pre[vote], cert_pk, statement("pre", round, vote), sigma,
               "abba: main-vote without valid pre-vote certificate");
    if (!state.sigma_pre[vote].has_value()) state.sigma_pre[vote] = std::move(sigma);
  }
  auto shares = decode_shares(reader);
  reader.expect_done();
  if (crypto::contains(state.mainvote_arrived, from)) return;
  const bool admitted = state.mainvotes[vote].admit(cert_pk, from, std::move(shares));
  state.mainvote_arrived |= crypto::party_bit(from);
  if (!admitted) return;
  bump_progress();
  maybe_close_round(round);
}

void Abba::maybe_close_round(int round) {
  Round& state = round_state(round);
  const auto& mainvotes = state.mainvotes;
  // Decision check on *every* arrival (not only at round close): the first
  // quorum of main-votes may mix corrupted abstains with honest value
  // votes, and the unanimous certificate only completes later.
  for (int v = 0; v < 2; ++v) combine_votes(kVoteMain, round, v);
  if (state.round_closed) return;
  crypto::PartySet vouched = 0;
  crypto::PartySet arrived = 0;
  bool qualified = false;
  for (const Votes& set : mainvotes) {
    vouched |= set.verified();
    arrived |= set.support();
    qualified = qualified || host_.public_keys().cert_sig.scheme().qualified(set.support());
  }
  if (!quorum().is_quorum(vouched)) {
    // As for pre-votes: a qualified set combines (a value decides, abstain
    // yields the abstain certificate); a split quorum is batch-verified.
    combine_votes(kVoteMain, round, kAbstain);
    if (!qualified && quorum().is_quorum(arrived)) verify_votes(kVoteMain, round);
    return;
  }

  // Some vouched main-vote carried a value: adopt it with hard justification.
  for (int v = 0; v < 2; ++v) {
    if (mainvotes[v].verified() != 0) {
      state.round_closed = true;
      release_coin(round);
      SINTRA_INVARIANT(state.sigma_pre[v].has_value(), "abba: value main-vote lost its cert");
      advance(round + 1, v == 1, kJustHard, *state.sigma_pre[v]);
      return;
    }
  }
  // All abstained: follow the coin with the abstain certificate.
  if (!state.sigma_main_abstain.has_value()) return combine_votes(kVoteMain, round, kAbstain);
  state.round_closed = true;
  release_coin(round);
  if (state.coin.has_value()) {
    advance(round + 1, *state.coin, kJustCoin, *state.sigma_main_abstain);
  } else {
    state.waiting_for_coin = true;
  }
}

void Abba::release_coin(int round) {
  Round& state = round_state(round);
  if (state.coin_released) return;
  state.coin_released = true;
  Writer w;
  w.u8(kCoinShare);
  w.u32(static_cast<std::uint32_t>(round));
  auto shares = host_.keys().coin.share(host_.public_keys().coin, coin_name(round), host_.rng());
  w.vec(shares, [&](Writer& wr, const CoinShare& s) {
    s.encode(wr, host_.public_keys().coin.group());
  });
  last_coin_raw_ = w.take();
  broadcast(last_coin_raw_);
}

void Abba::on_coin_share(int from, Reader& reader) {
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(round >= 1 && round < 1 << 20, "abba: implausible round");
  if (round > current_round_ + 1) {
    return park_deferred(kCoinShare, round, from, reader);
  }
  const auto& coin_pk = host_.public_keys().coin;
  auto shares = reader.vec<CoinShare>(
      [&](Reader& r) { return CoinShare::decode(r, coin_pk.group()); });
  reader.expect_done();
  // Structural admission only: the NIZK proofs are deferred to one batched
  // verification over the whole threshold set, run off the event loop.
  if (!round_state(round).coin_shares.admit(coin_pk, from, std::move(shares))) return;
  bump_progress();
  maybe_combine_coin(round);
}

void Abba::maybe_combine_coin(int round) {
  auto& collector = round_state(round).coin_shares;
  const auto& coin_pk = host_.public_keys().coin;
  if (!coin_pk.scheme().qualified(collector.support())) return;
  Writer header;
  header.u8(kCoinVerdict);
  header.u32(static_cast<std::uint32_t>(round));
  collector.combine(host_, tag_, coin_pk, coin_name(round), header.take());
}

void Abba::on_coin_verdict(int from, Reader& reader) {
  const int round = static_cast<int>(reader.u32());
  auto it = rounds_.find(round);
  if (it == rounds_.end()) return;  // no combine was ever started there
  auto coin = it->second.coin_shares.on_verdict(host_, from, host_.public_keys().coin, reader,
                                                suspected_);
  if (!coin.has_value()) return maybe_combine_coin(round);
  adopt_coin(round, *coin);
}

void Abba::on_vote_verdict(int from, Reader& reader) {
  const auto kind = static_cast<Vote>(reader.u8());
  const int round = static_cast<int>(reader.u32());
  const int value = reader.u8();
  SINTRA_REQUIRE(kind <= kVoteMain && value <= (kind == kVoteMain ? kAbstain : 1),
                 "abba: bad vote verdict");
  if (kind != kVoteInput && !rounds_.contains(round)) return;  // no combine started there
  auto cert = votes(kind, round, value).on_verdict(host_, from, vote_key(kind), reader, suspected_);
  switch (kind) {
    case kVoteInput:
      if (!cert.has_value()) return combine_votes(kVoteInput, 0, value);  // re-arm
      anchor_[value] = std::move(*cert);
      return try_first_prevote();
    case kVotePre: {
      auto& sigma_pre = round_state(round).sigma_pre[value];
      if (cert.has_value() && !sigma_pre.has_value()) sigma_pre = std::move(*cert);
      return maybe_mainvote(round);
    }
    case kVoteMain:
      if (cert.has_value() && value != kAbstain) return decide(value == 1, round, *cert);
      if (cert.has_value()) round_state(round).sigma_main_abstain = std::move(*cert);
      return maybe_close_round(round);
  }
}

void Abba::on_vote_batch_verdict(int from, Reader& reader) {
  const auto kind = static_cast<Vote>(reader.u8());
  const int round = static_cast<int>(reader.u32());
  SINTRA_REQUIRE(kind == kVotePre || kind == kVoteMain, "abba: bad vote verdict");
  if (!rounds_.contains(round)) return;
  std::vector<Votes*> sets;
  for (int v = 0; v < (kind == kVoteMain ? 3 : 2); ++v) sets.push_back(&votes(kind, round, v));
  Votes::on_verified(host_, from, vote_key(kind), reader, sets, suspected_);
  return kind == kVotePre ? maybe_mainvote(round) : maybe_close_round(round);
}

void Abba::adopt_coin(int round, BytesView value) {
  Round& state = round_state(round);
  state.coin = crypto::CoinPublicKey::coin_bit(value);
  host_.trace("abba", tag_ + " coin r" + std::to_string(round) + " = " +
                          std::to_string(static_cast<int>(*state.coin)));

  // Validate pre-votes that were waiting on this coin; each leaves the
  // buffer with its budget charge.
  auto deferred = std::move(state.deferred_coin_prevotes);
  state.deferred_coin_prevotes.clear();
  for (auto& prevote : deferred) {
    if (decided_) break;  // decide() already released every charge
    host_.budget().release(prevote.from, tag_, prevote.cost);
    if (prevote.value != *state.coin) continue;  // contradiction: drop
    try {
      accept_prevote(round + 1, prevote.from, prevote.value, std::move(prevote.shares));
    } catch (const ProtocolError&) {
      // A malformed share set fails admission; the other pre-votes stand.
    }
  }
  if (state.waiting_for_coin && !decided_) {
    state.waiting_for_coin = false;
    SINTRA_INVARIANT(state.sigma_main_abstain.has_value(), "abba: coin wait without cert");
    advance(round + 1, *state.coin, kJustCoin, *state.sigma_main_abstain);
  }
}

void Abba::advance(int round, bool value, Justification justification, const BigInt& evidence) {
  if (decided_) return;
  if (round > current_round_) {
    current_round_ = round;
    bump_progress();
    host_.trace("abba", tag_ + " advancing to round " + std::to_string(round));
  }
  send_prevote(round, value, justification, evidence);

  // Replay parked far-future messages that are now in range (their budget
  // charge is released as they leave the buffer; re-parked entries keep
  // theirs).  Parked messages were never validated — a bad one is dropped
  // without disturbing the rest.
  auto parked = std::move(deferred_);
  deferred_.clear();
  for (auto& [msg_round, from, raw] : parked) {
    if (decided_) break;  // decide() already released every charge
    if (msg_round <= current_round_ + 1) {
      host_.budget().release(from, tag_, raw.size() + 16);
      try {
        Reader reader(raw);
        handle(from, reader);
      } catch (const ProtocolError&) {
      }
    } else {
      deferred_.emplace_back(msg_round, from, std::move(raw));
    }
  }
}

void Abba::on_decide(int from, Reader& reader) {
  (void)from;
  const int round = static_cast<int>(reader.u32());
  const std::uint8_t value = reader.u8();
  SINTRA_REQUIRE(value <= 1, "abba: bad decide value");
  BigInt sigma = BigInt::decode(reader);
  reader.expect_done();
  SINTRA_REQUIRE(host_.public_keys().cert_sig.verify(statement("main", round, value), sigma),
                 "abba: bad decide certificate");
  decide(value == 1, round, sigma);
}

void Abba::decide(bool value, int round, const BigInt& sigma_main) {
  if (decided_) return;
  decided_ = true;
  decision_ = value;
  decide_round_ = round;
  Writer w;
  w.u8(kDecide);
  w.u32(static_cast<std::uint32_t>(round));
  w.u8(value ? 1 : 0);
  sigma_main.encode(w);
  decide_raw_ = w.take();
  broadcast(decide_raw_);
  host_.trace("abba", tag_ + " decided " + std::to_string(static_cast<int>(value)) +
                          " in round " + std::to_string(round));
  // Instance GC: the transferable decide certificate (kept in decide_raw_)
  // subsumes every tally, share and parked message — free them now.  Safe
  // inline: no caller touches round state after decide() returns (audited:
  // on_mainvote returns immediately, on_decide holds no Round reference,
  // and maybe_combine_coin's chain cannot reach decide()).
  rounds_.clear();
  deferred_.clear();
  for (Votes& set : input_votes_) set.clear();
  host_.budget().release_instance(tag_);
  if (watchdog_) watchdog_->disarm();
  if (compaction_) {
    // WAL compaction: the checkpoint carries the decision across restarts,
    // so replaying this instance's message history is dead weight.
    host_.prune_wal(tag_, [](const net::Message&) { return true; });
  }
  if (decide_) decide_(value, round);
}

}  // namespace sintra::protocols
