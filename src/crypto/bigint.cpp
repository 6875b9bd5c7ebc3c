#include "crypto/bigint.hpp"

#include <algorithm>
#include <array>

#include "common/assert.hpp"

namespace sintra::crypto {

namespace {
using Limbs = std::vector<std::uint64_t>;

constexpr std::uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127,
    131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
    293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
    389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467,
    479, 487, 491, 499, 503, 509, 521, 523, 541, 547, 557, 563, 569, 571, 577,
    587, 593, 599, 601, 607, 613, 617, 619, 631, 641, 643, 647, 653, 659, 661,
    673, 677, 683, 691, 701, 709, 719, 727, 733, 739, 743, 751, 757, 761, 769,
    773, 787, 797, 809, 811, 821, 823, 827, 829, 839, 853, 857, 859, 863, 877,
    881, 883, 887, 907, 911, 919, 929, 937, 941, 947, 953, 967, 971, 977, 983,
    991, 997};
}  // namespace

BigInt::BigInt(std::int64_t value) {
  if (value < 0) {
    negative_ = true;
    // Avoid UB on INT64_MIN.
    limbs_.push_back(static_cast<std::uint64_t>(-(value + 1)) + 1);
  } else if (value > 0) {
    limbs_.push_back(static_cast<std::uint64_t>(value));
  }
}

BigInt::BigInt(std::uint64_t value, int) {
  if (value != 0) limbs_.push_back(value);
}

BigInt BigInt::from_u64(std::uint64_t value) {
  return BigInt(value, 0);
}

BigInt BigInt::from_string(std::string_view text) {
  bool negative = false;
  if (!text.empty() && text[0] == '-') {
    negative = true;
    text.remove_prefix(1);
  }
  SINTRA_REQUIRE(!text.empty(), "BigInt: empty numeric string");
  BigInt result;
  if (text.size() > 2 && text[0] == '0' && (text[1] == 'x' || text[1] == 'X')) {
    std::string_view hex = text.substr(2);
    std::string padded(hex.size() % 2 == 1 ? "0" : "");
    padded += hex;
    result = from_bytes(from_hex(padded));
  } else {
    const BigInt ten(10);
    for (char c : text) {
      SINTRA_REQUIRE(c >= '0' && c <= '9', "BigInt: invalid decimal digit");
      result = result * ten + BigInt(c - '0');
    }
  }
  result.negative_ = negative && !result.is_zero();
  return result;
}

BigInt BigInt::from_bytes(BytesView data) {
  BigInt result;
  // Big-endian bytes -> little-endian limbs.
  std::size_t n = data.size();
  result.limbs_.resize((n + 7) / 8, 0);
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t byte_index = n - 1 - i;  // position from LSB
    result.limbs_[byte_index / 8] |=
        static_cast<std::uint64_t>(data[i]) << (8 * (byte_index % 8));
  }
  result.trim();
  return result;
}

std::size_t BigInt::bit_length() const {
  if (limbs_.empty()) return 0;
  std::uint64_t top = limbs_.back();
  std::size_t bits = (limbs_.size() - 1) * 64;
  while (top != 0) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigInt::bit(std::size_t i) const {
  std::size_t limb = i / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

std::string BigInt::to_string() const {
  if (is_zero()) return "0";
  std::string digits;
  BigInt value = *this;
  value.negative_ = false;
  const BigInt ten(10);
  BigInt quotient;
  BigInt remainder;
  while (!value.is_zero()) {
    divmod(value, ten, quotient, remainder);
    digits.push_back(static_cast<char>('0' + remainder.low_u64()));
    value = quotient;
  }
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string BigInt::to_hex() const {
  if (is_zero()) return "0";
  Bytes raw = to_bytes();
  std::string hex = sintra::to_hex(raw);
  // Strip a single leading zero nibble if present.
  if (hex.size() > 1 && hex[0] == '0') hex.erase(0, 1);
  return negative_ ? "-" + hex : hex;
}

Bytes BigInt::to_bytes() const {
  if (limbs_.empty()) return {};
  std::size_t bytes_needed = (bit_length() + 7) / 8;
  return to_bytes_padded(bytes_needed);
}

Bytes BigInt::to_bytes_padded(std::size_t width) const {
  SINTRA_REQUIRE((bit_length() + 7) / 8 <= width, "BigInt: value too wide for padding");
  Bytes out(width, 0);
  for (std::size_t i = 0; i < width; ++i) {
    std::size_t byte_index = width - 1 - i;  // position from LSB
    std::size_t limb = byte_index / 8;
    if (limb < limbs_.size()) {
      out[i] = static_cast<std::uint8_t>(limbs_[limb] >> (8 * (byte_index % 8)));
    }
  }
  return out;
}

int BigInt::compare(const BigInt& other) const {
  if (negative_ != other.negative_) return negative_ ? -1 : 1;
  int mag = compare_magnitude(other);
  return negative_ ? -mag : mag;
}

int BigInt::compare_magnitude(const BigInt& other) const {
  if (limbs_.size() != other.limbs_.size()) {
    return limbs_.size() < other.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != other.limbs_[i]) return limbs_[i] < other.limbs_[i] ? -1 : 1;
  }
  return 0;
}

void BigInt::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

Limbs BigInt::add_magnitudes(const Limbs& a, const Limbs& b) {
  const Limbs& longer = a.size() >= b.size() ? a : b;
  const Limbs& shorter = a.size() >= b.size() ? b : a;
  Limbs out(longer.size() + 1, 0);
  unsigned __int128 carry = 0;
  for (std::size_t i = 0; i < longer.size(); ++i) {
    unsigned __int128 sum = carry + longer[i];
    if (i < shorter.size()) sum += shorter[i];
    out[i] = static_cast<std::uint64_t>(sum);
    carry = sum >> 64;
  }
  out[longer.size()] = static_cast<std::uint64_t>(carry);
  return out;
}

Limbs BigInt::sub_magnitudes(const Limbs& a, const Limbs& b) {
  Limbs out(a.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    unsigned __int128 lhs = a[i];
    unsigned __int128 rhs = (i < b.size() ? b[i] : 0);
    rhs += static_cast<unsigned __int128>(borrow);
    if (lhs >= rhs) {
      out[i] = static_cast<std::uint64_t>(lhs - rhs);
      borrow = 0;
    } else {
      out[i] = static_cast<std::uint64_t>((static_cast<unsigned __int128>(1) << 64) + lhs - rhs);
      borrow = 1;
    }
  }
  return out;
}

Limbs BigInt::mul_magnitudes(const Limbs& a, const Limbs& b) {
  if (a.empty() || b.empty()) return {};
  Limbs out(a.size() + b.size(), 0);
  for (std::size_t i = 0; i < a.size(); ++i) {
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < b.size(); ++j) {
      unsigned __int128 cur = out[i + j] + carry +
                              static_cast<unsigned __int128>(a[i]) * b[j];
      out[i + j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    std::size_t k = i + b.size();
    while (carry != 0) {
      unsigned __int128 cur = out[k] + carry;
      out[k] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
      ++k;
    }
  }
  return out;
}

// Knuth Algorithm D, normalized so the divisor's top limb has its high bit set.
void BigInt::divmod_magnitudes(const Limbs& a, const Limbs& b, Limbs& quotient, Limbs& remainder) {
  SINTRA_REQUIRE(!b.empty(), "BigInt: division by zero");
  // Fast paths.
  if (a.size() < b.size() ||
      (a.size() == b.size() &&
       std::lexicographical_compare(a.rbegin(), a.rend(), b.rbegin(), b.rend()))) {
    quotient.clear();
    remainder = a;
    return;
  }
  if (b.size() == 1) {
    quotient.assign(a.size(), 0);
    unsigned __int128 rem = 0;
    for (std::size_t i = a.size(); i-- > 0;) {
      unsigned __int128 cur = (rem << 64) | a[i];
      quotient[i] = static_cast<std::uint64_t>(cur / b[0]);
      rem = cur % b[0];
    }
    remainder.clear();
    if (rem != 0) remainder.push_back(static_cast<std::uint64_t>(rem));
    return;
  }

  // Normalize.
  int shift = 0;
  std::uint64_t top = b.back();
  while (!(top & (1ULL << 63))) {
    top <<= 1;
    ++shift;
  }
  auto shl = [&](const Limbs& src, int s) {
    if (s == 0) {
      Limbs out = src;
      out.push_back(0);
      return out;
    }
    Limbs out(src.size() + 1, 0);
    for (std::size_t i = 0; i < src.size(); ++i) {
      out[i] |= src[i] << s;
      out[i + 1] = src[i] >> (64 - s);
    }
    return out;
  };
  Limbs u = shl(a, shift);            // size n + m + 1 (with extra limb)
  Limbs v = shl(b, shift);            // normalized divisor
  while (v.size() > b.size()) v.pop_back();  // drop the zero extension
  const std::size_t n = v.size();
  const std::size_t m = u.size() - n - 1;

  quotient.assign(m + 1, 0);
  const unsigned __int128 base = static_cast<unsigned __int128>(1) << 64;
  for (std::size_t j = m + 1; j-- > 0;) {
    unsigned __int128 numerator = (static_cast<unsigned __int128>(u[j + n]) << 64) | u[j + n - 1];
    unsigned __int128 qhat = numerator / v[n - 1];
    unsigned __int128 rhat = numerator % v[n - 1];
    while (qhat >= base ||
           qhat * v[n - 2] > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= base) break;
    }
    // Multiply-subtract.
    unsigned __int128 borrow = 0;
    unsigned __int128 carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      unsigned __int128 product = qhat * v[i] + carry;
      carry = product >> 64;
      std::uint64_t product_low = static_cast<std::uint64_t>(product);
      unsigned __int128 diff = static_cast<unsigned __int128>(u[i + j]) - product_low - borrow;
      u[i + j] = static_cast<std::uint64_t>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
    unsigned __int128 diff = static_cast<unsigned __int128>(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<std::uint64_t>(diff);
    bool negative = (diff >> 64) != 0;

    if (negative) {
      // qhat was one too large: add back.
      --qhat;
      unsigned __int128 add_carry = 0;
      for (std::size_t i = 0; i < n; ++i) {
        unsigned __int128 sum = static_cast<unsigned __int128>(u[i + j]) + v[i] + add_carry;
        u[i + j] = static_cast<std::uint64_t>(sum);
        add_carry = sum >> 64;
      }
      u[j + n] = static_cast<std::uint64_t>(u[j + n] + add_carry);
    }
    quotient[j] = static_cast<std::uint64_t>(qhat);
  }

  // Denormalize the remainder (shift right across limbs).
  remainder.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    remainder[i] = shift == 0 ? u[i] : u[i] >> shift;
    if (shift != 0 && i + 1 < n) remainder[i] |= u[i + 1] << (64 - shift);
  }
  while (!quotient.empty() && quotient.back() == 0) quotient.pop_back();
  while (!remainder.empty() && remainder.back() == 0) remainder.pop_back();
}

BigInt operator+(const BigInt& a, const BigInt& b) {
  BigInt out;
  if (a.negative_ == b.negative_) {
    out.limbs_ = BigInt::add_magnitudes(a.limbs_, b.limbs_);
    out.negative_ = a.negative_;
  } else {
    int mag = a.compare_magnitude(b);
    if (mag == 0) return BigInt();
    if (mag > 0) {
      out.limbs_ = BigInt::sub_magnitudes(a.limbs_, b.limbs_);
      out.negative_ = a.negative_;
    } else {
      out.limbs_ = BigInt::sub_magnitudes(b.limbs_, a.limbs_);
      out.negative_ = b.negative_;
    }
  }
  out.trim();
  return out;
}

BigInt operator-(const BigInt& a, const BigInt& b) {
  return a + (-b);
}

BigInt BigInt::operator-() const {
  BigInt out = *this;
  if (!out.is_zero()) out.negative_ = !out.negative_;
  return out;
}

BigInt operator*(const BigInt& a, const BigInt& b) {
  BigInt out;
  out.limbs_ = BigInt::mul_magnitudes(a.limbs_, b.limbs_);
  out.negative_ = a.negative_ != b.negative_;
  out.trim();
  return out;
}

void BigInt::divmod(const BigInt& a, const BigInt& b, BigInt& quotient, BigInt& remainder) {
  Limbs q;
  Limbs r;
  divmod_magnitudes(a.limbs_, b.limbs_, q, r);
  quotient.limbs_ = std::move(q);
  quotient.negative_ = a.negative_ != b.negative_;
  quotient.trim();
  remainder.limbs_ = std::move(r);
  remainder.negative_ = a.negative_;
  remainder.trim();
}

BigInt operator/(const BigInt& a, const BigInt& b) {
  BigInt q;
  BigInt r;
  BigInt::divmod(a, b, q, r);
  return q;
}

BigInt operator%(const BigInt& a, const BigInt& b) {
  BigInt q;
  BigInt r;
  BigInt::divmod(a, b, q, r);
  return r;
}

BigInt BigInt::shifted_left(std::size_t bits) const {
  if (is_zero() || bits == 0) return *this;
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    out.limbs_[i + limb_shift] |= bit_shift == 0 ? limbs_[i] : limbs_[i] << bit_shift;
    if (bit_shift != 0) {
      out.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::shifted_right(std::size_t bits) const {
  const std::size_t limb_shift = bits / 64;
  const std::size_t bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt out;
  out.negative_ = negative_;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    out.limbs_[i] = bit_shift == 0 ? limbs_[i + limb_shift] : limbs_[i + limb_shift] >> bit_shift;
    if (bit_shift != 0 && i + limb_shift + 1 < limbs_.size()) {
      out.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
    }
  }
  out.trim();
  return out;
}

BigInt BigInt::mod(const BigInt& m) const {
  SINTRA_REQUIRE(!m.is_zero() && !m.negative_, "BigInt: modulus must be positive");
  BigInt r = *this % m;
  if (r.negative_) r += m;
  return r;
}

BigInt BigInt::add_mod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a + b).mod(m);
}

BigInt BigInt::sub_mod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a - b).mod(m);
}

BigInt BigInt::mul_mod(const BigInt& a, const BigInt& b, const BigInt& m) {
  return (a * b).mod(m);
}

BigInt BigInt::pow_mod(const BigInt& base, const BigInt& exponent, const BigInt& m) {
  SINTRA_REQUIRE(!exponent.negative_, "BigInt: negative exponent");
  SINTRA_REQUIRE(!m.is_zero() && !m.negative_, "BigInt: modulus must be positive");
  if (m.is_one()) return BigInt();
  // Montgomery REDC only works for odd moduli, and its per-call setup (one
  // wide divmod for R^2 mod m) only pays off once the exponent drives more
  // than a handful of modular multiplications.
  if (m.is_odd() && m.limbs_.size() >= 2 && exponent.bit_length() > 16) {
    return Montgomery(m).pow(base, exponent);
  }
  return pow_mod_reference(base, exponent, m);
}

BigInt BigInt::pow2_mod(const BigInt& b1, const BigInt& e1, const BigInt& b2, const BigInt& e2,
                        const BigInt& m) {
  SINTRA_REQUIRE(!e1.negative_ && !e2.negative_, "BigInt: negative exponent");
  SINTRA_REQUIRE(!m.is_zero() && !m.negative_, "BigInt: modulus must be positive");
  if (m.is_one()) return BigInt();
  if (m.is_odd() && m.limbs_.size() >= 2) {
    return Montgomery(m).pow2(b1, e1, b2, e2);
  }
  return mul_mod(pow_mod_reference(b1, e1, m), pow_mod_reference(b2, e2, m), m);
}

BigInt BigInt::pow_mod_reference(const BigInt& base, const BigInt& exponent, const BigInt& m) {
  SINTRA_REQUIRE(!exponent.negative_, "BigInt: negative exponent");
  SINTRA_REQUIRE(!m.is_zero() && !m.negative_, "BigInt: modulus must be positive");
  if (m.is_one()) return BigInt();
  BigInt result(1);
  BigInt b = base.mod(m);
  const std::size_t bits = exponent.bit_length();
  // Left-to-right square-and-multiply with a 4-bit fixed window.
  constexpr std::size_t kWindow = 4;
  if (bits <= 16) {
    for (std::size_t i = bits; i-- > 0;) {
      result = mul_mod(result, result, m);
      if (exponent.bit(i)) result = mul_mod(result, b, m);
    }
    return result;
  }
  // Precompute b^0..b^15.
  std::vector<BigInt> table(1ULL << kWindow);
  table[0] = BigInt(1);
  for (std::size_t i = 1; i < table.size(); ++i) table[i] = mul_mod(table[i - 1], b, m);
  std::size_t i = bits;
  while (i > 0) {
    std::size_t take = std::min(kWindow, i);
    std::uint32_t window = 0;
    for (std::size_t k = 0; k < take; ++k) {
      window = window << 1 | static_cast<std::uint32_t>(exponent.bit(i - 1 - k));
    }
    for (std::size_t k = 0; k < take; ++k) result = mul_mod(result, result, m);
    if (window != 0) result = mul_mod(result, table[window], m);
    i -= take;
  }
  return result;
}

namespace {

// Fixed-width limb helpers for the odd-modulus inverse.  Every array holds
// n little-endian limbs unless its comment says n + 1.

bool is_zero_limbs(const std::uint64_t* a, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

bool is_one_limbs(const std::uint64_t* a, std::size_t n) {
  return a[0] == 1 && is_zero_limbs(a + 1, n - 1);
}

std::size_t bit_length_limbs(const std::uint64_t* a, std::size_t n) {
  for (std::size_t i = n; i-- > 0;) {
    if (a[i] != 0) return 64 * i + 64 - static_cast<std::size_t>(__builtin_clzll(a[i]));
  }
  return 0;
}

/// The 64 bits of a starting at bit `pos` (zeros past the top limb).
std::uint64_t bits_at(const std::uint64_t* a, std::size_t n, std::size_t pos) {
  const std::size_t limb = pos / 64;
  const unsigned shift = static_cast<unsigned>(pos % 64);
  if (limb >= n) return 0;
  std::uint64_t out = a[limb] >> shift;
  if (shift != 0 && limb + 1 < n) out |= a[limb + 1] << (64 - shift);
  return out;
}

/// out[0..n] = a * f for a of n limbs and f < 2^63.
void mul_small(std::uint64_t* out, const std::uint64_t* a, std::uint64_t f, std::size_t n) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned __int128 cur = static_cast<unsigned __int128>(a[i]) * f + carry;
    out[i] = static_cast<std::uint64_t>(cur);
    carry = static_cast<std::uint64_t>(cur >> 64);
  }
  out[n] = carry;
}

/// a -= b over n limbs; returns the borrow out of the top limb.
std::uint64_t sub_limbs(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::uint64_t borrow = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned __int128 diff = static_cast<unsigned __int128>(a[i]) - b[i] - borrow;
    a[i] = static_cast<std::uint64_t>(diff);
    borrow = static_cast<std::uint64_t>(diff >> 64) & 1;
  }
  return borrow;
}

void add_limbs(std::uint64_t* a, const std::uint64_t* b, std::size_t n) {
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const unsigned __int128 sum = static_cast<unsigned __int128>(a[i]) + b[i] + carry;
    a[i] = static_cast<std::uint64_t>(sum);
    carry = static_cast<std::uint64_t>(sum >> 64);
  }
}

void negate_limbs(std::uint64_t* a, std::size_t n) {
  std::uint64_t carry = 1;
  for (std::size_t i = 0; i < n; ++i) {
    a[i] = ~a[i] + carry;
    carry = carry != 0 && a[i] == 0 ? 1 : 0;
  }
}

/// out[0..n] = x*f + y*g for x, y of n limbs and |f|, |g| <= 2^31, as
/// magnitude; returns true when the value is negative.  `tmp` holds n + 1
/// limbs.
bool signed_combination(std::uint64_t* out, const std::uint64_t* x, std::int64_t f,
                        const std::uint64_t* y, std::int64_t g, std::uint64_t* tmp,
                        std::size_t n) {
  mul_small(out, x, static_cast<std::uint64_t>(f < 0 ? -f : f), n);
  mul_small(tmp, y, static_cast<std::uint64_t>(g < 0 ? -g : g), n);
  if ((f < 0) == (g < 0)) {
    add_limbs(out, tmp, n + 1);  // |f| + |g| <= 2^32 keeps the sum in n + 1 limbs
    return f < 0;
  }
  // Opposite signs: |x f| - |y g|, with the sign of whichever is larger.
  if (sub_limbs(out, tmp, n + 1) != 0) {
    negate_limbs(out, n + 1);
    return f >= 0;
  }
  return f < 0;
}

/// t[0..n] >> s for s in [1, 63] into out[0..n].
void shift_right_limbs(std::uint64_t* out, const std::uint64_t* t, std::size_t n, unsigned s) {
  for (std::size_t i = 0; i < n; ++i) out[i] = (t[i] >> s) | (t[i + 1] << (64 - s));
  out[n] = t[n] >> s;
}

/// out = t / 2^31 mod m for t[0..n] < 2^31 * m, odd m, n0 = -m^{-1} mod
/// 2^64: adding k*m with k = t*n0 mod 2^31 clears the low 31 bits, and
/// (t + k*m) / 2^31 < 2m needs one conditional subtraction.  `t` is
/// clobbered; `tmp` holds n + 1 limbs.
void divide_2_31_mod(std::uint64_t* out, std::uint64_t* t, const std::uint64_t* m,
                     std::uint64_t n0, std::uint64_t* tmp, std::size_t n) {
  const std::uint64_t k = (t[0] * n0) & ((std::uint64_t{1} << 31) - 1);
  mul_small(tmp, m, k, n);
  add_limbs(t, tmp, n + 1);
  shift_right_limbs(tmp, t, n, 31);
  // tmp < 2m: subtract m once if tmp >= m (tmp[n] is at most 1).
  std::copy(tmp, tmp + n + 1, t);
  const std::uint64_t borrow = sub_limbs(tmp, m, n);
  if (tmp[n] != 0 || borrow == 0) {
    std::copy(tmp, tmp + n, out);
  } else {
    std::copy(t, t + n, out);
  }
}

/// -m^{-1} mod 2^64 for odd m0 by Newton iteration (each round doubles the
/// correct low bits; the seed m0 is correct mod 2^5).
std::uint64_t neg_inverse_u64(std::uint64_t m0) {
  std::uint64_t inv = m0;
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;
  return ~inv + 1;
}

constexpr std::size_t kInverseStackLimbs = 32;  // moduli up to 2048 bits stay on the stack
constexpr std::size_t kInverseArrays = 7;       // arrays of n + 1 limbs per inverse

}  // namespace

BigInt BigInt::inverse_mod(const BigInt& a, const BigInt& m) {
  SINTRA_REQUIRE(!m.is_zero() && !m.negative_, "BigInt: modulus must be positive");
  if (!m.is_odd()) {
    BigInt x;
    BigInt y;
    BigInt g = extended_gcd(a.mod(m), m, x, y);
    SINTRA_REQUIRE(g.is_one(), "BigInt: not invertible");
    return x.mod(m);
  }
  if (m.is_one()) return BigInt();
  const BigInt reduced = a.mod(m);

  // Pornin's optimized binary gcd ("Optimized Binary GCD for Modular
  // Inversion", 2020).  Invariants: x*u == a_ and x*v == b_ (mod m) for the
  // input x, with b_ odd.  Each round runs 31 binary-gcd steps on 64-bit
  // approximations of a_ and b_ (their low 31 bits, exact, and their top
  // 33 bits), records them as a 2x2 matrix of small signed factors, then
  // applies the matrix to the full-width values: a_ and b_ shrink by 31
  // bits a round, and u, v are divided by 2^31 mod m so the invariants
  // hold.  When a_ reaches 0, b_ = gcd(x, m) and v is the inverse if b_ = 1.
  const std::size_t n = m.limbs_.size();
  const std::size_t w = n + 1;
  std::array<std::uint64_t, kInverseArrays * (kInverseStackLimbs + 1)> stack{};
  std::vector<std::uint64_t> heap;
  std::uint64_t* buffer = stack.data();
  if (n > kInverseStackLimbs) {
    heap.assign(kInverseArrays * w, 0);
    buffer = heap.data();
  }
  std::uint64_t* a_ = buffer;
  std::uint64_t* b_ = buffer + w;
  std::uint64_t* u = buffer + 2 * w;
  std::uint64_t* v = buffer + 3 * w;
  std::uint64_t* t1 = buffer + 4 * w;
  std::uint64_t* t2 = buffer + 5 * w;
  std::uint64_t* tmp = buffer + 6 * w;
  const std::uint64_t* mod = m.limbs_.data();
  std::copy(reduced.limbs_.begin(), reduced.limbs_.end(), a_);
  std::copy(mod, mod + n, b_);
  u[0] = 1;
  const std::uint64_t n0 = neg_inverse_u64(mod[0]);

  // The paper bounds the steps by 2*len(m) - 1, approximations included.
  const std::size_t max_rounds = (2 * 64 * n + 30) / 31;
  for (std::size_t round = 0; !is_zero_limbs(a_, n); ++round) {
    SINTRA_INVARIANT(round < max_rounds, "BigInt: inverse did not converge");
    const std::size_t len = std::max<std::size_t>(
        64, std::max(bit_length_limbs(a_, n), bit_length_limbs(b_, n)));
    constexpr std::uint64_t kLow = (std::uint64_t{1} << 31) - 1;
    std::uint64_t xa = (a_[0] & kLow) | (bits_at(a_, n, len - 33) << 31);
    std::uint64_t xb = (b_[0] & kLow) | (bits_at(b_, n, len - 33) << 31);
    std::int64_t f0 = 1;
    std::int64_t g0 = 0;
    std::int64_t f1 = 0;
    std::int64_t g1 = 1;
    for (int step = 0; step < 31; ++step) {
      // Branch-free: if xa is odd, swap so that xa >= xb, then subtract.
      const std::uint64_t odd = std::uint64_t{0} - (xa & 1);
      const std::uint64_t swap = odd & (std::uint64_t{0} - static_cast<std::uint64_t>(xa < xb));
      const std::int64_t swap_s = static_cast<std::int64_t>(swap);
      const std::int64_t odd_s = static_cast<std::int64_t>(odd);
      const std::uint64_t dx = (xa ^ xb) & swap;
      xa ^= dx;
      xb ^= dx;
      const std::int64_t df = (f0 ^ f1) & swap_s;
      f0 ^= df;
      f1 ^= df;
      const std::int64_t dg = (g0 ^ g1) & swap_s;
      g0 ^= dg;
      g1 ^= dg;
      xa -= xb & odd;
      f0 -= f1 & odd_s;
      g0 -= g1 & odd_s;
      xa >>= 1;
      f1 *= 2;
      g1 *= 2;
    }
    // a_ = |f0 a_ + g0 b_| / 2^31 and b_ = |f1 a_ + g1 b_| / 2^31 (exact
    // divisions: the low 31 bits were tracked exactly); a negated value
    // negates its row so u and v follow.
    if (signed_combination(t1, a_, f0, b_, g0, tmp, n)) {
      f0 = -f0;
      g0 = -g0;
    }
    if (signed_combination(t2, a_, f1, b_, g1, tmp, n)) {
      f1 = -f1;
      g1 = -g1;
    }
    shift_right_limbs(tmp, t1, n, 31);
    std::copy(tmp, tmp + n, a_);
    shift_right_limbs(tmp, t2, n, 31);
    std::copy(tmp, tmp + n, b_);
    // u = (f0 u + g0 v) / 2^31 and v = (f1 u + g1 v) / 2^31 (mod m).
    const bool u_negative = signed_combination(t1, u, f0, v, g0, tmp, n);
    const bool v_negative = signed_combination(t2, u, f1, v, g1, tmp, n);
    divide_2_31_mod(u, t1, mod, n0, tmp, n);
    divide_2_31_mod(v, t2, mod, n0, tmp, n);
    if (u_negative && !is_zero_limbs(u, n)) {
      std::copy(mod, mod + n, tmp);
      sub_limbs(tmp, u, n);
      std::copy(tmp, tmp + n, u);
    }
    if (v_negative && !is_zero_limbs(v, n)) {
      std::copy(mod, mod + n, tmp);
      sub_limbs(tmp, v, n);
      std::copy(tmp, tmp + n, v);
    }
  }
  SINTRA_REQUIRE(is_one_limbs(b_, n), "BigInt: not invertible");
  BigInt out;
  out.limbs_.assign(v, v + n);
  out.trim();
  return out;
}

BigInt BigInt::gcd(const BigInt& a, const BigInt& b) {
  BigInt u = a;
  BigInt v = b;
  u.negative_ = false;
  v.negative_ = false;
  while (!v.is_zero()) {
    BigInt r = u % v;
    u = v;
    v = r;
  }
  return u;
}

BigInt BigInt::extended_gcd(const BigInt& a, const BigInt& b, BigInt& x, BigInt& y) {
  BigInt old_r = a;
  BigInt r = b;
  BigInt old_s(1);
  BigInt s(0);
  BigInt old_t(0);
  BigInt t(1);
  while (!r.is_zero()) {
    BigInt q;
    BigInt rem;
    divmod(old_r, r, q, rem);
    old_r = r;
    r = rem;
    BigInt tmp_s = old_s - q * s;
    old_s = s;
    s = tmp_s;
    BigInt tmp_t = old_t - q * t;
    old_t = t;
    t = tmp_t;
  }
  x = old_s;
  y = old_t;
  return old_r;
}

BigInt BigInt::factorial(unsigned n) {
  BigInt out(1);
  for (unsigned i = 2; i <= n; ++i) out *= BigInt(static_cast<std::int64_t>(i));
  return out;
}

bool BigInt::divisible_by_small_prime() const {
  for (std::uint32_t p : kSmallPrimes) {
    BigInt rem = *this % BigInt(static_cast<std::int64_t>(p));
    if (rem.is_zero()) return !(limbs_.size() == 1 && limbs_[0] == p);
  }
  return false;
}

bool BigInt::miller_rabin_witness(const BigInt& base) const {
  // Returns true if `base` does NOT witness compositeness.
  const BigInt one(1);
  const BigInt n_minus_1 = *this - one;
  BigInt d = n_minus_1;
  std::size_t r = 0;
  while (!d.is_odd()) {
    d = d.shifted_right(1);
    ++r;
  }
  BigInt x = pow_mod(base, d, *this);
  if (x.is_one() || x == n_minus_1) return true;
  for (std::size_t i = 1; i < r; ++i) {
    x = mul_mod(x, x, *this);
    if (x == n_minus_1) return true;
  }
  return false;
}

// ---- Montgomery ------------------------------------------------------------

Montgomery::Montgomery(BigInt modulus) : m_big_(std::move(modulus)) {
  SINTRA_REQUIRE(!m_big_.is_zero() && !m_big_.is_negative(),
                 "Montgomery: modulus must be positive");
  SINTRA_REQUIRE(m_big_.is_odd(), "Montgomery: modulus must be odd");
  m_ = m_big_.limbs_;
  n_ = m_.size();
  n0_ = neg_inverse_u64(m_[0]);
  r2_ = BigInt(1).shifted_left(128 * n_).mod(m_big_);
  one_mont_ = BigInt(1).shifted_left(64 * n_).mod(m_big_);
}

Montgomery::Limbs Montgomery::load(const BigInt& a) const {
  Limbs out(n_, 0);
  std::copy(a.limbs_.begin(), a.limbs_.end(), out.begin());
  return out;
}

BigInt Montgomery::store(const Limbs& limbs) const {
  BigInt out;
  out.limbs_ = limbs;
  out.trim();
  return out;
}

void Montgomery::mont_mul_limbs(const std::uint64_t* a, const std::uint64_t* b,
                                std::uint64_t* out, std::uint64_t* t) const {
  // Fused CIOS: for each limb of a, accumulate a[i]*b into t, then add the
  // multiple u*m that zeroes t[0] and shift right one limb.  The invariant
  // value(t) < 2m holds throughout, so t fits in n_+1 limbs and a single
  // conditional subtraction at the end lands the result in [0, m).
  const std::size_t n = n_;
  std::fill(t, t + n + 1, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t ai = a[i];
    unsigned __int128 carry = 0;
    for (std::size_t j = 0; j < n; ++j) {
      unsigned __int128 cur = t[j] + static_cast<unsigned __int128>(ai) * b[j] + carry;
      t[j] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    unsigned __int128 top = static_cast<unsigned __int128>(t[n]) + carry;
    t[n] = static_cast<std::uint64_t>(top);
    const std::uint64_t overflow = static_cast<std::uint64_t>(top >> 64);

    const std::uint64_t u = t[0] * n0_;
    unsigned __int128 cur = t[0] + static_cast<unsigned __int128>(u) * m_[0];
    carry = cur >> 64;  // low limb is zero by choice of u
    for (std::size_t j = 1; j < n; ++j) {
      cur = t[j] + static_cast<unsigned __int128>(u) * m_[j] + carry;
      t[j - 1] = static_cast<std::uint64_t>(cur);
      carry = cur >> 64;
    }
    top = static_cast<unsigned __int128>(t[n]) + carry;
    t[n - 1] = static_cast<std::uint64_t>(top);
    t[n] = overflow + static_cast<std::uint64_t>(top >> 64);
  }
  // Conditional subtract: result = t mod m.
  bool geq = t[n] != 0;
  if (!geq) {
    geq = true;
    for (std::size_t i = n; i-- > 0;) {
      if (t[i] != m_[i]) {
        geq = t[i] > m_[i];
        break;
      }
    }
  }
  if (geq) {
    unsigned __int128 borrow = 0;
    for (std::size_t i = 0; i < n; ++i) {
      unsigned __int128 diff = static_cast<unsigned __int128>(t[i]) - m_[i] - borrow;
      out[i] = static_cast<std::uint64_t>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
  } else {
    std::copy(t, t + n, out);
  }
}

BigInt Montgomery::to_mont(const BigInt& a) const {
  Limbs av = load(a.mod(m_big_));
  Limbs r2v = load(r2_);
  Limbs t(n_ + 1);
  mont_mul_limbs(av.data(), r2v.data(), av.data(), t.data());
  return store(av);
}

BigInt Montgomery::from_mont(const BigInt& a) const {
  Limbs av = load(a);
  Limbs one(n_, 0);
  one[0] = 1;
  Limbs t(n_ + 1);
  mont_mul_limbs(av.data(), one.data(), av.data(), t.data());
  return store(av);
}

BigInt Montgomery::mul(const BigInt& a_mont, const BigInt& b_mont) const {
  Limbs av = load(a_mont);
  Limbs bv = load(b_mont);
  Limbs t(n_ + 1);
  mont_mul_limbs(av.data(), bv.data(), av.data(), t.data());
  return store(av);
}

BigInt Montgomery::mul_mod(const BigInt& a, const BigInt& b) const {
  return from_mont(mul(to_mont(a), to_mont(b)));
}

BigInt Montgomery::pow(const BigInt& base, const BigInt& exponent) const {
  SINTRA_REQUIRE(!exponent.is_negative(), "Montgomery: negative exponent");
  const std::size_t bits = exponent.bit_length();
  Limbs b = load(to_mont(base));
  Limbs result = load(one_mont_);
  Limbs t(n_ + 1);
  if (bits <= 16) {
    for (std::size_t i = bits; i-- > 0;) {
      mont_mul_limbs(result.data(), result.data(), result.data(), t.data());
      if (exponent.bit(i)) mont_mul_limbs(result.data(), b.data(), result.data(), t.data());
    }
    return from_mont(store(result));
  }
  // 4-bit fixed window, matching the reference path's schedule.
  constexpr std::size_t kWindow = 4;
  std::vector<Limbs> table(1ULL << kWindow);
  table[0] = load(one_mont_);
  for (std::size_t i = 1; i < table.size(); ++i) {
    table[i] = Limbs(n_);
    mont_mul_limbs(table[i - 1].data(), b.data(), table[i].data(), t.data());
  }
  std::size_t i = bits;
  while (i > 0) {
    std::size_t take = std::min(kWindow, i);
    std::uint32_t window = 0;
    for (std::size_t k = 0; k < take; ++k) {
      window = window << 1 | static_cast<std::uint32_t>(exponent.bit(i - 1 - k));
    }
    for (std::size_t k = 0; k < take; ++k) {
      mont_mul_limbs(result.data(), result.data(), result.data(), t.data());
    }
    if (window != 0) {
      mont_mul_limbs(result.data(), table[window].data(), result.data(), t.data());
    }
    i -= take;
  }
  return from_mont(store(result));
}

BigInt Montgomery::pow2(const BigInt& b1, const BigInt& e1, const BigInt& b2,
                        const BigInt& e2) const {
  return multi_pow({{b1, e1}, {b2, e2}});
}

BigInt Montgomery::multi_pow(const std::vector<std::pair<BigInt, BigInt>>& pairs) const {
  // Interleaved 2-bit windows over one shared squaring chain (Shamir's
  // trick generalized to k bases): squarings = max exponent length instead
  // of the sum over all bases.
  std::size_t bits = 0;
  for (const auto& [base, exp] : pairs) {
    SINTRA_REQUIRE(!exp.is_negative(), "Montgomery: negative exponent");
    bits = std::max(bits, exp.bit_length());
  }
  Limbs result = load(one_mont_);
  Limbs t(n_ + 1);
  if (bits == 0) return from_mont(store(result));
  // Per-base table of base^1..base^3 in Montgomery form.
  std::vector<std::array<Limbs, 3>> tables;
  tables.reserve(pairs.size());
  for (const auto& [base, exp] : pairs) {
    std::array<Limbs, 3> tab;
    tab[0] = load(to_mont(base));
    tab[1] = Limbs(n_);
    tab[2] = Limbs(n_);
    mont_mul_limbs(tab[0].data(), tab[0].data(), tab[1].data(), t.data());
    mont_mul_limbs(tab[1].data(), tab[0].data(), tab[2].data(), t.data());
    tables.push_back(std::move(tab));
  }
  std::size_t top = (bits + 1) & ~std::size_t{1};  // round up to a 2-bit boundary
  for (std::size_t i = top; i > 0; i -= 2) {
    mont_mul_limbs(result.data(), result.data(), result.data(), t.data());
    mont_mul_limbs(result.data(), result.data(), result.data(), t.data());
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const BigInt& exp = pairs[k].second;
      const std::uint32_t window =
          (static_cast<std::uint32_t>(exp.bit(i - 1)) << 1) |
          static_cast<std::uint32_t>(exp.bit(i - 2));
      if (window != 0) {
        mont_mul_limbs(result.data(), tables[k][window - 1].data(), result.data(), t.data());
      }
    }
  }
  return from_mont(store(result));
}

Montgomery::FixedBase Montgomery::fixed_base(const BigInt& base, std::size_t max_bits) const {
  FixedBase table;
  table.base_ = base.mod(m_big_);
  table.digits_ = (max_bits + 3) / 4;
  table.limbs_.assign(table.digits_ * 15 * n_, 0);
  Limbs cur = load(to_mont(table.base_));  // base^(16^i) in Montgomery form
  Limbs t(n_ + 1);
  for (std::size_t i = 0; i < table.digits_; ++i) {
    std::uint64_t* block = table.limbs_.data() + i * 15 * n_;
    std::copy(cur.begin(), cur.end(), block);
    for (std::size_t j = 1; j < 15; ++j) {
      mont_mul_limbs(block + (j - 1) * n_, cur.data(), block + j * n_, t.data());
    }
    mont_mul_limbs(block + 14 * n_, cur.data(), cur.data(), t.data());
  }
  return table;
}

BigInt Montgomery::pow_fixed(const FixedBase& table, const BigInt& exponent) const {
  SINTRA_REQUIRE(!exponent.is_negative(), "Montgomery: negative exponent");
  SINTRA_REQUIRE(table.limbs_.size() == table.digits_ * 15 * n_,
                 "Montgomery: fixed-base table built for another modulus");
  const std::size_t bits = exponent.bit_length();
  if (bits > table.max_bits()) return pow(table.base_, exponent);
  Limbs result = load(one_mont_);
  Limbs t(n_ + 1);
  const std::size_t digits = (bits + 3) / 4;
  for (std::size_t i = 0; i < digits; ++i) {
    // 4-bit digits never straddle a limb (64 is a multiple of 4).
    const std::size_t digit = (exponent.limbs_[i / 16] >> (4 * (i % 16))) & 0xF;
    if (digit != 0) {
      mont_mul_limbs(result.data(), table.limbs_.data() + (i * 15 + digit - 1) * n_,
                     result.data(), t.data());
    }
  }
  return from_mont(store(result));
}

void BigInt::encode(Writer& w) const {
  w.boolean(negative_);
  w.bytes(to_bytes());
}

BigInt BigInt::decode(Reader& r) {
  bool negative = r.boolean();
  BigInt value = from_bytes(r.bytes());
  SINTRA_REQUIRE(!(negative && value.is_zero()), "BigInt: negative zero");
  value.negative_ = negative;
  return value;
}

}  // namespace sintra::crypto
