#include "src/common/serde.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <limits>

namespace llamatune {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

int Nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

void AppendDoubleBits(double value, std::string* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  for (int shift = 60; shift >= 0; shift -= 4) {
    out->push_back(kHexDigits[(bits >> shift) & 0xf]);
  }
}

void AppendHex(std::string_view bytes, std::string* out) {
  for (unsigned char c : bytes) {
    out->push_back(kHexDigits[c >> 4]);
    out->push_back(kHexDigits[c & 0xf]);
  }
}

template <class Int>
bool ParseWhole(std::string_view token, Int* value) {
  const char* end = token.data() + token.size();
  Int parsed_value = 0;
  std::from_chars_result parsed =
      std::from_chars(token.data(), end, parsed_value);
  if (token.empty() || parsed.ec != std::errc() || parsed.ptr != end) {
    return false;
  }
  *value = parsed_value;
  return true;
}

bool ParseDoubleBits(std::string_view token, double* value) {
  if (token.size() != 16) return false;
  uint64_t bits = 0;
  for (char c : token) {
    int nibble = Nibble(c);
    if (nibble < 0) return false;
    bits = (bits << 4) | static_cast<uint64_t>(nibble);
  }
  std::memcpy(value, &bits, sizeof(*value));
  return true;
}

bool ParseHex(std::string_view token, std::string* bytes) {
  if (token.size() % 2 != 0) return false;
  bytes->clear();
  bytes->reserve(token.size() / 2);
  for (size_t i = 0; i < token.size(); i += 2) {
    int hi = Nibble(token[i]);
    int lo = Nibble(token[i + 1]);
    if (hi < 0 || lo < 0) return false;
    bytes->push_back(static_cast<char>((hi << 4) | lo));
  }
  return true;
}

bool IsSpace(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

Status Malformed(const char* what, std::string_view token) {
  return Status::InvalidArgument(std::string(what) + ": '" +
                                 std::string(token) + "'");
}

}  // namespace

std::string EncodeDoubleBits(double value) {
  std::string out;
  out.reserve(16);
  AppendDoubleBits(value, &out);
  return out;
}

Result<double> DecodeDoubleBits(const std::string& token) {
  double value = 0.0;
  if (!ParseDoubleBits(token, &value)) {
    return Status::InvalidArgument("malformed double bit pattern: " + token);
  }
  return value;
}

std::string EncodeBytes(const std::string& bytes) {
  std::string out;
  out.reserve(bytes.size() * 2);
  AppendHex(bytes, &out);
  return out;
}

Result<int64_t> ParseInt64(const std::string& token) {
  int64_t value = 0;
  if (!ParseWhole(token, &value)) {
    return Status::InvalidArgument("not an integer: " + token);
  }
  return value;
}

// ---------------------------------------------------------------------------
// TokenWriter
// ---------------------------------------------------------------------------

void TokenWriter::Literal(std::string_view token) {
  if (!out_.empty() && out_.back() != '\n') out_.push_back(' ');
  out_.append(token.data(), token.size());
}

void TokenWriter::Value(int64_t value) {
  char buf[24];
  std::to_chars_result done = std::to_chars(buf, buf + sizeof(buf), value);
  Literal(std::string_view(buf, static_cast<size_t>(done.ptr - buf)));
}

void TokenWriter::Value(uint64_t value) {
  char buf[24];
  std::to_chars_result done = std::to_chars(buf, buf + sizeof(buf), value);
  Literal(std::string_view(buf, static_cast<size_t>(done.ptr - buf)));
}

void TokenWriter::Value(double value) {
  Literal("");
  AppendDoubleBits(value, &out_);
}

void TokenWriter::Value(const std::string& value) {
  Literal("x");
  AppendHex(value, &out_);
}

void TokenWriter::Hex(const std::string& bytes) {
  Literal("");
  AppendHex(bytes, &out_);
}

// ---------------------------------------------------------------------------
// TokenReader
// ---------------------------------------------------------------------------

void TokenReader::Fail(Status error) {
  if (status_.ok()) status_ = std::move(error);
}

void TokenReader::Check(bool condition, const char* message) {
  if (!condition && ok()) Fail(Status::InvalidArgument(message));
}

bool TokenReader::AtEnd() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  return !ok() || pos_ == text_.size();
}

std::string_view TokenReader::Next() {
  if (AtEnd()) {
    Fail(Status::InvalidArgument("truncated token stream"));
    return {};
  }
  size_t start = pos_;
  while (pos_ < text_.size() && !IsSpace(text_[pos_])) ++pos_;
  return text_.substr(start, pos_ - start);
}

bool TokenReader::PeekIs(std::string_view token) {
  if (AtEnd()) return false;
  return text_.compare(pos_, token.size(), token) == 0 &&
         (pos_ + token.size() == text_.size() ||
          IsSpace(text_[pos_ + token.size()]));
}

bool TokenReader::Literal(std::string_view token) {
  std::string_view got = Next();
  if (ok() && got != token) {
    Fail(Status::InvalidArgument("expected '" + std::string(token) +
                                 "', got '" + std::string(got) + "'"));
  }
  return ok();
}

void TokenReader::End() {
  if (!AtEnd()) Fail(Malformed("unexpected trailing token", Next()));
}

void TokenReader::Value(int& out) {
  int64_t wide = 0;
  Value(wide);
  Check(wide >= std::numeric_limits<int>::min() &&
            wide <= std::numeric_limits<int>::max(),
        "integer out of int32 range");
  if (ok()) out = static_cast<int>(wide);
}

void TokenReader::Value(int64_t& out) {
  std::string_view token = Next();
  if (ok() && !ParseWhole(token, &out)) {
    Fail(Malformed("not an integer", token));
  }
}

void TokenReader::Value(uint64_t& out) {
  std::string_view token = Next();
  if (ok() && !ParseWhole(token, &out)) {
    Fail(Malformed("not an unsigned integer", token));
  }
}

void TokenReader::Value(double& out) {
  std::string_view token = Next();
  if (ok() && !ParseDoubleBits(token, &out)) {
    Fail(Malformed("malformed double bit pattern", token));
  }
}

void TokenReader::Value(bool& out) {
  int64_t value = 0;
  Value(value);
  if (ok()) out = value != 0;
}

void TokenReader::Value(std::string& out) {
  std::string_view token = Next();
  if (!ok()) return;
  if (token.empty() || token[0] != 'x' || !ParseHex(token.substr(1), &out)) {
    Fail(Malformed("not an x-prefixed hex string", token));
  }
}

void TokenReader::Hex(std::string& bytes) {
  std::string_view token = Next();
  if (ok() && !ParseHex(token, &bytes)) Fail(Malformed("malformed hex", token));
}

int64_t TokenReader::Count() {
  int64_t count = 0;
  Value(count);
  Check(count >= 0, "negative element count");
  return ok() ? count : 0;
}

size_t TokenReader::ClampReserve(int64_t count) {
  // Counts are untrusted text: a forged one must fail on the first
  // missing element, not throw bad_alloc here.
  return static_cast<size_t>(std::min<int64_t>(std::max<int64_t>(count, 0),
                                               4096));
}

}  // namespace llamatune
