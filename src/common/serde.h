#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/status.h"

namespace llamatune {

/// \name Bit-exact double text codec
///
/// Checkpoints and the trial wire format must round-trip doubles
/// exactly — a decimal rendering loses bits and would break the
/// bit-for-bit resume guarantee — so doubles are encoded as the
/// 16-hex-digit IEEE-754 bit pattern ("3ff0000000000000" for 1.0).
/// Negative zero and non-finite values (including NaN payloads)
/// survive the round trip unchanged.
/// @{

/// Encodes a double as its 64-bit pattern in lowercase hex.
std::string EncodeDoubleBits(double value);

/// Decodes EncodeDoubleBits output. Fails on malformed tokens.
Result<double> DecodeDoubleBits(const std::string& token);

/// @}

/// Parses a whole-token base-10 signed integer (no trailing junk).
Result<int64_t> ParseInt64(const std::string& token);

/// Hex-encodes arbitrary bytes ("" -> "", "Ok" -> "4f6b"): keeps
/// opaque payloads (objective state blobs) single-token inside the
/// whitespace-delimited checkpoint format. TokenReader::Hex decodes.
std::string EncodeBytes(const std::string& bytes);

/// \name Token codec
///
/// Every persisted or shipped text form — wire payloads, checkpoints,
/// WAL records, trials, history — is a whitespace-delimited token
/// stream. Each format is written once, as a *field list*: a generic
/// lambda `[](auto& io, auto& msg) { ... }` that calls the methods
/// below. Run over a TokenWriter it encodes; run over a TokenReader it
/// decodes. Tags, field order and version gates therefore appear
/// exactly once per format, and the two directions cannot drift.
///
/// Value encodings, by C++ type:
///   int, int64_t, uint64_t  base-10 ("-3", "18446744073709551615")
///   bool                    0 / 1 (any non-zero integer reads as true)
///   double                  EncodeDoubleBits
///   std::string             'x' + EncodeBytes, so empty strings and
///                           strings with spaces stay one token
///   std::vector<T>          element count, then each element
/// @{

/// \brief Encoding half of the token codec.
///
/// Tokens are separated by one space, except at the start of the text
/// or of a line (EndLine), so the output is canonical.
class TokenWriter {
 public:
  /// Appends a raw token: a tag, or an already-encoded value.
  void Literal(std::string_view token);
  void EndLine() { out_.push_back('\n'); }

  void Value(int value) { Value(static_cast<int64_t>(value)); }
  void Value(int64_t value);
  void Value(uint64_t value);
  void Value(double value);
  void Value(bool value) { Literal(value ? "1" : "0"); }
  void Value(const std::string& value);
  void Value(const char*) = delete;  // would silently bind to bool
  template <class T>
  void Value(const std::vector<T>& values) {
    Value(static_cast<int64_t>(values.size()));
    for (const T& value : values) Value(value);
  }
  /// Raw hex bytes without the 'x' prefix (EncodeBytes).
  void Hex(const std::string& bytes);

  template <class T>
  void Field(const char* tag, const T& value) {
    Literal(tag);
    Value(value);
  }
  /// Enums travel as their integer value; `max` bounds the decoder.
  template <class E>
  void EnumValue(const E& value, E /*max*/) {
    Value(static_cast<int>(value));
  }
  template <class E>
  void Enum(const char* tag, const E& value, E max) {
    Literal(tag);
    EnumValue(value, max);
  }
  /// `tag`, the element count, then `each(*this, element)` per element.
  template <class V, class F>
  void Each(const char* tag, const V& items, F&& each) {
    Literal(tag);
    Value(static_cast<int64_t>(items.size()));
    for (const auto& item : items) each(*this, item);
  }
  /// A trailing field that is written only when `value != absent`;
  /// decoders of older payloads see it missing and use `absent`.
  template <class T>
  void Optional(const char* tag, const T& value, const T& absent) {
    if (!(value == absent)) Field(tag, value);
  }

  /// Decoder-side validation and end-of-stream checks: no-ops here.
  void Check(bool /*condition*/, const char* /*message*/) {}
  void End() {}

  const std::string& str() const { return out_; }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

/// \brief Decoding half of the token codec: a total reader.
///
/// The first error is sticky — every later read is a no-op — so a
/// field list runs straight through and the caller checks status()
/// once, the way FrameDecoder does. Count loops stop at the first
/// error, so a forged count fails on the first missing element instead
/// of spinning, and reserve() is clamped so it cannot throw bad_alloc.
/// Tokens are views into the input: the reader allocates only for
/// decoded strings and vectors.
class TokenReader {
 public:
  /// `text` must outlive the reader.
  explicit TokenReader(std::string_view text) : text_(text) {}
  explicit TokenReader(const char* text) : text_(text) {}
  explicit TokenReader(std::string&&) = delete;  // would dangle

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }
  /// Records `error` unless an earlier one is already held.
  void Fail(Status error);
  /// Fails with InvalidArgument(message) when `condition` is false.
  void Check(bool condition, const char* message);

  /// True when only whitespace remains (or the reader has failed).
  bool AtEnd();
  /// Consumes the next token; "" (and a truncation error) at the end.
  std::string_view Next();
  /// Consumes the next token, which must equal `token`.
  bool Literal(std::string_view token);
  /// Decoder-only: fails unless the stream is exhausted.
  void End();
  void EndLine() {}
  /// The unread remainder of the text, from the current position.
  std::string_view Rest() const { return text_.substr(pos_); }

  /// Range-checked: values outside int32 fail instead of wrapping.
  void Value(int& out);
  void Value(int64_t& out);
  void Value(uint64_t& out);
  void Value(double& out);
  void Value(bool& out);
  void Value(std::string& out);
  template <class T>
  void Value(std::vector<T>& values) {
    int64_t count = Count();
    values.clear();
    values.reserve(ClampReserve(count));
    for (int64_t i = 0; i < count && ok(); ++i) {
      values.emplace_back();
      Value(values.back());
    }
  }
  void Hex(std::string& bytes);

  template <class T>
  void Field(const char* tag, T& value) {
    if (Literal(tag)) Value(value);
  }
  template <class E>
  void EnumValue(E& value, E max) {
    int raw = 0;
    Value(raw);
    Check(raw >= 0 && raw <= static_cast<int>(max), "enum value out of range");
    if (ok()) value = static_cast<E>(raw);
  }
  template <class E>
  void Enum(const char* tag, E& value, E max) {
    if (Literal(tag)) EnumValue(value, max);
  }
  template <class V, class F>
  void Each(const char* tag, V& items, F&& each) {
    if (!Literal(tag)) return;
    int64_t count = Count();
    items.clear();
    items.reserve(ClampReserve(count));
    for (int64_t i = 0; i < count && ok(); ++i) {
      items.emplace_back();
      each(*this, items.back());
    }
  }
  template <class T>
  void Optional(const char* tag, T& value, const T& absent) {
    value = absent;
    if (PeekIs(tag)) Field(tag, value);
  }

  /// Moves a nested decode's value into `out`, or adopts its error.
  template <class T>
  void Assign(Result<T> got, T& out) {
    if (!got.ok()) {
      Fail(got.status());
    } else if (ok()) {
      out = std::move(got).ValueOrDie();
    }
  }

 private:
  /// True when the next token equals `token` (nothing is consumed).
  bool PeekIs(std::string_view token);
  /// A non-negative element count.
  int64_t Count();
  static size_t ClampReserve(int64_t count);

  std::string_view text_;
  size_t pos_ = 0;
  Status status_;
};

/// Runs a field list over a fresh writer and returns the text.
template <class Fields, class... Parts>
std::string WriteTokens(Fields&& fields, const Parts&... parts) {
  TokenWriter out;
  fields(out, parts...);
  return out.Take();
}

/// Runs a field list over `text`; returns the reader's first error.
/// Outputs are unspecified when decoding fails.
template <class Fields, class... Parts>
Status ReadTokens(std::string_view text, Fields&& fields, Parts&... parts) {
  TokenReader in(text);
  fields(in, parts...);
  return in.status();
}

/// @}

}  // namespace llamatune
