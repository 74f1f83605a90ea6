#pragma once

/// \file archive.hpp
/// The checkpoint payload's text archives: a writer and a reader that walk
/// the same `visit(Archive&, T&)` schema functions.
///
/// A payload is whitespace-separated tokens, one line per section and per
/// large record. Doubles are the 16-hex IEEE-754 bit pattern (decimal
/// round-trips are not bit-exact, and byte-identical resume hangs on every
/// last bit); strings are percent-encoded so tokenization stays trivial:
/// the empty string encodes as "~"; '~', '%', spaces, and control bytes
/// escape as %XX (a literal "~" therefore encodes as "%7e"). Integers are
/// decimal, booleans 0/1, enums their integer value; collections are a
/// count followed by their elements, optionals a presence flag followed by
/// the value.
///
/// Both archives are concrete types, so every field costs a static call and
/// no intermediate buffer. A struct field dispatches to `visit(archive, x)`,
/// found by argument-dependent lookup: schema overloads live in this
/// namespace. The reader fails closed with parse_fail, naming the section
/// it was reading.

#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

namespace synergy::cluster::archive {

/// Any malformed payload: wrong token, section, count or enumerator.
struct parse_fail : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Largest valid enumerator of a persisted enum; specialise it for every
/// enum a schema visits. The reader rejects anything above it.
template <class E> struct enum_range;

/// Upper bound on any serialized collection count: a CRC-valid but hostile
/// payload (the fuzz suite re-seals mutated payloads) must not drive a
/// multi-gigabyte allocation.
inline constexpr std::uint64_t max_count = 1ull << 24;

namespace detail {

inline constexpr char hex_digits[] = "0123456789abcdef";

template <class T, template <class...> class Tmpl> constexpr bool is_a = false;
template <template <class...> class Tmpl, class... A> constexpr bool is_a<Tmpl<A...>, Tmpl> = true;
template <class T> constexpr bool is_std_array = false;
template <class T, std::size_t N> constexpr bool is_std_array<std::array<T, N>> = true;
template <class T>
constexpr bool is_collection = is_a<T, std::vector> || is_a<T, std::set> || is_a<T, std::map>;
/// Collection elements larger than two words start a new line of the
/// payload; small ones (a GPU slot, a slot's busy flag and time) stay inline.
template <class T>
constexpr bool is_record = std::is_class_v<T> && !std::is_same_v<T, std::string> && sizeof(T) > 16;

inline int nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace detail

class writer {
 public:
  static constexpr bool reading = false;

  template <class... T> void operator()(const T&... v) { (put(v), ...); }
  void section(std::string_view name) {
    if (!out_.empty()) newline();
    token() += name;
  }
  void check(bool, const char*) {}
  [[nodiscard]] std::string take() {
    newline();
    return std::move(out_);
  }

 private:
  void newline() {
    out_ += '\n';
    bol_ = true;
  }
  /// Separate the next token from the previous one; returns the buffer.
  std::string& token() {
    if (!bol_) out_ += ' ';
    bol_ = false;
    return out_;
  }

  template <class T> void put(const T& v) {
    using namespace detail;
    if constexpr (std::is_same_v<T, bool>) {
      token() += v ? '1' : '0';
    } else if constexpr (std::is_enum_v<T>) {
      put(static_cast<std::uint64_t>(v));
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      const auto end = std::to_chars(buf, buf + sizeof buf, v).ptr;
      token().append(buf, end);
    } else if constexpr (std::is_same_v<T, double>) {
      const auto bits = std::bit_cast<std::uint64_t>(v);
      char buf[16];
      for (int i = 0; i < 16; ++i) buf[15 - i] = hex_digits[(bits >> (4 * i)) & 0xF];
      token().append(buf, sizeof buf);
    } else if constexpr (std::is_same_v<T, std::string>) {
      std::string& out = token();
      if (v.empty()) out += '~';
      for (const char ch : v) {
        const auto c = static_cast<unsigned char>(ch);
        if (c <= 0x20 || c == 0x7F || c == '%' || c == '~') {
          out += '%';
          out += hex_digits[c >> 4];
          out += hex_digits[c & 0xF];
        } else {
          out += ch;
        }
      }
    } else if constexpr (is_a<T, std::optional>) {
      put(v.has_value());
      if (v) put(*v);
    } else if constexpr (is_a<T, std::pair>) {
      put(v.first);
      put(v.second);
    } else if constexpr (is_std_array<T>) {
      for (const auto& x : v) put(x);
    } else if constexpr (is_collection<T>) {
      put(static_cast<std::uint64_t>(v.size()));
      for (const auto& x : v) {
        if constexpr (is_record<typename T::value_type>) newline();
        put(x);
      }
    } else {
      visit(*this, const_cast<T&>(v));  // the writer only reads
    }
  }

  std::string out_;
  bool bol_{true};  ///< at the beginning of a line
};

class reader {
 public:
  static constexpr bool reading = true;

  explicit reader(std::string_view text) : text_(text) {}

  template <class... T> void operator()(T&... v) { (get(v), ...); }
  void section(std::string_view name) {
    section_ = name;
    const auto tag = next();
    if (tag != name) fail("expected section '" + section_ + "', found '" + std::string(tag) + "'");
  }
  void check(bool ok, const char* what) {
    if (!ok) fail(what);
  }
  [[noreturn]] void fail(const std::string& what) const {
    throw parse_fail("section '" + section_ + "': " + what);
  }
  /// Everything after the last section must be whitespace.
  void finish() {
    skip_space();
    if (pos_ != text_.size()) fail("trailing bytes after the end marker");
  }

 private:
  void skip_space() {
    while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\n' || text_[pos_] == '\r'))
      ++pos_;
  }
  std::string_view next() {
    skip_space();
    if (pos_ >= text_.size()) fail("unexpected end of payload");
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != ' ' && text_[pos_] != '\n' && text_[pos_] != '\r')
      ++pos_;
    return text_.substr(begin, pos_ - begin);
  }
  template <class T> T number() {
    const auto tok = next();
    T v{};
    const auto [end, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), v);
    if (ec != std::errc{} || end != tok.data() + tok.size())
      fail("bad integer token '" + std::string(tok) + "'");
    return v;
  }

  template <class T> void get(T& v) {
    using namespace detail;
    if constexpr (std::is_same_v<T, bool>) {
      const auto u = number<std::uint64_t>();
      if (u > 1) fail("bad boolean token");
      v = u == 1;
    } else if constexpr (std::is_enum_v<T>) {
      const auto u = number<std::uint64_t>();
      if (u > static_cast<std::uint64_t>(enum_range<T>::max)) fail("enumerator out of range");
      v = static_cast<T>(u);
    } else if constexpr (std::is_integral_v<T>) {
      v = number<T>();
    } else if constexpr (std::is_same_v<T, double>) {
      const auto tok = next();
      std::uint64_t bits = 0;
      for (const char c : tok) {
        if (tok.size() != 16 || nibble(c) < 0) fail("bad double token '" + std::string(tok) + "'");
        bits = (bits << 4) | static_cast<std::uint64_t>(nibble(c));
      }
      v = std::bit_cast<double>(bits);
    } else if constexpr (std::is_same_v<T, std::string>) {
      const auto tok = next();
      v.clear();
      if (tok == "~") return;
      for (std::size_t i = 0; i < tok.size(); ++i) {
        if (tok[i] != '%') {
          v += tok[i];
          continue;
        }
        if (i + 2 >= tok.size() || nibble(tok[i + 1]) < 0 || nibble(tok[i + 2]) < 0)
          fail("bad percent escape in string token");
        v += static_cast<char>((nibble(tok[i + 1]) << 4) | nibble(tok[i + 2]));
        i += 2;
      }
    } else if constexpr (is_a<T, std::optional>) {
      bool present = false;
      get(present);
      v.reset();
      if (present) get(v.emplace());
    } else if constexpr (is_std_array<T>) {
      for (auto& x : v) get(x);
    } else if constexpr (is_collection<T>) {
      const auto n = number<std::uint64_t>();
      if (n > max_count) fail("collection count " + std::to_string(n) + " out of range");
      v.clear();
      // No reserve: a hostile count runs out of payload long before memory.
      for (std::uint64_t i = 0; i < n; ++i) {
        if constexpr (is_a<T, std::map>) {
          typename T::key_type key{};
          typename T::mapped_type value{};
          get(key);
          get(value);
          v.emplace(std::move(key), std::move(value));
        } else {
          typename T::value_type x{};
          get(x);
          if constexpr (is_a<T, std::set>)
            v.insert(std::move(x));
          else
            v.push_back(std::move(x));
        }
      }
    } else {
      visit(*this, v);
    }
  }

  std::string_view text_;
  std::size_t pos_{0};
  std::string section_{"header"};
};

}  // namespace synergy::cluster::archive
