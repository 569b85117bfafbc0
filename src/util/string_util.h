// Small string helpers shared across modules.
#ifndef KGLINK_UTIL_STRING_UTIL_H_
#define KGLINK_UTIL_STRING_UTIL_H_

#include <cctype>
#include <charconv>
#include <cmath>
#include <string>
#include <string_view>
#include <vector>

namespace kglink {

// Streams the words of `s` (the exact segmentation of SplitWords below,
// which is implemented on top of this) into fn(term) one at a time,
// reusing `scratch` as the token buffer so a hot caller does zero
// allocations per word. fn returns false to stop early. This is the BM25
// query path's tokenizer; SplitWords is the convenience form.
template <typename Fn>
inline void ForEachWord(std::string_view s, std::string& scratch, Fn&& fn) {
  scratch.clear();
  for (char c : s) {
    unsigned char uc = static_cast<unsigned char>(c);
    if (std::isalnum(uc)) {
      scratch.push_back(static_cast<char>(std::tolower(uc)));
    } else if (uc >= 0x80) {
      // UTF-8 lead/continuation byte: part of a multi-byte code point,
      // passed through uncased (see SplitWords docs).
      scratch.push_back(c);
    } else if (!scratch.empty()) {
      const std::string& word = scratch;
      if (!fn(word)) {
        scratch.clear();
        return;
      }
      scratch.clear();
    }
  }
  if (!scratch.empty()) {
    const std::string& word = scratch;
    fn(word);
  }
}

// Splits on a single delimiter character; keeps empty fields.
std::vector<std::string> Split(std::string_view s, char delim);

// Splits into maximal runs of word characters: ASCII alphanumerics
// (lowercased) and UTF-8 multi-byte sequences (lead/continuation bytes,
// passed through uncased — so accented and CJK labels tokenize to real
// terms instead of nothing). This is the word segmentation used by both
// the BM25 analyzer and the NN tokenizer.
std::vector<std::string> SplitWords(std::string_view s);

// Joins parts with a separator.
std::string Join(const std::vector<std::string>& parts,
                 std::string_view sep);

// ASCII lowercase copy.
std::string ToLower(std::string_view s);

// Strips leading/trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// True if s parses entirely as a (possibly signed, possibly decimal,
// possibly thousands-separated) number.
bool LooksLikeNumber(std::string_view s);

// Parses s as double; returns false on failure.
bool ParseDouble(std::string_view s, double* out);

// Parses s as an exact non-negative decimal integer: digits only (no sign,
// fraction, exponent or surrounding text) and in T's range. *out is left
// untouched on failure (a "1x" does not leave 1 behind).
template <typename T>
bool ParseNonNegativeInt(std::string_view s, T* out) {
  if (s.empty() || s[0] < '0' || s[0] > '9') return false;
  T v{};
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size()) return false;
  *out = v;
  return true;
}

// Parses s as a finite double over the whole field (std::from_chars
// syntax: optional '-', decimal or exponent form; no leading '+',
// whitespace or trailing text). "inf" and "nan" are rejected.
inline bool ParseFiniteDouble(std::string_view s, double* out) {
  double v = 0.0;
  auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
  if (ec != std::errc() || ptr != s.data() + s.size() || !std::isfinite(v)) {
    return false;
  }
  *out = v;
  return true;
}

// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace kglink

#endif  // KGLINK_UTIL_STRING_UTIL_H_
