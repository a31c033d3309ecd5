// Small string helpers used throughout cqchase: concatenation, joining,
// splitting and trimming. No locale dependence, ASCII only.
#ifndef CQCHASE_BASE_STRING_UTIL_H_
#define CQCHASE_BASE_STRING_UTIL_H_

#include <algorithm>
#include <charconv>
#include <cstring>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cqchase {

namespace internal_strings {

template <typename T>
inline constexpr bool kIsCharLike =
    std::is_same_v<T, char> || std::is_same_v<T, signed char> ||
    std::is_same_v<T, unsigned char>;

// Appends one piece exactly as `std::ostringstream << piece` would render it
// under default flags. Strings, characters, bool and integers are written
// straight into `out`; every other streamable type (floating point, enums,
// anything with an operator<<) goes through a stream.
template <typename T>
void AppendPiece(std::string& out, const T& piece) {
  if constexpr (std::is_same_v<T, const char*> || std::is_same_v<T, char*>) {
    if (piece != nullptr) out.append(piece);
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out.append(std::string_view(piece));
  } else if constexpr (std::is_same_v<T, bool>) {
    out += piece ? '1' : '0';
  } else if constexpr (kIsCharLike<T>) {
    out += static_cast<char>(piece);
  } else if constexpr (std::is_integral_v<T> &&
                       !std::is_same_v<T, wchar_t> &&
                       !std::is_same_v<T, char16_t> &&
                       !std::is_same_v<T, char32_t>) {
    char buf[24];  // 20 digits of UINT64_MAX, or a sign and 19 digits
    out.append(buf, std::to_chars(buf, buf + sizeof(buf), piece).ptr);
  } else {
    std::ostringstream os;
    os << piece;
    out += os.str();
  }
}

// Length of a string piece, 0 for anything else: StrAppend reserves the
// string pieces' total so a long piece is copied once, while short
// numeric concatenations stay in the small-string buffer.
template <typename T>
size_t StringPieceSize(const T& piece) {
  if constexpr (std::is_same_v<T, const char*> || std::is_same_v<T, char*>) {
    return piece != nullptr ? std::strlen(piece) : 0;
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    return std::string_view(piece).size();
  } else {
    return 0;
  }
}

}  // namespace internal_strings

// Appends the pieces to `*out`, rendered as StrCat renders them.
template <typename... Args>
void StrAppend(std::string* out, const Args&... args) {
  const size_t need =
      out->size() + (size_t{0} + ... + internal_strings::StringPieceSize(args));
  // Geometric, so repeated appends to one buffer stay amortized O(1).
  if (need > out->capacity()) {
    out->reserve(std::max(need, 2 * out->capacity()));
  }
  (internal_strings::AppendPiece(*out, args), ...);
}

// Concatenates the streamable arguments into one string, byte-identical to
// streaming them into a default std::ostringstream (characters append as
// characters, bool as "1"/"0"); a null `const char*` appends nothing.
// StrCat("level ", 3, "/", 10) == "level 3/10".
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  StrAppend(&out, args...);
  return out;
}

// Joins the elements of `parts` with `sep`, each rendered as by StrCat.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    first = false;
    internal_strings::AppendPiece(out, p);
  }
  return out;
}

// Joins after applying `fn` to each element.
template <typename Container, typename Fn>
std::string StrJoinMapped(const Container& parts, std::string_view sep,
                          Fn&& fn) {
  std::string out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    first = false;
    internal_strings::AppendPiece(out, fn(p));
  }
  return out;
}

// Splits `input` on the single character `sep`. Empty pieces are kept.
std::vector<std::string> StrSplit(std::string_view input, char sep);

// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view s);

// True iff `s` starts with / ends with the given prefix or suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

}  // namespace cqchase

#endif  // CQCHASE_BASE_STRING_UTIL_H_
