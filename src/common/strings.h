#ifndef SERD_COMMON_STRINGS_H_
#define SERD_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace serd {

/// ASCII lowercase copy of `s`.
std::string ToLower(std::string_view s);

/// Removes leading and trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// Splits on `sep`; empty fields are preserved ("a,,b" -> {"a","","b"}).
std::vector<std::string> Split(std::string_view s, char sep);

/// Splits on runs of ASCII whitespace; no empty tokens are produced.
std::vector<std::string> SplitWhitespace(std::string_view s);

/// The same words as views of `s`, written into `words` (cleared first),
/// so a caller that reuses the vector allocates nothing.
void SplitWhitespace(std::string_view s, std::vector<std::string_view>* words);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace serd

#endif  // SERD_COMMON_STRINGS_H_
