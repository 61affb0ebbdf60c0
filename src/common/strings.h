#ifndef GALOIS_COMMON_STRINGS_H_
#define GALOIS_COMMON_STRINGS_H_

#include <string>
#include <string_view>
#include <vector>

namespace galois {

/// Returns `s` lower-cased (ASCII only).
std::string ToLower(std::string_view s);

/// Returns `s` upper-cased (ASCII only).
std::string ToUpper(std::string_view s);

/// Removes leading and trailing whitespace.
std::string_view TrimView(std::string_view s);
std::string Trim(std::string_view s);

/// Splits `s` on `sep`, optionally trimming each piece and dropping empties.
std::vector<std::string> Split(std::string_view s, char sep,
                               bool trim = false, bool skip_empty = false);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` starts with / ends with the given prefix/suffix.
bool StartsWith(std::string_view s, std::string_view prefix);
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Case-insensitive substring test.
bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle);

/// Replaces every occurrence of `from` with `to`.
std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to);

/// Splits a camelCase / snake_case identifier into lower-cased words, e.g.
/// "cityMayor" -> {"city", "mayor"}, "birth_date" -> {"birth", "date"}.
/// Used to turn schema labels into natural-language prompt fragments.
std::vector<std::string> SplitIdentifierWords(std::string_view ident);

/// "cityMayor" -> "city mayor"; convenience over SplitIdentifierWords.
std::string HumanizeIdentifier(std::string_view ident);

}  // namespace galois

#endif  // GALOIS_COMMON_STRINGS_H_
