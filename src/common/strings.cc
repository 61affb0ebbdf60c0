#include "common/strings.h"

#include <algorithm>
#include <cctype>

namespace galois {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::toupper(c); });
  return out;
}

std::string_view TrimView(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

std::string Trim(std::string_view s) { return std::string(TrimView(s)); }

std::vector<std::string> Split(std::string_view s, char sep, bool trim,
                               bool skip_empty) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= s.size()) {
    size_t pos = s.find(sep, start);
    std::string_view piece = (pos == std::string_view::npos)
                                 ? s.substr(start)
                                 : s.substr(start, pos - start);
    if (trim) piece = TrimView(piece);
    if (!skip_empty || !piece.empty()) out.emplace_back(piece);
    if (pos == std::string_view::npos) break;
    start = pos + 1;
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool ContainsIgnoreCase(std::string_view haystack, std::string_view needle) {
  if (needle.empty()) return true;
  if (needle.size() > haystack.size()) return false;
  std::string h = ToLower(haystack);
  std::string n = ToLower(needle);
  return h.find(n) != std::string::npos;
}

std::string ReplaceAll(std::string_view s, std::string_view from,
                       std::string_view to) {
  if (from.empty()) return std::string(s);
  std::string out;
  out.reserve(s.size());
  size_t start = 0;
  while (true) {
    size_t pos = s.find(from, start);
    if (pos == std::string_view::npos) {
      out.append(s.substr(start));
      break;
    }
    out.append(s.substr(start, pos - start));
    out.append(to);
    start = pos + from.size();
  }
  return out;
}

std::vector<std::string> SplitIdentifierWords(std::string_view ident) {
  std::vector<std::string> words;
  std::string current;
  auto flush = [&]() {
    if (!current.empty()) {
      words.push_back(ToLower(current));
      current.clear();
    }
  };
  for (size_t i = 0; i < ident.size(); ++i) {
    char c = ident[i];
    if (c == '_' || c == '-' || c == ' ' || c == '.') {
      flush();
      continue;
    }
    if (std::isupper(static_cast<unsigned char>(c)) && !current.empty() &&
        !std::isupper(static_cast<unsigned char>(current.back()))) {
      flush();
    }
    current.push_back(c);
  }
  flush();
  return words;
}

std::string HumanizeIdentifier(std::string_view ident) {
  return Join(SplitIdentifierWords(ident), " ");
}

}  // namespace galois
