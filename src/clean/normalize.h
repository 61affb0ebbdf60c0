#ifndef GALOIS_CLEAN_NORMALIZE_H_
#define GALOIS_CLEAN_NORMALIZE_H_

#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace galois::clean {

/// Simple per-column domain constraint. Values outside the range are
/// treated as hallucinations and rejected (Section 4: "The enforcing of
/// type and domain constraints is a simple but crucial step to limit the
/// incorrect output due to model hallucinations").
struct DomainConstraint {
  std::optional<double> min;
  std::optional<double> max;

  bool Admits(double v) const {
    if (std::isnan(v)) return false;
    if (min.has_value() && v < *min) return false;
    if (max.has_value() && v > *max) return false;
    return true;
  }
};

/// True when the completion is the model's "don't know" marker.
bool IsUnknown(const std::string& text);

/// True when a key-scan page signals exhaustion ("No more results").
bool IsNoMoreResults(const std::string& text);

/// Strips a verbose sentence wrapper: "The population of Rome is 2.8
/// million." -> "2.8 million". Returns the input unchanged when no wrapper
/// is detected.
std::string StripVerbosity(const std::string& text);

/// Splits a list completion ("Rome, Paris, Berlin" or bulleted lines) into
/// trimmed items, dropping empties and "No more results" markers.
std::vector<std::string> SplitList(const std::string& completion);

/// Parses a noisily-formatted number: "1,234,567", "1.2k", "3M", "2
/// million", "about 120", "~45", "$300". Returns an error when no numeric
/// reading exists.
Result<double> ParseNumber(const std::string& text);

/// Parses a date in any of the formats the models emit: "1962-08-04",
/// "August 4, 1962", "4 August 1962", "04/08/1962" (day/month/year).
Result<Value> ParseDate(const std::string& text);

/// Parses yes/no/true/false (case-insensitive, optional punctuation).
Result<bool> ParseBool(const std::string& text);

/// Converts a raw model answer into a typed cell value (workflow step 3:
/// "Convert the string of answers from the LLM to a set of CELL values").
///
///  * "Unknown" -> NULL;
///  * expected numeric types run ParseNumber and the domain check,
///    returning NULL when the value is rejected;
///  * dates run ParseDate; booleans ParseBool;
///  * strings are trimmed with trailing punctuation removed.
Result<Value> NormalizeCell(const std::string& raw, DataType expected,
                            const DomainConstraint* domain = nullptr);

/// Default domain for a column, inferred from its name: years within
/// [1000, 2100], populations/counts/capacities non-negative, ages within
/// [0, 130]. Returns an unconstrained domain otherwise.
DomainConstraint DefaultDomainForColumn(const std::string& column_name);

}  // namespace galois::clean

#endif  // GALOIS_CLEAN_NORMALIZE_H_
