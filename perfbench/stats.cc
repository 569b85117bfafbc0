#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least q of the sample at or
  // below it.
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

void Report::Add(const std::string& name, double value,
                 const std::string& unit, int64_t samples,
                 const std::string& note) {
  entries_.push_back({name, value, unit, samples, note});
}

bool Report::AllFinite() const {
  return std::all_of(entries_.begin(), entries_.end(),
                     [](const Entry& e) { return std::isfinite(e.value); });
}

void Report::PrintLines(std::FILE* out) const {
  for (const Entry& e : entries_) {
    std::fprintf(out, "  %-32s %14.6g %-6s", e.name.c_str(), e.value,
                 e.unit.c_str());
    if (e.samples > 0) {
      std::fprintf(out, " n=%lld", static_cast<long long>(e.samples));
    }
    if (!e.note.empty()) std::fprintf(out, "  (%s)", e.note.c_str());
    std::fprintf(out, "\n");
  }
}

std::string Report::Json(bool correct, int64_t attempted,
                         int64_t failed) const {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  char number[64];
  for (size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    std::snprintf(number, sizeof(number), "%.17g", e.value);
    if (i > 0) json += ", ";
    json += "\"" + e.name + "\": {\"value\": " + number + ", \"unit\": \"" +
            e.unit + "\"}";
  }
  json += "}}";
  return json;
}

}  // namespace perfbench
