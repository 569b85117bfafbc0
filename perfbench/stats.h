// Order statistics and the result report of one benchmark run.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}
double Mean(const std::vector<double>& values);

// Named metrics of one run, printed once for people (one line each, with
// unit and sample count) and once as the final JSON line the harness reads.
class Report {
 public:
  // `samples` is the number of observations behind the value (0 = not a
  // sampled statistic); `note` says how the value was obtained.
  void Add(const std::string& name, double value, const std::string& unit,
           int64_t samples = 0, const std::string& note = "");

  // True when every value is finite.
  bool AllFinite() const;

  void PrintLines(std::FILE* out) const;
  // {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}
  std::string Json(bool correct, int64_t attempted, int64_t failed) const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
    int64_t samples;
    std::string note;
  };
  std::vector<Entry> entries_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
