#include "stats.h"

#include <algorithm>
#include <cmath>

namespace uwbench {
namespace {

/// 1-based nearest rank of percentile p in a sample of n.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  const size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return (*std::max_element(values.begin(), values.begin() + mid) + upper) / 2;
}

Tail TailOf(const std::vector<double>& values) {
  static constexpr double kLadder[] = {99.99, 99.9, 99, 95, 90, 50};
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  for (const double p : kLadder) {
    const size_t rank = NearestRank(n, p);
    if (n - rank >= 10) {
      tail.percentile = p;
      tail.value = sorted[rank - 1];
      return tail;
    }
  }
  tail.value = sorted.back();
  return tail;
}

int64_t SelfTime(Interval parent, std::vector<Interval> children) {
  for (Interval& child : children) {
    child.start = std::max(child.start, parent.start);
    child.end = std::min(child.end, parent.end);
  }
  std::sort(children.begin(), children.end(),
            [](const Interval& a, const Interval& b) {
              return a.start < b.start;
            });
  int64_t covered = 0;
  int64_t reach = parent.start;  // end of the union swept so far
  for (const Interval& child : children) {
    if (child.end <= child.start) continue;
    const int64_t from = std::max(child.start, reach);
    if (child.end > from) covered += child.end - from;
    reach = std::max(reach, child.end);
  }
  return (parent.end - parent.start) - covered;
}

}  // namespace uwbench
