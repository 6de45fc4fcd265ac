// The source paper's reference values (Table 3 fault coverage, Table 5
// mean equivalent-fault class size), the same figures bench/table3_coverage
// and bench/table5_diagnosis print beside their rows.
#ifndef COREBIST_PERFBENCH_PAPER_HPP_
#define COREBIST_PERFBENCH_PAPER_HPP_

#include <cmath>
#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

struct PaperModule {
  const char* name;
  double bist_saf, bist_tdf;  // Table 3, BIST rows
  double seq_saf;             // Table 3, sequential ATPG SAF row
  double scan_saf, scan_tdf;  // Table 3, full-scan rows
  double bist_class, scan_class;  // Table 5, mean class size
};

inline constexpr PaperModule kPaperBitNode{
    "BIT_NODE", 97.8, 95.6, 93.8, 98.5, 91.2, 1.2, 1.6};
inline constexpr PaperModule kPaperCheckNode{
    "CHECK_NODE", 91.6, 90.7, 82.9, 93.1, 87.1, 1.9, 2.7};
inline constexpr PaperModule kPaperControlUnit{
    "CONTROL_UNIT", 97.5, 95.3, 89.8, 98.6, 91.3, 1.3, 1.3};

/// Coverage rows computed in one round, set against the paper. Rows graded
/// on a fault sample are estimates and carry the sample size.
class PaperGap {
 public:
  void add(const std::string& row, double fc, double paper,
           std::size_t graded, std::size_t universe) {
    rows_.push_back(Row{row, fc, paper, graded, universe});
  }
  /// Mean absolute FC difference over the rows, in points.
  [[nodiscard]] double meanGap() const {
    if (rows_.empty()) return 0.0;
    double sum = 0.0;
    for (const Row& r : rows_) sum += std::fabs(r.fc - r.paper);
    return sum / static_cast<double>(rows_.size());
  }
  [[nodiscard]] std::vector<std::string> lines() const {
    std::vector<std::string> out;
    char buf[256];
    for (const Row& r : rows_) {
      const bool est = r.graded < r.universe;
      std::snprintf(buf, sizeof buf,
                    "  %-26s FC %6.2f%%  paper %5.1f%%  gap %+6.2f pts%s",
                    r.row.c_str(), r.fc, r.paper, r.fc - r.paper,
                    est ? "  (estimate," : "");
      std::string line = buf;
      if (est) {
        std::snprintf(buf, sizeof buf, " n=%zu of %zu faults)", r.graded,
                      r.universe);
        line += buf;
      }
      out.push_back(line);
    }
    return out;
  }

 private:
  struct Row {
    std::string row;
    double fc;
    double paper;
    std::size_t graded;
    std::size_t universe;
  };
  std::vector<Row> rows_;
};

}  // namespace perfbench

#endif  // COREBIST_PERFBENCH_PAPER_HPP_
