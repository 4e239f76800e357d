// Shared pieces of the repository benchmark: command-line options, the
// metric report printed as one JSON line, honest percentiles, in-memory
// span tracing around calls into the library, and the input generators
// and model shape every workload uses.

#ifndef PERFBENCH_SUPPORT_H_
#define PERFBENCH_SUPPORT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "plm/minilm.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// Command line of one workload process:
//   --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//   [--set key=value ...]
// The --set pairs are the workload's fixed parameters (perfbench/
// workloads.json); a missing one is an error, never a silent default.
struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string workdir;
  std::map<std::string, std::string> params;

  double Num(const std::string& key) const;
  size_t Count(const std::string& key) const;
};

// Parses argv; returns nullopt (after printing the reason) on bad input.
std::optional<Options> ParseOptions(int argc, char** argv);

// Metrics and correctness accounting of one workload process, printed as
// the last stdout line. `attempted`/`failed` carry the fail rate: failed
// counts failed, shed, deadline-missed and incorrect operations.
class Report {
 public:
  // Declares every per-layer metric at 0, so a workload that leaves a
  // layer idle still reports it (0 = the layer did no work here).
  void DeclareLayerMetrics();

  void Set(const std::string& name, double value, const std::string& unit);
  // Records an incorrect output: counted in `failed`, marks the run
  // incorrect and explains why on stderr.
  void Incorrect(const std::string& what, uint64_t count = 1);
  // `base` names what an attempt is (requests, queries, predictions).
  void Attempted(uint64_t count, const std::string& base) {
    attempted_ += count;
    base_ = base;
  }
  void Failed(uint64_t count) { failed_ += count; }
  // Human-readable line printed above the JSON result.
  void Note(const std::string& line);
  void Meta(const std::string& key, const std::string& value);

  bool correct() const { return correct_; }
  void Print() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> meta_;
  std::vector<std::string> notes_;
  std::string base_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

std::string Fmt(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Nearest-rank percentile of `sorted` (ascending), given only when at
// least ten samples lie beyond it; otherwise nullopt.
std::optional<double> HonestPercentile(const std::vector<double>& sorted,
                                       double q);

double Median(std::vector<double> values);
double Mean(const std::vector<double>& values);

// Peak resident set size of this process in MiB.
double PeakRssMb();

// ---- tracing ----
//
// Spans are recorded around the benchmark's own calls into the library
// (never inside src/), kept in memory and written out when the run ends.
// Disabled tracing costs one relaxed load per span site.

struct SpanRecord {
  const char* name = nullptr;
  int64_t start_ns = 0;  // steady clock, relative to tracer start
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = top level
  uint64_t group = 0;   // shared request / stage id, 0 = none
};

class Tracer {
 public:
  static void Enable();
  static bool enabled();
  // Records a span whose start and end were measured elsewhere (e.g. a
  // request timed from its due time to its completion).
  static void Record(const char* name, Clock::time_point start,
                     Clock::time_point end, uint64_t group);
  static std::vector<SpanRecord> Take();
  static std::vector<SpanRecord> Snapshot();
};

// RAII span: parent is the innermost open span on this thread.
class Span {
 public:
  explicit Span(const char* name, uint64_t group = 0);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  uint64_t group_;
  uint64_t id_ = 0;
  uint64_t parent_ = 0;
  int64_t start_ns_ = 0;
};

struct SpanTotals {
  uint64_t count = 0;
  double total_s = 0.0;
};

// Per-name totals over `spans`.
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

// Total and per-call mean seconds of the spans called `name` (0 if none).
double TotalSeconds(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name);
double MeanSeconds(const std::map<std::string, SpanTotals>& totals,
                   const std::string& name);

// Writes the spans as JSON lines to `path` and adds the trace-level
// metrics: span count, and the share of `wall_s` not covered by the
// top-level "stage.*" spans.
void FinishTrace(const std::vector<SpanRecord>& spans, double wall_s,
                 const std::string& path, Report& report);

// ---- shared inputs and model shape ----

// Document lengths follow the serve mix: 70% 4-12 tokens, 25% 13-28,
// 5% 36-48; ids are uniform over the regular vocabulary.
std::vector<int32_t> SkewedDoc(stm::Rng& rng, size_t vocab);

// Uniform length in [min_len, max_len], uniform ids.
std::vector<int32_t> UniformDoc(stm::Rng& rng, size_t vocab, size_t min_len,
                                size_t max_len);

// The encoder every inference workload runs: dim 40, 2 layers, 4 heads,
// FFN 80 (fused QKV 40->120), random init from a fixed seed.
stm::plm::MiniLmConfig EncoderConfig(size_t vocab, size_t max_seq);

uint64_t HashIds(const std::vector<int32_t>& ids);

// Directly times the la GEMM entry points on the encoder's projection
// shapes (QKV 40x120, out 40x40, FFN 40x80 and 80x40) with `rows` A rows;
// sets la.<kind>_gflops.<use> and la.<kind>_mb.<use>. `kind` is "fp32"
// (PackFp32B + PrepackedGemmAcc, the frozen inference path), "int8"
// (PackInt8B + Int8GemmAcc) or "train" (Gemm forward plus GemmBt / GemmAt
// backward, the autograd training path).
void ProbeGemm(const std::string& kind, size_t rows, double seconds,
               Report& report);

// Records the common.* metadata (thread count, ISA tier).
void RecordCommon(Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_SUPPORT_H_
