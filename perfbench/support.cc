#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <stdexcept>

#include "common/thread_pool.h"
#include "la/gemm_kernels.h"
#include "la/matrix.h"
#include "la/qgemm.h"
#include "text/vocabulary.h"

namespace perfbench {

// ---- options ----

double Options::Num(const std::string& key) const {
  auto it = params.find(key);
  if (it == params.end()) {
    throw std::runtime_error("missing workload parameter --set " + key);
  }
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(value)) {
    throw std::runtime_error("workload parameter " + key +
                             " is not a number: " + it->second);
  }
  return value;
}

size_t Options::Count(const std::string& key) const {
  const double value = Num(key);
  if (value < 0 || value != std::floor(value)) {
    throw std::runtime_error("workload parameter " + key +
                             " is not a count: " + params.at(key));
  }
  return static_cast<size_t>(value);
}

std::optional<Options> ParseOptions(int argc, char** argv) {
  Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: %s needs a value\n", flag.c_str());
      return std::nullopt;
    }
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') {
        std::fprintf(stderr, "perfbench: bad --seed %s\n", value.c_str());
        return std::nullopt;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(options.seconds > 0)) {
        std::fprintf(stderr, "perfbench: bad --seconds %s\n", value.c_str());
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        std::fprintf(stderr, "perfbench: --trace takes 0 or 1\n");
        return std::nullopt;
      }
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--set") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos || eq == 0) {
        std::fprintf(stderr, "perfbench: --set wants key=value\n");
        return std::nullopt;
      }
      options.params[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      std::fprintf(stderr, "perfbench: unknown flag %s\n", flag.c_str());
      return std::nullopt;
    }
  }
  if (options.workload.empty() || !have_seed || options.seconds <= 0 ||
      options.workdir.empty()) {
    std::fprintf(stderr,
                 "usage: stm_perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --workdir DIR [--set key=value ...]\n");
    return std::nullopt;
  }
  return options;
}

// ---- report ----

namespace {

struct LayerMetric {
  const char* name;
  const char* unit;
};

// Every per-layer metric, in the order BENCHMARK.json lists them.
constexpr LayerMetric kLayerMetrics[] = {
    {"serve.batches", "count"},
    {"serve.batch_docs_mean", "docs"},
    {"serve.batch_ms_ewma", "ms"},
    {"serve.queue_max", "count"},
    {"serve.classify_us_mean", "us"},
    {"serve.p50_ms_low", "ms"},
    {"serve.p50_ms_high", "ms"},
    {"serve.p90_ms_high", "ms"},
    {"serve.p99_ms_low", "ms"},
    {"serve.p99_ms_high", "ms"},
    {"serve.samples_low", "count"},
    {"serve.samples_high", "count"},
    {"serve.gen_lag_ms_max", "ms"},
    {"plm.pool_batch_ms", "ms"},
    {"plm.docs_encoded", "count"},
    {"plm.cache_lookups", "count"},
    {"plm.cache_hit_ratio", "ratio"},
    {"plm.cache_evictions", "count"},
    {"text.write_s", "s"},
    {"text.tfidf_s", "s"},
    {"text.visit_s", "s"},
    {"text.shards", "count"},
    {"text.payload_mb", "MB"},
    {"index.build_s", "s"},
    {"index.query_ms_mean", "ms"},
    {"index.lsh", "bool"},
    {"la.fp32_gflops.infer", "GFLOP/s"},
    {"la.fp32_mb.infer", "MB"},
    {"la.int8_gflops.infer", "GFLOP/s"},
    {"la.int8_mb.infer", "MB"},
    {"la.fp32_gflops.train", "GFLOP/s"},
    {"la.fp32_mb.train", "MB"},
    {"core.xclass_run_s", "s"},
    {"nn.pretrain_step_ms", "ms"},
    {"common.threads", "count"},
    {"common.isa_tier", "index"},
    {"trace.spans", "count"},
    {"trace.uncovered_pct", "%"},
};

void PrintJsonString(const std::string& s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      std::putchar('\\');
      std::putchar(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      std::printf("\\u%04x", static_cast<unsigned>(c));
    } else {
      std::putchar(c);
    }
  }
  std::putchar('"');
}

}  // namespace

void Report::DeclareLayerMetrics() {
  for (const LayerMetric& metric : kLayerMetrics) {
    Set(metric.name, 0.0, metric.unit);
  }
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::Incorrect(const std::string& what, uint64_t count) {
  correct_ = false;
  failed_ += count;
  std::fprintf(stderr, "perfbench: INCORRECT: %s\n", what.c_str());
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Meta(const std::string& key, const std::string& value) {
  meta_[key] = value;
}

void Report::Print() const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  std::printf("fail_rate = %" PRIu64 " / %" PRIu64 " %s = %.6f (failed, shed, "
              "deadline-missed or incorrect)\n",
              failed_, attempted_, base_.c_str(),
              attempted_ == 0 ? 0.0
                              : static_cast<double>(failed_) /
                                    static_cast<double>(attempted_));
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              correct_ ? "true" : "false", attempted_, failed_);
  bool first = true;
  for (const auto& [name, metric] : metrics_) {
    if (!first) std::printf(", ");
    first = false;
    PrintJsonString(name);
    // %.17g keeps every digit; non-finite values cannot be JSON numbers.
    const double value = std::isfinite(metric.value) ? metric.value : -1.0;
    std::printf(": {\"value\": %.17g, \"unit\": ", value);
    PrintJsonString(metric.unit);
    std::printf("}");
  }
  std::printf("}, \"meta\": {");
  first = true;
  for (const auto& [key, value] : meta_) {
    if (!first) std::printf(", ");
    first = false;
    PrintJsonString(key);
    std::printf(": ");
    PrintJsonString(value);
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

std::string Fmt(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

// ---- statistics ----

std::optional<double> HonestPercentile(const std::vector<double>& sorted,
                                       double q) {
  const size_t n = sorted.size();
  if (n == 0) return std::nullopt;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<size_t>(rank, 1, n);
  if (n - rank < 10) return std::nullopt;
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- tracing ----

namespace {

std::atomic<bool> g_trace_enabled{false};
std::atomic<uint64_t> g_next_span{1};
const Clock::time_point g_trace_epoch = Clock::now();
std::mutex g_spans_mu;
std::vector<SpanRecord> g_spans;  // guarded by g_spans_mu
thread_local uint64_t t_open_span = 0;

int64_t ToNs(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t -
                                                              g_trace_epoch)
      .count();
}

void Append(const SpanRecord& span) {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  g_spans.push_back(span);
}

}  // namespace

void Tracer::Enable() {
  {
    std::lock_guard<std::mutex> lock(g_spans_mu);
    g_spans.reserve(size_t{1} << 20);
  }
  g_trace_enabled.store(true, std::memory_order_relaxed);
}

bool Tracer::enabled() {
  return g_trace_enabled.load(std::memory_order_relaxed);
}

void Tracer::Record(const char* name, Clock::time_point start,
                    Clock::time_point end, uint64_t group) {
  if (!enabled()) return;
  SpanRecord span;
  span.name = name;
  span.start_ns = ToNs(start);
  span.end_ns = ToNs(end);
  span.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span.parent = t_open_span;
  span.group = group;
  Append(span);
}

std::vector<SpanRecord> Tracer::Take() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  std::vector<SpanRecord> out;
  out.swap(g_spans);
  return out;
}

std::vector<SpanRecord> Tracer::Snapshot() {
  std::lock_guard<std::mutex> lock(g_spans_mu);
  return g_spans;
}

Span::Span(const char* name, uint64_t group) : name_(name), group_(group) {
  if (!Tracer::enabled()) return;
  id_ = g_next_span.fetch_add(1, std::memory_order_relaxed);
  parent_ = t_open_span;
  t_open_span = id_;
  start_ns_ = ToNs(Clock::now());
}

Span::~Span() {
  if (id_ == 0) return;
  SpanRecord span;
  span.name = name_;
  span.start_ns = start_ns_;
  span.end_ns = ToNs(Clock::now());
  span.id = id_;
  span.parent = parent_;
  span.group = group_;
  t_open_span = parent_;
  Append(span);
}

std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans) {
  std::map<std::string, SpanTotals> totals;
  for (const SpanRecord& span : spans) {
    SpanTotals& t = totals[span.name];
    ++t.count;
    t.total_s += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
  }
  return totals;
}

double TotalSeconds(const std::map<std::string, SpanTotals>& totals,
                    const std::string& name) {
  auto it = totals.find(name);
  return it == totals.end() ? 0.0 : it->second.total_s;
}

double MeanSeconds(const std::map<std::string, SpanTotals>& totals,
                   const std::string& name) {
  auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return it->second.total_s / static_cast<double>(it->second.count);
}

void FinishTrace(const std::vector<SpanRecord>& spans, double wall_s,
                 const std::string& path, Report& report) {
  double staged_s = 0.0;
  for (const SpanRecord& span : spans) {
    if (span.parent == 0 && std::string(span.name).rfind("stage.", 0) == 0) {
      staged_s += 1e-9 * static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  const double uncovered = wall_s > 0 ? 100.0 * (wall_s - staged_s) / wall_s
                                      : 0.0;
  report.Set("trace.spans", static_cast<double>(spans.size()), "count");
  report.Set("trace.uncovered_pct", uncovered, "%");
  report.Note(Fmt("trace: %zu spans, stages cover %.4f s of %.4f s wall "
                  "(%.2f%% uncovered)",
                  spans.size(), staged_s, wall_s, uncovered));

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    report.Incorrect("cannot write trace file " + path);
    return;
  }
  for (const SpanRecord& span : spans) {
    std::fprintf(out,
                 "{\"name\": \"%s\", \"start_ns\": %" PRId64
                 ", \"end_ns\": %" PRId64 ", \"id\": %" PRIu64
                 ", \"parent\": %" PRIu64 ", \"group\": %" PRIu64 "}\n",
                 span.name, span.start_ns, span.end_ns, span.id, span.parent,
                 span.group);
  }
  if (std::fclose(out) != 0) {
    report.Incorrect("cannot finish trace file " + path);
  }
}

// ---- inputs and model ----

std::vector<int32_t> SkewedDoc(stm::Rng& rng, size_t vocab) {
  size_t len;
  const double r = rng.Uniform();
  if (r < 0.70) {
    len = 4 + rng.UniformInt(9);
  } else if (r < 0.95) {
    len = 13 + rng.UniformInt(16);
  } else {
    len = 36 + rng.UniformInt(13);
  }
  return UniformDoc(rng, vocab, len, len);
}

std::vector<int32_t> UniformDoc(stm::Rng& rng, size_t vocab, size_t min_len,
                                size_t max_len) {
  const size_t len = min_len + rng.UniformInt(max_len - min_len + 1);
  std::vector<int32_t> doc(len);
  for (int32_t& id : doc) {
    id = stm::text::kNumSpecialTokens +
         static_cast<int32_t>(
             rng.UniformInt(vocab - stm::text::kNumSpecialTokens));
  }
  return doc;
}

stm::plm::MiniLmConfig EncoderConfig(size_t vocab, size_t max_seq) {
  stm::plm::MiniLmConfig config;
  config.vocab_size = vocab;
  config.dim = 40;
  config.layers = 2;
  config.heads = 4;
  config.ffn_dim = 80;
  config.max_seq = max_seq;
  config.seed = 17;
  return config;
}

uint64_t HashIds(const std::vector<int32_t>& ids) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (const int32_t id : ids) {
    h ^= static_cast<uint32_t>(id);
    h *= 1099511628211ULL;
  }
  return h == 0 ? 1 : h;
}

// ---- la probe ----

namespace {

struct Shape {
  size_t k;
  size_t n;
};

// The encoder's projections at dim 40: fused QKV, attention output,
// FFN up and FFN down.
constexpr Shape kEncoderShapes[] = {{40, 120}, {40, 40}, {40, 80}, {80, 40}};

}  // namespace

void ProbeGemm(const std::string& kind, size_t rows, double seconds,
               Report& report) {
  Span span("stage.la_probe");
  rows = std::max<size_t>(rows, 1);
  stm::Rng rng(0x1A);
  struct Operands {
    stm::la::Matrix a, b, c, dy, da, db;
    stm::la::PackedBF32 fp32;
    stm::la::Int8PackedB int8;
  };
  std::vector<Operands> ops;
  double flops_per_pass = 0.0;
  double bytes_per_pass = 0.0;
  for (const Shape& shape : kEncoderShapes) {
    Operands op;
    op.a = stm::la::Matrix(rows, shape.k);
    op.b = stm::la::Matrix(shape.k, shape.n);
    op.c = stm::la::Matrix(rows, shape.n);
    for (size_t i = 0; i < op.a.size(); ++i) {
      op.a.data()[i] = static_cast<float>(rng.Normal());
    }
    for (size_t i = 0; i < op.b.size(); ++i) {
      op.b.data()[i] = static_cast<float>(rng.Normal(0.0, 0.2));
    }
    const double m = static_cast<double>(rows);
    const double k = static_cast<double>(shape.k);
    const double n = static_cast<double>(shape.n);
    if (kind == "fp32") {
      op.fp32 = stm::la::PackFp32B(op.b.data(), shape.n, 1, shape.k,
                                   shape.n);
      flops_per_pass += 2 * m * k * n;
      bytes_per_pass += 4 * (m * k + k * n + 2 * m * n);
    } else if (kind == "int8") {
      op.int8 = stm::la::PackInt8B(op.b.data(), shape.n, 1, shape.k,
                                   shape.n);
      flops_per_pass += 2 * m * k * n;
      // fp32 A read + int8 A/B + fp32 C read and write.
      bytes_per_pass += 4 * m * k + m * k + k * n + 4 * 2 * m * n;
    } else {
      op.dy = stm::la::Matrix(rows, shape.n, 0.01f);
      op.da = stm::la::Matrix(rows, shape.k);
      op.db = stm::la::Matrix(shape.k, shape.n);
      // Forward C = A B, backward dA = dY B^T and dB = A^T dY.
      flops_per_pass += 3 * 2 * m * k * n;
      bytes_per_pass += 4 * 3 * (m * k + k * n + m * n);
    }
    ops.push_back(std::move(op));
  }

  auto pass = [&] {
    for (Operands& op : ops) {
      if (kind == "fp32") {
        Span call("la.PrepackedGemmAcc");
        stm::la::PrepackedGemmAcc(op.a.data(), rows, op.fp32, op.c.data());
      } else if (kind == "int8") {
        Span call("la.Int8GemmAcc");
        stm::la::Int8GemmAcc(op.a.data(), rows, op.int8, op.c.data());
      } else {
        {
          Span call("la.Gemm");
          stm::la::Gemm(op.a, op.b, op.c);
        }
        {
          Span call("la.GemmBt");
          stm::la::GemmBt(op.dy, op.b, op.da);
        }
        {
          Span call("la.GemmAt");
          stm::la::GemmAt(op.a, op.dy, op.db);
        }
      }
    }
  };
  pass();  // warm caches and the kernel dispatch
  size_t passes = 0;
  const Clock::time_point start = Clock::now();
  do {
    pass();
    ++passes;
  } while (SecondsSince(start) < seconds);
  const double wall = SecondsSince(start);
  const double gflops =
      flops_per_pass * static_cast<double>(passes) / wall * 1e-9;
  const std::string use = kind == "train" ? "train" : "infer";
  const std::string tier = kind == "train" ? "fp32" : kind;
  report.Set("la." + tier + "_gflops." + use, gflops, "GFLOP/s");
  report.Set("la." + tier + "_mb." + use, bytes_per_pass / (1024.0 * 1024.0),
             "MB");
  report.Note(Fmt("la probe %s: %zu rows x {40x120, 40x40, 40x80, 80x40}, "
                  "%zu passes, %.3f GFLOP/s, %.3f MB moved per pass",
                  kind.c_str(), rows, passes, gflops,
                  bytes_per_pass / (1024.0 * 1024.0)));
}

void RecordCommon(Report& report) {
  const std::string isa = stm::la::GemmKernelIsa();
  double tier = 0;
  if (isa == "avx2+fma") tier = 1;
  if (isa == "avx512") tier = 2;
  if (isa == "avx512+vnni") tier = 3;
  const size_t threads = stm::ThreadPool::Global().threads();
  report.Set("common.threads", static_cast<double>(threads), "count");
  report.Set("common.isa_tier", tier, "index");
  report.Meta("isa", isa);
  report.Meta("threads", std::to_string(threads));
}

}  // namespace perfbench
