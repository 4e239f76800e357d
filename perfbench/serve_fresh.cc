// serve_fresh: single-document fp32 classification through serve::Server
// with the plm-simple-match adapter. Every request is a fresh document and
// no encode cache is installed, so the serve queue, its batching, the
// frozen fp32 encoder and the packed fp32 GEMMs do the work while text,
// the EncodeCache and nn stay idle.
//
// Three phases, each on its own Server so queue statistics stay per
// phase: a saturating burst (capacity), then two open-loop phases at the
// fixed `low` and `high` offered rates. Open-loop requests are timed from
// their scheduled due time, so a stall is charged to every request queued
// behind it, and the generator's own lateness is reported.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/thread_pool.h"
#include "core/serve_adapters.h"
#include "index/ann.h"
#include "serve/serve.h"
#include "support.h"
#include "text/vocabulary.h"
#include "workloads.h"

namespace perfbench {
namespace {

using stm::StatusOr;
using stm::serve::Prediction;

constexpr size_t kClasses = 8;
// How long the open-loop collector sleeps when no outstanding answer is
// ready; it bounds how late a completion can be stamped.
constexpr std::chrono::microseconds kPollInterval{20};

std::vector<std::vector<int32_t>> ClassNames() {
  std::vector<std::vector<int32_t>> names;
  for (size_t c = 0; c < kClasses; ++c) {
    names.push_back(
        {static_cast<int32_t>(stm::text::kNumSpecialTokens + c),
         static_cast<int32_t>(stm::text::kNumSpecialTokens + kClasses + c)});
  }
  return names;
}

// Times every Classify call of the wrapped adapter (traced run only).
class TracedClassifier : public stm::serve::Classifier {
 public:
  explicit TracedClassifier(std::shared_ptr<const Classifier> inner)
      : inner_(std::move(inner)) {}

  std::string name() const override { return inner_->name(); }
  size_t num_classes() const override { return inner_->num_classes(); }
  Input input() const override { return inner_->input(); }

  Prediction Classify(const std::vector<int32_t>& ids, const float* pooled,
                      const stm::la::Matrix* hidden) const override {
    Span span("serve.Classifier.Classify", HashIds(ids));
    return inner_->Classify(ids, pooled, hidden);
  }

 private:
  std::shared_ptr<const Classifier> inner_;
};

struct Setup {
  std::vector<std::vector<int32_t>> docs;    // burst, then low, then high
  std::vector<std::vector<int32_t>> warmup;  // never submitted
  std::vector<std::vector<int32_t>> names;
  std::unique_ptr<stm::plm::MiniLm> model;
  std::shared_ptr<const stm::serve::Classifier> classifier;
};

// Fresh documents: every request carries one no other request has.
std::vector<std::vector<int32_t>> MakeDocs(uint64_t seed, size_t vocab,
                                           size_t requests) {
  stm::Rng rng(seed);
  std::unordered_set<uint64_t> seen;
  std::vector<std::vector<int32_t>> docs;
  docs.reserve(requests);
  while (docs.size() < requests) {
    std::vector<int32_t> doc = SkewedDoc(rng, vocab);
    if (seen.insert(HashIds(doc)).second) docs.push_back(std::move(doc));
  }
  return docs;
}

// The timed set-up: model construction, the adapter (pooling the class
// names freezes and packs the fp32 encoder) and a warm-up batch.
void MakeModel(Setup& setup, size_t vocab) {
  setup.names = ClassNames();
  setup.model = std::make_unique<stm::plm::MiniLm>(EncoderConfig(vocab, 48));
  setup.classifier =
      stm::core::MakePlmSimpleMatchServable(setup.model.get(), setup.names);
  setup.model->PoolBatch(setup.warmup);
}

struct Phase {
  double wall_s = 0.0;
  size_t completed = 0;
  size_t failed = 0;  // shed, deadline-missed or failed requests
  // Open loop only: per request from its due time (-1 = failed), and
  // the completed requests' latencies sorted.
  std::vector<double> latency_ms;
  std::vector<double> sorted_ms;
  double gen_lag_ms_max = 0.0;
  stm::serve::Server::Stats stats;
  stm::serve::Server::Health health;
};

class LoadGenerator {
 public:
  LoadGenerator(const Setup& setup, bool traced, size_t workers,
                size_t queue_depth,
                std::vector<std::optional<Prediction>>* answers)
      : setup_(setup),
        traced_(traced),
        workers_(workers),
        queue_depth_(queue_depth),
        answers_(answers) {}

  // Saturates the server with docs [begin, end), keeping `window`
  // requests outstanding: the queue never runs dry, yet its memory (and so
  // peak RSS) does not depend on how fast the burst drains.
  Phase Burst(size_t begin, size_t end, size_t window) {
    auto server = MakeServer();
    Phase phase;
    std::vector<std::future<StatusOr<Prediction>>> futures(end - begin);
    const Clock::time_point start = Clock::now();
    size_t submitted = begin;
    for (size_t i = begin; i < end; ++i) {
      for (; submitted < end && submitted < i + window; ++submitted) {
        futures[submitted - begin] = Submit(*server, submitted);
      }
      Collect(futures[i - begin].get(), i, phase);
    }
    phase.wall_s = SecondsSince(start);
    Finish(*server, phase);
    return phase;
  }

  // Offers docs [begin, end) at `rate` per second on a fixed schedule. A
  // collector thread polls the outstanding answers and stamps each one when
  // it is found ready, so a request is timed by its own completion even
  // when the drain workers finish batches out of submission order.
  Phase OpenLoop(size_t begin, size_t end, double rate) {
    auto server = MakeServer();
    Phase phase;
    const size_t n = end - begin;
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / rate));
    std::vector<std::future<StatusOr<Prediction>>> futures(n);
    std::vector<double> latency(n, 0.0);
    std::vector<char> ok(n, 0);
    std::atomic<size_t> produced{0};
    const Clock::time_point start = Clock::now() + std::chrono::milliseconds(1);

    std::thread collector([&] {
      std::vector<size_t> pending;  // submitted, answer not yet taken
      size_t taken = 0;             // requests moved into `pending`
      for (size_t left = n; left > 0;) {
        size_t seen = produced.load(std::memory_order_acquire);
        if (pending.empty() && seen == taken) {
          produced.wait(seen, std::memory_order_acquire);
          seen = produced.load(std::memory_order_acquire);
        }
        for (; taken < seen; ++taken) pending.push_back(taken);
        bool progressed = false;
        for (size_t k = 0; k < pending.size();) {
          const size_t i = pending[k];
          if (futures[i].wait_for(std::chrono::seconds(0)) !=
              std::future_status::ready) {
            ++k;
            continue;
          }
          const Clock::time_point done = Clock::now();
          const Clock::time_point due = start + interval * i;
          latency[i] = MsBetween(due, done);
          if (traced_) {
            Tracer::Record("serve.request", due, done,
                           HashIds(setup_.docs[begin + i]));
          }
          StatusOr<Prediction> result = futures[i].get();
          ok[i] = result.ok() ? 1 : 0;
          if (result.ok()) (*answers_)[begin + i] = std::move(result).value();
          pending[k] = pending.back();
          pending.pop_back();
          --left;
          progressed = true;
        }
        if (!progressed) std::this_thread::sleep_for(kPollInterval);
      }
    });
    for (size_t i = 0; i < n; ++i) {
      const Clock::time_point due = start + interval * i;
      std::this_thread::sleep_until(due);
      phase.gen_lag_ms_max =
          std::max(phase.gen_lag_ms_max, MsBetween(due, Clock::now()));
      futures[i] = Submit(*server, begin + i);
      produced.store(i + 1, std::memory_order_release);
      produced.notify_one();
    }
    collector.join();
    phase.wall_s = SecondsSince(start);
    for (size_t i = 0; i < n; ++i) {
      if (ok[i]) {
        ++phase.completed;
        phase.sorted_ms.push_back(latency[i]);
      } else {
        ++phase.failed;
        latency[i] = -1.0;
      }
    }
    phase.latency_ms = std::move(latency);
    std::sort(phase.sorted_ms.begin(), phase.sorted_ms.end());
    Finish(*server, phase);
    return phase;
  }

 private:
  std::unique_ptr<stm::serve::Server> MakeServer() {
    stm::serve::ServeOptions options;  // library defaults for batching
    options.workers = workers_;
    options.queue_depth = queue_depth_;
    auto server =
        std::make_unique<stm::serve::Server>(setup_.model.get(), options);
    std::shared_ptr<const stm::serve::Classifier> classifier =
        setup_.classifier;
    if (traced_) classifier = std::make_shared<TracedClassifier>(classifier);
    const stm::Status status = server->Register("match", classifier);
    if (!status.ok()) {
      throw std::runtime_error("Register: " + status.ToString());
    }
    return server;
  }

  std::future<StatusOr<Prediction>> Submit(stm::serve::Server& server,
                                           size_t i) {
    Span span("serve.Server.Submit", traced_ ? HashIds(setup_.docs[i]) : 0);
    return server.Submit("match", setup_.docs[i]);
  }

  void Collect(StatusOr<Prediction> result, size_t i, Phase& phase) {
    if (result.ok()) {
      ++phase.completed;
      (*answers_)[i] = std::move(result).value();
    } else {
      ++phase.failed;
    }
  }

  void Finish(stm::serve::Server& server, Phase& phase) {
    server.Shutdown();
    phase.stats = server.stats();
    phase.health = server.health();
  }

  const Setup& setup_;
  const bool traced_;
  const size_t workers_;
  const size_t queue_depth_;
  std::vector<std::optional<Prediction>>* answers_;
};

// Every served answer must carry exactly the bits of the batch path:
// PoolBatch over the documents plus ann::SimilarityPanel against the
// pooled class names. Returns, per document, whether its answer did.
std::vector<char> Verify(
    Setup& setup, const std::vector<std::optional<Prediction>>& answers) {
  Span span("stage.verify");
  const stm::la::Matrix class_reps = setup.model->PoolBatch(setup.names);
  std::vector<char> exact(setup.docs.size(), 0);
  constexpr size_t kChunk = 4096;
  for (size_t begin = 0; begin < setup.docs.size(); begin += kChunk) {
    const size_t end = std::min(begin + kChunk, setup.docs.size());
    const std::vector<std::vector<int32_t>> chunk(
        setup.docs.begin() + static_cast<std::ptrdiff_t>(begin),
        setup.docs.begin() + static_cast<std::ptrdiff_t>(end));
    const stm::la::Matrix panel = stm::ann::SimilarityPanel(
        setup.model->PoolBatch(chunk), class_reps);
    for (size_t d = begin; d < end; ++d) {
      if (!answers[d].has_value()) continue;  // counted as failed already
      const Prediction& got = *answers[d];
      const float* want = panel.Row(d - begin);
      int want_label = 0;
      for (size_t c = 1; c < kClasses; ++c) {
        if (want[c] > want[want_label]) want_label = static_cast<int>(c);
      }
      exact[d] = got.scores.size() == kClasses &&
                 std::memcmp(got.scores.data(), want,
                             kClasses * sizeof(float)) == 0 &&
                 got.label == want_label;
    }
  }
  return exact;
}

std::string PercentileNote(const char* name, const std::vector<double>& sorted,
                           double q) {
  const std::optional<double> p = HonestPercentile(sorted, q);
  if (!p) return Fmt("%s = n/a (n=%zu, too few samples beyond)", name,
                     sorted.size());
  return Fmt("%s = %.4f ms (n=%zu)", name, *p, sorted.size());
}

// Per-layer metrics of a traced run: server statistics per phase, a
// PoolBatch replay at the server's mean batch size and the fp32 GEMM probe.
void TraceLayers(const Options& options, size_t vocab, Setup& setup,
                 const Phase& burst, const Phase& low, const Phase& high,
                 Report& report) {
  const uint64_t batches =
      burst.stats.batches + low.stats.batches + high.stats.batches;
  const uint64_t completed =
      burst.stats.completed + low.stats.completed + high.stats.completed;
  const double batch_docs =
      batches == 0 ? 0.0
                   : static_cast<double>(completed) /
                         static_cast<double>(batches);
  report.Set("serve.batches", static_cast<double>(batches), "count");
  report.Set("serve.batch_docs_mean", batch_docs, "docs");
  report.Set("serve.batch_ms_ewma", high.health.ewma_batch_ms, "ms");
  report.Set("serve.queue_max", static_cast<double>(high.stats.max_queue),
             "count");
  auto set_p = [&](const char* name, const std::vector<double>& sorted,
                   double q) {
    report.Set(name, HonestPercentile(sorted, q).value_or(0.0), "ms");
  };
  set_p("serve.p50_ms_low", low.sorted_ms, 0.5);
  set_p("serve.p50_ms_high", high.sorted_ms, 0.5);
  set_p("serve.p90_ms_high", high.sorted_ms, 0.9);
  set_p("serve.p99_ms_low", low.sorted_ms, 0.99);
  set_p("serve.p99_ms_high", high.sorted_ms, 0.99);
  report.Set("serve.samples_low", static_cast<double>(low.sorted_ms.size()),
             "count");
  report.Set("serve.samples_high",
             static_cast<double>(high.sorted_ms.size()), "count");
  report.Set("serve.gen_lag_ms_max",
             std::max(low.gen_lag_ms_max, high.gen_lag_ms_max), "ms");
  report.Note(PercentileNote("p99_ms_low", low.sorted_ms, 0.99));
  report.Note(PercentileNote("p99_ms_high", high.sorted_ms, 0.99));

  // Replays PoolBatch at the server's mean batch size on fresh documents.
  const size_t batch = std::max<size_t>(1, std::lround(batch_docs));
  stm::Rng rng(options.seed ^ 0x5EEDULL);
  std::vector<std::vector<int32_t>> replay(batch);
  for (auto& doc : replay) doc = SkewedDoc(rng, vocab);
  double tokens = 0.0;
  for (const auto& doc : setup.docs) tokens += static_cast<double>(doc.size());
  // GEMM rows of a mean batch: mean docs per batch x mean tokens per doc.
  tokens *= batch_docs / static_cast<double>(setup.docs.size());
  {
    Span span("stage.pool_batch_replay");
    const size_t calls = options.Count("replay_calls");
    for (size_t i = 0; i < calls; ++i) {
      Span call("plm.MiniLm.PoolBatch");
      setup.model->PoolBatch(replay);
    }
  }
  ProbeGemm("fp32", static_cast<size_t>(std::lround(tokens)),
            options.Num("probe_s"), report);

  const std::map<std::string, SpanTotals> spans =
      SummarizeSpans(Tracer::Snapshot());
  report.Set("serve.classify_us_mean",
             1e6 * MeanSeconds(spans, "serve.Classifier.Classify"), "us");
  report.Set("plm.pool_batch_ms",
             1e3 * MeanSeconds(spans, "plm.MiniLm.PoolBatch"), "ms");
}

}  // namespace

void RunServeFresh(const Options& options, Report& report) {
  const size_t vocab = options.Count("vocab");
  const double low_qps = options.Num("low_qps");
  const double high_qps = options.Num("high_qps");
  const size_t workers = options.Count("drain_workers");
  const double limit_ms = options.Num("latency_limit_ms");
  // Phase lengths are shares of --seconds; the burst size is a request
  // count per measured second, so the offered work never depends on how
  // fast the machine is.
  const size_t burst_n = static_cast<size_t>(
      options.Num("burst_requests_per_s") * options.seconds);
  const double open_s = options.Num("open_loop_share") * options.seconds;
  const size_t low_n = static_cast<size_t>(low_qps * open_s);
  const size_t high_n = static_cast<size_t>(high_qps * open_s);
  const size_t total = burst_n + low_n + high_n;

  Setup setup;
  {
    Span span("stage.inputs");
    const size_t warmup = options.Count("warmup_docs");
    setup.docs = MakeDocs(options.seed, vocab, total + warmup);
    setup.warmup.assign(
        std::make_move_iterator(setup.docs.end() -
                                static_cast<std::ptrdiff_t>(warmup)),
        std::make_move_iterator(setup.docs.end()));
    setup.docs.resize(total);
  }
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < options.Count("setup_reps"); ++rep) {
    Span span("stage.setup");
    setup.classifier.reset();
    setup.model.reset();
    const Clock::time_point start = Clock::now();
    MakeModel(setup, vocab);
    setup_s.push_back(SecondsSince(start));
  }

  std::vector<std::optional<Prediction>> answers(total);
  LoadGenerator load(setup, options.trace, workers,
                     options.Count("queue_depth"), &answers);
  Phase burst;
  {
    Span span("stage.burst");
    burst = load.Burst(0, burst_n, options.Count("burst_window"));
  }
  Phase low;
  {
    Span span("stage.open_low");
    low = load.OpenLoop(burst_n, burst_n + low_n, low_qps);
  }
  Phase high;
  {
    Span span("stage.open_high");
    high = load.OpenLoop(burst_n + low_n, total, high_qps);
  }
  // Peak RSS of the serving phases; verification below holds whole
  // PoolBatch chunks and is not part of the workload.
  const double peak_rss_mb = PeakRssMb();
  if (options.trace) {
    TraceLayers(options, vocab, setup, burst, low, high, report);
  }
  // Measurement is over, so verification may use more pool threads.
  stm::ThreadPool::Reset(options.Count("verify_threads"));
  const std::vector<char> exact = Verify(setup, answers);

  const size_t failed = burst.failed + low.failed + high.failed;
  size_t mismatches = 0;
  for (size_t d = 0; d < total; ++d) {
    mismatches += answers[d].has_value() && !exact[d];
  }
  // Quality: the share of low-rate requests answered exactly within the
  // latency limit. A failed request misses the limit.
  size_t good = 0;
  for (size_t i = 0; i < low_n; ++i) {
    const double ms = low.latency_ms[i];
    good += ms >= 0.0 && ms <= limit_ms && exact[burst_n + i];
  }
  const double quality =
      low_n == 0 ? 0.0
                 : static_cast<double>(good) / static_cast<double>(low_n);
  const double capacity = static_cast<double>(burst.completed) / burst.wall_s;
  report.Attempted(total, "requests");
  report.Failed(failed);
  if (mismatches > 0) {
    report.Incorrect(Fmt("%zu served answers differ from PoolBatch + "
                         "SimilarityPanel",
                         mismatches),
                     mismatches);
  }

  report.Set("setup_s", Median(setup_s), "s");
  report.Set("peak_rss_mb", peak_rss_mb, "MB");
  report.Set("throughput_per_s", capacity, "1/s");
  report.Set("quality", quality, "ratio");

  report.Note(Fmt("serve_fresh: capacity_qps = %.2f 1/s (%zu requests in "
                  "%.3f s burst)",
                  capacity, burst.completed, burst.wall_s));
  report.Note(PercentileNote("p50_ms_low", low.sorted_ms, 0.5) +
              Fmt(" at %.0f QPS offered", low_qps));
  report.Note(PercentileNote("p50_ms_high", high.sorted_ms, 0.5) +
              Fmt(" at %.0f QPS offered", high_qps));
  report.Note(PercentileNote("p90_ms_high", high.sorted_ms, 0.9));
  report.Note(Fmt("quality = %zu of %zu low-rate answers exact and within "
                  "%.0f ms = %.6f",
                  good, low_n, limit_ms, quality));
}

}  // namespace perfbench
