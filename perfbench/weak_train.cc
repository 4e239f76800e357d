// weak_train: pre-train the encoder from random initialisation for a fixed
// number of MiniLm::Pretrain steps on an AG-News-like synthetic dataset,
// then run X-Class (core::XClass::Run) and score its predictions against
// the gold labels. Only this workload runs the autograd nn path, the
// training GEMMs (Gemm/GemmAt/GemmBt), cluster and the X-Class stages.
//
// The amount of work is fixed, not timed, because the predictions depend
// on it: pretrain_steps steps, then xclass_runs identical X-Class runs.
// Both are sized so a run takes about run_seconds.

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/xclass.h"
#include "datasets/specs.h"
#include "datasets/synthetic.h"
#include "eval/metrics.h"
#include "support.h"
#include "workloads.h"

namespace perfbench {
namespace {

// The harness encoder shape (bench/harness.h PretrainedLm) at max_seq 40.
constexpr size_t kMaxSeq = 40;
constexpr size_t kPretrainBatch = 8;

stm::datasets::SyntheticDataset MakeData(const Options& options) {
  stm::datasets::SyntheticSpec spec = stm::datasets::AgNewsSpec(options.seed);
  spec.num_docs = options.Count("num_docs");
  spec.pretrain_docs = options.Count("pretrain_docs");
  return stm::datasets::Generate(spec);
}

}  // namespace

void RunWeakTrain(const Options& options, Report& report) {
  const int steps = static_cast<int>(options.Count("pretrain_steps"));
  std::vector<double> setup_s;
  stm::datasets::SyntheticDataset data;
  std::unique_ptr<stm::plm::MiniLm> model;
  for (size_t rep = 0; rep < options.Count("setup_reps"); ++rep) {
    Span span("stage.setup");
    data = stm::datasets::SyntheticDataset{};
    model.reset();
    const Clock::time_point start = Clock::now();
    data = MakeData(options);
    model = std::make_unique<stm::plm::MiniLm>(
        EncoderConfig(data.corpus.vocab().size(), kMaxSeq));
    // Warm-up: encode the first pre-training documents. This changes no
    // weights, and Pretrain drops the frozen inference packs it builds.
    const size_t n =
        std::min(options.Count("warmup_docs"), data.pretrain_docs.size());
    model->PoolBatch(std::vector<std::vector<int32_t>>(
        data.pretrain_docs.begin(),
        data.pretrain_docs.begin() + static_cast<std::ptrdiff_t>(n)));
    setup_s.push_back(SecondsSince(start));
  }
  const std::vector<int> gold = data.corpus.GoldLabels();
  const size_t classes = data.corpus.num_labels();

  stm::plm::PretrainConfig pretrain;
  pretrain.steps = steps;
  pretrain.batch = kPretrainBatch;
  pretrain.lr = static_cast<float>(options.Num("pretrain_lr"));
  double steps_per_s = 0.0;
  double mlm_loss = 0.0;
  {
    Span stage("stage.pretrain");
    Span span("plm.MiniLm.Pretrain");
    const Clock::time_point t0 = Clock::now();
    mlm_loss = model->Pretrain(data.pretrain_docs, pretrain);
    steps_per_s = steps / SecondsSince(t0);
  }

  // X-Class runs `xclass_runs` times on the same model and config; every
  // run must predict the same labels.
  const size_t runs = options.Count("xclass_runs");
  std::vector<double> method_s;
  std::vector<int> first_pred;
  for (size_t r = 0; r < runs; ++r) {
    Span stage("stage.method");
    const Clock::time_point t0 = Clock::now();
    stm::core::XClass xclass(data.corpus, model.get(),
                             stm::core::XClassConfig{});
    std::vector<int> pred;
    {
      Span span("core.XClass.Run");
      pred = xclass.Run(data.leaf_name_tokens);
    }
    method_s.push_back(SecondsSince(t0));
    report.Attempted(pred.size(), "X-Class document predictions");
    if (r == 0) {
      first_pred = std::move(pred);
    } else if (pred != first_pred) {
      report.Incorrect("X-Class predictions differ between identical runs",
                       pred.size());
    }
  }
  const double f1 = stm::eval::MacroF1(first_pred, gold, classes);
  const double floor = options.Num("f1_floor");
  if (f1 < floor) {
    report.Incorrect(Fmt("macro_f1 %.4f below the floor %.4f", f1, floor));
  }

  report.Set("setup_s", Median(setup_s), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("throughput_per_s", steps_per_s, "1/s");
  // Quality: the cross-entropy of a uniform guess over the vocabulary
  // divided by the final MLM loss (above 1 once the encoder beats
  // guessing). Macro F1 of a briefly pre-trained encoder swings across
  // generated datasets (0.2 to 0.9 over seeds), so it is checked against
  // a floor instead.
  const double uniform_nats =
      std::log(static_cast<double>(model->config().vocab_size));
  report.Set("quality", uniform_nats / mlm_loss, "ratio");

  report.Note(Fmt("weak_train: %zu docs, %zu pre-training docs, %d steps x "
                  "batch %zu, %zu X-Class runs",
                  gold.size(), data.pretrain_docs.size(), steps,
                  kPretrainBatch, runs));
  report.Note(Fmt("pretrain_steps_per_s = %.4f 1/s; final MLM loss %.6f "
                  "nats against %.6f for a uniform guess",
                  steps_per_s, mlm_loss, uniform_nats));
  report.Note(Fmt("method_s = %.4f s (mean XClass::Run wall of %zu)",
                  Mean(method_s), method_s.size()));
  report.Note(Fmt("macro_f1 = %.6f (floor %.4f), accuracy = %.6f", f1, floor,
                  stm::eval::Accuracy(first_pred, gold)));

  if (!options.trace) return;

  ProbeGemm("train", kPretrainBatch * kMaxSeq, options.Num("probe_s"),
            report);
  const auto spans = SummarizeSpans(Tracer::Snapshot());
  report.Set("core.xclass_run_s", MeanSeconds(spans, "core.XClass.Run"), "s");
  report.Set("nn.pretrain_step_ms",
             1e3 * MeanSeconds(spans, "plm.MiniLm.Pretrain") / steps, "ms");
}

}  // namespace perfbench
