// corpus_ingest: the out-of-core write and read sides of the library.
// N documents drawn from a pool of about N * distinct_share distinct ones
// are written through CorpusShardWriter, the store is reopened and
// TF-IDF streamed over every shard, each shard is encoded with the int8
// PoolBatch behind a fresh EncodeCache (the repeats become cache hits), an
// ann::Index is built through IndexBuilder, and fresh top-10 queries are
// answered against it. text, the EncodeCache, int8 la and index do the
// work; serve is idle.
//
// The pipeline repeats until --seconds have passed (at least min_reps
// times), each repetition in a fresh store directory that is removed
// afterwards; rates are medians over the repetitions.

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/env.h"
#include "index/ann.h"
#include "plm/batch_scheduler.h"
#include "plm/encode_cache.h"
#include "plm/quantized_minilm.h"
#include "support.h"
#include "text/corpus_store.h"
#include "text/tfidf.h"
#include "text/vocabulary.h"
#include "workloads.h"

namespace perfbench {
namespace {

struct Setup {
  std::vector<std::vector<int32_t>> docs;     // the N documents, in order
  std::vector<std::vector<int32_t>> queries;  // fresh, not in the pool
  stm::text::Vocabulary vocab;
  std::unique_ptr<stm::plm::MiniLm> model;
  size_t distinct = 0;
  double payload_mb = 0.0;
};

// The inputs: N documents drawn from the pool, and fresh queries.
void MakeInputs(const Options& options, Setup& setup) {
  const size_t n = options.Count("docs");
  const size_t vocab = options.Count("vocab");
  const size_t min_len = options.Count("min_len");
  const size_t max_len = options.Count("max_len");
  const size_t pool_size = std::max<size_t>(
      1, static_cast<size_t>(options.Num("distinct_share") *
                             static_cast<double>(n)));
  stm::Rng rng(options.seed);
  std::unordered_set<uint64_t> seen;
  std::vector<std::vector<int32_t>> pool;
  while (pool.size() < pool_size) {
    std::vector<int32_t> doc = UniformDoc(rng, vocab, min_len, max_len);
    if (seen.insert(HashIds(doc)).second) pool.push_back(std::move(doc));
  }
  std::unordered_set<size_t> used;
  setup.docs.reserve(n);
  size_t payload = 0;
  for (size_t i = 0; i < n; ++i) {
    const size_t pick = rng.UniformInt(pool_size);
    used.insert(pick);
    setup.docs.push_back(pool[pick]);
    payload += (pool[pick].size() + 1) * sizeof(int32_t);
  }
  setup.distinct = used.size();
  setup.payload_mb = static_cast<double>(payload) / (1024.0 * 1024.0);
  while (setup.queries.size() < options.Count("queries")) {
    std::vector<int32_t> doc = UniformDoc(rng, vocab, min_len, max_len);
    if (seen.insert(HashIds(doc)).second) {
      setup.queries.push_back(std::move(doc));
    }
  }
}

// The timed set-up: vocabulary, model, and a warm-up batch whose first
// int8 PoolBatch freezes and packs the quantized encoder.
void MakeModel(const Options& options, Setup& setup) {
  setup.vocab = stm::text::Vocabulary();
  for (size_t w = stm::text::kNumSpecialTokens; w < options.Count("vocab");
       ++w) {
    setup.vocab.AddToken("w" + std::to_string(w), 0);
  }
  setup.model = std::make_unique<stm::plm::MiniLm>(
      EncoderConfig(setup.vocab.size(), options.Count("max_len")));
  const size_t n = std::min(options.Count("warmup_docs"), setup.queries.size());
  setup.model->PoolBatch(std::vector<std::vector<int32_t>>(
      setup.queries.begin(),
      setup.queries.begin() + static_cast<std::ptrdiff_t>(n)));
}

struct Rep {
  double ingest_s = 0.0;
  double query_s = 0.0;
  std::vector<double> query_ms;
  std::vector<std::vector<stm::ann::Neighbor>> results;
  double recall = 0.0;
  size_t rows = 0;
  size_t shards = 0;
  bool lsh = false;
  stm::plm::EncodeCache::Stats cache;
};

void Check(const stm::Status& status, const char* what) {
  if (!status.ok()) {
    throw std::runtime_error(std::string(what) + ": " + status.ToString());
  }
}

Rep RunPipeline(Setup& setup, const Options& options,
                const std::string& dir) {
  stm::Env* env = stm::Env::Default();
  stm::plm::MiniLm& model = *setup.model;
  const size_t n = setup.docs.size();
  const size_t dim = model.config().dim;
  stm::plm::EncodeCache::Config cache_config;
  cache_config.max_bytes = options.Count("cache_mb") << 20;
  model.SetEncodeCache(std::make_shared<stm::plm::EncodeCache>(cache_config));

  Rep rep;
  // Raw pooled rows, kept for the exact brute-tier reference.
  stm::la::Matrix base(n, dim);
  const Clock::time_point start = Clock::now();
  {
    Span stage("stage.write");
    stm::text::CorpusShardWriter writer(env, dir);
    const int32_t label = 0;
    for (const std::vector<int32_t>& doc : setup.docs) {
      Span span("text.CorpusShardWriter.Add");
      Check(writer.Add(doc.data(), doc.size(), &label, 1), "Add");
    }
    Span span("text.CorpusShardWriter.Finish");
    Check(writer.Finish(setup.vocab, {"c0"}), "Finish");
  }
  std::unique_ptr<stm::text::ShardedCorpus> store;
  {
    Span stage("stage.tfidf");
    {
      Span span("text.ShardedCorpus.Open");
      auto opened = stm::text::ShardedCorpus::Open(env, dir);
      Check(opened.status(), "Open");
      store = std::move(opened).value();
    }
    std::unique_ptr<stm::text::TfIdf> tfidf;
    {
      Span span("text.TfIdf.TfIdf");
      tfidf = std::make_unique<stm::text::TfIdf>(*store);
    }
    size_t nnz = 0;
    for (size_t s = 0; s < store->num_shards(); ++s) {
      Span span("text.TfIdf.TransformShard");
      auto vectors = tfidf->TransformShard(*store, s);
      Check(vectors.status(), "TransformShard");
      for (const stm::text::SparseVector& v : vectors.value()) nnz += v.size();
    }
    if (nnz == 0) throw std::runtime_error("TF-IDF produced no terms");
  }
  stm::ann::Index index;
  {
    Span stage("stage.encode_build");
    stm::ann::IndexBuilder builder(dim, n);
    std::vector<std::vector<int32_t>> shard_docs;
    size_t row = 0;
    for (size_t s = 0; s < store->num_shards(); ++s) {
      shard_docs.clear();
      {
        Span span("text.ShardedCorpus.VisitShard");
        Check(store->VisitShard(s,
                                [&](size_t, const stm::text::DocView& view) {
                                  shard_docs.emplace_back(
                                      view.tokens,
                                      view.tokens + view.num_tokens);
                                }),
              "VisitShard");
      }
      stm::la::Matrix pooled;
      {
        Span span("plm.MiniLm.PoolBatch");
        pooled = model.PoolBatch(shard_docs);
      }
      std::copy(pooled.data(), pooled.data() + pooled.size(), base.Row(row));
      row += pooled.rows();
      Span span("index.IndexBuilder.Add");
      builder.Add(pooled);
    }
    Span span("index.IndexBuilder.Finish");
    index = builder.Finish();
  }
  rep.ingest_s = SecondsSince(start);
  rep.cache = model.encode_cache()->stats();
  rep.rows = index.rows();
  rep.shards = store->num_shards();
  rep.lsh = index.lsh_enabled();

  stm::la::Matrix query_rows(setup.queries.size(), dim);
  {
    Span stage("stage.query");
    const Clock::time_point query_start = Clock::now();
    for (size_t q = 0; q < setup.queries.size(); ++q) {
      const Clock::time_point t0 = Clock::now();
      stm::la::Matrix pooled;
      {
        Span span("plm.MiniLm.PoolBatch.query", q + 1);
        pooled = model.PoolBatch({setup.queries[q]});
      }
      {
        Span span("index.Index.TopK", q + 1);
        rep.results.push_back(index.TopK(pooled, 10).front());
      }
      rep.query_ms.push_back(MsBetween(t0, Clock::now()));
      std::copy(pooled.data(), pooled.data() + dim, query_rows.Row(q));
    }
    rep.query_s = SecondsSince(query_start);
  }
  {
    Span stage("stage.verify");
    const auto exact = stm::ann::TopKSimilar(query_rows, base, 10);
    size_t found = 0;
    size_t wanted = 0;
    for (size_t q = 0; q < exact.size(); ++q) {
      wanted += exact[q].size();
      for (const stm::ann::Neighbor& want : exact[q]) {
        for (const stm::ann::Neighbor& got : rep.results[q]) {
          if (got.id == want.id) {
            ++found;
            break;
          }
        }
      }
    }
    rep.recall = wanted == 0 ? 0.0
                             : static_cast<double>(found) /
                                   static_cast<double>(wanted);
  }
  model.SetEncodeCache(nullptr);
  return rep;
}

bool SameResults(const Rep& a, const Rep& b) {
  if (a.results.size() != b.results.size()) return false;
  for (size_t q = 0; q < a.results.size(); ++q) {
    if (a.results[q].size() != b.results[q].size()) return false;
    for (size_t i = 0; i < a.results[q].size(); ++i) {
      if (a.results[q][i].id != b.results[q][i].id ||
          a.results[q][i].score != b.results[q][i].score) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

void RunCorpusIngest(const Options& options, Report& report) {
  stm::plm::SetQuantInference(1);
  Setup setup;
  {
    Span span("stage.inputs");
    MakeInputs(options, setup);
  }
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < options.Count("setup_reps"); ++rep) {
    Span span("stage.setup");
    setup.model.reset();
    const Clock::time_point start = Clock::now();
    MakeModel(options, setup);
    setup_s.push_back(SecondsSince(start));
  }
  const size_t n = setup.docs.size();
  const double recall_floor = options.Num("recall_floor");

  std::vector<Rep> reps;
  std::vector<double> docs_per_s;
  std::vector<double> query_qps;
  std::vector<double> query_ms;
  const size_t min_reps = options.Count("min_reps");
  const Clock::time_point start = Clock::now();
  while (reps.size() < min_reps || SecondsSince(start) < options.seconds) {
    const std::filesystem::path dir =
        std::filesystem::path(options.workdir) /
        Fmt("ingest-%d-%zu", static_cast<int>(getpid()), reps.size());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    Rep rep = RunPipeline(setup, options, dir.string());
    std::filesystem::remove_all(dir);

    report.Attempted(n + setup.queries.size(), "documents indexed + queries");
    if (rep.rows != n) {
      report.Incorrect(Fmt("index holds %zu rows, want %zu", rep.rows, n));
    }
    if (rep.recall < recall_floor) {
      report.Incorrect(Fmt("recall@10 %.4f below the floor %.4f", rep.recall,
                           recall_floor));
    }
    if (!reps.empty() && !SameResults(reps.front(), rep)) {
      report.Incorrect("top-10 answers differ between repetitions",
                       setup.queries.size());
    }
    docs_per_s.push_back(static_cast<double>(n) / rep.ingest_s);
    query_qps.push_back(static_cast<double>(setup.queries.size()) /
                        rep.query_s);
    query_ms.insert(query_ms.end(), rep.query_ms.begin(), rep.query_ms.end());
    reps.push_back(std::move(rep));
  }
  std::sort(query_ms.begin(), query_ms.end());
  const std::optional<double> p50 = HonestPercentile(query_ms, 0.5);
  const std::optional<double> p90 = HonestPercentile(query_ms, 0.9);
  const Rep& first = reps.front();

  report.Set("setup_s", Median(setup_s), "s");
  report.Set("peak_rss_mb", PeakRssMb(), "MB");
  report.Set("throughput_per_s", Median(docs_per_s), "1/s");
  report.Set("quality", first.recall, "ratio");

  report.Note(Fmt("corpus_ingest: %zu docs (%zu distinct, %.2f MB payload), "
                  "%zu shards, %zu queries, %zu repetitions",
                  n, setup.distinct, setup.payload_mb, first.shards,
                  setup.queries.size(), reps.size()));
  report.Note(Fmt("docs_per_s = %.2f 1/s (median of %zu; write + TF-IDF + "
                  "encode + build)",
                  Median(docs_per_s), docs_per_s.size()));
  report.Note(Fmt("query_qps = %.2f 1/s (median of %zu; encode + top-10)",
                  Median(query_qps), query_qps.size()));
  report.Note(Fmt("query p50 = %.4f ms, p90 = %.4f ms (n=%zu; 0 = too few "
                  "samples beyond)",
                  p50.value_or(0.0), p90.value_or(0.0), query_ms.size()));
  report.Note(Fmt("recall_at10 = %.6f against the brute tier (lsh=%d)",
                  first.recall, first.lsh ? 1 : 0));

  if (!options.trace) return;

  ProbeGemm("int8", stm::plm::GetBatchOptions().max_bucket_tokens,
            options.Num("probe_s"), report);
  const double r = static_cast<double>(reps.size());
  const auto spans = SummarizeSpans(Tracer::Snapshot());
  const uint64_t lookups = first.cache.hits() + first.cache.misses;
  report.Set("plm.pool_batch_ms",
             1e3 * MeanSeconds(spans, "plm.MiniLm.PoolBatch"), "ms");
  // A pooled miss probes the hidden-state key too, so misses count two
  // lookups per encoded document; every encoded document is one insert.
  report.Set("plm.docs_encoded", static_cast<double>(first.cache.inserts),
             "count");
  report.Set("plm.cache_lookups", static_cast<double>(lookups), "count");
  report.Set("plm.cache_hit_ratio",
             lookups == 0 ? 0.0
                          : static_cast<double>(first.cache.hits()) /
                                static_cast<double>(lookups),
             "ratio");
  report.Set("plm.cache_evictions", static_cast<double>(first.cache.evictions),
             "count");
  report.Set("text.write_s",
             (TotalSeconds(spans, "text.CorpusShardWriter.Add") +
              TotalSeconds(spans, "text.CorpusShardWriter.Finish")) /
                 r,
             "s");
  report.Set("text.tfidf_s",
             (TotalSeconds(spans, "text.TfIdf.TfIdf") +
              TotalSeconds(spans, "text.TfIdf.TransformShard")) /
                 r,
             "s");
  report.Set("text.visit_s",
             TotalSeconds(spans, "text.ShardedCorpus.VisitShard") / r, "s");
  report.Set("text.shards", static_cast<double>(first.shards), "count");
  report.Set("text.payload_mb", setup.payload_mb, "MB");
  report.Set("index.build_s",
             (TotalSeconds(spans, "index.IndexBuilder.Add") +
              TotalSeconds(spans, "index.IndexBuilder.Finish")) /
                 r,
             "s");
  report.Set("index.query_ms_mean",
             1e3 * MeanSeconds(spans, "index.Index.TopK"), "ms");
  report.Set("index.lsh", first.lsh ? 1.0 : 0.0, "bool");
  report.Note(Fmt("cache: %zu hits of %llu lookups, %zu documents encoded, "
                  "%zu evictions",
                  first.cache.hits(),
                  static_cast<unsigned long long>(lookups),
                  first.cache.inserts, first.cache.evictions));
}

}  // namespace perfbench
