// cold_match: CupidMatcher::Match on 32 synthetic 512/side pairs in
// rotation, closed loop, one caller, shipped default configuration. Half
// the pairs draw names uniformly, half Zipf-skewed. Costs differ by about
// 15% between pairs; 32 of them keep the median steady from seed to seed.
//
// Chosen because the cost sits in the linguistic, structural and mapping
// layers with no service, incremental or network layer in the way: a
// kernel or parallelism change shows here first.
//
// Untraced: every result must equal the naive reference pipeline's (perf
// caches off, one thread) bit for bit. Traced: each iteration runs the
// untraced CupidMatcher::Match and the same match composed from the layer
// functions with a span around each; the two must agree bit for bit.

#include "bench.h"
#include "mapping/mapping_generator.h"
#include "thesaurus/default_thesaurus.h"
#include "tree/tree_builder.h"
#include "util/strings.h"

namespace perfbench {
namespace {

constexpr int kPairs = 32;
constexpr int kElements = 512;
constexpr int kSetupRepetitions = 15;

struct LayerTimes {
  double linguistic = 0, trees = 0, treematch = 0, recompute = 0,
         mapping = 0;
  double Sum() const {
    return linguistic + trees + treematch + recompute + mapping;
  }
};

/// CupidMatcher::Match composed from the public layer functions, each call
/// wrapped in a benchmark span.
cupid::Result<cupid::MatchResult> ComposedMatch(
    const cupid::Thesaurus* thesaurus, const cupid::CupidConfig& config,
    const cupid::Schema& source, const cupid::Schema& target, SpanLog* log,
    int64_t parent, int64_t request, LayerTimes* times) {
  int64_t span = log->Open("linguistic.match", parent, request);
  cupid::LinguisticMatcher linguistic(thesaurus, config.linguistic);
  auto lres = linguistic.Match(source, target);
  times->linguistic = log->Close(span);
  if (!lres.ok()) return lres.status();

  span = log->Open("tree.build", parent, request);
  auto source_tree = cupid::BuildSchemaTree(source, config.tree_build);
  auto target_tree = cupid::BuildSchemaTree(target, config.tree_build);
  times->trees = log->Close(span);
  if (!source_tree.ok()) return source_tree.status();
  if (!target_tree.ok()) return target_tree.status();

  span = log->Open("structural.treematch", parent, request);
  auto tmres = cupid::TreeMatch(*source_tree, *target_tree, lres->lsim,
                                config.type_compatibility, config.tree_match);
  times->treematch = log->Close(span);
  if (!tmres.ok()) return tmres.status();

  span = log->Open("structural.recompute", parent, request);
  cupid::Status st = cupid::RecomputeNonLeafSimilarities(
      *source_tree, *target_tree, config.tree_match, &*tmres);
  times->recompute = log->Close(span);
  if (!st.ok()) return st;

  span = log->Open("mapping.generate", parent, request);
  cupid::Mapping leaf, nonleaf;
  st = cupid::GenerateStandardMappings(*source_tree, *target_tree, *tmres,
                                       config, &leaf, &nonleaf);
  times->mapping = log->Close(span);
  if (!st.ok()) return st;

  return cupid::MatchResult{std::move(*source_tree), std::move(*target_tree),
                            std::move(*lres),        std::move(*tmres),
                            std::move(leaf),         std::move(nonleaf)};
}

}  // namespace

void RunColdMatch(const Args& args, Report* report) {
  using Pairs = std::vector<std::pair<cupid::Schema, cupid::Schema>>;
  auto setup = [&](cupid::Thesaurus* thesaurus, Pairs* pairs) {
    *thesaurus = cupid::DefaultThesaurus();
    for (int i = 0; i < kPairs; ++i) {
      cupid::SyntheticPair p =
          MakePair(kElements, /*zipf=*/i % 2 == 1, StreamSeed(args.seed, i));
      pairs->emplace_back(ThroughImporter(p.source),
                          ThroughImporter(p.target));
    }
  };
  // Later repetitions build a copy between operations.
  cupid::Thesaurus spare;
  Pairs spare_pairs;
  auto throwaway_setup = [&] { setup(&spare, &spare_pairs); };
  auto drop_spare = [&] { spare_pairs.clear(); };
  cupid::Thesaurus thesaurus;
  Pairs pairs;
  SetupSampler setups(args.trace ? 1 : kSetupRepetitions, args.seconds);
  setups.Time([&] { setup(&thesaurus, &pairs); });

  int64_t source_elements = 0, target_elements = 0;
  for (const auto& [s, t] : pairs) {
    source_elements += s.num_elements();
    target_elements += t.num_elements();
  }
  report->notes.push_back(cupid::StringFormat(
      "{\"inputs\":{\"workload\":\"cold_match\",\"pairs\":%d,"
      "\"elements_per_side\":%d,\"mean_source_elements\":%.1f,"
      "\"mean_target_elements\":%.1f,\"zipf_share\":0.5,"
      "\"zipf_exponent\":1.1,\"loop\":\"closed, 1 caller\"}}",
      kPairs, kElements, static_cast<double>(source_elements) / kPairs,
      static_cast<double>(target_elements) / kPairs));

  const cupid::CupidConfig config;  // shipped default
  cupid::CupidMatcher matcher(&thesaurus, config);
  // (pair, digest) of every result; compared with the reference after the
  // timed phase, so the reference work stays out of the measured memory.
  std::vector<std::pair<int, uint64_t>> digests;
  auto check = [&](const cupid::Result<cupid::MatchResult>& r, int p) {
    ++report->attempted;
    if (r.ok()) {
      digests.emplace_back(p, ResultDigest(*r));
    } else {
      report->Fail("match failed: " + r.status().ToString());
    }
  };
  for (int p = 0; p < kPairs; ++p) {  // warm-up, not timed
    check(matcher.Match(pairs[p].first, pairs[p].second), p);
  }

  Samples untraced;
  HostReference host;
  SpanLog log;
  ProgramSpans program;
  Samples traced, linguistic, trees, treematch, recompute, mapping,
      unattributed;
  Samples comparisons, prune, link_tests, scale_ops, pairs_compared;
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int64_t i = 0; Clock::now() < end; ++i) {
    setups.TimeIfDue(throwaway_setup, drop_spare);
    const int p = static_cast<int>(i % kPairs);
    const cupid::Schema& s = pairs[static_cast<size_t>(p)].first;
    const cupid::Schema& t = pairs[static_cast<size_t>(p)].second;
    if (!args.trace) {
      Clock::time_point t0 = Clock::now();
      auto r = matcher.Match(s, t);
      untraced.Add(MsBetween(t0, Clock::now()));
      check(r, p);
      host.TimeIfDue();
      continue;
    }
    // Traced run: untraced and traced matches of the same pair, in
    // alternating order so neither always runs on warmer caches.
    double plain_ms = 0;
    cupid::Result<cupid::MatchResult> plain = cupid::Status::Internal("");
    auto run_plain = [&] {
      Clock::time_point t0 = Clock::now();
      plain = matcher.Match(s, t);
      plain_ms = MsBetween(t0, Clock::now());
    };
    LayerTimes times;
    cupid::Result<cupid::MatchResult> composed = cupid::Status::Internal("");
    double composed_ms = 0;
    auto run_traced = [&] {
      ScopedSink sink(&program);
      int64_t root = log.Open("cold_match.op", -1, i);
      composed = ComposedMatch(&thesaurus, config, s, t, &log, root, i, &times);
      composed_ms = log.Close(root);
      program.Take(i, root);
    };
    if (i % 2 == 0) {
      run_plain();
      run_traced();
    } else {
      run_traced();
      run_plain();
    }
    check(plain, p);
    check(composed, p);
    if (plain.ok() && composed.ok()) {
      std::string diff = CompareResults(*composed, *plain);
      if (!diff.empty()) report->Fail("layer composition: " + diff);
      const cupid::TreeMatchStats& stats = composed->tree_match.stats;
      comparisons.Add(static_cast<double>(composed->linguistic.comparisons));
      prune.Add(1.0 - static_cast<double>(composed->linguistic.comparisons) /
                          static_cast<double>(s.num_elements() *
                                              t.num_elements()));
      link_tests.Add(static_cast<double>(stats.link_tests));
      scale_ops.Add(static_cast<double>(stats.scale_ops));
      pairs_compared.Add(static_cast<double>(stats.pairs_compared));
    }
    untraced.Add(plain_ms);
    traced.Add(composed_ms);
    linguistic.Add(times.linguistic);
    trees.Add(times.trees);
    treematch.Add(times.treematch);
    recompute.Add(times.recompute);
    mapping.Add(times.mapping);
    unattributed.Add(plain_ms - times.Sum());
  }
  setups.TimeRemaining(throwaway_setup, drop_spare);
  const double rss_mb = SelfPeakRssMb();

  // Reference digests from the naive pipeline, the repository's oracle.
  cupid::CupidConfig naive;
  naive.linguistic.use_perf_cache = false;
  naive.SetNumThreads(1);
  std::vector<uint64_t> reference(pairs.size());
  ParallelFor(pairs.size(), [&](size_t p) {
    auto r = cupid::CupidMatcher(&thesaurus, naive)
                 .Match(pairs[p].first, pairs[p].second);
    reference[p] = r.ok() ? ResultDigest(*r) : 0;
  });
  for (const auto& [p, digest] : digests) {
    if (digest != reference[static_cast<size_t>(p)]) {
      report->Fail(cupid::StringFormat("pair %d differs from the naive "
                                       "reference", p));
    }
  }

  if (!args.trace) {
    report->Set("setup_s", setups.MedianSeconds());
    report->Set("peak_rss_mb", rss_mb);
    ReportLatency(untraced, Tail{0.95, "p95"}, host, report);
    return;
  }
  report->Set("linguistic.match_ms", linguistic.Median());
  report->Set("linguistic.comparisons", comparisons.Mean());
  report->Set("linguistic.prune_frac", prune.Mean());
  report->Set("tree.build_ms", trees.Median());
  report->Set("structural.treematch_ms", treematch.Median());
  report->Set("structural.recompute_ms", recompute.Median());
  report->Set("structural.link_tests", link_tests.Mean());
  report->Set("structural.scale_ops", scale_ops.Mean());
  report->Set("structural.pairs_compared", pairs_compared.Mean());
  report->Set("mapping.generate_ms", mapping.Median());
  report->Set("core.unattributed_ms", unattributed.Median());
  report->Set("obs.trace_overhead_frac",
              traced.Median() / untraced.Median() - 1.0);
  WriteSpans(args.out_dir + "/spans-cold_match.jsonl", log, program);
}

}  // namespace perfbench
