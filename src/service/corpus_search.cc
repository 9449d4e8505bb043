#include "service/corpus_search.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "core/match_pipeline.h"
#include "linguistic/normalizer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/json.h"
#include "util/strings.h"

namespace cupid {

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Distinct informative token texts of every element name: the pre-screen's
/// bag. kCommon tokens are excluded (they are down-weighted to near zero in
/// real name similarity, so letting them create overlap would only blur the
/// screen). Built from the normalizer directly, without running the matcher.
std::unordered_set<std::string> DistinctTokens(const Schema& schema,
                                               const NameNormalizer& norm) {
  std::unordered_set<std::string> texts;
  std::unordered_set<std::string> seen_names;
  for (ElementId id : schema.AllElements()) {
    const std::string& raw = schema.element(id).name;
    if (!seen_names.insert(raw).second) continue;  // names repeat heavily
    NormalizedName name = norm.Normalize(raw);
    for (const Token& t : name.tokens) {
      if (t.type == TokenType::kCommon) continue;
      texts.insert(t.text);
    }
  }
  return texts;
}

/// Cosine overlap of two distinct-token sets: |A∩B| / sqrt(|A|·|B|).
/// Set-membership counting, so iteration order of the hash sets cannot
/// affect the value.
double TokenCosine(const std::unordered_set<std::string>& a,
                   const std::unordered_set<std::string>& b) {
  if (a.empty() || b.empty()) return 0.0;
  const auto& small = a.size() <= b.size() ? a : b;
  const auto& large = a.size() <= b.size() ? b : a;
  size_t common = 0;
  for (const std::string& t : small) {
    if (large.count(t) != 0) ++common;
  }
  return static_cast<double>(common) /
         std::sqrt(static_cast<double>(a.size()) *
                   static_cast<double>(b.size()));
}

/// Score of one full match, plus the hit diagnostics.
struct CandidateScore {
  double score = 0.0;
  int64_t leaf_elements = 0;
};

/// Full match of (source, target) through the match pipeline, exactly as
/// CupidMatcher::Match runs it (fresh lsim, cold structural stages).
Result<CandidateScore> ScoreCandidate(const Thesaurus* thesaurus,
                                      const CupidConfig& config,
                                      const Schema& source,
                                      const Schema& target) {
  CandidateScore out;
  CUPID_RETURN_NOT_OK(RunMatchPipeline(
      thesaurus, config, source, target, MatchInputs(), "corpus.candidate",
      [&](MatchRun run) {
        out.score = CorpusRankingScore(run.result);
        out.leaf_elements =
            static_cast<int64_t>(run.result.leaf_mapping.size());
      }));
  return out;
}

}  // namespace

double CorpusRankingScore(const MatchResult& result) {
  double total = 0.0;
  for (const MappingElement& e : result.leaf_mapping.elements) {
    total += e.wsim;
  }
  const int64_t source_leaves = static_cast<int64_t>(
      result.source_tree.leaves(result.source_tree.root()).size());
  const int64_t target_leaves = static_cast<int64_t>(
      result.target_tree.leaves(result.target_tree.root()).size());
  const int64_t denom =
      std::max<int64_t>({source_leaves, target_leaves, int64_t{1}});
  return total / static_cast<double>(denom);
}

Status SearchRequest::Validate() const {
  if (source.empty()) {
    return Status::InvalidArgument("search source name must not be empty");
  }
  if (top_k <= 0) {
    return Status::InvalidArgument("top_k must be > 0");
  }
  if (prune_fraction < 0.0 || prune_fraction > 1.0) {
    return Status::InvalidArgument("prune_fraction must be within [0,1]");
  }
  if (prune_min_keep < 0) {
    return Status::InvalidArgument("prune_min_keep must be >= 0");
  }
  return config.Validate();
}

std::string SearchResponse::ToJson() const {
  JsonWriter w;
  w.BeginObject();
  w.Key("source");
  w.String(source);
  w.Key("source_version");
  w.Int(source_version);
  w.Key("config_fingerprint");
  w.String(StringFormat("%016llx",
                        static_cast<unsigned long long>(config_fingerprint)));
  w.Key("candidates_total");
  w.Int(candidates_total);
  w.Key("candidates_pruned");
  w.Int(candidates_pruned);
  w.Key("full_matches");
  w.Int(full_matches);
  w.Key("timings");
  w.BeginObject();
  w.Key("total_ms");
  w.FixedDouble(timings.total_ms, 3);
  w.Key("prescreen_ms");
  w.FixedDouble(timings.prescreen_ms, 3);
  w.Key("match_ms");
  w.FixedDouble(timings.match_ms, 3);
  w.EndObject();
  w.Key("hits");
  w.BeginArray();
  for (const SearchHit& hit : hits) {
    w.BeginObject();
    w.Key("target");
    w.String(hit.target);
    w.Key("target_version");
    w.Int(hit.target_version);
    w.Key("score");
    w.FixedDouble(hit.score, 6);
    w.Key("prescreen");
    w.FixedDouble(hit.prescreen, 6);
    w.Key("leaf_elements");
    w.Int(hit.leaf_elements);
    w.EndObject();
  }
  w.EndArray();
  w.EndObject();
  return std::move(w).str();
}

Result<SearchResponse> CorpusSearchService::Search(
    const SearchRequest& request) {
  obs::TraceContext trace_ctx("search");
  obs::ScopedTraceContext scoped_ctx(&trace_ctx);
  obs::ScopedSpan span("corpus.search");

  Clock::time_point t_start = Clock::now();
  CUPID_RETURN_NOT_OK(request.Validate());

  CUPID_ASSIGN_OR_RETURN(
      SchemaRepository::SchemaSnapshot source,
      repository_->Resolve(request.source, request.source_version));

  SearchResponse response;
  response.source = request.source;
  response.source_version = source.version;
  response.config_fingerprint = ConfigFingerprint(request.config);

  // Candidates: every stored schema except the probe itself, at its latest
  // version, in name order (Names() is sorted — the deterministic spine
  // every later ordering decision hangs off).
  struct Candidate {
    std::string name;
    SchemaRepository::SchemaSnapshot snapshot;
    double prescreen = 0.0;
  };
  std::vector<Candidate> candidates;
  for (const std::string& name : repository_->Names()) {
    if (name == request.source) continue;
    CUPID_ASSIGN_OR_RETURN(SchemaRepository::SchemaSnapshot snapshot,
                           repository_->Resolve(name));
    candidates.push_back(Candidate{name, std::move(snapshot), 0.0});
  }
  response.candidates_total = static_cast<int64_t>(candidates.size());

  // Pre-screen every candidate (scores are reported on hits even when the
  // screen does not prune).
  Clock::time_point t_prescreen = Clock::now();
  NameNormalizer normalizer(thesaurus_);
  std::unordered_set<std::string> source_tokens =
      DistinctTokens(*source.schema, normalizer);
  for (Candidate& c : candidates) {
    c.prescreen =
        TokenCosine(source_tokens, DistinctTokens(*c.snapshot.schema,
                                                  normalizer));
  }
  response.timings.prescreen_ms = MsSince(t_prescreen);

  // Survivors of the screen, in (prescreen desc, name asc) order. The kept
  // indices are then restored to name order so the execution schedule is
  // independent of pre-screen scores.
  std::vector<size_t> kept(candidates.size());
  for (size_t i = 0; i < kept.size(); ++i) kept[i] = i;
  const bool prune = request.prune && !request.exhaustive;
  if (prune && !candidates.empty()) {
    const auto n = static_cast<double>(candidates.size());
    size_t keep = static_cast<size_t>(
        std::ceil(request.prune_fraction * n));
    keep = std::max<size_t>(keep, static_cast<size_t>(request.top_k));
    keep = std::max<size_t>(keep,
                            static_cast<size_t>(request.prune_min_keep));
    keep = std::min(keep, candidates.size());
    std::sort(kept.begin(), kept.end(), [&](size_t a, size_t b) {
      if (candidates[a].prescreen != candidates[b].prescreen) {
        return candidates[a].prescreen > candidates[b].prescreen;
      }
      return candidates[a].name < candidates[b].name;
    });
    kept.resize(keep);
    std::sort(kept.begin(), kept.end());
  }
  response.candidates_pruned =
      response.candidates_total - static_cast<int64_t>(kept.size());
  response.full_matches = static_cast<int64_t>(kept.size());

  Clock::time_point t_match = Clock::now();
  // Sharded candidates run single-threaded: the scheduler's workers are the
  // parallelism, and per-candidate pools on top of them only oversubscribe
  // the host. Results are identical at any thread count.
  CupidConfig candidate_config = request.config;
  if (scheduler_ != nullptr) candidate_config.SetNumThreads(1);

  // Sharded scoring: one task per survivor, each writing its preallocated
  // slot (the job's done-handshake orders the write before our read), so
  // results assemble in candidate order no matter which worker finished
  // first. A rejected submission (queue full, shutdown) runs inline — same
  // closure, same slot, same result.
  std::vector<Result<CandidateScore>> slots(
      kept.size(), Result<CandidateScore>(Status::Internal("pending")));
  auto run_one = [&](size_t slot_index) {
    const Candidate& c = candidates[kept[slot_index]];
    slots[slot_index] = ScoreCandidate(thesaurus_, candidate_config,
                                       *source.schema, *c.snapshot.schema);
  };
  if (scheduler_ != nullptr) {
    std::vector<std::shared_ptr<MatchJob>> jobs(kept.size());
    for (size_t i = 0; i < kept.size(); ++i) {
      Result<std::shared_ptr<MatchJob>> job =
          scheduler_->SubmitTask([&run_one, i]() -> Result<MatchResponse> {
            run_one(i);
            return MatchResponse{};
          });
      if (job.ok()) {
        jobs[i] = *job;
      } else {
        run_one(i);
      }
    }
    for (const std::shared_ptr<MatchJob>& job : jobs) {
      if (job != nullptr) job->Wait();
    }
  } else {
    for (size_t i = 0; i < kept.size(); ++i) run_one(i);
  }
  response.timings.match_ms = MsSince(t_match);

  // First failure in candidate order wins (deterministic, like MatchBatch's
  // per-slot statuses).
  for (const Result<CandidateScore>& slot : slots) {
    if (!slot.ok()) return slot.status();
  }

  response.hits.reserve(kept.size());
  for (size_t i = 0; i < kept.size(); ++i) {
    const Candidate& c = candidates[kept[i]];
    SearchHit hit;
    hit.target = c.name;
    hit.target_version = c.snapshot.version;
    hit.score = slots[i]->score;
    hit.prescreen = c.prescreen;
    hit.leaf_elements = slots[i]->leaf_elements;
    response.hits.push_back(std::move(hit));
  }
  std::sort(response.hits.begin(), response.hits.end(),
            [](const SearchHit& a, const SearchHit& b) {
              if (a.score != b.score) return a.score > b.score;
              if (a.target != b.target) return a.target < b.target;
              return a.target_version < b.target_version;
            });
  if (response.hits.size() > static_cast<size_t>(request.top_k)) {
    response.hits.resize(static_cast<size_t>(request.top_k));
  }
  response.timings.total_ms = MsSince(t_start);

  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  reg->GetCounter("cupid.corpus.searches", "Corpus search requests completed")
      ->Increment();
  reg->GetCounter("cupid.corpus.candidates_pruned",
                  "Candidates dropped by the pre-screen across searches")
      ->Add(response.candidates_pruned);
  reg->GetCounter("cupid.corpus.candidates_matched",
                  "Candidates fully matched across searches")
      ->Add(response.full_matches);
  reg->GetHistogram("cupid.corpus.search_ms",
                    "End-to-end corpus search latency, ms")
      ->Observe(response.timings.total_ms);
  span.Attr("candidates_total", response.candidates_total);
  span.Attr("candidates_pruned", response.candidates_pruned);
  span.Attr("full_matches", response.full_matches);
  span.Attr("prescreen_ms", response.timings.prescreen_ms);
  span.Attr("match_ms", response.timings.match_ms);
  return response;
}

}  // namespace cupid
