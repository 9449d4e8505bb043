// CorpusSearchService — ranked one-vs-N schema search over a repository.
//
// The corpus-scale scenario of Section 8.4: a repository stores hundreds of
// schemas and the serving question is "which of them best matches this
// one?". Running the full three-phase matcher against every stored schema
// is the naive answer; this service layers two optimizations on top of it,
// each preserving bit-identical results:
//
//   1. a cheap linguistic pre-screen — distinct-token cosine overlap,
//      computed without touching the matcher — prunes the candidate set to
//      top-k' before any full TreeMatch runs (an exhaustive knob disables
//      it when recall must be perfect);
//   2. the surviving candidates shard over a JobScheduler; results land in
//      per-candidate slots, so ranking is deterministic and bit-identical
//      to a serial per-pair loop at any thread count.
//
// Each candidate runs the same pipeline as CupidMatcher::Match (fresh lsim,
// no cache). Sharded candidates run single-threaded — the scheduler's
// workers already supply the parallelism; without a scheduler the request's
// own thread count applies.
//
// tests/corpus_search_test.cc pins the equality: ranked hits (order and
// scores) match an exhaustive per-pair CupidMatcher sweep across thread
// counts.

#ifndef CUPID_SERVICE_CORPUS_SEARCH_H_
#define CUPID_SERVICE_CORPUS_SEARCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.h"
#include "core/cupid_matcher.h"
#include "service/job_scheduler.h"
#include "service/schema_repository.h"
#include "thesaurus/thesaurus.h"
#include "util/status.h"

namespace cupid {

/// One ranked search against the repository's stored schemas.
struct SearchRequest {
  std::string source;      ///< repository name of the probe schema
  int source_version = 0;  ///< 0 = latest
  /// Ranked hits to return (every candidate is still scored or pruned).
  int top_k = 10;
  CupidConfig config;
  /// Pre-screen candidates by linguistic token overlap and run the full
  /// matcher only on the survivors. Pruning trades recall for latency; the
  /// kept fraction below bounds the loss.
  bool prune = true;
  /// Fraction of the candidate set kept past the pre-screen (ceil(f * N)).
  double prune_fraction = 0.25;
  /// Floor on kept candidates, so small corpora are never over-pruned; the
  /// effective keep count is max(top_k, prune_min_keep, ceil(f * N)).
  int prune_min_keep = 16;
  /// Full TreeMatch on every candidate regardless of `prune` (the perfect-
  /// recall fallback; pre-screen scores are still reported on hits).
  bool exhaustive = false;

  /// InvalidArgument on out-of-domain knobs (top_k <= 0, prune fraction
  /// outside [0,1], negative prune_min_keep, empty source) and on an
  /// invalid embedded config.
  Status Validate() const;
};

/// One scored candidate of a search.
struct SearchHit {
  std::string target;      ///< repository name of the candidate
  int target_version = 0;  ///< version that was matched
  /// Ranking score of the full match: leaf-mapping wsim mass normalized by
  /// the larger leaf count (see CorpusRankingScore).
  double score = 0.0;
  /// Linguistic pre-screen score (distinct-token cosine overlap in [0,1]).
  double prescreen = 0.0;
  /// Size of the leaf mapping the score was computed from.
  int64_t leaf_elements = 0;
};

/// Wall-clock phases of one search, milliseconds.
struct SearchTimings {
  double total_ms = 0.0;
  /// Candidate enumeration + pre-screen scoring.
  double prescreen_ms = 0.0;
  /// Every full per-candidate match (wall clock of the sharded phase, not
  /// the sum of per-candidate times).
  double match_ms = 0.0;
};

/// Everything a search returns. Value semantics, like MatchResponse.
struct SearchResponse {
  std::string source;
  int source_version = 0;
  uint64_t config_fingerprint = 0;

  /// Ranked best-first: (score desc, target asc, version asc). At most
  /// top_k entries.
  std::vector<SearchHit> hits;

  /// Stored schemas considered (everything in the repository except the
  /// probe itself).
  int64_t candidates_total = 0;
  /// Candidates dropped by the pre-screen (0 when exhaustive).
  int64_t candidates_pruned = 0;
  /// Candidates that went through the full three-phase matcher.
  int64_t full_matches = 0;

  SearchTimings timings;

  /// \brief Compact JSON object (the JSONL protocol payload). Scores use 6
  /// fixed decimals, timings 3, matching MatchResponse::ToJson.
  std::string ToJson() const;
};

/// \brief Ranking score of one full match result: total leaf-mapping wsim
/// normalized by the larger side's leaf count, in [0,1]. Symmetric in
/// intent — a small schema matching a fragment of a huge one ranks below
/// two schemas that cover each other. Public so tests and benches can rank
/// an exhaustive CupidMatcher sweep with the exact same formula.
double CorpusRankingScore(const MatchResult& result);

/// \brief Ranked one-vs-N search front door over a SchemaRepository.
class CorpusSearchService {
 public:
  /// `thesaurus` and `repository` must outlive the service. `scheduler` is
  /// optional (null = candidates run serially on the calling thread) and
  /// must also outlive the service; search shards per-candidate work
  /// through JobScheduler::SubmitTask, so one scheduler can serve match
  /// and search traffic concurrently.
  CorpusSearchService(const Thesaurus* thesaurus,
                      SchemaRepository* repository,
                      JobScheduler* scheduler = nullptr)
      : thesaurus_(thesaurus), repository_(repository), scheduler_(scheduler) {}

  CorpusSearchService(const CorpusSearchService&) = delete;
  CorpusSearchService& operator=(const CorpusSearchService&) = delete;

  /// \brief Executes one ranked search synchronously. Thread-safe; hits
  /// are deterministic and bit-identical to a serial exhaustive loop over
  /// the same candidates at any scheduler thread count.
  Result<SearchResponse> Search(const SearchRequest& request);

  SchemaRepository* repository() const { return repository_; }

 private:
  const Thesaurus* thesaurus_;
  SchemaRepository* repository_;
  JobScheduler* scheduler_;
};

}  // namespace cupid

#endif  // CUPID_SERVICE_CORPUS_SEARCH_H_
