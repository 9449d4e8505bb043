// The Cupid match pipeline: the three phases of the paper as one staged
// path that every caller runs — CupidMatcher::Match (cold), MatchSession's
// rematch (cold first, then warm) and corpus search's candidate match.
//
//   1. linguistic  (Section 5)        element lsim, from one of three sources
//   2. trees                          schema trees (Section 8's expansion)
//   3. delta                          warm-start input (warm runs only)
//   4. sweep       (Sections 6, 8)    TreeMatch, cold or warm-started
//   5. recompute   (Section 7)        non-leaf similarities from final leaves
//   6. mapping     (Section 7)        leaf and non-leaf mappings
//   7. commit                         the caller takes the result
//
// Every run emits one span, named by the caller, with the same stage keys
// (linguistic_ms ... commit_ms) whether it ran cold or warm; the stages
// partition the span, so they sum to its duration (docs/OBSERVABILITY.md).
// Results are a function of the schemas, the configuration and the hints
// alone: every lsim source and both structural modes are bit-identical.

#ifndef CUPID_CORE_MATCH_PIPELINE_H_
#define CUPID_CORE_MATCH_PIPELINE_H_

#include <functional>
#include <string>

#include "core/config.h"
#include "linguistic/linguistic_matcher.h"
#include "mapping/mapping.h"
#include "structural/tree_match.h"
#include "thesaurus/thesaurus.h"
#include "tree/schema_tree.h"

namespace cupid {

class LsimCache;

/// Everything a match run produces. The contained trees reference the input
/// schemas; keep the schemas alive while using the result.
struct MatchResult {
  SchemaTree source_tree;
  SchemaTree target_tree;
  /// Phase-1 output (normalized names, categories, element lsim).
  LinguisticResult linguistic;
  /// Phase-2 similarities after the Section 7 recompute pass.
  TreeMatchResult tree_match;
  /// Leaf-level mapping, generated with the configured cardinality.
  Mapping leaf_mapping;
  /// Non-leaf mapping (naive 1:n over recomputed non-leaf similarities).
  Mapping nonleaf_mapping;

  /// \brief wsim of the node pair addressed by dotted context paths;
  /// 0 when either path does not resolve.
  double WsimByPath(const std::string& source_path,
                    const std::string& target_path) const;

  /// \brief Best-wsim target path for a source path (diagnostics).
  std::string BestTargetFor(const std::string& source_path) const;
};

/// \brief Phase-3 mapping generation: the leaf mapping with the configured
/// cardinality plus the naive 1:n non-leaf mapping. `tmres` must already
/// have been through the Section 7 recompute pass.
Status GenerateStandardMappings(const SchemaTree& source,
                                const SchemaTree& target,
                                const TreeMatchResult& tmres,
                                const CupidConfig& config, Mapping* leaf,
                                Mapping* nonleaf);

/// Where the linguistic stage gets lsim from (linguistic_matcher.h).
enum class LsimSource {
  /// LinguisticMatcher::Match(s1, s2): run-local name state with the
  /// parallel per-block memo fill, or the naive reference path when
  /// use_perf_cache is off.
  kFresh,
  /// Match(s1, s2, cache): name-level work served from a persistent cache.
  kCache,
  /// MatchGather: rows of unchanged elements gathered from the previous
  /// run, changed rows/columns recomputed through the cache.
  kGather,
};

/// How the structural stages run.
enum class StructuralMode {
  /// TreeMatch and the Section 7 recompute from scratch.
  kCold,
  /// Warm-started from the previous run through a TreeMatchDelta. Falls
  /// back to kCold outside the warm-start subset of the configuration
  /// (SupportsIncrementalTreeMatch) or when a tree has join views.
  kDelta,
};

/// Inputs of one pipeline run besides the schema pair and configuration.
struct MatchInputs {
  LsimSource lsim = LsimSource::kFresh;
  /// Required by every source but kFresh.
  LsimCache* cache = nullptr;
  /// Section 8.4 initial mapping: the lsim of each hinted element pair is
  /// raised to config.initial_mapping_boost before structural matching.
  /// Unresolvable paths are an error. Not combinable with kGather, which
  /// copies the previous run's (possibly boosted) lsim rows.
  const InitialMapping* hints = nullptr;
  StructuralMode structural = StructuralMode::kCold;
  /// The previous run over this pair, required by kGather and kDelta, and
  /// the whole of their warm-start input: its trees, element lsim, final
  /// similarities and counts, and its sweep's feedback events. Its schemas
  /// must still be alive; a side whose Schema object is the one the
  /// previous run matched reuses that run's tree instead of rebuilding.
  const MatchResult* previous = nullptr;
};

/// What a run hands to the commit stage.
struct MatchRun {
  MatchResult result;
  /// The structural stages ran warm (kDelta did not fall back).
  bool warm = false;
};

/// \brief Matches `source` against `target` through the seven stages and
/// hands the run to `commit`, the last timed stage. `span_name` (a string
/// literal) names the run's span. Returns the first failing stage's status;
/// `commit` then never runs.
Status RunMatchPipeline(const Thesaurus* thesaurus, const CupidConfig& config,
                        const Schema& source, const Schema& target,
                        const MatchInputs& inputs, const char* span_name,
                        const std::function<void(MatchRun)>& commit);

}  // namespace cupid

#endif  // CUPID_CORE_MATCH_PIPELINE_H_
