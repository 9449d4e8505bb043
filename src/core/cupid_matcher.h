// CupidMatcher — the public entry point of the library.
//
// Runs the three phases of the paper end to end, cold, through the match
// pipeline (core/match_pipeline.h):
//   1. linguistic matching (Section 5)     -> element lsim table
//   2. structural TreeMatch (Sections 6,8) -> node ssim/wsim
//   3. mapping generation (Section 7)      -> leaf and non-leaf mappings
// Each call emits one "cupid.match" span with the pipeline's stage timings.
//
// Quickstart:
//
//     Thesaurus thesaurus = DefaultThesaurus();
//     CupidMatcher matcher(&thesaurus);
//     CUPID_ASSIGN_OR_RETURN(MatchResult r, matcher.Match(po, purchase_order));
//     std::cout << RenderMappingText(r.leaf_mapping);

#ifndef CUPID_CORE_CUPID_MATCHER_H_
#define CUPID_CORE_CUPID_MATCHER_H_

#include "core/config.h"
#include "core/match_pipeline.h"
#include "thesaurus/thesaurus.h"

namespace cupid {

/// \brief The Cupid generic schema matcher.
class CupidMatcher {
 public:
  /// `thesaurus` must outlive the matcher.
  explicit CupidMatcher(const Thesaurus* thesaurus, CupidConfig config = {})
      : thesaurus_(thesaurus), config_(std::move(config)) {}

  /// \brief Matches two schemas. The schemas must outlive the MatchResult.
  Result<MatchResult> Match(const Schema& source, const Schema& target) const;

  /// \brief Matches with user hints: the lsim of each hinted element pair is
  /// raised to config.initial_mapping_boost before structural matching
  /// (Section 8.4 "Initial mappings"). Unresolvable paths are an error.
  Result<MatchResult> Match(const Schema& source, const Schema& target,
                            const InitialMapping& hints) const;

  const CupidConfig& config() const { return config_; }

 private:
  const Thesaurus* thesaurus_;
  CupidConfig config_;
};

}  // namespace cupid

#endif  // CUPID_CORE_CUPID_MATCHER_H_
