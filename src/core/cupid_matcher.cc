#include "core/cupid_matcher.h"

#include <optional>
#include <utility>

namespace cupid {

Result<MatchResult> CupidMatcher::Match(const Schema& source,
                                        const Schema& target) const {
  return Match(source, target, InitialMapping{});
}

Result<MatchResult> CupidMatcher::Match(const Schema& source,
                                        const Schema& target,
                                        const InitialMapping& hints) const {
  MatchInputs inputs;
  inputs.hints = &hints;
  std::optional<MatchResult> out;
  CUPID_RETURN_NOT_OK(RunMatchPipeline(
      thesaurus_, config_, source, target, inputs, "cupid.match",
      [&out](MatchRun run) { out.emplace(std::move(run.result)); }));
  return std::move(*out);
}

}  // namespace cupid
