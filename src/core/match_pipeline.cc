#include "core/match_pipeline.h"

#include <algorithm>
#include <chrono>
#include <optional>
#include <tuple>
#include <utility>

#include "incremental/tree_match_delta.h"
#include "linguistic/lsim_cache.h"
#include "mapping/mapping_generator.h"
#include "obs/trace.h"
#include "tree/tree_builder.h"

namespace cupid {

double MatchResult::WsimByPath(const std::string& source_path,
                               const std::string& target_path) const {
  TreeNodeId s = source_tree.FindNodeByPath(source_path);
  TreeNodeId t = target_tree.FindNodeByPath(target_path);
  if (s == kNoTreeNode || t == kNoTreeNode) return 0.0;
  return tree_match.sims.wsim(s, t);
}

std::string MatchResult::BestTargetFor(const std::string& source_path) const {
  TreeNodeId s = source_tree.FindNodeByPath(source_path);
  if (s == kNoTreeNode) return "";
  // Same ranking as mapping generation: wsim, then parent-pair wsim
  // (context), then lsim — ties at the similarity cap are broken by context.
  auto key = [&](TreeNodeId t) {
    TreeNodeId ps = source_tree.node(s).parent;
    TreeNodeId pt = target_tree.node(t).parent;
    double parent_wsim = (ps == kNoTreeNode || pt == kNoTreeNode)
                             ? 0.0
                             : tree_match.sims.wsim(ps, pt);
    return std::tuple<double, double, double>(tree_match.sims.wsim(s, t),
                                              parent_wsim,
                                              tree_match.sims.lsim(s, t));
  };
  TreeNodeId best = kNoTreeNode;
  for (TreeNodeId t = 0; t < target_tree.num_nodes(); ++t) {
    if (best == kNoTreeNode || key(t) > key(best)) best = t;
  }
  return best == kNoTreeNode ? "" : target_tree.PathName(best);
}

Status GenerateStandardMappings(const SchemaTree& source,
                                const SchemaTree& target,
                                const TreeMatchResult& tmres,
                                const CupidConfig& config, Mapping* leaf,
                                Mapping* nonleaf) {
  MappingGeneratorOptions leaf_opts = config.mapping;
  leaf_opts.scope = MappingScope::kLeaves;
  CUPID_ASSIGN_OR_RETURN(*leaf,
                         GenerateMapping(source, target, tmres, leaf_opts));

  MappingGeneratorOptions nonleaf_opts = config.mapping;
  nonleaf_opts.scope = MappingScope::kNonLeaves;
  nonleaf_opts.cardinality = MappingCardinality::kOneToMany;
  CUPID_ASSIGN_OR_RETURN(
      *nonleaf, GenerateMapping(source, target, tmres, nonleaf_opts));
  return Status::OK();
}

namespace {

bool HasJoinViews(const SchemaTree& tree) {
  for (TreeNodeId n = 0; n < tree.num_nodes(); ++n) {
    if (tree.node(n).is_join_view) return true;
  }
  return false;
}

/// lsim from the requested source.
Result<LinguisticResult> FetchLsim(const LinguisticMatcher& linguistic,
                                   const Schema& source, const Schema& target,
                                   const MatchInputs& in) {
  switch (in.lsim) {
    case LsimSource::kFresh:
      return linguistic.Match(source, target);
    case LsimSource::kCache:
      return linguistic.Match(source, target, in.cache);
    case LsimSource::kGather: {
      const MatchResult& prev = *in.previous;
      LsimGatherPlan plan =
          BuildLsimGatherPlan(source, target, prev.source_tree.schema(),
                              prev.target_tree.schema());
      return linguistic.MatchGather(source, target, in.cache, plan,
                                    prev.linguistic);
    }
  }
  return Status::Internal("unknown lsim source");
}

/// Stage 1: lsim from the requested source, then the initial-mapping boost.
Result<LinguisticResult> LinguisticStage(const Thesaurus* thesaurus,
                                         const CupidConfig& config,
                                         const Schema& source,
                                         const Schema& target,
                                         const MatchInputs& in) {
  LinguisticMatcher linguistic(thesaurus, config.linguistic);
  CUPID_ASSIGN_OR_RETURN(LinguisticResult lres,
                         FetchLsim(linguistic, source, target, in));
  if (in.hints == nullptr) return lres;
  for (const InitialMappingEntry& hint : *in.hints) {
    ElementId es = source.FindByPath(hint.source_path);
    ElementId et = target.FindByPath(hint.target_path);
    if (es == kNoElement) {
      return Status::NotFound("initial mapping path not in source schema: " +
                              hint.source_path);
    }
    if (et == kNoElement) {
      return Status::NotFound("initial mapping path not in target schema: " +
                              hint.target_path);
    }
    lres.lsim(es, et) = std::max<float>(
        lres.lsim(es, et), static_cast<float>(config.initial_mapping_boost));
  }
  return lres;
}

/// Stage 2, one side: the previous run's tree when the side's Schema object
/// is the one that run matched (an unedited side), else a fresh build.
Result<SchemaTree> TreeStage(const Schema& schema, const SchemaTree* prev,
                             const CupidConfig& config) {
  if (prev != nullptr && &prev->schema() == &schema) return *prev;
  return BuildSchemaTree(schema, config.tree_build);
}

Status ValidateInputs(const MatchInputs& in) {
  if (in.lsim != LsimSource::kFresh && in.cache == nullptr) {
    return Status::InvalidArgument("this lsim source needs an LsimCache");
  }
  const bool needs_previous = in.lsim == LsimSource::kGather ||
                              in.structural == StructuralMode::kDelta;
  if (needs_previous && in.previous == nullptr) {
    return Status::InvalidArgument(
        "gather and delta runs need the previous run");
  }
  if (in.lsim == LsimSource::kGather && in.hints != nullptr &&
      !in.hints->empty()) {
    return Status::InvalidArgument(
        "initial-mapping hints cannot be combined with the lsim gather");
  }
  return Status::OK();
}

}  // namespace

Status RunMatchPipeline(const Thesaurus* thesaurus, const CupidConfig& config,
                        const Schema& source, const Schema& target,
                        const MatchInputs& in, const char* span_name,
                        const std::function<void(MatchRun)>& commit) {
  using Clock = std::chrono::steady_clock;
  obs::ScopedSpan span(span_name);
  const Clock::time_point t0 = Clock::now();
  CUPID_RETURN_NOT_OK(config.Validate());
  CUPID_RETURN_NOT_OK(ValidateInputs(in));
  const MatchResult* prev = in.previous;

  CUPID_ASSIGN_OR_RETURN(
      LinguisticResult lres,
      LinguisticStage(thesaurus, config, source, target, in));
  const Clock::time_point t1 = Clock::now();

  CUPID_ASSIGN_OR_RETURN(
      SchemaTree source_tree,
      TreeStage(source, prev ? &prev->source_tree : nullptr, config));
  CUPID_ASSIGN_OR_RETURN(
      SchemaTree target_tree,
      TreeStage(target, prev ? &prev->target_tree : nullptr, config));
  const bool warm = in.structural == StructuralMode::kDelta &&
                    SupportsIncrementalTreeMatch(config.tree_match) &&
                    !HasJoinViews(source_tree) &&
                    !HasJoinViews(target_tree) &&
                    !HasJoinViews(prev->source_tree) &&
                    !HasJoinViews(prev->target_tree);
  const Clock::time_point t2 = Clock::now();

  std::optional<TreeMatchDelta> delta;
  if (warm) {
    delta.emplace(
        BuildTreeMatchDelta(source_tree, target_tree, lres.lsim, *prev));
  }
  const Clock::time_point t3 = Clock::now();

  TreeMatchResult tmres;
  if (warm) {
    CUPID_ASSIGN_OR_RETURN(
        tmres, TreeMatchIncremental(source_tree, target_tree, lres.lsim,
                                    config.type_compatibility,
                                    config.tree_match, &*delta));
  } else {
    CUPID_ASSIGN_OR_RETURN(
        tmres, TreeMatch(source_tree, target_tree, lres.lsim,
                         config.type_compatibility, config.tree_match));
  }
  const Clock::time_point t4 = Clock::now();

  if (warm) {
    CUPID_RETURN_NOT_OK(RecomputeNonLeafSimilaritiesIncremental(
        source_tree, target_tree, config.tree_match, &*delta, &tmres));
  } else {
    CUPID_RETURN_NOT_OK(RecomputeNonLeafSimilarities(
        source_tree, target_tree, config.tree_match, &tmres));
  }
  const Clock::time_point t5 = Clock::now();

  Mapping leaf_mapping, nonleaf_mapping;
  CUPID_RETURN_NOT_OK(GenerateStandardMappings(source_tree, target_tree,
                                               tmres, config, &leaf_mapping,
                                               &nonleaf_mapping));
  const int64_t gathered_rows = lres.gathered_rows;
  MatchRun run{MatchResult{std::move(source_tree), std::move(target_tree),
                           std::move(lres), std::move(tmres),
                           std::move(leaf_mapping), std::move(nonleaf_mapping)},
               warm};
  const Clock::time_point t6 = Clock::now();

  commit(std::move(run));
  if (span.enabled()) {
    const Clock::time_point t7 = Clock::now();
    auto ms = [](Clock::time_point a, Clock::time_point b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    span.Attr("linguistic_ms", ms(t0, t1));
    span.Attr("trees_ms", ms(t1, t2));
    span.Attr("delta_ms", ms(t2, t3));
    span.Attr("sweep_ms", ms(t3, t4));
    span.Attr("recompute_ms", ms(t4, t5));
    span.Attr("mapping_ms", ms(t5, t6));
    span.Attr("commit_ms", ms(t6, t7));
    span.Attr("warm", warm ? 1 : 0);
    span.Attr("gathered_rows", gathered_rows);
  }
  return Status::OK();
}

}  // namespace cupid
