#include "linguistic/linguistic_matcher.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <unordered_map>

#include "linguistic/annotations.h"
#include "linguistic/lsim_cache.h"
#include "obs/trace.h"
#include "perf/interned_names.h"
#include "perf/token_interner.h"
#include "util/id_runs.h"
#include "util/mutex.h"
#include "util/path_map.h"
#include "util/thread_pool.h"

namespace cupid {

namespace {

std::vector<NormalizedName> NormalizeAll(const Schema& schema,
                                         const NameNormalizer& normalizer) {
  std::vector<NormalizedName> names;
  names.reserve(static_cast<size_t>(schema.num_elements()));
  for (ElementId id : schema.AllElements()) {
    names.push_back(normalizer.Normalize(schema.element(id).name));
  }
  return names;
}

/// best_scale(e1,e2) = max cat_sim(c1,c2) over compatible category pairs
/// (c1,c2) containing them; 0 when none. With categories disabled every
/// pair gets scale 1. Shared by the naive and cached paths, so a pruning
/// change cannot diverge them.
Matrix<float> ScatterBestScale(const LinguisticOptions& options,
                               const Matrix<float>& cat_sim,
                               const Categorization& categories1,
                               const Categorization& categories2,
                               int64_t rows, int64_t cols) {
  const auto& cats1 = categories1.categories;
  const auto& cats2 = categories2.categories;
  Matrix<float> best_scale(rows, cols);
  if (!options.use_categories) {
    best_scale.Fill(1.0f);
    return best_scale;
  }
  for (size_t i = 0; i < cats1.size(); ++i) {
    for (size_t j = 0; j < cats2.size(); ++j) {
      float scale = cat_sim(static_cast<int64_t>(i), static_cast<int64_t>(j));
      if (scale <= options.thns) continue;  // incompatible categories
      for (ElementId e1 : cats1[i].members) {
        for (ElementId e2 : cats2[j].members) {
          float& cell = best_scale(e1, e2);
          cell = std::max(cell, scale);
        }
      }
    }
  }
  return best_scale;
}

Matrix<float> ComputeBestScale(const LinguisticOptions& options,
                               const Thesaurus& thesaurus,
                               const Categorization& categories1,
                               const Categorization& categories2,
                               int64_t rows, int64_t cols) {
  const auto& cats1 = categories1.categories;
  const auto& cats2 = categories2.categories;

  // Pairwise category compatibility; scale = ns of the category keywords.
  Matrix<float> cat_sim(static_cast<int64_t>(cats1.size()),
                        static_cast<int64_t>(cats2.size()));
  for (size_t i = 0; i < cats1.size(); ++i) {
    for (size_t j = 0; j < cats2.size(); ++j) {
      cat_sim(static_cast<int64_t>(i), static_cast<int64_t>(j)) =
          static_cast<float>(CategorySimilarity(cats1[i], cats2[j], thesaurus,
                                                options.substring));
    }
  }
  return ScatterBestScale(options, cat_sim, categories1, categories2, rows,
                          cols);
}

/// Interned keyword ids of every category: the token half of category
/// similarity, routed through the interner + memo.
std::vector<std::vector<TokenId>> InternKeywords(
    const std::vector<Category>& cats, TokenInterner* interner) {
  std::vector<std::vector<TokenId>> out;
  out.reserve(cats.size());
  for (const Category& c : cats) {
    std::vector<TokenId> ids;
    ids.reserve(c.keywords.size());
    for (const Token& t : c.keywords) ids.push_back(interner->Intern(t));
    out.push_back(std::move(ids));
  }
  return out;
}

/// ComputeBestScale with the category-keyword similarities routed through
/// the interner + memo (the naive version recomputes thesaurus and affix
/// work for every one of the |C1|*|C2| category pairs). Same values. With a
/// non-null `external_memo` (the cross-run cache path) the keyword
/// similarities persist across calls; otherwise a run-local memo is used.
Matrix<float> ComputeBestScaleInterned(const LinguisticOptions& options,
                                       const Thesaurus* thesaurus,
                                       const Categorization& categories1,
                                       const Categorization& categories2,
                                       TokenInterner* interner,
                                       TokenPairMemo* external_memo,
                                       int64_t rows, int64_t cols) {
  std::vector<std::vector<TokenId>> kw1 =
      InternKeywords(categories1.categories, interner);
  std::vector<std::vector<TokenId>> kw2 =
      InternKeywords(categories2.categories, interner);
  std::unique_ptr<TokenPairMemo> local_memo;
  TokenPairMemo* memo = external_memo;
  if (memo == nullptr) {
    local_memo = std::make_unique<TokenPairMemo>(interner, thesaurus,
                                                 options.substring);
    memo = local_memo.get();
  }

  Matrix<float> cat_sim(static_cast<int64_t>(kw1.size()),
                        static_cast<int64_t>(kw2.size()));
  for (size_t i = 0; i < kw1.size(); ++i) {
    for (size_t j = 0; j < kw2.size(); ++j) {
      cat_sim(static_cast<int64_t>(i), static_cast<int64_t>(j)) =
          static_cast<float>(
              InternedTokenSetSimilarity(kw1[i], kw2[j], memo));
    }
  }
  return ScatterBestScale(options, cat_sim, categories1, categories2, rows,
                          cols);
}

/// Annotation vectors, built once per documented element (Section 10's
/// future-work item; see linguistic/annotations.h). All empty when the
/// blend is off.
std::vector<AnnotationVector> BuildDocs(const Schema& schema,
                                        const Thesaurus& thesaurus,
                                        double annotation_weight) {
  std::vector<AnnotationVector> docs(
      static_cast<size_t>(schema.num_elements()));
  if (annotation_weight <= 0.0) return docs;
  for (ElementId e = 0; e < schema.num_elements(); ++e) {
    if (!schema.element(e).documentation.empty()) {
      docs[static_cast<size_t>(e)] =
          BuildAnnotationVector(schema.element(e).documentation, thesaurus);
    }
  }
  return docs;
}

/// The per-cell arithmetic of every lsim path: name similarity times the
/// category scale, clamped, then blended with the annotation cosine when
/// both elements are documented:
///   lsim = (1-w)·clamp(ns·scale) + w·cosine(doc1, doc2).
inline float MixLsim(double ns, float scale, const AnnotationVector& doc1,
                     const AnnotationVector& doc2, double annotation_weight) {
  double lsim = std::clamp(ns * static_cast<double>(scale), 0.0, 1.0);
  if (annotation_weight > 0.0 && !doc1.empty() && !doc2.empty()) {
    lsim = (1.0 - annotation_weight) * lsim +
           annotation_weight * AnnotationCosine(doc1, doc2);
  }
  return static_cast<float>(lsim);
}

/// Distinct-name index of every element, in id order, against a registry
/// (LsimCache::SideNames) that registers every new name.
template <typename Registry>
void RegisterNames(const Schema& s, Registry* registry,
                   const NameNormalizer& normalizer, TokenInterner* interner,
                   std::vector<int32_t>* of_element) {
  of_element->reserve(static_cast<size_t>(s.num_elements()));
  for (ElementId id : s.AllElements()) {
    of_element->push_back(
        registry->Register(s.element(id).name, normalizer, interner));
  }
}

/// Per-element normalized names, gathered from a distinct-name registry.
std::shared_ptr<const std::vector<NormalizedName>> CollectNames(
    const std::vector<int32_t>& of_element,
    const std::vector<NormalizedName>& registry) {
  auto names = std::make_shared<std::vector<NormalizedName>>();
  names->reserve(of_element.size());
  for (int32_t id : of_element) {
    names->push_back(registry[static_cast<size_t>(id)]);
  }
  return names;
}

/// A schema's elements as a containment forest (util/path_map.h).
struct ElementForest {
  const Schema& s;
  int32_t size() const { return static_cast<int32_t>(s.num_elements()); }
  const std::string& name(ElementId e) const { return s.element(e).name; }
  ElementId parent(ElementId e) const { return s.parent(e); }
  const std::vector<ElementId>& children(ElementId e) const {
    return s.children(e);
  }
};

}  // namespace

/// Equal features imply bit-equal lsim against any other feature-equal
/// element — regardless of whether the correspondence paired "the same"
/// element (the categorizer's locality contract, linguistic/categorizer.h).
bool SameLsimElementFeatures(const Schema& s, ElementId e, const Schema& ps,
                             ElementId pe) {
  const Element& a = s.element(e);
  const Element& b = ps.element(pe);
  if (a.kind != b.kind || a.data_type != b.data_type ||
      a.not_instantiated != b.not_instantiated || a.name != b.name ||
      a.documentation != b.documentation) {
    return false;
  }
  ElementId pa = s.parent(e);
  ElementId pb = ps.parent(pe);
  const bool none_a = pa == kNoElement, none_b = pb == kNoElement;
  if (none_a != none_b) return false;
  if (none_a) return true;
  const bool root_a = pa == s.root(), root_b = pb == ps.root();
  if (root_a != root_b) return false;
  if (root_a) return true;
  return s.element(pa).name == ps.element(pb).name &&
         s.element(pa).kind == ps.element(pb).kind;
}

namespace {

/// One side of the plan: map current -> previous elements (identity first,
/// else by containment path, as the structural delta maps tree nodes in
/// incremental/tree_match_delta.cc), then flag every element that is
/// unmapped or whose lsim-relevant features changed.
int64_t PlanSide(const Schema& s, const Schema& prev,
                 std::vector<ElementId>* map, std::vector<uint8_t>* changed) {
  const int64_t n = s.num_elements();
  // The session passes the identical Schema object for an unedited side;
  // every element then trivially maps to itself with equal features.
  if (&s == &prev) {
    map->resize(static_cast<size_t>(n));
    for (ElementId e = 0; e < n; ++e) (*map)[static_cast<size_t>(e)] = e;
    changed->assign(static_cast<size_t>(n), 0);
    return 0;
  }
  // Identity-first: the supported edits keep surviving element ids stable
  // (renames/retypes mutate in place, adds append), so most edited sides
  // map by identity with a handful of changed flags. Any pairing is sound
  // — the feature flags are what license reuse — so the fallback to path
  // mapping below is purely about reuse QUALITY after wholesale id shifts
  // (removals rebuild the schema with compacted ids).
  if (n >= prev.num_elements()) {
    map->assign(static_cast<size_t>(n), kNoElement);
    changed->assign(static_cast<size_t>(n), 0);
    int64_t num_changed = 0;
    for (ElementId e = 0; e < n; ++e) {
      // Ids shared with the previous schema map to themselves
      // unconditionally (the flag, not the map, gates reuse); appended ids
      // stay unmapped. Either way a flagged element counts as changed.
      const bool in_prev = e < prev.num_elements();
      if (in_prev) (*map)[static_cast<size_t>(e)] = e;
      if (!in_prev || !SameLsimElementFeatures(s, e, prev, e)) {
        (*changed)[static_cast<size_t>(e)] = 1;
        ++num_changed;
      }
    }
    if (num_changed <= std::max<int64_t>(4, n / 64)) return num_changed;
  }
  *map = MapByContainmentPath(ElementForest{s}, ElementForest{prev});
  changed->assign(static_cast<size_t>(n), 0);
  int64_t num_changed = 0;
  for (ElementId e = 0; e < n; ++e) {
    ElementId o = (*map)[static_cast<size_t>(e)];
    if (o == kNoElement || !SameLsimElementFeatures(s, e, prev, o)) {
      (*changed)[static_cast<size_t>(e)] = 1;
      ++num_changed;
    }
  }
  return num_changed;
}

}  // namespace

LsimGatherPlan BuildLsimGatherPlan(const Schema& s1, const Schema& s2,
                                   const Schema& prev_s1,
                                   const Schema& prev_s2) {
  LsimGatherPlan plan;
  plan.changed_sources =
      PlanSide(s1, prev_s1, &plan.source_map, &plan.source_changed);
  plan.changed_targets =
      PlanSide(s2, prev_s2, &plan.target_map, &plan.target_changed);
  return plan;
}

Status LinguisticMatcher::Validate(const LsimCache* cache) const {
  if (options_.thns < 0.0 || options_.thns > 1.0) {
    return Status::InvalidArgument("thns must be within [0,1]");
  }
  if (options_.annotation_weight < 0.0 || options_.annotation_weight > 1.0) {
    return Status::InvalidArgument("annotation_weight must be within [0,1]");
  }
  if (options_.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  if (cache == nullptr) return Status::OK();
  if (cache->thesaurus_ != thesaurus_) {
    return Status::InvalidArgument(
        "LsimCache is bound to a different thesaurus");
  }
  // Cached name similarities depend on the substring options and token
  // weights they were computed under; reject a cache bound differently.
  const LinguisticOptions& co = cache->options_;
  if (co.substring.scale != options_.substring.scale ||
      co.substring.min_affix != options_.substring.min_affix ||
      co.token_weights.w != options_.token_weights.w) {
    return Status::InvalidArgument(
        "LsimCache is bound to different linguistic options");
  }
  return Status::OK();
}

Result<LinguisticResult> LinguisticMatcher::Match(const Schema& s1,
                                                  const Schema& s2,
                                                  LsimCache* cache) const {
  CUPID_RETURN_NOT_OK(Validate(cache));
  if (cache != nullptr) {
    // The whole serial fill runs under the cache mutex (see lsim_cache.h);
    // the pool workers in the scatter only read run-local state.
    MutexLock lock(&cache->mu_);
    LsimCacheView view = cache->LockedView();
    return MatchCached(s1, s2, &view);
  }
  if (options_.use_perf_cache) return MatchCached(s1, s2, /*view=*/nullptr);

  // Naive path: every element pair is compared from scratch. Kept as the
  // reference implementation for equivalence tests and benchmarks.
  LinguisticResult out;
  out.names1 = std::make_shared<const std::vector<NormalizedName>>(
      NormalizeAll(s1, normalizer_));
  out.names2 = std::make_shared<const std::vector<NormalizedName>>(
      NormalizeAll(s2, normalizer_));
  out.categories1 = std::make_shared<const Categorization>(
      CategorizeSchema(s1, *out.names1, normalizer_));
  out.categories2 = std::make_shared<const Categorization>(
      CategorizeSchema(s2, *out.names2, normalizer_));
  out.lsim = Matrix<float>(s1.num_elements(), s2.num_elements());

  Matrix<float> best_scale =
      ComputeBestScale(options_, *thesaurus_, *out.categories1,
                       *out.categories2, s1.num_elements(),
                       s2.num_elements());
  const double w = options_.annotation_weight;
  std::vector<AnnotationVector> docs1 = BuildDocs(s1, *thesaurus_, w);
  std::vector<AnnotationVector> docs2 = BuildDocs(s2, *thesaurus_, w);

  for (ElementId e1 = 0; e1 < s1.num_elements(); ++e1) {
    for (ElementId e2 = 0; e2 < s2.num_elements(); ++e2) {
      float scale = best_scale(e1, e2);
      if (scale <= 0.0f) continue;
      ++out.comparisons;
      double ns = ElementNameSimilarity(
          (*out.names1)[static_cast<size_t>(e1)],
          (*out.names2)[static_cast<size_t>(e2)], *thesaurus_,
          options_.token_weights, options_.substring);
      out.lsim(e1, e2) = MixLsim(ns, scale, docs1[static_cast<size_t>(e1)],
                                 docs2[static_cast<size_t>(e2)], w);
    }
  }
  return out;
}

Result<LinguisticResult> LinguisticMatcher::MatchCached(
    const Schema& s1, const Schema& s2, LsimCacheView* view) const {
  const int64_t n1 = s1.num_elements(), n2 = s2.num_elements();
  LinguisticResult out;
  // Run-local name state, used when no cross-run cache is supplied.
  TokenInterner local_interner;
  TokenInterner* interner = view ? view->interner() : &local_interner;

  // Distinct raw names, each normalized and interned exactly once. Elements
  // sharing a raw name share the distinct entry (normalization is a pure
  // function of the raw name). With a cache, the registries persist across
  // calls and indices are cumulative — entries of names edited away stay
  // allocated, bounded by the distinct names ever seen.
  LsimCache::SideNames local_d1, local_d2;
  LsimCache::SideNames* d1 = view ? &view->side1() : &local_d1;
  LsimCache::SideNames* d2 = view ? &view->side2() : &local_d2;
  std::vector<int32_t> of_element1, of_element2;
  RegisterNames(s1, d1, normalizer_, interner, &of_element1);
  RegisterNames(s2, d2, normalizer_, interner, &of_element2);
  out.names1 = CollectNames(of_element1, d1->names);
  out.names2 = CollectNames(of_element2, d2->names);
  out.categories1 = std::make_shared<const Categorization>(
      CategorizeSchema(s1, *out.names1, normalizer_));
  out.categories2 = std::make_shared<const Categorization>(
      CategorizeSchema(s2, *out.names2, normalizer_));

  Matrix<float> best_scale = ComputeBestScaleInterned(
      options_, thesaurus_, *out.categories1, *out.categories2, interner,
      view ? view->memo() : nullptr, n1, n2);

  // Spawning workers only pays when some row block is big enough to leave
  // ParallelFor's inline path (2 * its 16-row minimum chunk).
  const int64_t num_d1 = static_cast<int64_t>(d1->names.size());
  const int64_t num_d2 = static_cast<int64_t>(d2->names.size());
  int threads = ThreadPool::EffectiveThreads(options_.num_threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1 && std::max(num_d1, n1) >= 32) {
    pool = std::make_unique<ThreadPool>(threads);
  }

  // Name similarity once per needed distinct pair: a distinct name pair
  // needs it iff some un-pruned element pair maps onto it, so
  // categorization pruning is preserved. Without a cache, each row block
  // carries its own memo (TokenSimilarity is pure, so per-thread memos
  // change nothing but hit rates); concurrent memos stay hash-backed so
  // they don't each pay the dense table's vocab-squared zero-fill. With a
  // cache, values persist in it and uncached pairs are filled serially
  // (the persistent memo is not thread-safe) — after a warm first run only
  // pairs involving edited names miss.
  Matrix<uint8_t> needed(num_d1, num_d2);
  for (ElementId e1 = 0; e1 < n1; ++e1) {
    uint8_t* needed_row = &needed(of_element1[static_cast<size_t>(e1)], 0);
    const float* scale_row = &best_scale(e1, 0);
    const int32_t* idx2 = of_element2.data();
    for (int64_t e2 = 0; e2 < n2; ++e2) {
      if (scale_row[e2] > 0.0f) needed_row[idx2[e2]] = 1;
    }
  }
  Matrix<double> local_ns;
  const Matrix<double>* distinct_ns = &local_ns;
  if (view) {
    view->EnsureCapacity(num_d1, num_d2);
    for (int64_t i = 0; i < num_d1; ++i) {
      const uint8_t* needed_row = &needed(i, 0);
      for (int64_t j = 0; j < num_d2; ++j) {
        if (needed_row[j]) {
          view->NameSimilarity(static_cast<int32_t>(i),
                               static_cast<int32_t>(j),
                               options_.token_weights);
        }
      }
    }
    distinct_ns = &view->ns();
  } else {
    local_ns = Matrix<double>(num_d1, num_d2);
    ParallelFor(pool.get(), num_d1, [&](int64_t begin, int64_t end) {
      TokenPairMemo memo(interner, thesaurus_, options_.substring,
                         /*use_dense=*/pool == nullptr);
      for (int64_t i = begin; i < end; ++i) {
        for (int64_t j = 0; j < num_d2; ++j) {
          if (!needed(i, j)) continue;
          local_ns(i, j) = InternedNameSimilarity(
              local_d1.interned[static_cast<size_t>(i)],
              local_d2.interned[static_cast<size_t>(j)],
              options_.token_weights, &memo);
        }
      }
    });
  }

  // Scatter the distinct similarities into the element-pair lsim table,
  // applying the per-pair category scale and annotation blend.
  const double w = options_.annotation_weight;
  std::vector<AnnotationVector> docs1 = BuildDocs(s1, *thesaurus_, w);
  std::vector<AnnotationVector> docs2 = BuildDocs(s2, *thesaurus_, w);
  out.lsim = Matrix<float>(n1, n2);
  std::atomic<int64_t> comparisons{0};
  ParallelFor(pool.get(), n1, [&](int64_t begin, int64_t end) {
    int64_t local = 0;
    const int32_t* idx2 = of_element2.data();
    for (ElementId e1 = static_cast<ElementId>(begin);
         e1 < static_cast<ElementId>(end); ++e1) {
      const double* ns_row =
          distinct_ns->row(of_element1[static_cast<size_t>(e1)]);
      const float* scale_row = &best_scale(e1, 0);
      float* lsim_row = &out.lsim(e1, 0);
      const AnnotationVector& doc1 = docs1[static_cast<size_t>(e1)];
      for (int64_t e2 = 0; e2 < n2; ++e2) {
        float scale = scale_row[e2];
        if (scale <= 0.0f) continue;
        ++local;
        lsim_row[e2] = MixLsim(ns_row[idx2[e2]], scale, doc1,
                               docs2[static_cast<size_t>(e2)], w);
      }
    }
    comparisons.fetch_add(local, std::memory_order_relaxed);
  });
  out.comparisons = comparisons.load();
  return out;
}

Result<LinguisticResult> LinguisticMatcher::MatchGather(
    const Schema& s1, const Schema& s2, LsimCache* cache,
    const LsimGatherPlan& plan, const LinguisticResult& prev) const {
  if (cache == nullptr) {
    return Status::InvalidArgument("MatchGather requires an LsimCache");
  }
  const int64_t n1 = s1.num_elements(), n2 = s2.num_elements();
  if (plan.source_map.size() != static_cast<size_t>(n1) ||
      plan.target_map.size() != static_cast<size_t>(n2) ||
      plan.source_changed.size() != plan.source_map.size() ||
      plan.target_changed.size() != plan.target_map.size()) {
    return Status::InvalidArgument(
        "LsimGatherPlan does not match the schemas");
  }
  // Above this fraction of changed elements on either side, patching rows
  // has a worse constant than the batch pipeline (most rows need
  // recomputing anyway); the batch call also revalidates everything.
  // Results are identical either way.
  constexpr double kFullRebuildFraction = 0.25;
  if (static_cast<double>(plan.changed_sources) >
          kFullRebuildFraction * static_cast<double>(n1) ||
      static_cast<double>(plan.changed_targets) >
          kFullRebuildFraction * static_cast<double>(n2)) {
    return Match(s1, s2, cache);
  }
  CUPID_RETURN_NOT_OK(Validate(cache));

  obs::ScopedSpan span("lsim.gather");
  auto g0 = std::chrono::steady_clock::now();
  LinguisticResult out;
  // As in Match(s1, s2, cache): the whole patch pipeline holds the cache
  // mutex and works through a locked view (the row/column fills run
  // serially here).
  MutexLock cache_lock(&cache->mu_);
  LsimCacheView view = cache->LockedView();
  TokenInterner* interner = view.interner();
  std::vector<int32_t> of_element1, of_element2;
  RegisterNames(s1, &view.side1(), normalizer_, interner, &of_element1);
  RegisterNames(s2, &view.side2(), normalizer_, interner, &of_element2);
  auto g1 = std::chrono::steady_clock::now();
  // Names and categorization are pure functions of the elements' local
  // features in id order, so a side with zero changed elements under an
  // identity map shares the previous run's vectors outright; only an
  // edited side walks the categorizer again.
  auto identity_side = [](const std::vector<ElementId>& map, int64_t changed,
                          const auto& prev_names, const auto& prev_cats) {
    if (changed != 0 || prev_names == nullptr || prev_cats == nullptr ||
        prev_names->size() != map.size()) {
      return false;
    }
    for (size_t i = 0; i < map.size(); ++i) {
      if (map[i] != static_cast<ElementId>(i)) return false;
    }
    return true;
  };
  if (identity_side(plan.source_map, plan.changed_sources, prev.names1,
                    prev.categories1)) {
    out.names1 = prev.names1;
    out.categories1 = prev.categories1;
  } else {
    out.names1 = CollectNames(of_element1, view.side1().names);
    out.categories1 = std::make_shared<const Categorization>(
        CategorizeSchema(s1, *out.names1, normalizer_));
  }
  if (identity_side(plan.target_map, plan.changed_targets, prev.names2,
                    prev.categories2)) {
    out.names2 = prev.names2;
    out.categories2 = prev.categories2;
  } else {
    out.names2 = CollectNames(of_element2, view.side2().names);
    out.categories2 = std::make_shared<const Categorization>(
        CategorizeSchema(s2, *out.names2, normalizer_));
  }
  auto g2 = std::chrono::steady_clock::now();
  out.lsim = Matrix<float>(n1, n2);

  // ---- gather: bulk row copies for unchanged sources --------------------
  // One memcpy per (row, mapped-target run). Cells in changed-target
  // columns are copied stale here and overwritten exactly by the column
  // pass below; unmapped target columns (changed by definition) are never
  // copied and stay zero until then.
  std::vector<IdRun> runs = BuildMappedIdRuns(plan.target_map);
  for (ElementId e1 = 0; e1 < n1; ++e1) {
    if (plan.source_changed[static_cast<size_t>(e1)]) continue;
    ElementId o1 = plan.source_map[static_cast<size_t>(e1)];
    float* dst = out.lsim.row(e1);
    const float* src = prev.lsim.row(o1);
    for (const IdRun& run : runs) {
      std::memcpy(dst + run.dst, src + run.src,
                  static_cast<size_t>(run.len) * sizeof(float));
    }
    ++out.gathered_rows;
  }

  auto g3 = std::chrono::steady_clock::now();
  // ---- recompute changed rows and columns, batch arithmetic exactly -----
  const double w = options_.annotation_weight;
  std::vector<AnnotationVector> docs1 = BuildDocs(s1, *thesaurus_, w);
  std::vector<AnnotationVector> docs2 = BuildDocs(s2, *thesaurus_, w);
  view.EnsureCapacity(static_cast<int64_t>(view.side1().names.size()),
                      static_cast<int64_t>(view.side2().names.size()));
  const auto& cats1 = out.categories1->categories;
  const auto& cats2 = out.categories2->categories;
  std::vector<std::vector<TokenId>> kw1 = InternKeywords(cats1, interner);
  std::vector<std::vector<TokenId>> kw2 = InternKeywords(cats2, interner);

  // Category-similarity rows (of a source category) and columns (of a
  // target category) on demand: a changed element belongs to a handful of
  // categories, and only those are ever computed, through the persistent
  // token-pair memo. Values are exactly the cat_sim cells
  // ComputeBestScaleInterned would produce.
  std::unordered_map<int, std::vector<float>> cat_rows, cat_cols;
  auto category_sims = [&](int c, bool source_side) -> const std::vector<float>& {
    auto [it, inserted] = (source_side ? cat_rows : cat_cols).try_emplace(c);
    if (inserted) {
      const size_t others = source_side ? kw2.size() : kw1.size();
      it->second.resize(others);
      for (size_t j = 0; j < others; ++j) {
        it->second[j] = static_cast<float>(
            source_side
                ? InternedTokenSetSimilarity(kw1[static_cast<size_t>(c)],
                                             kw2[j], view.memo())
                : InternedTokenSetSimilarity(
                      kw1[j], kw2[static_cast<size_t>(c)], view.memo()));
      }
    }
    return it->second;
  };
  // Best compatible-category scale of one changed element against every
  // element of the other schema: the max over its categories, with the
  // same threshold and float casts as ScatterBestScale.
  std::vector<float> best;
  auto best_scales = [&](ElementId e, bool source_side, int64_t n_other) {
    best.assign(static_cast<size_t>(n_other),
                options_.use_categories ? 0.0f : 1.0f);
    if (!options_.use_categories) return;
    const Categorization& own =
        source_side ? *out.categories1 : *out.categories2;
    const std::vector<Category>& other_cats = source_side ? cats2 : cats1;
    for (int c : own.element_categories[static_cast<size_t>(e)]) {
      const std::vector<float>& sims = category_sims(c, source_side);
      for (size_t j = 0; j < other_cats.size(); ++j) {
        float scale = sims[j];
        if (scale <= options_.thns) continue;
        for (ElementId other : other_cats[j].members) {
          float& cell = best[static_cast<size_t>(other)];
          cell = std::max(cell, scale);
        }
      }
    }
  };

  // One recomputed cell. Zero cells are written explicitly: a changed row
  // was never copied, but columns also run over copied rows.
  const TokenTypeWeights& tw = options_.token_weights;
  auto fill_cell = [&](ElementId e1, ElementId e2, float scale) {
    if (scale <= 0.0f) {
      out.lsim(e1, e2) = 0.0f;
      return;
    }
    ++out.comparisons;
    double ns = view.NameSimilarity(of_element1[static_cast<size_t>(e1)],
                                    of_element2[static_cast<size_t>(e2)], tw);
    out.lsim(e1, e2) = MixLsim(ns, scale, docs1[static_cast<size_t>(e1)],
                               docs2[static_cast<size_t>(e2)], w);
  };

  auto g4 = std::chrono::steady_clock::now();
  // A changed source's whole row, then a changed target's column over the
  // UNCHANGED rows (changed rows were fully produced by their row pass).
  for (ElementId e1 = 0; e1 < n1; ++e1) {
    if (!plan.source_changed[static_cast<size_t>(e1)]) continue;
    best_scales(e1, /*source_side=*/true, n2);
    for (ElementId e2 = 0; e2 < n2; ++e2) {
      fill_cell(e1, e2, best[static_cast<size_t>(e2)]);
    }
  }
  for (ElementId e2 = 0; e2 < n2; ++e2) {
    if (!plan.target_changed[static_cast<size_t>(e2)]) continue;
    best_scales(e2, /*source_side=*/false, n1);
    for (ElementId e1 = 0; e1 < n1; ++e1) {
      if (plan.source_changed[static_cast<size_t>(e1)]) continue;
      fill_cell(e1, e2, best[static_cast<size_t>(e1)]);
    }
  }
  if (span.enabled()) {
    auto g5 = std::chrono::steady_clock::now();
    auto ms = [](auto a, auto b) {
      return std::chrono::duration<double, std::milli>(b - a).count();
    };
    span.Attr("names_ms", ms(g0, g1));
    span.Attr("categorize_ms", ms(g1, g2));
    span.Attr("copy_ms", ms(g2, g3));
    span.Attr("prep_ms", ms(g3, g4));
    span.Attr("fill_ms", ms(g4, g5));
    span.Attr("gathered_rows", out.gathered_rows);
  }
  return out;
}

double LinguisticMatcher::NameSimilarity(std::string_view a,
                                         std::string_view b) const {
  return ElementNameSimilarity(normalizer_.Normalize(a),
                               normalizer_.Normalize(b), *thesaurus_,
                               options_.token_weights, options_.substring);
}

}  // namespace cupid
