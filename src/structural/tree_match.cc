#include "structural/tree_match.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <memory>
#include <queue>
#include <unordered_map>

#include "obs/trace.h"
#include "tree/lazy_expansion.h"
#include "util/id_runs.h"
#include "util/thread_pool.h"

namespace cupid {

namespace {

/// Collects the depth-limited frontier of `node`: descendants that are
/// either true leaves or sit exactly `depth` levels below `node`, with
/// path-relative optionality. Mirrors tree-cached leaves() when depth is
/// large enough.
void CollectFrontier(const SchemaTree& tree, TreeNodeId node, int depth,
                     bool optional_so_far, std::vector<LeafRef>* out) {
  const TreeNode& n = tree.node(node);
  if (n.children.empty() || depth == 0) {
    out->push_back({node, optional_so_far});
    return;
  }
  for (TreeNodeId c : n.children) {
    CollectFrontier(tree, c, depth - 1,
                    optional_so_far || tree.node(c).optional, out);
  }
}

/// Per-tree access to the leaf set used for structural similarity: the
/// cached true leaves, or precomputed depth-k frontiers.
class FrontierProvider {
 public:
  FrontierProvider(const SchemaTree& tree, int max_depth) : tree_(tree) {
    if (max_depth > 0) {
      frontiers_.resize(static_cast<size_t>(tree.num_nodes()));
      for (TreeNodeId n = 0; n < tree.num_nodes(); ++n) {
        CollectFrontier(tree, n, max_depth, /*optional_so_far=*/false,
                        &frontiers_[static_cast<size_t>(n)]);
        // Deduplicate shared (DAG) frontier nodes; required beats optional.
        auto& f = frontiers_[static_cast<size_t>(n)];
        std::sort(f.begin(), f.end(), [](const LeafRef& a, const LeafRef& b) {
          return a.leaf < b.leaf || (a.leaf == b.leaf && !a.optional);
        });
        f.erase(std::unique(f.begin(), f.end(),
                            [](const LeafRef& a, const LeafRef& b) {
                              return a.leaf == b.leaf;
                            }),
                f.end());
      }
    }
  }

  const std::vector<LeafRef>& of(TreeNodeId n) const {
    return frontiers_.empty() ? tree_.leaves(n)
                              : frontiers_[static_cast<size_t>(n)];
  }

 private:
  const SchemaTree& tree_;
  std::vector<std::vector<LeafRef>> frontiers_;
};

/// Groups of duplicated subtrees on the source side, for lazy expansion:
/// for each top canonical node, the aligned (canonical descendant, copy
/// descendant) node pairs across all its copies.
struct LazyGroups {
  std::unordered_map<TreeNodeId,
                     std::vector<std::pair<TreeNodeId, TreeNodeId>>>
      propagation;
  std::vector<bool> skip;  // outer-loop skip flags (copy-subtree nodes)
  /// Every (canonical, copy) node pair of `propagation`, in copy-id order.
  std::vector<std::pair<TreeNodeId, TreeNodeId>> aligned;

  static LazyGroups Analyze(const SchemaTree& tree) {
    LazyGroups g;
    DuplicateInfo dup = AnalyzeDuplicates(tree);
    g.skip.assign(static_cast<size_t>(tree.num_nodes()), false);
    if (!dup.has_duplicates) return g;
    for (TreeNodeId n = 0; n < tree.num_nodes(); ++n) {
      if (!dup.is_copy(n)) continue;
      g.skip[static_cast<size_t>(n)] = true;
      // This node's copy-subtree root: walk up while the parent is a copy.
      TreeNodeId root = n;
      while (true) {
        TreeNodeId p = tree.node(root).parent;
        if (p == kNoTreeNode || !dup.is_copy(p)) break;
        root = p;
      }
      g.propagation[dup.canon(root)].push_back({dup.canon(n), n});
      g.aligned.push_back({dup.canon(n), n});
    }
    return g;
  }
};

/// What one unit of a scheduled pass recorded: its feedback events in
/// firing order and its counters.
struct SweepTally {
  std::vector<FeedbackEvent> events;
  TreeMatchStats stats;
};

/// \brief The partition of the source nodes that the cold sweep and the
/// Section 7 recompute run by.
///
/// A row ns of either pass reads and writes only rows of nodes in ns's
/// subtree: ns itself, its leaves or depth-k frontier, and its children
/// (the skip-leaves fast path). Under lazy expansion a canonical row also
/// writes its copies' rows, so the schedule keeps every copy in the task of
/// its canonical node. Source subtrees sharing no node thus touch disjoint
/// rows: each runs its rows in post-order as one task, concurrently with
/// the others, and sees exactly the values of the serial sweep. Their split
/// ancestors, the spine, run afterwards, serially in post-order.
struct SweepSchedule {
  /// Source nodes grouped by unit, each unit in source post-order: units
  /// [0, num_tasks) are the subtree tasks, largest first; unit num_tasks is
  /// the spine.
  std::vector<TreeNodeId> nodes;
  /// Unit u runs nodes[unit_begin[u], unit_begin[u + 1]).
  std::vector<int32_t> unit_begin;
  /// Per source node, the unit that runs its row.
  std::vector<int32_t> unit_of;
  int num_tasks = 1;
};

/// Implements both the main TreeMatch sweep and the Section 7 recompute
/// pass. All similarity state lives in the caller-visible NodeSimilarities.
class TreeMatcher {
 public:
  TreeMatcher(const SchemaTree& source, const SchemaTree& target,
              const TypeCompatibilityTable& types,
              const TreeMatchOptions& options)
      : s_(source),
        t_(target),
        types_(types),
        opt_(options),
        s_frontier_(source, options.max_leaf_depth),
        t_frontier_(target, options.max_leaf_depth) {}

  TreeMatchResult Run(const Matrix<float>& element_lsim) {
    TreeMatchResult result;
    result.sims = NodeSimilarities(s_.num_nodes(), t_.num_nodes());
    std::unique_ptr<ThreadPool> pool = MakePool();
    ProjectLsim(element_lsim, &result.sims, pool.get());
    InitLeafSsim(&result.sims, pool.get());

    LazyGroups lazy;
    if (opt_.lazy_expansion) lazy = LazyGroups::Analyze(s_);

    const SweepSchedule schedule =
        BuildSchedule(pool.get(), opt_.lazy_expansion ? &lazy : nullptr);
    const std::vector<SweepTally> tallies = RunSchedule(
        pool.get(), schedule, [&](TreeNodeId ns, SweepTally* tally) {
          if (opt_.lazy_expansion && lazy.skip[static_cast<size_t>(ns)]) {
            tally->stats.pairs_skipped_lazy += t_.num_nodes();
            return;
          }
          for (TreeNodeId nt : t_.post_order()) {
            ComparePair(ns, nt, &result.sims, tally);
          }
          if (opt_.lazy_expansion) {
            auto it = lazy.propagation.find(ns);
            if (it != lazy.propagation.end()) {
              PropagateRows(it->second, &result.sims);
            }
          }
        });
    MergeTallies(schedule, tallies, &result);
    result.stats.sweep_tasks = schedule.num_tasks;
    return result;
  }

  void Recompute(TreeMatchResult* result) {
    // Second pass (Section 7): leaf similarities are final; refresh every
    // wsim and recompute non-leaf ssim from the final leaf state. The
    // integer tallies behind each ssim are recorded so a later incremental
    // run can adjust them instead of re-scanning. Rows read only the final
    // leaf state and the rows below them, so no lazy-expansion constraint
    // applies to the schedule.
    NodeSimilarities* sims = &result->sims;
    result->counts.strong = Matrix<int32_t>(s_.num_nodes(), t_.num_nodes());
    result->counts.included = Matrix<int32_t>(s_.num_nodes(), t_.num_nodes());
    std::unique_ptr<ThreadPool> pool = MakePool();
    RunSchedule(
        pool.get(), BuildSchedule(pool.get(), /*lazy=*/nullptr),
        [&](TreeNodeId ns, SweepTally*) {
          for (TreeNodeId nt : t_.post_order()) {
            if (s_.IsLeaf(ns) && t_.IsLeaf(nt)) {
              sims->set_wsim(ns, nt, MixWsim(*sims, ns, nt,
                                             sims->ssim(ns, nt), true));
              continue;
            }
            if (PruneByLeafCount(ns, nt)) continue;
            sims->set_ssim(
                ns, nt,
                StructuralSimilarity(*sims, ns, nt, /*link_tests=*/nullptr,
                                     &result->counts.strong(ns, nt),
                                     &result->counts.included(ns, nt)));
            // Mix from the float-stored ssim, exactly as ComparePair does;
            // the incremental recompute copies stored floats across runs
            // and must reproduce this arithmetic bit for bit.
            sims->set_wsim(ns, nt, MixWsim(*sims, ns, nt,
                                           sims->ssim(ns, nt), false));
          }
        });
  }

  /// \brief The warm-started sweep, rebuilt as a gather/visit-list engine:
  /// identical feedback decisions and leaf-state evolution to Run, but the
  /// dense O(N^2) per-run assembly is gone. Leaf-pair state lives in dense
  /// (source leaf x target leaf) matrices whose subtree blocks are
  /// contiguous, the per-pair loop iterates a precomputed visit list (the
  /// non-leaf pairs surviving the leaf-count prune) instead of the full
  /// pair grid, and feedback replay scales contiguous blocks.
  ///
  /// Correctness rests on the same three facts as before. (1) Surviving
  /// nodes keep their relative post-order across the supported edits
  /// (schema children are appended, removals preserve sibling order), so
  /// the feedback events touching any clean leaf pair happen in the same
  /// order as before. (2) Feedback scalings are replayed physically, so
  /// clean leaf cells evolve through exactly the previous run's value
  /// sequence and dirty-pair rescans always read a state equal to what a
  /// from-scratch sweep would see at that point. (3) Any feedback decision
  /// that diverges from the previous run immediately marks its whole leaf
  /// block dirty, so downstream consumers never reuse values the divergence
  /// invalidated. Leaf pairs themselves never enter the loop: with
  /// leaf_pair_feedback off (enforced by SupportsIncrementalTreeMatch) a
  /// leaf pair fires nothing, and its sweep-stage wsim is consumed by
  /// no one — the final leaf wsim is produced by the recompute pass.
  TreeMatchResult RunIncremental(const Matrix<float>& element_lsim,
                                 TreeMatchDelta* delta) {
    obs::ScopedSpan span("treematch.sweep");
    TreeMatchResult result;
    result.sims = NodeSimilarities(s_.num_nodes(), t_.num_nodes());
    auto t0 = std::chrono::steady_clock::now();
    IndexPrevEvents(*delta);
    ProjectLsimGather(element_lsim, *delta, &result.sims);
    auto t1 = std::chrono::steady_clock::now();
    InitLeafSsimDense(*delta);
    auto t2 = std::chrono::steady_clock::now();
    BuildVisitList(delta, &result.stats);
    auto t3 = std::chrono::steady_clock::now();
    PruneDivergencePrepass(delta, &result.stats);
    auto t4 = std::chrono::steady_clock::now();
    // With the previous sweep's event list and per-node clean flags, only
    // non-clean pairs re-enter the full per-pair body: clean pairs either
    // replay their recorded event (one block scaling) or are skipped
    // outright — their decision provably reproduces. The replay
    // additionally assumes mapped nodes keep their RELATIVE post-order
    // across runs (fact (1)). A correspondence that violates it —
    // conceivable after shape-changing remove+add batches under the
    // identity-first maps — could reorder a clean cell's scalings or let a
    // row's merge run past a clean pair's recorded event and silently drop
    // its replay. Verify the invariant in O(N) per side and fall back to
    // the full per-pair loop when it fails (bit-identical, just slower).
    auto order_preserved = [](const std::vector<TreeNodeId>& order,
                              const std::vector<TreeNodeId>& map,
                              const std::vector<int32_t>& opos) {
      int32_t last = -1;
      for (TreeNodeId n : order) {
        TreeNodeId o = map[static_cast<size_t>(n)];
        if (o == kNoTreeNode) continue;
        if (opos[static_cast<size_t>(o)] < last) return false;
        last = opos[static_cast<size_t>(o)];
      }
      return true;
    };
    const bool can_replay =
        order_preserved(s_.post_order(), delta->source_map, prev_spos_) &&
        order_preserved(t_.post_order(), delta->target_map, prev_tpos_);
    if (can_replay) {
      DeriveCleanFlags(*delta);
      ReplayLoop(delta, &result);
    } else {
      for (TreeNodeId ns : s_.post_order()) {
        const int32_t begin = delta->visit_begin[static_cast<size_t>(ns)];
        const int32_t end = delta->visit_end[static_cast<size_t>(ns)];
        for (int32_t i = begin; i < end; ++i) {
          VisitPair(ns, delta->visit_data[static_cast<size_t>(i)], delta,
                    &result);
        }
      }
    }
    auto t5 = std::chrono::steady_clock::now();
    ScatterLeafSsim(*delta, &result.sims);
    auto t6 = std::chrono::steady_clock::now();
    if (span.enabled()) {
      auto ms = [](auto a, auto b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
      };
      span.Attr("alloc_proj_ms", ms(t0, t1));
      span.Attr("init_ms", ms(t1, t2));
      span.Attr("visitbuild_ms", ms(t2, t3));
      span.Attr("prepass_ms", ms(t3, t4));
      span.Attr("loop_ms", ms(t4, t5));
      span.Attr("scatter_ms", ms(t5, t6));
      span.Attr("visit", result.stats.visit_list_pairs);
      span.Attr("inc", result.stats.increases_applied);
      span.Attr("dec", result.stats.decreases_applied);
      span.Attr("reused", result.stats.pairs_reused);
      span.Attr("scale_ops", result.stats.scale_ops);
      span.Attr("link_tests", result.stats.link_tests);
    }
    return result;
  }

  /// \brief The warm-started Section 7 pass as a gather engine.
  ///
  /// Instead of revisiting the full pair grid, clean regions of the final
  /// matrices are bulk-copied row-wise from the previous run under the
  /// correspondence maps (memcpy per maximal run of consecutively-mapped
  /// target nodes — one memcpy per row when the maps are identities), and
  /// only three sparse sets are then touched:
  ///   * dirty leaf pairs re-mix their wsim from the final leaf state
  ///     (clean leaf pairs have bit-identical ssim and lsim, hence wsim);
  ///   * rows/columns of nodes whose leaf-count changed re-check the prune
  ///     decision and zero cells a from-scratch run would never write;
  ///   * the visit list (non-pruned non-leaf pairs) is walked once — a
  ///     reusable pair's gathered values already equal what the legacy
  ///     per-pair pass would copy, so it costs one clean-block test; the
  ///     rest adjust the previous tallies leaf-by-leaf or rescan.
  void RecomputeIncremental(TreeMatchDelta* delta_in,
                            TreeMatchResult* result) {
    obs::ScopedSpan span("treematch.recompute");
    auto r0 = std::chrono::steady_clock::now();
    BuildVisitList(delta_in, /*stats=*/nullptr);
    const TreeMatchDelta& delta = *delta_in;
    NodeSimilarities* sims = &result->sims;
    TreeMatchStats* stats = &result->stats;
    const int64_t num_s = s_.num_nodes(), num_t = t_.num_nodes();
    const StructuralCounts& prev_counts = delta.prev->counts;
    // Identity maps (rename/retype edit streams) let the counts start as a
    // straight copy of the previous run's — one memcpy each instead of a
    // zero fill plus per-row copies. Cells the copy "seeds wrong" are
    // exactly the non-clean ones, all rewritten below.
    auto identity = [](const std::vector<TreeNodeId>& map, int64_t prev_n) {
      if (static_cast<int64_t>(map.size()) != prev_n) return false;
      for (size_t i = 0; i < map.size(); ++i) {
        if (map[i] != static_cast<TreeNodeId>(i)) return false;
      }
      return true;
    };
    const bool identity_maps =
        identity(delta.source_map, delta.prev_source->num_nodes()) &&
        identity(delta.target_map, delta.prev_target->num_nodes());
    if (identity_maps) {
      result->counts.strong = prev_counts.strong;
      result->counts.included = prev_counts.included;
    } else {
      result->counts.strong = Matrix<int32_t>(num_s, num_t);
      result->counts.included = Matrix<int32_t>(num_s, num_t);
    }

    // ---- gather: bulk row copies from the previous final state ----------
    // One memcpy per (row, mapped-target run). Leaf rows restrict the ssim
    // copy to non-leaf target segments: their leaf-pair cells already hold
    // the final replayed leaf state scattered by RunIncremental.
    std::vector<IdRun> runs = BuildMappedIdRuns(delta.target_map);
    struct SubSeg {
      TreeNodeId nt, ot;
      int32_t len;
    };
    std::vector<SubSeg> nonleaf_segs;
    for (const IdRun& run : runs) {
      for (int32_t k = 0; k < run.len;) {
        if (t_.IsLeaf(run.dst + k)) {
          ++k;
          continue;
        }
        int32_t e = k + 1;
        while (e < run.len && !t_.IsLeaf(run.dst + e)) ++e;
        nonleaf_segs.push_back({run.dst + k, run.src + k, e - k});
        k = e;
      }
    }
    Matrix<float>* ssim_m = sims->mutable_ssim_matrix();
    Matrix<float>* wsim_m = sims->mutable_wsim_matrix();
    const Matrix<float>& prev_ssim = delta.prev->sims.ssim_matrix();
    const Matrix<float>& prev_wsim = delta.prev->sims.wsim_matrix();
    for (TreeNodeId ns = 0; ns < num_s; ++ns) {
      TreeNodeId os = delta.source_map[static_cast<size_t>(ns)];
      if (os == kNoTreeNode) continue;
      const bool leaf_row = s_.IsLeaf(ns);
      for (const IdRun& run : runs) {
        size_t bytes = static_cast<size_t>(run.len) * sizeof(float);
        std::memcpy(wsim_m->row(ns) + run.dst, prev_wsim.row(os) + run.src,
                    bytes);
        if (!leaf_row) {
          std::memcpy(ssim_m->row(ns) + run.dst, prev_ssim.row(os) + run.src,
                      bytes);
        }
        if (!identity_maps) {
          size_t ibytes = static_cast<size_t>(run.len) * sizeof(int32_t);
          std::memcpy(result->counts.strong.row(ns) + run.dst,
                      prev_counts.strong.row(os) + run.src, ibytes);
          std::memcpy(result->counts.included.row(ns) + run.dst,
                      prev_counts.included.row(os) + run.src, ibytes);
        }
      }
      if (leaf_row) {
        for (const SubSeg& seg : nonleaf_segs) {
          std::memcpy(ssim_m->row(ns) + seg.nt, prev_ssim.row(os) + seg.ot,
                      static_cast<size_t>(seg.len) * sizeof(float));
        }
      }
      stats->rows_gathered += 2;
    }

    auto r1 = std::chrono::steady_clock::now();
    // ---- dirty leaf pairs: re-mix wsim from the final leaf state --------
    // Clean leaf pairs keep the gathered previous wsim (same final ssim and
    // lsim bits => same mix); unmapped rows/columns are fully dirty by
    // construction, so every cell the gather could not cover is re-mixed.
    delta.dirty->ForEachSet([&](TreeNodeId x, TreeNodeId y) {
      sims->set_wsim(x, y, MixWsim(*sims, x, y, sims->ssim(x, y), true));
    });

    auto r2 = std::chrono::steady_clock::now();
    // ---- prune-status fixup ---------------------------------------------
    // Only rows/columns of size-changed nodes can flip a prune decision;
    // cells pruned NOW must read as never-written (zero), whatever the
    // previous run stored there.
    auto zero_row_stale = [&](TreeNodeId ns) {
      for (TreeNodeId nt = 0; nt < num_t; ++nt) {
        if (s_.IsLeaf(ns) && t_.IsLeaf(nt)) continue;
        if (!PruneByLeafCount(ns, nt)) continue;
        (*ssim_m)(ns, nt) = 0.0f;
        (*wsim_m)(ns, nt) = 0.0f;
        result->counts.strong(ns, nt) = 0;
        result->counts.included(ns, nt) = 0;
      }
    };
    for (TreeNodeId ns = 0; ns < num_s; ++ns) {
      if (delta.source_size_changed[static_cast<size_t>(ns)]) {
        zero_row_stale(ns);
      }
    }
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      if (!delta.target_size_changed[static_cast<size_t>(nt)]) continue;
      for (TreeNodeId ns = 0; ns < num_s; ++ns) {
        if (delta.source_size_changed[static_cast<size_t>(ns)]) continue;
        if (s_.IsLeaf(ns) && t_.IsLeaf(nt)) continue;
        if (!PruneByLeafCount(ns, nt)) continue;
        (*ssim_m)(ns, nt) = 0.0f;
        (*wsim_m)(ns, nt) = 0.0f;
        result->counts.strong(ns, nt) = 0;
        result->counts.included(ns, nt) = 0;
      }
    }

    auto r3 = std::chrono::steady_clock::now();
    // ---- visit list: clean-skip / reuse / tally adjustment / rescan -----
    // Clean-pair test as in the sweep, over the POST-sweep dirty state: a
    // clean x clean pair's gathered ssim/wsim/counts are bitwise what the
    // reuse branch would write, so the pair costs two flag loads.
    DeriveCleanFlags(delta);
    for (TreeNodeId ns : s_.post_order()) {
      const int32_t begin = delta.visit_begin[static_cast<size_t>(ns)];
      const int32_t end = delta.visit_end[static_cast<size_t>(ns)];
      const bool row_clean = s_clean_[static_cast<size_t>(ns)];
      for (int32_t i = begin; i < end; ++i) {
        TreeNodeId nt = delta.visit_data[static_cast<size_t>(i)];
        if (row_clean && t_clean_[static_cast<size_t>(nt)]) {
          ++stats->pairs_reused;
          continue;
        }
        TreeNodeId os = delta.source_map[static_cast<size_t>(ns)];
        TreeNodeId ot = delta.target_map[static_cast<size_t>(nt)];
        int32_t& strong = result->counts.strong(ns, nt);
        int32_t& included = result->counts.included(ns, nt);
        if (CanReuse(*sims, delta, ns, nt)) {
          // Gathered ssim/wsim/counts already hold the previous final
          // values this branch would copy; only a leaf row's skipped ssim
          // cell still needs the explicit write.
          if (s_.IsLeaf(ns)) {
            sims->set_ssim(ns, nt, delta.prev->sims.ssim(os, ot));
          }
          ++stats->pairs_reused;
          continue;
        }
        if (os != kNoTreeNode && ot != kNoTreeNode &&
            // The old pair must have been scanned as a non-leaf pair for
            // its tallies to exist at all.
            !(delta.prev_source->IsLeaf(os) &&
              delta.prev_target->IsLeaf(ot)) &&
            !PrevPruned(delta, os, ot)) {
          sims->set_ssim(ns, nt,
                         DeltaStructuralSimilarity(*sims, delta, ns, nt, os,
                                                   ot, &strong, &included));
          ++stats->pairs_reused;
        } else {
          sims->set_ssim(ns, nt,
                         StructuralSimilarity(*sims, ns, nt,
                                              /*link_tests=*/nullptr, &strong,
                                              &included));
        }
        sims->set_wsim(ns, nt,
                       MixWsim(*sims, ns, nt, sims->ssim(ns, nt), false));
      }
    }
    if (span.enabled()) {
      auto r4 = std::chrono::steady_clock::now();
      auto ms = [](auto a, auto b) {
        return std::chrono::duration<double, std::milli>(b - a).count();
      };
      span.Attr("gather_ms", ms(r0, r1));
      span.Attr("dirtymix_ms", ms(r1, r2));
      span.Attr("fixup_ms", ms(r2, r3));
      span.Attr("walk_ms", ms(r3, r4));
    }
  }

 private:
  enum class Feedback { kNone, kIncrease, kDecrease };

  Feedback Classify(double wsim) const {
    if (wsim > opt_.th_high) return Feedback::kIncrease;
    if (wsim < opt_.th_low) return Feedback::kDecrease;
    return Feedback::kNone;
  }

  /// Leaf-count pruning replicated on the previous run's trees (true-leaf
  /// frontiers only — enforced by SupportsIncrementalTreeMatch).
  bool PrevPruned(const TreeMatchDelta& d, TreeNodeId os,
                  TreeNodeId ot) const {
    return PrunedByLeafCount(opt_, d.prev_source->leaves(os).size(),
                             d.prev_target->leaves(ot).size());
  }

  /// Post-order position of every node of `tree`.
  static std::vector<int32_t> PostOrderPositions(const SchemaTree& tree) {
    std::vector<int32_t> pos(static_cast<size_t>(tree.num_nodes()), 0);
    int32_t i = 0;
    for (TreeNodeId n : tree.post_order()) pos[static_cast<size_t>(n)] = i++;
    return pos;
  }

  /// Indexes the previous sweep's events by source node in O(nodes +
  /// events): they fired grouped by source, so each old source's events
  /// form one slice, ordered by target post-order position.
  void IndexPrevEvents(const TreeMatchDelta& d) {
    prev_spos_ = PostOrderPositions(*d.prev_source);
    prev_tpos_ = PostOrderPositions(*d.prev_target);
    const std::vector<FeedbackEvent>& events = d.prev->events;
    const size_t num_os = static_cast<size_t>(d.prev_source->num_nodes());
    ev_begin_.assign(num_os, 0);
    ev_end_.assign(num_os, 0);
    for (size_t k = 0; k < events.size(); ++k) {
      const size_t os = static_cast<size_t>(events[k].source);
      if (k == 0 || events[k - 1].source != events[k].source) {
        ev_begin_[os] = static_cast<int32_t>(k);
      }
      ev_end_[os] = static_cast<int32_t>(k + 1);
    }
  }

  /// The previous run's feedback decision at the pair corresponding to
  /// (ns, nt): its event's direction, or kNone when it fired none (leaf,
  /// pruned or between-threshold pairs, or no counterpart at all). One
  /// binary search within the old source's event slice.
  Feedback PrevFeedback(const TreeMatchDelta& d, TreeNodeId ns,
                        TreeNodeId nt) const {
    TreeNodeId os = d.source_map[static_cast<size_t>(ns)];
    TreeNodeId ot = d.target_map[static_cast<size_t>(nt)];
    if (os == kNoTreeNode || ot == kNoTreeNode) return Feedback::kNone;
    const std::vector<FeedbackEvent>& events = d.prev->events;
    const auto end = events.begin() + ev_end_[static_cast<size_t>(os)];
    const int32_t key = prev_tpos_[static_cast<size_t>(ot)];
    auto it = std::lower_bound(
        events.begin() + ev_begin_[static_cast<size_t>(os)], end, key,
        [&](const FeedbackEvent& e, int32_t k) {
          return prev_tpos_[static_cast<size_t>(e.target)] < k;
        });
    if (it == end || it->target != ot) return Feedback::kNone;
    return it->direction > 0 ? Feedback::kIncrease : Feedback::kDecrease;
  }

  /// Clean-pair test: both endpoints reusable, same projected lsim, and no
  /// dirty leaf pair inside the block. lsim is immutable once projected, so
  /// the previous final matrix supplies the old value.
  bool CanReuse(const NodeSimilarities& sims, const TreeMatchDelta& d,
                TreeNodeId ns, TreeNodeId nt) const {
    if (!d.source_reusable[static_cast<size_t>(ns)] ||
        !d.target_reusable[static_cast<size_t>(nt)]) {
      return false;
    }
    TreeNodeId os = d.source_map[static_cast<size_t>(ns)];
    TreeNodeId ot = d.target_map[static_cast<size_t>(nt)];
    if (sims.lsim(ns, nt) != d.prev->sims.lsim(os, ot)) return false;
    return !d.dirty->AnyInBlock(ns, nt);
  }

  /// Final-state link strength of leaf pair (x, y) in the current run —
  /// exactly Recompute's LinkStrength arithmetic for true-leaf frontiers.
  double FinalLeafStrength(const NodeSimilarities& sims, TreeNodeId x,
                           TreeNodeId y) const {
    return opt_.wstruct_leaf * sims.ssim(x, y) +
           (1.0 - opt_.wstruct_leaf) * sims.lsim(x, y);
  }
  /// Same over the previous run's final similarities.
  double PrevFinalLeafStrength(const TreeMatchDelta& d, TreeNodeId ox,
                               TreeNodeId oy) const {
    return opt_.wstruct_leaf * d.prev->sims.ssim(ox, oy) +
           (1.0 - opt_.wstruct_leaf) * d.prev->sims.lsim(ox, oy);
  }

  /// \brief Recompute-pass structural similarity by adjusting the previous
  /// run's integer tallies: only leaves that were added, removed, or touch
  /// a dirty cell re-evaluate their link boolean (against the new final
  /// state), and the matching old boolean (against the previous final
  /// state) is backed out. Unaffected leaves keep identical contributions
  /// on both runs, so the adjusted integers — and therefore the division —
  /// equal what a full rescan would produce.
  double DeltaStructuralSimilarity(const NodeSimilarities& sims,
                                   const TreeMatchDelta& d, TreeNodeId ns,
                                   TreeNodeId nt, TreeNodeId os,
                                   TreeNodeId ot, int32_t* strong_out,
                                   int32_t* included_out) const {
    int64_t strong = d.prev->counts.strong(os, ot);
    int64_t included = d.prev->counts.included(os, ot);
    const double th = opt_.th_accept;

    // Membership changes on one side alter the scan universe of the OTHER
    // side's booleans (a removed leaf leaves no dirty column behind), so
    // every opposite-side leaf becomes affected. reusable[] certifies an
    // unchanged leaf list (conservatively: a type-invalid leaf also clears
    // it, which only costs a wider re-evaluation, never correctness).
    const bool src_members_changed =
        !d.source_reusable[static_cast<size_t>(ns)];
    const bool tgt_members_changed =
        !d.target_reusable[static_cast<size_t>(nt)];

    auto new_bool_src = [&](TreeNodeId x) {
      for (const LeafRef& y : t_.leaves(nt)) {
        if (FinalLeafStrength(sims, x, y.leaf) >= th) return true;
      }
      return false;
    };
    auto old_bool_src = [&](TreeNodeId ox) {
      for (const LeafRef& y : d.prev_target->leaves(ot)) {
        if (PrevFinalLeafStrength(d, ox, y.leaf) >= th) return true;
      }
      return false;
    };
    auto new_bool_tgt = [&](TreeNodeId y) {
      for (const LeafRef& x : s_.leaves(ns)) {
        if (FinalLeafStrength(sims, x.leaf, y) >= th) return true;
      }
      return false;
    };
    auto old_bool_tgt = [&](TreeNodeId oy) {
      for (const LeafRef& x : d.prev_source->leaves(os)) {
        if (PrevFinalLeafStrength(d, x.leaf, oy) >= th) return true;
      }
      return false;
    };
    // Contribution of one leaf to (strong, included).
    auto contrib = [&](bool linked, bool optional, int64_t* str,
                       int64_t* inc, int64_t sign) {
      if (linked) {
        *str += sign;
        *inc += sign;
      } else if (!(opt_.optional_discount && optional)) {
        *inc += sign;
      }
    };

    // One side's adjustment: merge the new and old leaf lists in old-id
    // order; re-evaluate added/removed/flag-changed/dirty leaves.
    auto adjust_side = [&](const std::vector<LeafRef>& ln,
                           const std::vector<LeafRef>& lo,
                           const std::vector<TreeNodeId>& map,
                           const LeafPairBits& bits, TreeNodeId other_node,
                           bool other_members_changed, auto&& new_bool,
                           auto&& old_bool) {
      size_t i = 0, j = 0;
      while (i < ln.size() || j < lo.size()) {
        TreeNodeId mapped =
            i < ln.size() ? map[static_cast<size_t>(ln[i].leaf)] : kNoTreeNode;
        if (i < ln.size() &&
            (mapped == kNoTreeNode ||
             (j < lo.size() ? mapped < lo[j].leaf : true))) {
          // Added here (no old counterpart inside this block).
          contrib(new_bool(ln[i].leaf), ln[i].optional, &strong, &included,
                  +1);
          ++i;
          continue;
        }
        if (j < lo.size() && (i >= ln.size() || lo[j].leaf < mapped)) {
          // Removed from this block.
          contrib(old_bool(lo[j].leaf), lo[j].optional, &strong, &included,
                  -1);
          ++j;
          continue;
        }
        // Common leaf (mapped == lo[j].leaf).
        if (other_members_changed || ln[i].optional != lo[j].optional ||
            bits.AnyInRow(ln[i].leaf, other_node)) {
          contrib(old_bool(lo[j].leaf), lo[j].optional, &strong, &included,
                  -1);
          contrib(new_bool(ln[i].leaf), ln[i].optional, &strong, &included,
                  +1);
        }
        ++i;
        ++j;
      }
    };
    // Fast path: both leaf lists certified unchanged — only rows/columns
    // carrying dirty bits inside the block re-evaluate. The flags of a
    // dirty leaf are found by binary search in the (id-sorted) leaf list;
    // reusable[] guarantees the old flags match the new ones.
    auto optional_of = [](const std::vector<LeafRef>& list, TreeNodeId leaf) {
      auto it = std::lower_bound(
          list.begin(), list.end(), leaf,
          [](const LeafRef& a, TreeNodeId b) { return a.leaf < b; });
      return it->optional;
    };
    if (!src_members_changed && !tgt_members_changed) {
      d.dirty->ForEachDirtyRowInBlock(ns, nt, [&](TreeNodeId x) {
        bool optional = optional_of(s_.leaves(ns), x);
        contrib(old_bool_src(d.source_map[static_cast<size_t>(x)]), optional,
                &strong, &included, -1);
        contrib(new_bool_src(x), optional, &strong, &included, +1);
      });
      d.dirty_transposed->ForEachDirtyRowInBlock(nt, ns, [&](TreeNodeId y) {
        bool optional = optional_of(t_.leaves(nt), y);
        contrib(old_bool_tgt(d.target_map[static_cast<size_t>(y)]), optional,
                &strong, &included, -1);
        contrib(new_bool_tgt(y), optional, &strong, &included, +1);
      });
    } else {
      adjust_side(s_.leaves(ns), d.prev_source->leaves(os), d.source_map,
                  *d.dirty, nt, tgt_members_changed, new_bool_src,
                  old_bool_src);
      adjust_side(t_.leaves(nt), d.prev_target->leaves(ot), d.target_map,
                  *d.dirty_transposed, ns, src_members_changed, new_bool_tgt,
                  old_bool_tgt);
    }

    *strong_out = static_cast<int32_t>(strong);
    *included_out = static_cast<int32_t>(included);
    return included == 0 ? 0.0
                         : static_cast<double>(strong) /
                               static_cast<double>(included);
  }

  // -------------------------------------------------- the gather engine --
  //
  // Per-run dense leaf-pair state: ssim/lsim over (dense source leaf, dense
  // target leaf). Subtree leaf sets occupy contiguous dense ranges (DFS id
  // clustering, certified per node by LeafIndex::range_contiguous), so
  // structural-similarity scans stream rows and feedback replay scales
  // whole blocks with tight clamp loops.

  /// Fresh lsim projection (hoisted column->element index, no per-cell
  /// pointer chasing) plus the dense leaf-pair lsim mirror. A fresh fill is
  /// trivially bit-identical to ProjectLsim; gathering it from the previous
  /// run would need per-cell change flags for the same bandwidth.
  void ProjectLsimGather(const Matrix<float>& element_lsim,
                         const TreeMatchDelta& d, NodeSimilarities* sims) {
    const int64_t num_t = t_.num_nodes();
    std::vector<ElementId> t_el(static_cast<size_t>(num_t));
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      t_el[static_cast<size_t>(nt)] = t_.node(nt).source;
    }
    Matrix<float>* lsim_m = sims->mutable_lsim_matrix();
    // Feature-same rows under mapped runs are memcpy'd from the previous
    // final lsim (bit-equal by the locality contract); cells at unmapped or
    // feature-changed target columns — the only ones a copied row could get
    // wrong — are re-projected individually, and every other row falls
    // back to the fresh projection.
    const std::vector<IdRun> runs = BuildMappedIdRuns(d.target_map);
    // Unmapped columns (outside every run) and feature-changed mapped
    // columns both need the fresh projection.
    std::vector<TreeNodeId> fix_cols;
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      if (!d.target_lsim_same[static_cast<size_t>(nt)] &&
          t_el[static_cast<size_t>(nt)] != kNoElement) {
        fix_cols.push_back(nt);
      }
    }
    const Matrix<float>& prev_lsim = d.prev->sims.lsim_matrix();
    for (TreeNodeId ns = 0; ns < s_.num_nodes(); ++ns) {
      ElementId es = s_.node(ns).source;
      if (es == kNoElement) continue;
      const float* erow = element_lsim.row(es);
      float* lrow = lsim_m->row(ns);
      if (d.source_lsim_same[static_cast<size_t>(ns)]) {
        const float* prow =
            prev_lsim.row(d.source_map[static_cast<size_t>(ns)]);
        for (const IdRun& run : runs) {
          std::memcpy(lrow + run.dst, prow + run.src,
                      static_cast<size_t>(run.len) * sizeof(float));
        }
        // fix_cols covers unmapped columns too: lsim_same is 0 for them.
        for (TreeNodeId nt : fix_cols) {
          lrow[nt] = erow[t_el[static_cast<size_t>(nt)]];
        }
        continue;
      }
      for (int64_t nt = 0; nt < num_t; ++nt) {
        ElementId et = t_el[static_cast<size_t>(nt)];
        if (et != kNoElement) lrow[nt] = erow[et];
      }
    }
    const size_t nsl = d.source_leaves->num_leaves();
    const size_t ntl = d.target_leaves->num_leaves();
    leaf_lsim_ = Matrix<float>(static_cast<int64_t>(nsl),
                               static_cast<int64_t>(ntl));
    for (size_t r = 0; r < nsl; ++r) {
      const float* lrow = lsim_m->row(d.source_leaves->leaf(r));
      float* drow = leaf_lsim_.row(static_cast<int64_t>(r));
      for (size_t c = 0; c < ntl; ++c) {
        drow[c] = lrow[d.target_leaves->leaf(c)];
      }
    }
  }

  /// Type-seeded dense leaf ssim: one template row per distinct source leaf
  /// data type (the values InitLeafSsim would store), memcpy'd into every
  /// leaf row of that type.
  void InitLeafSsimDense(const TreeMatchDelta& d) {
    const size_t nsl = d.source_leaves->num_leaves();
    const size_t ntl = d.target_leaves->num_leaves();
    leaf_ssim_ = Matrix<float>(static_cast<int64_t>(nsl),
                               static_cast<int64_t>(ntl));
    std::vector<DataType> tgt_type(ntl);
    for (size_t c = 0; c < ntl; ++c) {
      tgt_type[c] =
          t_.schema().element(t_.node(d.target_leaves->leaf(c)).source)
              .data_type;
    }
    std::map<DataType, std::vector<float>> templates;
    for (size_t r = 0; r < nsl; ++r) {
      DataType ds =
          s_.schema().element(s_.node(d.source_leaves->leaf(r)).source)
              .data_type;
      auto [it, inserted] = templates.try_emplace(ds);
      if (inserted) {
        it->second.resize(ntl);
        for (size_t c = 0; c < ntl; ++c) {
          it->second[c] = static_cast<float>(types_.Get(ds, tgt_type[c]));
        }
      }
      std::memcpy(leaf_ssim_.row(static_cast<int64_t>(r)), it->second.data(),
                  ntl * sizeof(float));
    }
  }

  /// The sweep/recompute visit list: per source node, the target nodes
  /// forming a non-leaf pair with it that survive the leaf-count prune, in
  /// target post-order. Everything off the list is either a leaf pair
  /// (fires nothing, final wsim produced by the recompute gather) or pruned
  /// (never written by a from-scratch run). Stored on the delta so the
  /// sweep and the recompute pass build it once between them.
  void BuildVisitList(TreeMatchDelta* d, TreeMatchStats* stats) {
    const int64_t num_s = s_.num_nodes(), num_t = t_.num_nodes();
    int64_t src_leaves = 0;
    if (d->visit_begin.size() != static_cast<size_t>(num_s)) {
      d->visit_begin.assign(static_cast<size_t>(num_s), 0);
      d->visit_end.assign(static_cast<size_t>(num_s), 0);
      d->visit_data.clear();
      // Target post-order with sizes hoisted; plus the non-leaf-only subset
      // (the only qualifying partners of a source leaf).
      struct Tgt {
        TreeNodeId nt;
        size_t leaves;
      };
      std::vector<Tgt> all, nonleaf;
      all.reserve(static_cast<size_t>(num_t));
      for (TreeNodeId nt : t_.post_order()) {
        size_t sz = t_.leaves(nt).size();
        all.push_back({nt, sz});
        if (!t_.IsLeaf(nt)) nonleaf.push_back({nt, sz});
      }
      // Rows depend only on (source leaf count, source is-leaf): the prune
      // test sees sizes alone, and a leaf source just excludes leaf
      // targets. Equal-key rows share one span in visit_data (read-only
      // downstream), so the build is O(distinct keys x targets).
      std::map<std::pair<size_t, bool>, std::pair<int32_t, int32_t>> spans;
      for (TreeNodeId ns = 0; ns < num_s; ++ns) {
        const size_t s_sz = s_.leaves(ns).size();
        const bool is_leaf = s_.IsLeaf(ns);
        auto [it, inserted] = spans.try_emplace({s_sz, is_leaf});
        if (inserted) {
          it->second.first = static_cast<int32_t>(d->visit_data.size());
          const std::vector<Tgt>& cands = is_leaf ? nonleaf : all;
          for (const Tgt& c : cands) {
            if (!PrunedByLeafCount(opt_, s_sz, c.leaves)) {
              d->visit_data.push_back(c.nt);
            }
          }
          it->second.second = static_cast<int32_t>(d->visit_data.size());
        }
        d->visit_begin[static_cast<size_t>(ns)] = it->second.first;
        d->visit_end[static_cast<size_t>(ns)] = it->second.second;
      }
    }
    if (stats != nullptr) {
      for (TreeNodeId ns = 0; ns < num_s; ++ns) {
        if (s_.IsLeaf(ns)) ++src_leaves;
      }
      int64_t tgt_leaves = 0;
      int64_t list_pairs = 0;
      for (TreeNodeId nt = 0; nt < num_t; ++nt) {
        if (t_.IsLeaf(nt)) ++tgt_leaves;
      }
      for (TreeNodeId ns = 0; ns < num_s; ++ns) {
        list_pairs += d->visit_end[static_cast<size_t>(ns)] -
                      d->visit_begin[static_cast<size_t>(ns)];
      }
      stats->visit_list_pairs = list_pairs;
      // Pairs a full enumeration would have visited and pruned.
      stats->pairs_pruned_leaf_count =
          num_s * num_t - src_leaves * tgt_leaves - list_pairs;
    }
  }

  /// Leaf-count prune divergence: a pair pruned NOW whose previous
  /// counterpart fired feedback cannot replay that event, so everything it
  /// scaled is dirty. A prune decision only flips when an endpoint's leaf
  /// count changed, so only those rows/columns are checked — the legacy
  /// per-pair sweep ran this test on every pruned pair. Marking before the
  /// sweep instead of at the pair's post-order position is sound: dirty
  /// bits only ever force recomputation, and a rescan of a truly clean pair
  /// reproduces the reusable value bit for bit.
  void PruneDivergencePrepass(TreeMatchDelta* d, TreeMatchStats* stats) {
    const int64_t num_s = s_.num_nodes(), num_t = t_.num_nodes();
    auto check_pair = [&](TreeNodeId ns, TreeNodeId nt) {
      if (s_.IsLeaf(ns) && t_.IsLeaf(nt)) return;
      if (!PruneByLeafCount(ns, nt)) return;
      if (PrevFeedback(*d, ns, nt) != Feedback::kNone) {
        d->MarkBlockDirty(ns, nt);
        if (stats != nullptr) ++stats->feedback_divergences;
      }
    };
    for (TreeNodeId ns = 0; ns < num_s; ++ns) {
      if (!d->source_size_changed[static_cast<size_t>(ns)]) continue;
      for (TreeNodeId nt = 0; nt < num_t; ++nt) check_pair(ns, nt);
    }
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      if (!d->target_size_changed[static_cast<size_t>(nt)]) continue;
      for (TreeNodeId ns = 0; ns < num_s; ++ns) {
        if (d->source_size_changed[static_cast<size_t>(ns)]) continue;
        check_pair(ns, nt);
      }
    }
  }

  /// One visit-list pair of the warm sweep: reuse or rescan, divergence
  /// check, feedback replay. Identical decisions and leaf-state evolution
  /// to ComparePair. A reused pair's leaf block and lsim equal the previous
  /// run's pair, so it takes the previous decision; a rescanned pair mixes
  /// its wsim exactly as ComparePair does (from the float-stored ssim).
  /// Neither value is stored: the recompute pass writes every final
  /// non-leaf cell.
  void VisitPair(TreeNodeId ns, TreeNodeId nt, TreeMatchDelta* d,
                 TreeMatchResult* result) {
    ++result->stats.pairs_compared;
    const Feedback prev = PrevFeedback(*d, ns, nt);
    Feedback f = prev;
    if (CanReuse(result->sims, *d, ns, nt)) {
      ++result->stats.pairs_reused;
    } else {
      const float ssim = static_cast<float>(
          SweepStructuralSimilarity(*d, ns, nt, &result->stats));
      f = Classify(MixWsim(result->sims, ns, nt, ssim, false));
    }
    if (f != prev) {
      // The feedback history of every leaf pair under this one now differs
      // from the previous run; nothing below may be reused any more — the
      // per-node clean flags must be re-derived before the next skip.
      d->MarkBlockDirty(ns, nt);
      clean_flags_stale_ = true;
      ++result->stats.feedback_divergences;
    }
    if (f == Feedback::kIncrease) {
      ScaleBlockDense(*d, ns, nt, opt_.c_inc, &result->stats);
      result->events.push_back({ns, nt, int8_t{1}});
      ++result->stats.increases_applied;
    } else if (f == Feedback::kDecrease) {
      ScaleBlockDense(*d, ns, nt, opt_.c_dec, &result->stats);
      result->events.push_back({ns, nt, int8_t{-1}});
      ++result->stats.decreases_applied;
    }
  }

  /// Per-node clean flags: a pair of clean nodes provably satisfies
  /// CanReuse (both reusable, bit-equal lsim by the locality contract, no
  /// dirty leaf pair anywhere in either node's leaf range — a superset of
  /// the pair's block) and keeps its leaf-count prune decision (sizes
  /// unchanged). Divergences mark new dirty blocks mid-sweep, so the flags
  /// are re-derived lazily whenever that happens (divergences are rare;
  /// re-derivation is O(nodes) word tests).
  void DeriveCleanFlags(const TreeMatchDelta& d) {
    clean_flags_stale_ = false;
    const int64_t num_s = s_.num_nodes(), num_t = t_.num_nodes();
    s_clean_.assign(static_cast<size_t>(num_s), 0);
    t_clean_.assign(static_cast<size_t>(num_t), 0);
    // The dirty test uses the side-attributed leaf flags: a clean x clean
    // pair provably has an empty dirty block (see TreeMatchDelta), and a
    // single edited row/column only poisons its own side's nodes. Bounding
    // dense intervals over-approximate for DAG-shaped trees, which only
    // forces recomputation.
    auto range_dirty = [](const std::vector<uint8_t>& flags, int32_t begin,
                          int32_t end) {
      for (int32_t r = begin; r < end; ++r) {
        if (flags[static_cast<size_t>(r)]) return true;
      }
      return false;
    };
    for (TreeNodeId ns = 0; ns < num_s; ++ns) {
      if (!d.source_reusable[static_cast<size_t>(ns)] ||
          d.source_size_changed[static_cast<size_t>(ns)] ||
          !d.source_lsim_same[static_cast<size_t>(ns)]) {
        continue;
      }
      if (range_dirty(d.source_leaf_dirty, d.source_leaves->range_begin(ns),
                      d.source_leaves->range_end(ns))) {
        continue;
      }
      s_clean_[static_cast<size_t>(ns)] = 1;
    }
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      if (!d.target_reusable[static_cast<size_t>(nt)] ||
          d.target_size_changed[static_cast<size_t>(nt)] ||
          !d.target_lsim_same[static_cast<size_t>(nt)]) {
        continue;
      }
      if (range_dirty(d.target_leaf_dirty, d.target_leaves->range_begin(nt),
                      d.target_leaves->range_end(nt))) {
        continue;
      }
      t_clean_[static_cast<size_t>(nt)] = 1;
    }
  }

  /// The event-replay sweep: post-order over the visit list, each row
  /// merged with its old source's event slice (surviving target nodes keep
  /// their relative post-order, so both sequences advance monotonically).
  /// Clean pairs with an event replay it directly; clean pairs without one
  /// are skipped; everything else runs the full per-pair body. Events of
  /// old nodes without a counterpart are never replayed: every surviving
  /// leaf below such a node fails the delta's ancestor-chain test, so each
  /// block they scaled is dirty and its new pairs are rescanned.
  void ReplayLoop(TreeMatchDelta* d, TreeMatchResult* result) {
    const std::vector<FeedbackEvent>& events = d->prev->events;
    const int64_t num_t = t_.num_nodes();
    const std::vector<int32_t> tpos = PostOrderPositions(t_);
    std::vector<TreeNodeId> old2new_t(
        static_cast<size_t>(d->prev_target->num_nodes()), kNoTreeNode);
    for (TreeNodeId nt = 0; nt < num_t; ++nt) {
      TreeNodeId ot = d->target_map[static_cast<size_t>(nt)];
      if (ot != kNoTreeNode) old2new_t[static_cast<size_t>(ot)] = nt;
    }
    for (TreeNodeId ns : s_.post_order()) {
      const int32_t begin = d->visit_begin[static_cast<size_t>(ns)];
      const int32_t end = d->visit_end[static_cast<size_t>(ns)];
      int32_t i = begin;
      TreeNodeId os = d->source_map[static_cast<size_t>(ns)];
      if (os != kNoTreeNode) {
        for (int32_t ei = ev_begin_[static_cast<size_t>(os)];
             ei < ev_end_[static_cast<size_t>(os)]; ++ei) {
          const FeedbackEvent& e = events[static_cast<size_t>(ei)];
          TreeNodeId ntv = old2new_t[static_cast<size_t>(e.target)];
          if (ntv == kNoTreeNode) continue;  // no counterpart: dirty block
          while (i < end &&
                 tpos[static_cast<size_t>(
                     d->visit_data[static_cast<size_t>(i)])] <
                     tpos[static_cast<size_t>(ntv)]) {
            ProcessNonEventPair(ns, d->visit_data[static_cast<size_t>(i)], d,
                                result);
            ++i;
          }
          if (i < end && d->visit_data[static_cast<size_t>(i)] == ntv) {
            ++i;
            if (clean_flags_stale_) DeriveCleanFlags(*d);
            if (s_clean_[static_cast<size_t>(ns)] &&
                t_clean_[static_cast<size_t>(ntv)]) {
              // Clean: the decision reproduces bit-for-bit; replay it.
              ScaleBlockDense(*d, ns, ntv,
                              e.direction > 0 ? opt_.c_inc : opt_.c_dec,
                              &result->stats);
              result->events.push_back({ns, ntv, e.direction});
              if (e.direction > 0) {
                ++result->stats.increases_applied;
              } else {
                ++result->stats.decreases_applied;
              }
              ++result->stats.pairs_reused;
            } else {
              VisitPair(ns, ntv, d, result);
            }
          }
          // Off the visit list: the pair is pruned now; the prune
          // divergence prepass already dirtied everything it scaled.
        }
      }
      for (; i < end; ++i) {
        ProcessNonEventPair(ns, d->visit_data[static_cast<size_t>(i)], d,
                            result);
      }
    }
  }

  /// One visit-list pair with no previous event: a clean pair fired
  /// nothing before, so it fires nothing now (same inputs, same decision)
  /// — skip. Everything else runs the body.
  void ProcessNonEventPair(TreeNodeId ns, TreeNodeId nt, TreeMatchDelta* d,
                           TreeMatchResult* result) {
    if (clean_flags_stale_) DeriveCleanFlags(*d);
    if (s_clean_[static_cast<size_t>(ns)] &&
        t_clean_[static_cast<size_t>(nt)]) {
      ++result->stats.pairs_reused;
      return;
    }
    VisitPair(ns, nt, d, result);
  }

  /// Structural similarity over the dense leaf state — LinkStrength's exact
  /// arithmetic (w * ssim + (1.0 - w) * lsim on float loads) streamed over
  /// contiguous dense rows. Adds its link tests to `stats`.
  double SweepStructuralSimilarity(const TreeMatchDelta& d, TreeNodeId ns,
                                   TreeNodeId nt,
                                   TreeMatchStats* stats) const {
    const std::vector<LeafRef>& ls = s_.leaves(ns);
    const std::vector<LeafRef>& lt = t_.leaves(nt);
    const double w = opt_.wstruct_leaf;
    const double th = opt_.th_accept;
    const bool col_contig = d.target_leaves->range_contiguous(nt);
    const int32_t cb = d.target_leaves->range_begin(nt);
    const int32_t ce = d.target_leaves->range_end(nt);
    int64_t strong = 0, included = 0, tests = 0;
    for (const LeafRef& x : ls) {
      const int64_t r = d.source_leaves->dense(x.leaf);
      const float* srow = leaf_ssim_.row(r);
      const float* lrow = leaf_lsim_.row(r);
      bool has_link = false;
      if (col_contig) {
        for (int32_t c = cb; c < ce; ++c) {
          ++tests;
          if (w * srow[c] + (1.0 - w) * lrow[c] >= th) {
            has_link = true;
            break;
          }
        }
      } else {
        for (const LeafRef& y : lt) {
          ++tests;
          int32_t c = d.target_leaves->dense(y.leaf);
          if (w * srow[c] + (1.0 - w) * lrow[c] >= th) {
            has_link = true;
            break;
          }
        }
      }
      if (has_link) {
        ++strong;
        ++included;
      } else if (!(opt_.optional_discount && x.optional)) {
        ++included;
      }
    }
    for (const LeafRef& y : lt) {
      const int32_t c = d.target_leaves->dense(y.leaf);
      bool has_link = false;
      for (const LeafRef& x : ls) {
        ++tests;
        const int64_t r = d.source_leaves->dense(x.leaf);
        if (w * leaf_ssim_(r, c) + (1.0 - w) * leaf_lsim_(r, c) >= th) {
          has_link = true;
          break;
        }
      }
      if (has_link) {
        ++strong;
        ++included;
      } else if (!(opt_.optional_discount && y.optional)) {
        ++included;
      }
    }
    stats->link_tests += tests;
    return included == 0 ? 0.0
                         : static_cast<double>(strong) /
                               static_cast<double>(included);
  }

  /// Feedback replay as contiguous block scaling over the dense leaf ssim —
  /// ScaleSsim's exact cast-then-clamp arithmetic, without per-cell 2D
  /// indexing or cache-patching branches.
  void ScaleBlockDense(const TreeMatchDelta& d, TreeNodeId ns, TreeNodeId nt,
                       double factor, TreeMatchStats* stats) {
    const bool contig = d.source_leaves->range_contiguous(ns) &&
                        d.target_leaves->range_contiguous(nt);
    if (contig) {
      const int32_t rb = d.source_leaves->range_begin(ns);
      const int32_t re = d.source_leaves->range_end(ns);
      const int32_t cb = d.target_leaves->range_begin(nt);
      const int32_t ce = d.target_leaves->range_end(nt);
      for (int32_t r = rb; r < re; ++r) {
        float* row = leaf_ssim_.row(r);
        for (int32_t c = cb; c < ce; ++c) {
          float v = static_cast<float>(row[c] * factor);
          row[c] = v > 1.0f ? 1.0f : (v < 0.0f ? 0.0f : v);
        }
      }
      stats->scale_ops += static_cast<int64_t>(re - rb) * (ce - cb);
      return;
    }
    for (const LeafRef& x : s_.leaves(ns)) {
      float* row = leaf_ssim_.row(d.source_leaves->dense(x.leaf));
      for (const LeafRef& y : t_.leaves(nt)) {
        ++stats->scale_ops;
        int32_t c = d.target_leaves->dense(y.leaf);
        float v = static_cast<float>(row[c] * factor);
        row[c] = v > 1.0f ? 1.0f : (v < 0.0f ? 0.0f : v);
      }
    }
  }

  /// Writes the replayed final leaf state back into the node-pair matrix
  /// (the only leaf-pair ssim cells a from-scratch run materializes there).
  void ScatterLeafSsim(const TreeMatchDelta& d, NodeSimilarities* sims) {
    Matrix<float>* ssim_m = sims->mutable_ssim_matrix();
    const size_t nsl = d.source_leaves->num_leaves();
    const size_t ntl = d.target_leaves->num_leaves();
    for (size_t r = 0; r < nsl; ++r) {
      float* row = ssim_m->row(d.source_leaves->leaf(r));
      const float* drow = leaf_ssim_.row(static_cast<int64_t>(r));
      for (size_t c = 0; c < ntl; ++c) {
        row[d.target_leaves->leaf(c)] = drow[c];
      }
    }
  }

  // ---------------------------------------------- the scheduled cold passes --

  /// The pool of the cold passes, or null when one thread is asked for or
  /// the rows are too few to leave ParallelFor's inline path (2 * its
  /// 16-row minimum chunk): spawning workers would not pay.
  std::unique_ptr<ThreadPool> MakePool() const {
    const int threads = ThreadPool::EffectiveThreads(opt_.num_threads);
    if (threads <= 1 || s_.num_nodes() < 32) return nullptr;
    return std::make_unique<ThreadPool>(threads);
  }

  /// Splits the source tree top-down, largest subtree first, until every
  /// task holds at most num_nodes / threads nodes or cannot be split.
  /// Without a pool the whole tree is one task: the serial sweep. `lazy`
  /// (the sweep under lazy expansion) adds the constraint that no
  /// canonical/copy pair straddles a split.
  SweepSchedule BuildSchedule(ThreadPool* pool, const LazyGroups* lazy) const {
    const int64_t n = s_.num_nodes();
    const int threads = pool == nullptr ? 1 : pool->size();
    // Subtree node counts, used only to order and bound the split; a DAG
    // node is counted once per path, saturating at n.
    std::vector<int64_t> size(static_cast<size_t>(n), 1);
    for (TreeNodeId v : s_.post_order()) {
      int64_t& sv = size[static_cast<size_t>(v)];
      for (TreeNodeId c : s_.node(v).children) {
        sv = std::min(n, sv + size[static_cast<size_t>(c)]);
      }
    }
    const int64_t grain = std::max<int64_t>(1, n / threads);
    std::vector<int64_t> mark(static_cast<size_t>(n), -1);
    int64_t epoch = 0;
    std::vector<TreeNodeId> task_roots;
    // Max-heap on (size, id): deterministic order, largest subtree first.
    std::priority_queue<std::pair<int64_t, TreeNodeId>> open;
    open.push({size[static_cast<size_t>(s_.root())], s_.root()});
    while (!open.empty()) {
      const TreeNodeId v = open.top().second;
      const int64_t sv = open.top().first;
      open.pop();
      if (sv > grain && !s_.IsLeaf(v) &&
          ChildSubtreesIndependent(v, lazy, &mark, &epoch)) {
        for (TreeNodeId c : s_.node(v).children) {
          open.push({size[static_cast<size_t>(c)], c});
        }
      } else {
        task_roots.push_back(v);
      }
    }

    SweepSchedule schedule;
    schedule.num_tasks = static_cast<int>(task_roots.size());
    // Every node outside the task subtrees (split ancestors, and nodes the
    // root does not reach, which follow it in post-order) is spine.
    schedule.unit_of.assign(static_cast<size_t>(n), schedule.num_tasks);
    std::vector<TreeNodeId> stack;
    for (int u = 0; u < schedule.num_tasks; ++u) {
      stack.push_back(task_roots[static_cast<size_t>(u)]);
      while (!stack.empty()) {
        const TreeNodeId x = stack.back();
        stack.pop_back();
        int32_t& owner = schedule.unit_of[static_cast<size_t>(x)];
        if (owner == u) continue;
        owner = u;
        for (TreeNodeId c : s_.node(x).children) stack.push_back(c);
      }
    }
    // Group the post-order by unit (a stable counting sort).
    schedule.unit_begin.assign(static_cast<size_t>(schedule.num_tasks) + 2,
                               0);
    for (int32_t u : schedule.unit_of) {
      ++schedule.unit_begin[static_cast<size_t>(u) + 1];
    }
    for (size_t u = 1; u < schedule.unit_begin.size(); ++u) {
      schedule.unit_begin[u] += schedule.unit_begin[u - 1];
    }
    schedule.nodes.resize(static_cast<size_t>(n));
    std::vector<int32_t> fill(schedule.unit_begin.begin(),
                              schedule.unit_begin.end() - 1);
    for (TreeNodeId v : s_.post_order()) {
      const int32_t u = schedule.unit_of[static_cast<size_t>(v)];
      schedule.nodes[static_cast<size_t>(fill[static_cast<size_t>(u)]++)] = v;
    }
    return schedule;
  }

  /// True iff the subtrees of `v`'s children share no node and, under lazy
  /// expansion, every canonical/copy pair with a member in v's subtree has
  /// both members inside one child subtree. `mark` carries per-node labels
  /// from `*epoch` up, so no check clears it.
  bool ChildSubtreesIndependent(TreeNodeId v, const LazyGroups* lazy,
                                std::vector<int64_t>* mark,
                                int64_t* epoch) const {
    const std::vector<TreeNodeId>& kids = s_.node(v).children;
    const int64_t base = *epoch;
    *epoch += static_cast<int64_t>(kids.size()) + 1;
    (*mark)[static_cast<size_t>(v)] = base + static_cast<int64_t>(kids.size());
    std::vector<TreeNodeId> stack;
    for (size_t i = 0; i < kids.size(); ++i) {
      const int64_t label = base + static_cast<int64_t>(i);
      stack.push_back(kids[i]);
      while (!stack.empty()) {
        const TreeNodeId x = stack.back();
        stack.pop_back();
        int64_t& m = (*mark)[static_cast<size_t>(x)];
        if (m == label) continue;
        if (m >= base) return false;  // shared with an earlier child subtree
        m = label;
        for (TreeNodeId c : s_.node(x).children) stack.push_back(c);
      }
    }
    if (lazy == nullptr) return true;
    auto label_of = [&](TreeNodeId x) {
      const int64_t m = (*mark)[static_cast<size_t>(x)];
      return m >= base ? m : int64_t{-1};  // -1: outside v's subtree
    };
    for (const auto& [canon, copy] : lazy->aligned) {
      if (label_of(canon) != label_of(copy)) return false;
    }
    return true;
  }

  /// Runs `row(ns, tally)` for every source node by `schedule`: the tasks
  /// on the pool, largest first, then the spine on the calling thread.
  /// Returns one tally per unit.
  template <typename RowFn>
  std::vector<SweepTally> RunSchedule(ThreadPool* pool,
                                      const SweepSchedule& schedule,
                                      const RowFn& row) const {
    const int tasks = schedule.num_tasks;
    std::vector<SweepTally> tallies(static_cast<size_t>(tasks) + 1);
    auto run_unit = [&](int u) {
      // Tally in a local and store it once: workers writing adjacent
      // vector slots row by row would share cache lines.
      SweepTally local;
      for (int32_t i = schedule.unit_begin[static_cast<size_t>(u)];
           i < schedule.unit_begin[static_cast<size_t>(u) + 1]; ++i) {
        row(schedule.nodes[static_cast<size_t>(i)], &local);
      }
      tallies[static_cast<size_t>(u)] = std::move(local);
    };
    std::atomic<int> next{0};
    RunOnWorkers(pool, pool == nullptr ? 1 : std::min(pool->size(), tasks),
                 [&] {
                   for (int u = next++; u < tasks; u = next++) run_unit(u);
                 });
    run_unit(tasks);
    return tallies;
  }

  /// Sums the units' counters in unit order and merges their events into
  /// source post-order, the serial sweep's firing order: each unit's events
  /// are already in post-order, so one walk with a cursor per unit does it.
  void MergeTallies(const SweepSchedule& schedule,
                    const std::vector<SweepTally>& tallies,
                    TreeMatchResult* result) const {
    size_t num_events = 0;
    for (const SweepTally& t : tallies) {
      AddStats(t.stats, &result->stats);
      num_events += t.events.size();
    }
    result->events.reserve(num_events);
    std::vector<size_t> cursor(tallies.size(), 0);
    for (TreeNodeId ns : s_.post_order()) {
      const size_t u =
          static_cast<size_t>(schedule.unit_of[static_cast<size_t>(ns)]);
      const std::vector<FeedbackEvent>& events = tallies[u].events;
      size_t& k = cursor[u];
      while (k < events.size() && events[k].source == ns) {
        result->events.push_back(events[k++]);
      }
    }
  }

  /// Adds the counters a cold row can set.
  static void AddStats(const TreeMatchStats& from, TreeMatchStats* to) {
    to->pairs_compared += from.pairs_compared;
    to->pairs_pruned_leaf_count += from.pairs_pruned_leaf_count;
    to->pairs_skipped_lazy += from.pairs_skipped_lazy;
    to->leaf_scans_skipped += from.leaf_scans_skipped;
    to->increases_applied += from.increases_applied;
    to->decreases_applied += from.decreases_applied;
    to->link_tests += from.link_tests;
    to->scale_ops += from.scale_ops;
  }

  // Both init fills write disjoint source-node rows, so the row blocks can
  // run on the pool; results are identical at any thread count.
  void ProjectLsim(const Matrix<float>& element_lsim, NodeSimilarities* sims,
                   ThreadPool* pool) const {
    ParallelFor(pool, s_.num_nodes(), [&](int64_t begin, int64_t end) {
      for (TreeNodeId ns = static_cast<TreeNodeId>(begin);
           ns < static_cast<TreeNodeId>(end); ++ns) {
        ElementId es = s_.node(ns).source;
        if (es == kNoElement) continue;
        for (TreeNodeId nt = 0; nt < t_.num_nodes(); ++nt) {
          ElementId et = t_.node(nt).source;
          if (et == kNoElement) continue;
          sims->set_lsim(ns, nt, element_lsim(es, et));
        }
      }
    });
  }

  void InitLeafSsim(NodeSimilarities* sims, ThreadPool* pool) const {
    ParallelFor(pool, s_.num_nodes(), [&](int64_t begin, int64_t end) {
      for (TreeNodeId ns = static_cast<TreeNodeId>(begin);
           ns < static_cast<TreeNodeId>(end); ++ns) {
        if (!s_.IsLeaf(ns)) continue;
        DataType ds = s_.schema().element(s_.node(ns).source).data_type;
        for (TreeNodeId nt = 0; nt < t_.num_nodes(); ++nt) {
          if (!t_.IsLeaf(nt)) continue;
          DataType dt = t_.schema().element(t_.node(nt).source).data_type;
          sims->set_ssim(ns, nt, types_.Get(ds, dt));
        }
      }
    });
  }

  double MixWsim(const NodeSimilarities& sims, TreeNodeId ns, TreeNodeId nt,
                 double ssim, bool leaf_pair) const {
    double w = leaf_pair ? opt_.wstruct_leaf : opt_.wstruct_nonleaf;
    return w * ssim + (1.0 - w) * sims.lsim(ns, nt);
  }

  /// Strength of a potential leaf-level link. For true leaf pairs this is
  /// recomputed from the *current* ssim (it evolves); for depth-pruned
  /// frontier nodes the stored wsim snapshot is used (post-order guarantees
  /// it was computed before any pair that consults it).
  double LinkStrength(const NodeSimilarities& sims, TreeNodeId x,
                      TreeNodeId y) const {
    if (s_.IsLeaf(x) && t_.IsLeaf(y)) {
      return MixWsim(sims, x, y, sims.ssim(x, y), true);
    }
    return sims.wsim(x, y);
  }

  bool PruneByLeafCount(TreeNodeId ns, TreeNodeId nt) const {
    return PrunedByLeafCount(opt_, s_frontier_.of(ns).size(),
                             t_frontier_.of(nt).size());
  }

  /// The Section 6 / 8.4 structural similarity: fraction of the union of the
  /// two leaf sets with at least one strong link into the other set;
  /// optional leaves without strong links are dropped from both numerator
  /// and denominator when optional_discount is on.
  double StructuralSimilarity(const NodeSimilarities& sims, TreeNodeId ns,
                              TreeNodeId nt, int64_t* link_tests,
                              int32_t* strong_out = nullptr,
                              int32_t* included_out = nullptr) const {
    return LinkFraction(sims, s_frontier_.of(ns), t_frontier_.of(nt),
                        link_tests, strong_out, included_out);
  }

  /// Section 8.4 fast path: structural similarity over the immediate
  /// children only (their wsims are already computed, post-order).
  double ChildLevelSimilarity(const NodeSimilarities& sims, TreeNodeId ns,
                              TreeNodeId nt, int64_t* link_tests) const {
    std::vector<LeafRef> ls, lt;
    for (TreeNodeId c : s_.node(ns).children) {
      ls.push_back({c, s_.node(c).optional});
    }
    for (TreeNodeId c : t_.node(nt).children) {
      lt.push_back({c, t_.node(c).optional});
    }
    return LinkFraction(sims, ls, lt, link_tests, nullptr, nullptr);
  }

  /// The one link-test scan: the fraction of `ls` and `lt` entries with a
  /// strong link into the other list, with the integer tallies behind it.
  /// Adds its link tests to `*link_tests` unless that is null.
  double LinkFraction(const NodeSimilarities& sims,
                      const std::vector<LeafRef>& ls,
                      const std::vector<LeafRef>& lt, int64_t* link_tests,
                      int32_t* strong_out, int32_t* included_out) const {
    int64_t strong = 0, included = 0, tests = 0;
    for (const LeafRef& x : ls) {
      bool has_link = false;
      for (const LeafRef& y : lt) {
        ++tests;
        if (LinkStrength(sims, x.leaf, y.leaf) >= opt_.th_accept) {
          has_link = true;
          break;
        }
      }
      if (has_link) {
        ++strong;
        ++included;
      } else if (!(opt_.optional_discount && x.optional)) {
        ++included;
      }
    }
    for (const LeafRef& y : lt) {
      bool has_link = false;
      for (const LeafRef& x : ls) {
        ++tests;
        if (LinkStrength(sims, x.leaf, y.leaf) >= opt_.th_accept) {
          has_link = true;
          break;
        }
      }
      if (has_link) {
        ++strong;
        ++included;
      } else if (!(opt_.optional_discount && y.optional)) {
        ++included;
      }
    }
    if (link_tests != nullptr) *link_tests += tests;
    if (strong_out != nullptr) {
      *strong_out = static_cast<int32_t>(strong);
      *included_out = static_cast<int32_t>(included);
    }
    return included == 0 ? 0.0
                         : static_cast<double>(strong) /
                               static_cast<double>(included);
  }

  void ComparePair(TreeNodeId ns, TreeNodeId nt, NodeSimilarities* sims,
                   SweepTally* tally) const {
    TreeMatchStats& stats = tally->stats;
    const bool leaf_pair = s_.IsLeaf(ns) && t_.IsLeaf(nt);
    if (!leaf_pair) {
      if (PruneByLeafCount(ns, nt)) {
        ++stats.pairs_pruned_leaf_count;
        return;
      }
      bool skipped = false;
      if (opt_.skip_leaves_threshold > 0.0 && !s_.IsLeaf(ns) &&
          !t_.IsLeaf(nt)) {
        double child_sim =
            ChildLevelSimilarity(*sims, ns, nt, &stats.link_tests);
        if (child_sim >= opt_.skip_leaves_threshold) {
          sims->set_ssim(ns, nt, child_sim);
          ++stats.leaf_scans_skipped;
          skipped = true;
        }
      }
      if (!skipped) {
        sims->set_ssim(ns, nt,
                       StructuralSimilarity(*sims, ns, nt, &stats.link_tests));
      }
    }
    ++stats.pairs_compared;
    double wsim = MixWsim(*sims, ns, nt, sims->ssim(ns, nt), leaf_pair);
    sims->set_wsim(ns, nt, wsim);

    if (leaf_pair && !opt_.leaf_pair_feedback) return;
    if (wsim > opt_.th_high) {
      ScaleSubtreeLeaves(ns, nt, opt_.c_inc, sims, &stats);
      tally->events.push_back({ns, nt, int8_t{1}});
      ++stats.increases_applied;
    } else if (wsim < opt_.th_low) {
      ScaleSubtreeLeaves(ns, nt, opt_.c_dec, sims, &stats);
      tally->events.push_back({ns, nt, int8_t{-1}});
      ++stats.decreases_applied;
    }
  }

  void ScaleSubtreeLeaves(TreeNodeId ns, TreeNodeId nt, double factor,
                          NodeSimilarities* sims, TreeMatchStats* stats) const {
    const std::vector<LeafRef>& lt = t_.leaves(nt);
    for (const LeafRef& x : s_.leaves(ns)) {
      for (const LeafRef& y : lt) sims->ScaleSsim(x.leaf, y.leaf, factor);
    }
    stats->scale_ops +=
        static_cast<int64_t>(s_.leaves(ns).size() * lt.size());
  }

  /// Lazy expansion: every copy descendant inherits the full similarity rows
  /// (ssim and wsim) of its aligned canonical descendant, snapshotted at
  /// canonical-subtree completion. Context-dependent increases from the
  /// copies' ancestors still apply to the copied leaf rows afterwards.
  void PropagateRows(
      const std::vector<std::pair<TreeNodeId, TreeNodeId>>& pairs,
      NodeSimilarities* sims) const {
    for (const auto& [canon, copy] : pairs) {
      for (TreeNodeId nt = 0; nt < t_.num_nodes(); ++nt) {
        sims->set_ssim(copy, nt, sims->ssim(canon, nt));
        sims->set_wsim(copy, nt, sims->wsim(canon, nt));
      }
    }
  }

  const SchemaTree& s_;
  const SchemaTree& t_;
  const TypeCompatibilityTable& types_;
  TreeMatchOptions opt_;
  FrontierProvider s_frontier_;
  FrontierProvider t_frontier_;
  /// Gather-engine state (incremental runs only): dense leaf-pair ssim and
  /// lsim over (dense source leaf, dense target leaf), plus the per-node
  /// clean flags of the event-replay fast path (the visit list itself lives
  /// on the TreeMatchDelta, shared between the sweep and the recompute).
  Matrix<float> leaf_ssim_;
  Matrix<float> leaf_lsim_;
  std::vector<uint8_t> s_clean_, t_clean_;
  /// The previous trees' post-order positions, and each old source node's
  /// slice [ev_begin_, ev_end_) of the previous sweep's events
  /// (IndexPrevEvents).
  std::vector<int32_t> prev_spos_, prev_tpos_;
  std::vector<int32_t> ev_begin_, ev_end_;
  /// A mid-sweep divergence dirtied new leaf blocks; re-derive the clean
  /// flags before trusting them again.
  bool clean_flags_stale_ = false;
};

}  // namespace

Status ValidateTreeMatchOptions(const TreeMatchOptions& o) {
  auto in_unit = [](double v) { return v >= 0.0 && v <= 1.0; };
  if (!in_unit(o.th_high) || !in_unit(o.th_low) || !in_unit(o.th_accept)) {
    return Status::InvalidArgument("thresholds must be within [0,1]");
  }
  if (o.th_low > o.th_accept || o.th_accept > o.th_high) {
    return Status::InvalidArgument(
        "expected th_low <= th_accept <= th_high (Table 1)");
  }
  if (!in_unit(o.wstruct_leaf) || !in_unit(o.wstruct_nonleaf)) {
    return Status::InvalidArgument("wstruct must be within [0,1]");
  }
  if (o.c_inc < 1.0) {
    return Status::InvalidArgument("c_inc must be >= 1");
  }
  if (o.c_dec <= 0.0 || o.c_dec > 1.0) {
    return Status::InvalidArgument("c_dec must be within (0,1]");
  }
  if (o.max_leaf_depth < 0) {
    return Status::InvalidArgument("max_leaf_depth must be >= 0");
  }
  if (o.skip_leaves_threshold < 0.0 || o.skip_leaves_threshold > 1.0) {
    return Status::InvalidArgument(
        "skip_leaves_threshold must be within [0,1]");
  }
  if (o.num_threads < 0) {
    return Status::InvalidArgument("num_threads must be >= 0");
  }
  return Status::OK();
}

Result<TreeMatchResult> TreeMatch(const SchemaTree& source,
                                  const SchemaTree& target,
                                  const Matrix<float>& element_lsim,
                                  const TypeCompatibilityTable& types,
                                  const TreeMatchOptions& options) {
  CUPID_RETURN_NOT_OK(ValidateTreeMatchOptions(options));
  if (element_lsim.rows() != source.schema().num_elements() ||
      element_lsim.cols() != target.schema().num_elements()) {
    return Status::InvalidArgument(
        "element_lsim dimensions do not match the schemas");
  }
  TreeMatcher matcher(source, target, types, options);
  return matcher.Run(element_lsim);
}

Status RecomputeNonLeafSimilarities(const SchemaTree& source,
                                    const SchemaTree& target,
                                    const TreeMatchOptions& options,
                                    TreeMatchResult* result) {
  CUPID_RETURN_NOT_OK(ValidateTreeMatchOptions(options));
  if (result->sims.source_nodes() != source.num_nodes() ||
      result->sims.target_nodes() != target.num_nodes()) {
    return Status::InvalidArgument(
        "similarity matrix does not match the trees");
  }
  TypeCompatibilityTable types = TypeCompatibilityTable::Default();
  TreeMatcher matcher(source, target, types, options);
  matcher.Recompute(result);
  return Status::OK();
}

bool PrunedByLeafCount(const TreeMatchOptions& options, size_t source_leaves,
                       size_t target_leaves) {
  if (options.leaf_count_ratio <= 0.0) return false;
  size_t lo = std::min(source_leaves, target_leaves);
  size_t hi = std::max(source_leaves, target_leaves);
  if (lo == 0) return hi != 0;
  return static_cast<double>(hi) >
         options.leaf_count_ratio * static_cast<double>(lo);
}

bool SupportsIncrementalTreeMatch(const TreeMatchOptions& options) {
  // Depth-pruned frontiers and the skip-leaves fast path consult interior
  // wsim snapshots the dirty-leaf-pair analysis cannot see; lazy expansion
  // propagates whole rows mid-sweep; leaf-pair self-feedback would make
  // leaf wsims event-dependent. Everything else composes.
  return options.max_leaf_depth == 0 && options.skip_leaves_threshold == 0.0 &&
         !options.lazy_expansion && !options.leaf_pair_feedback;
}

namespace {

Status ValidateDelta(const SchemaTree& source, const SchemaTree& target,
                     const TreeMatchDelta& delta) {
  if (delta.prev_source == nullptr || delta.prev_target == nullptr ||
      delta.prev == nullptr || delta.source_leaves == nullptr ||
      delta.target_leaves == nullptr || delta.dirty == nullptr ||
      delta.dirty_transposed == nullptr) {
    return Status::InvalidArgument("TreeMatchDelta is incomplete");
  }
  if (delta.source_map.size() != static_cast<size_t>(source.num_nodes()) ||
      delta.target_map.size() != static_cast<size_t>(target.num_nodes()) ||
      delta.source_reusable.size() != delta.source_map.size() ||
      delta.target_reusable.size() != delta.target_map.size() ||
      delta.source_size_changed.size() != delta.source_map.size() ||
      delta.target_size_changed.size() != delta.target_map.size() ||
      delta.source_lsim_same.size() != delta.source_map.size() ||
      delta.target_lsim_same.size() != delta.target_map.size()) {
    return Status::InvalidArgument(
        "TreeMatchDelta maps do not match the trees");
  }
  const TreeMatchResult& prev = *delta.prev;
  const int64_t num_os = delta.prev_source->num_nodes();
  const int64_t num_ot = delta.prev_target->num_nodes();
  if (prev.sims.source_nodes() != num_os ||
      prev.sims.target_nodes() != num_ot ||
      prev.counts.strong.rows() != num_os ||
      prev.counts.strong.cols() != num_ot ||
      prev.counts.included.rows() != num_os ||
      prev.counts.included.cols() != num_ot) {
    return Status::InvalidArgument(
        "TreeMatchDelta's previous result does not match the previous trees");
  }
  return Status::OK();
}

}  // namespace

Result<TreeMatchResult> TreeMatchIncremental(
    const SchemaTree& source, const SchemaTree& target,
    const Matrix<float>& element_lsim, const TypeCompatibilityTable& types,
    const TreeMatchOptions& options, TreeMatchDelta* delta) {
  CUPID_RETURN_NOT_OK(ValidateTreeMatchOptions(options));
  if (!SupportsIncrementalTreeMatch(options)) {
    return Status::Unsupported(
        "incremental TreeMatch requires max_leaf_depth == 0, "
        "skip_leaves_threshold == 0, and lazy_expansion / "
        "leaf_pair_feedback off");
  }
  if (element_lsim.rows() != source.schema().num_elements() ||
      element_lsim.cols() != target.schema().num_elements()) {
    return Status::InvalidArgument(
        "element_lsim dimensions do not match the schemas");
  }
  CUPID_RETURN_NOT_OK(ValidateDelta(source, target, *delta));
  TreeMatcher matcher(source, target, types, options);
  return matcher.RunIncremental(element_lsim, delta);
}

Status RecomputeNonLeafSimilaritiesIncremental(const SchemaTree& source,
                                               const SchemaTree& target,
                                               const TreeMatchOptions& options,
                                               TreeMatchDelta* delta,
                                               TreeMatchResult* result) {
  CUPID_RETURN_NOT_OK(ValidateTreeMatchOptions(options));
  if (!SupportsIncrementalTreeMatch(options)) {
    return Status::Unsupported(
        "incremental recompute requires the incremental TreeMatch option "
        "subset");
  }
  if (result->sims.source_nodes() != source.num_nodes() ||
      result->sims.target_nodes() != target.num_nodes()) {
    return Status::InvalidArgument(
        "similarity matrix does not match the trees");
  }
  CUPID_RETURN_NOT_OK(ValidateDelta(source, target, *delta));
  TypeCompatibilityTable types = TypeCompatibilityTable::Default();
  TreeMatcher matcher(source, target, types, options);
  matcher.RecomputeIncremental(delta, result);
  return Status::OK();
}

}  // namespace cupid
