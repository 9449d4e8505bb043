#include "incremental/tree_match_delta.h"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <string>
#include <vector>

#include "core/match_pipeline.h"
#include "linguistic/linguistic_matcher.h"
#include "util/path_map.h"

namespace cupid {

namespace {

/// A schema tree's nodes as a containment forest (util/path_map.h).
struct NodeForest {
  const SchemaTree& t;
  int32_t size() const { return static_cast<int32_t>(t.num_nodes()); }
  const std::string& name(TreeNodeId n) const { return t.NodeName(n); }
  TreeNodeId parent(TreeNodeId n) const { return t.node(n).parent; }
  const std::vector<TreeNodeId>& children(TreeNodeId n) const {
    return t.node(n).children;
  }
};

/// Node correspondence new -> old: identity where ids provably or most
/// likely coincide, else by context path (MapByContainmentPath). Any map is
/// sound — every value-relevant input is verified independently downstream
/// (leaf sets, data types, ancestor chains, lsim cells) — so ambiguity only
/// degrades to recomputation, never to reuse of wrong values.
void MapByPath(const SchemaTree& nw, const SchemaTree& old,
               std::vector<TreeNodeId>* map) {
  // An unedited side's tree is a copy of the previous run's tree over the
  // SAME Schema object (only edited sides are rebuilt), so node ids
  // coincide. Rebuilt trees of equal size map by identity too when few
  // names/parents differ: in-place edits (renames, retypes) keep node ids
  // stable, and a renamed node's identity image IS its old self — which
  // path mapping only recovers via child alignment. The mismatch threshold
  // is purely a reuse-quality heuristic; adds/removes usually change the
  // node count and fall through to path mapping.
  const int64_t n = nw.num_nodes();
  bool identity = n == old.num_nodes() && &nw.schema() == &old.schema();
  if (n == old.num_nodes() && !identity) {
    const int64_t thr = std::max<int64_t>(4, n / 64);
    int64_t mismatches = 0;
    for (TreeNodeId i = 0; i < n && mismatches <= thr; ++i) {
      if (nw.NodeName(i) != old.NodeName(i) ||
          nw.node(i).parent != old.node(i).parent) {
        ++mismatches;
      }
    }
    identity = mismatches <= thr;
  }
  if (!identity) {
    *map = MapByContainmentPath(NodeForest{nw}, NodeForest{old});
    return;
  }
  map->resize(static_cast<size_t>(n));
  std::iota(map->begin(), map->end(), TreeNodeId{0});
}

/// reusable[n]: n is mapped and its leaf list corresponds entry-for-entry
/// to the old node's (same mapped leaf, same relative optionality). This
/// certifies MEMBERSHIP only — per-cell differences (renamed or retyped
/// leaves) are the dirty bitset's job, so they do not clear the flag. Leaf
/// lists are sorted by node id on both sides and the supported edits
/// preserve the relative order of surviving nodes, so the index-wise
/// comparison is exact; any order perturbation fails the check and
/// degrades to recomputation.
void ComputeReusable(const SchemaTree& nw, const SchemaTree& old,
                     const std::vector<TreeNodeId>& map,
                     std::vector<uint8_t>* out) {
  out->assign(static_cast<size_t>(nw.num_nodes()), 0);
  for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
    TreeNodeId o = map[static_cast<size_t>(n)];
    if (o == kNoTreeNode) continue;
    const std::vector<LeafRef>& ln = nw.leaves(n);
    const std::vector<LeafRef>& lo = old.leaves(o);
    if (ln.size() != lo.size()) continue;
    bool ok = true;
    for (size_t k = 0; k < ln.size(); ++k) {
      if (map[static_cast<size_t>(ln[k].leaf)] != lo[k].leaf ||
          ln[k].optional != lo[k].optional ||
          !old.IsLeaf(lo[k].leaf)) {
        ok = false;
        break;
      }
    }
    (*out)[static_cast<size_t>(n)] = ok ? 1 : 0;
  }
}

}  // namespace

/// Assembles the warm-start input: node correspondence, reusable flags, and
/// the seed dirty set (invalid leaves as whole rows/columns, changed lsim
/// cells pointwise).
TreeMatchDelta BuildTreeMatchDelta(const SchemaTree& snew,
                                   const SchemaTree& tnew,
                                   const Matrix<float>& element_lsim,
                                   const MatchResult& previous) {
  const SchemaTree& sold = previous.source_tree;
  const SchemaTree& told = previous.target_tree;
  const Matrix<float>& prev_element_lsim = previous.linguistic.lsim;
  TreeMatchDelta d;
  d.prev_source = &sold;
  d.prev_target = &told;
  d.prev = &previous.tree_match;
  MapByPath(snew, sold, &d.source_map);
  MapByPath(tnew, told, &d.target_map);

  d.source_leaves = std::make_unique<LeafIndex>(snew);
  d.target_leaves = std::make_unique<LeafIndex>(tnew);
  d.dirty =
      std::make_unique<LeafPairBits>(d.source_leaves.get(),
                                     d.target_leaves.get());
  d.dirty_transposed =
      std::make_unique<LeafPairBits>(d.target_leaves.get(),
                                     d.source_leaves.get());
  d.source_leaf_dirty.assign(d.source_leaves->num_leaves(), 0);
  d.target_leaf_dirty.assign(d.target_leaves->num_leaves(), 0);

  // Lsim-locality flags: a node whose element kept every lsim-relevant
  // local feature (and maps to a previous node) has bit-equal lsim against
  // any other flagged node — the per-node half of the gather engine's
  // clean-pair test (linguistic/linguistic_matcher.h). Computed before the
  // lsim diff below so changed cells can be dirt-attributed to the side
  // whose element actually changed.
  auto lsim_same = [](const SchemaTree& nw, const SchemaTree& old,
                      const std::vector<TreeNodeId>& map,
                      std::vector<uint8_t>* out) {
    out->assign(static_cast<size_t>(nw.num_nodes()), 0);
    for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
      TreeNodeId o = map[static_cast<size_t>(n)];
      if (o == kNoTreeNode) continue;
      ElementId en = nw.node(n).source;
      ElementId eo = old.node(o).source;
      if (en == kNoElement || eo == kNoElement) {
        // Element-less nodes project no lsim at all; both-less is a match.
        (*out)[static_cast<size_t>(n)] =
            (en == kNoElement && eo == kNoElement) ? 1 : 0;
        continue;
      }
      (*out)[static_cast<size_t>(n)] =
          SameLsimElementFeatures(nw.schema(), en, old.schema(), eo) ? 1 : 0;
    }
  };
  lsim_same(snew, sold, d.source_map, &d.source_lsim_same);
  lsim_same(tnew, told, d.target_map, &d.target_lsim_same);

  // A leaf is valid iff it maps to an old leaf of the same data type whose
  // ancestors are, level by level, the images of its own. Its type-seeded
  // init ssim row then starts out equal to the previous run's, and every
  // feedback event that ever scales its cells comes from an ancestor pair
  // whose decision the sweep compares against the corresponding old pair.
  // Anything else dirties the whole row/column: an identity-first map
  // after an add-plus-remove batch can pair a leaf with a shifted
  // neighbour under another parent, and a leaf below an old node that lost
  // its counterpart (a removed node, or one whose path became ambiguous)
  // carries feedback that node fired, which no new pair replays. The warm
  // path sees pure trees (join views force a cold run), so no other old
  // feedback can reach a valid leaf.
  auto leaf_valid = [](const SchemaTree& nw, const SchemaTree& old,
                       const std::vector<TreeNodeId>& map, TreeNodeId x) {
    TreeNodeId o = map[static_cast<size_t>(x)];
    if (o == kNoTreeNode || !old.IsLeaf(o)) return false;
    ElementId en = nw.node(x).source;
    ElementId eo = old.node(o).source;
    if (en == kNoElement || eo == kNoElement) return false;
    if (nw.schema().element(en).data_type !=
        old.schema().element(eo).data_type) {
      return false;
    }
    TreeNodeId a = nw.node(x).parent, oa = old.node(o).parent;
    for (; a != kNoTreeNode && oa != kNoTreeNode;
         a = nw.node(a).parent, oa = old.node(oa).parent) {
      if (map[static_cast<size_t>(a)] != oa) return false;
    }
    return a == kNoTreeNode && oa == kNoTreeNode;
  };
  std::vector<uint8_t> s_ok(static_cast<size_t>(snew.num_nodes()), 0);
  std::vector<uint8_t> t_ok(static_cast<size_t>(tnew.num_nodes()), 0);
  for (size_t j = 0; j < d.source_leaves->num_leaves(); ++j) {
    TreeNodeId x = d.source_leaves->leaf(j);
    if (leaf_valid(snew, sold, d.source_map, x)) {
      s_ok[static_cast<size_t>(x)] = 1;
    } else {
      d.MarkSourceRowDirty(x);
    }
  }
  for (size_t j = 0; j < d.target_leaves->num_leaves(); ++j) {
    TreeNodeId y = d.target_leaves->leaf(j);
    if (leaf_valid(tnew, told, d.target_map, y)) {
      t_ok[static_cast<size_t>(y)] = 1;
    } else {
      d.MarkTargetColDirty(y);
    }
  }

  // Changed linguistic similarities dirty their leaf pair (renames change
  // whole rows; categorization ripples are caught cell by cell since the
  // new lsim is available in full before this diff). The comparison runs
  // over the ELEMENT matrices of the two runs: per valid source leaf, the
  // new element row is checked against the previous run's — one memcmp
  // dismisses a bitwise-identical row when the valid target columns align
  // position-for-position (the common case: target untouched), and only
  // rows that differ walk their cells.
  {
    struct TgtCol {
      TreeNodeId y;
      ElementId et, oet;
    };
    std::vector<TgtCol> cols;
    cols.reserve(d.target_leaves->num_leaves());
    bool cols_aligned =
        element_lsim.cols() == prev_element_lsim.cols();
    for (size_t k = 0; k < d.target_leaves->num_leaves(); ++k) {
      TreeNodeId y = d.target_leaves->leaf(k);
      if (!t_ok[static_cast<size_t>(y)]) continue;
      TreeNodeId oy = d.target_map[static_cast<size_t>(y)];
      ElementId et = tnew.node(y).source;
      ElementId oet = told.node(oy).source;
      cols.push_back({y, et, oet});
      if (et != oet) cols_aligned = false;
    }
    const size_t row_bytes =
        static_cast<size_t>(element_lsim.cols()) * sizeof(float);
    // A changed cell is dirt-attributed to the side whose element features
    // changed (a row-shaped change flags only its source leaf, a
    // column-shaped one only its target leaf): any pair block containing
    // the cell contains that row/column, so one side always suffices for
    // the clean-pair test, and a single rename cannot smear "dirty" across
    // every node of the other side. Unattributable differences (both
    // sides feature-identical, which the locality contract rules out) flag
    // both sides defensively.
    auto mark_lsim_cell = [&](TreeNodeId x, TreeNodeId y) {
      d.dirty->Set(x, y);
      d.dirty_transposed->Set(y, x);
      const bool src_changed = !d.source_lsim_same[static_cast<size_t>(x)];
      const bool tgt_changed = !d.target_lsim_same[static_cast<size_t>(y)];
      if (src_changed || !tgt_changed) {
        d.source_leaf_dirty[static_cast<size_t>(
            d.source_leaves->dense(x))] = 1;
      }
      if (tgt_changed || !src_changed) {
        d.target_leaf_dirty[static_cast<size_t>(
            d.target_leaves->dense(y))] = 1;
      }
    };
    for (size_t j = 0; j < d.source_leaves->num_leaves(); ++j) {
      TreeNodeId x = d.source_leaves->leaf(j);
      if (!s_ok[static_cast<size_t>(x)]) continue;
      ElementId es = snew.node(x).source;
      ElementId oes = sold.node(
          d.source_map[static_cast<size_t>(x)]).source;
      const float* new_row = element_lsim.row(es);
      const float* old_row = prev_element_lsim.row(oes);
      if (cols_aligned &&
          std::memcmp(new_row, old_row, row_bytes) == 0) {
        continue;
      }
      for (const TgtCol& col : cols) {
        if (new_row[col.et] != old_row[col.oet]) {
          mark_lsim_cell(x, col.y);
        }
      }
    }
  }

  ComputeReusable(snew, sold, d.source_map, &d.source_reusable);
  ComputeReusable(tnew, told, d.target_map, &d.target_reusable);

  // Leaf-count change flags (mapped nodes whose true-leaf frontier size
  // differs from the previous counterpart's): the only rows/columns where
  // a leaf-count prune decision can flip, so the gather engine restricts
  // its prune-divergence checks and stale-cell fixups to them.
  auto size_changed = [](const SchemaTree& nw, const SchemaTree& old,
                         const std::vector<TreeNodeId>& map,
                         std::vector<uint8_t>* out) {
    out->assign(static_cast<size_t>(nw.num_nodes()), 0);
    for (TreeNodeId n = 0; n < nw.num_nodes(); ++n) {
      TreeNodeId o = map[static_cast<size_t>(n)];
      if (o != kNoTreeNode &&
          nw.leaves(n).size() != old.leaves(o).size()) {
        (*out)[static_cast<size_t>(n)] = 1;
      }
    }
  };
  size_changed(snew, sold, d.source_map, &d.source_size_changed);
  size_changed(tnew, told, d.target_map, &d.target_size_changed);

  return d;
}

}  // namespace cupid
