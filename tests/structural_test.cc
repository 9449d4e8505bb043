// Tests for structural matching (src/structural): type compatibility,
// TreeMatch dynamics (increases/decreases, pruning, optionality, lazy
// expansion), the recompute pass, and their invariance under the thread
// count.

#include <gtest/gtest.h>

#include <cstring>

#include "eval/synthetic.h"
#include "importers/sql_ddl_parser.h"
#include "linguistic/linguistic_matcher.h"
#include "schema/schema_builder.h"
#include "structural/tree_match.h"
#include "structural/type_compatibility.h"
#include "thesaurus/default_thesaurus.h"
#include "tree/tree_builder.h"

namespace cupid {
namespace {

TreeNodeId FindNode(const SchemaTree& t, const std::string& path) {
  for (TreeNodeId n = 0; n < t.num_nodes(); ++n) {
    if (t.PathName(n) == path) return n;
  }
  return kNoTreeNode;
}

// ---------------------------------------------------- type compatibility --

TEST(TypeCompatibilityTest, IdenticalTypesScoreHalf) {
  TypeCompatibilityTable t = TypeCompatibilityTable::Default();
  EXPECT_DOUBLE_EQ(t.Get(DataType::kInteger, DataType::kInteger), 0.5);
  EXPECT_DOUBLE_EQ(t.Get(DataType::kString, DataType::kString), 0.5);
}

TEST(TypeCompatibilityTest, SameClassBelowIdentical) {
  TypeCompatibilityTable t = TypeCompatibilityTable::Default();
  double same_class = t.Get(DataType::kInteger, DataType::kDecimal);
  EXPECT_LT(same_class, 0.5);
  EXPECT_GT(same_class, t.Get(DataType::kInteger, DataType::kBinary));
}

TEST(TypeCompatibilityTest, NeverExceedsHalf) {
  TypeCompatibilityTable t = TypeCompatibilityTable::Default();
  for (int i = 0; i <= static_cast<int>(DataType::kAny); ++i) {
    for (int j = 0; j <= static_cast<int>(DataType::kAny); ++j) {
      double v = t.Get(static_cast<DataType>(i), static_cast<DataType>(j));
      EXPECT_GE(v, 0.0);
      EXPECT_LE(v, 0.5);
    }
  }
}

TEST(TypeCompatibilityTest, SymmetricByDefault) {
  TypeCompatibilityTable t = TypeCompatibilityTable::Default();
  for (int i = 0; i <= static_cast<int>(DataType::kAny); ++i) {
    for (int j = 0; j <= static_cast<int>(DataType::kAny); ++j) {
      EXPECT_DOUBLE_EQ(
          t.Get(static_cast<DataType>(i), static_cast<DataType>(j)),
          t.Get(static_cast<DataType>(j), static_cast<DataType>(i)));
    }
  }
}

TEST(TypeCompatibilityTest, SetClampsAndSymmetrizes) {
  TypeCompatibilityTable t;
  t.Set(DataType::kInteger, DataType::kString, 0.9);  // clamped to 0.5
  EXPECT_DOUBLE_EQ(t.Get(DataType::kInteger, DataType::kString), 0.5);
  EXPECT_DOUBLE_EQ(t.Get(DataType::kString, DataType::kInteger), 0.5);
}

// -------------------------------------------------------------- TreeMatch --

/// Two tiny schemas with one matching and one non-matching container.
struct Fixture {
  Fixture() {
    XmlSchemaBuilder b1("S1");
    ElementId item1 = b1.AddElement(b1.root(), "Item");
    b1.AddAttribute(item1, "Qty", DataType::kDecimal);
    b1.AddAttribute(item1, "Price", DataType::kMoney);
    s1 = std::move(b1).Build();
    XmlSchemaBuilder b2("S2");
    ElementId item2 = b2.AddElement(b2.root(), "Item");
    b2.AddAttribute(item2, "Quantity", DataType::kDecimal);
    b2.AddAttribute(item2, "Cost", DataType::kMoney);
    s2 = std::move(b2).Build();
    thesaurus = DefaultThesaurus();
  }

  Result<TreeMatchResult> Run(const TreeMatchOptions& opts = {}) {
    LinguisticMatcher lm(&thesaurus, {});
    auto lres = lm.Match(s1, s2);
    if (!lres.ok()) return lres.status();
    auto t1 = BuildSchemaTree(s1);
    auto t2 = BuildSchemaTree(s2);
    if (!t1.ok()) return t1.status();
    if (!t2.ok()) return t2.status();
    tree1 = std::move(t1).ValueOrDie();
    tree2 = std::move(t2).ValueOrDie();
    return TreeMatch(*tree1, *tree2, lres->lsim,
                     TypeCompatibilityTable::Default(), opts);
  }

  Schema s1{"S1"}, s2{"S2"};
  Thesaurus thesaurus;
  std::optional<SchemaTree> tree1, tree2;
};

TEST(TreeMatchTest, LeafSsimInitializedFromTypeTable) {
  Fixture f;
  TreeMatchOptions opts;
  // Neutralize dynamics to observe pure initialization.
  opts.th_high = 1.0;
  opts.th_low = 0.0;
  opts.th_accept = 0.5;
  auto r = f.Run(opts);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  TreeNodeId qty = FindNode(*f.tree1, "S1.Item.Qty");
  TreeNodeId quantity = FindNode(*f.tree2, "S2.Item.Quantity");
  EXPECT_DOUBLE_EQ(r->sims.ssim(qty, quantity), 0.5);  // decimal-decimal
  TreeNodeId price = FindNode(*f.tree1, "S1.Item.Price");
  EXPECT_LT(r->sims.ssim(price, quantity), 0.5);  // money-decimal
}

TEST(TreeMatchTest, IncreaseAppliedUnderSimilarAncestors) {
  Fixture f;
  auto r = f.Run();
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.increases_applied, 0);
  TreeNodeId qty = FindNode(*f.tree1, "S1.Item.Qty");
  TreeNodeId quantity = FindNode(*f.tree2, "S2.Item.Quantity");
  // Above the 0.5 initialization thanks to ancestor reinforcement.
  EXPECT_GT(r->sims.ssim(qty, quantity), 0.5);
  EXPECT_GE(r->sims.wsim(qty, quantity), 0.5);
}

TEST(TreeMatchTest, WsimIsConvexMix) {
  Fixture f;
  auto r = f.Run();
  ASSERT_TRUE(r.ok());
  for (TreeNodeId a = 0; a < f.tree1->num_nodes(); ++a) {
    for (TreeNodeId b = 0; b < f.tree2->num_nodes(); ++b) {
      EXPECT_GE(r->sims.wsim(a, b), 0.0);
      EXPECT_LE(r->sims.wsim(a, b), 1.0);
      EXPECT_GE(r->sims.ssim(a, b), 0.0);
      EXPECT_LE(r->sims.ssim(a, b), 1.0);
    }
  }
}

TEST(TreeMatchTest, LeafCountPruningSkipsLopsidedPairs) {
  // A 1-leaf container vs an 8-leaf container exceeds the 2x ratio.
  XmlSchemaBuilder b1("S1");
  ElementId small = b1.AddElement(b1.root(), "Small");
  b1.AddAttribute(small, "x", DataType::kInteger);
  Schema s1 = std::move(b1).Build();
  XmlSchemaBuilder b2("S2");
  ElementId big = b2.AddElement(b2.root(), "Big");
  for (int i = 0; i < 8; ++i) {
    b2.AddAttribute(big, "c" + std::to_string(i), DataType::kInteger);
  }
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();
  auto r = TreeMatch(t1, t2, lres->lsim, TypeCompatibilityTable::Default(),
                     {});
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->stats.pairs_pruned_leaf_count, 0);

  TreeMatchOptions no_prune;
  no_prune.leaf_count_ratio = 0.0;
  auto r2 = TreeMatch(t1, t2, lres->lsim, TypeCompatibilityTable::Default(),
                      no_prune);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2->stats.pairs_pruned_leaf_count, 0);
  EXPECT_GT(r2->stats.pairs_compared, r->stats.pairs_compared);
}

TEST(TreeMatchTest, OptionalDiscountRaisesSsim) {
  // S1.Box{a} vs S2.Box{a, opt1..opt2 optional}: with the discount the
  // unmatched optional leaves do not dilute ssim.
  XmlSchemaBuilder b1("S1");
  ElementId box1 = b1.AddElement(b1.root(), "Box");
  b1.AddAttribute(box1, "alpha", DataType::kInteger);
  Schema s1 = std::move(b1).Build();
  XmlSchemaBuilder b2("S2");
  ElementId box2 = b2.AddElement(b2.root(), "Box");
  b2.AddAttribute(box2, "alpha", DataType::kInteger);
  b2.AddAttribute(box2, "extra", DataType::kBinary, /*optional=*/true);
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();

  TreeMatchOptions with;
  with.optional_discount = true;
  TreeMatchOptions without;
  without.optional_discount = false;
  auto r1 = TreeMatch(t1, t2, lres->lsim, TypeCompatibilityTable::Default(),
                      with);
  auto r2 = TreeMatch(t1, t2, lres->lsim, TypeCompatibilityTable::Default(),
                      without);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  TreeNodeId n1 = FindNode(t1, "S1.Box");
  TreeNodeId n2 = FindNode(t2, "S2.Box");
  EXPECT_GT(r1->sims.ssim(n1, n2), r2->sims.ssim(n1, n2));
  // With the discount the single required pair dominates: ssim 1.
  EXPECT_DOUBLE_EQ(r1->sims.ssim(n1, n2), 1.0);
}

TEST(TreeMatchTest, DepthLimitedFrontierDegradesToChildren) {
  // With max_leaf_depth=1 TreeMatch uses immediate children, the
  // alternative design Section 6 argues against. Nested-vs-flat matching
  // should get WORSE.
  XmlSchemaBuilder b1("S1");
  ElementId cust1 = b1.AddElement(b1.root(), "Customer");
  ElementId name1 = b1.AddElement(cust1, "Name");
  b1.AddAttribute(name1, "First", DataType::kString);
  b1.AddAttribute(name1, "Last", DataType::kString);
  Schema s1 = std::move(b1).Build();
  XmlSchemaBuilder b2("S2");
  ElementId cust2 = b2.AddElement(b2.root(), "Customer");
  b2.AddAttribute(cust2, "First", DataType::kString);
  b2.AddAttribute(cust2, "Last", DataType::kString);
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();

  TreeMatchOptions leaves;
  TreeMatchOptions children;
  children.max_leaf_depth = 1;
  auto r_leaves = TreeMatch(t1, t2, lres->lsim,
                            TypeCompatibilityTable::Default(), leaves);
  auto r_children = TreeMatch(t1, t2, lres->lsim,
                              TypeCompatibilityTable::Default(), children);
  ASSERT_TRUE(r_leaves.ok());
  ASSERT_TRUE(r_children.ok());
  TreeNodeId c1 = FindNode(t1, "S1.Customer");
  TreeNodeId c2 = FindNode(t2, "S2.Customer");
  EXPECT_GE(r_leaves->sims.ssim(c1, c2), r_children->sims.ssim(c1, c2));
}

TEST(TreeMatchTest, OptionValidation) {
  Fixture f;
  TreeMatchOptions bad;
  bad.th_low = 0.9;  // violates th_low <= th_accept
  EXPECT_TRUE(f.Run(bad).status().IsInvalidArgument());
  TreeMatchOptions bad2;
  bad2.c_inc = 0.5;
  EXPECT_TRUE(f.Run(bad2).status().IsInvalidArgument());
  TreeMatchOptions bad3;
  bad3.c_dec = 0.0;
  EXPECT_TRUE(f.Run(bad3).status().IsInvalidArgument());
  TreeMatchOptions bad4;
  bad4.max_leaf_depth = -1;
  EXPECT_TRUE(f.Run(bad4).status().IsInvalidArgument());
}

TEST(TreeMatchTest, DimensionMismatchRejected) {
  Fixture f;
  auto t1 = BuildSchemaTree(f.s1).ValueOrDie();
  auto t2 = BuildSchemaTree(f.s2).ValueOrDie();
  Matrix<float> wrong(1, 1);
  auto r = TreeMatch(t1, t2, wrong, TypeCompatibilityTable::Default(), {});
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

TEST(TreeMatchTest, SkipLeavesFastPathOnNearIdenticalSchemas) {
  // Section 8.4 last paragraph: when immediate children match very well,
  // the leaf scan is skipped. Identical schemas trigger it everywhere.
  XmlSchemaBuilder b1("S1");
  ElementId a1 = b1.AddElement(b1.root(), "Box");
  ElementId m1 = b1.AddElement(a1, "Mid");
  b1.AddAttribute(m1, "x", DataType::kInteger);
  b1.AddAttribute(m1, "y", DataType::kString);
  Schema s1 = std::move(b1).Build();
  XmlSchemaBuilder b2("S2");
  ElementId a2 = b2.AddElement(b2.root(), "Box");
  ElementId m2 = b2.AddElement(a2, "Mid");
  b2.AddAttribute(m2, "x", DataType::kInteger);
  b2.AddAttribute(m2, "y", DataType::kString);
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();

  TreeMatchOptions fast;
  fast.skip_leaves_threshold = 0.9;
  auto r_fast = TreeMatch(t1, t2, lres->lsim,
                          TypeCompatibilityTable::Default(), fast);
  ASSERT_TRUE(r_fast.ok());
  EXPECT_GT(r_fast->stats.leaf_scans_skipped, 0);

  auto r_slow = TreeMatch(t1, t2, lres->lsim,
                          TypeCompatibilityTable::Default(), {});
  ASSERT_TRUE(r_slow.ok());
  EXPECT_EQ(r_slow->stats.leaf_scans_skipped, 0);
  // The accepted links agree between the fast path and the full scan.
  for (TreeNodeId a = 0; a < t1.num_nodes(); ++a) {
    for (TreeNodeId b = 0; b < t2.num_nodes(); ++b) {
      EXPECT_EQ(r_fast->sims.wsim(a, b) >= 0.5,
                r_slow->sims.wsim(a, b) >= 0.5)
          << t1.PathName(a) << " vs " << t2.PathName(b);
    }
  }
}

TEST(TreeMatchTest, SkipLeavesThresholdValidated) {
  Fixture f;
  TreeMatchOptions bad;
  bad.skip_leaves_threshold = 1.5;
  EXPECT_TRUE(f.Run(bad).status().IsInvalidArgument());
}

// ---------------------------------------------------------- lazy expansion --

/// Shared-type schema matched against a flat schema; lazy and eager must
/// produce the same accepted leaf links.
TEST(TreeMatchTest, LazyExpansionPreservesLeafDecisions) {
  XmlSchemaBuilder b1("S1");
  ElementId addr_type = b1.AddComplexType("AddressType");
  b1.AddAttribute(addr_type, "Street", DataType::kString);
  b1.AddAttribute(addr_type, "City", DataType::kString);
  for (const char* ctx : {"ShipTo", "BillTo"}) {
    ElementId e = b1.AddElement(b1.root(), ctx);
    ElementId a = b1.AddElement(e, "Address");
    b1.SetType(a, addr_type);
  }
  Schema s1 = std::move(b1).Build();

  XmlSchemaBuilder b2("S2");
  for (const char* ctx : {"DeliverTo", "InvoiceTo"}) {
    ElementId e = b2.AddElement(b2.root(), ctx);
    b2.AddAttribute(e, "Street", DataType::kString);
    b2.AddAttribute(e, "City", DataType::kString);
  }
  Schema s2 = std::move(b2).Build();

  Thesaurus th = DefaultThesaurus();
  LinguisticMatcher lm(&th, {});
  auto lres = lm.Match(s1, s2);
  auto t1 = BuildSchemaTree(s1).ValueOrDie();
  auto t2 = BuildSchemaTree(s2).ValueOrDie();

  TreeMatchOptions eager;
  TreeMatchOptions lazy;
  lazy.lazy_expansion = true;
  auto r_eager = TreeMatch(t1, t2, lres->lsim,
                           TypeCompatibilityTable::Default(), eager);
  auto r_lazy = TreeMatch(t1, t2, lres->lsim,
                          TypeCompatibilityTable::Default(), lazy);
  ASSERT_TRUE(r_eager.ok());
  ASSERT_TRUE(r_lazy.ok());
  EXPECT_GT(r_lazy->stats.pairs_skipped_lazy, 0);
  EXPECT_LT(r_lazy->stats.pairs_compared, r_eager->stats.pairs_compared);

  // Accepted leaf links must agree.
  for (TreeNodeId a = 0; a < t1.num_nodes(); ++a) {
    if (!t1.IsLeaf(a)) continue;
    for (TreeNodeId b = 0; b < t2.num_nodes(); ++b) {
      if (!t2.IsLeaf(b)) continue;
      bool strong_eager = r_eager->sims.wsim(a, b) >= 0.5;
      bool strong_lazy = r_lazy->sims.wsim(a, b) >= 0.5;
      EXPECT_EQ(strong_eager, strong_lazy)
          << t1.PathName(a) << " vs " << t2.PathName(b);
    }
  }
}

// --------------------------------------------------------------- recompute --

TEST(TreeMatchTest, RecomputeRefreshesNonLeafSimilarities) {
  Fixture f;
  auto r = f.Run();
  ASSERT_TRUE(r.ok());
  TreeMatchResult result = std::move(r).ValueOrDie();
  TreeNodeId i1 = FindNode(*f.tree1, "S1.Item");
  TreeNodeId i2 = FindNode(*f.tree2, "S2.Item");
  double before = result.sims.ssim(i1, i2);
  ASSERT_TRUE(RecomputeNonLeafSimilarities(*f.tree1, *f.tree2, {}, &result)
                  .ok());
  double after = result.sims.ssim(i1, i2);
  // The recompute should not lower a fully-matched container's ssim.
  EXPECT_GE(after, before);
  EXPECT_DOUBLE_EQ(after, 1.0);
}

TEST(TreeMatchTest, RecomputeDimensionMismatchRejected) {
  Fixture f;
  auto r = f.Run();
  ASSERT_TRUE(r.ok());
  TreeMatchResult result = std::move(r).ValueOrDie();
  XmlSchemaBuilder other("Other");
  Schema s = std::move(other).Build();
  auto tree = BuildSchemaTree(s).ValueOrDie();
  EXPECT_TRUE(RecomputeNonLeafSimilarities(tree, *f.tree2, {}, &result)
                  .IsInvalidArgument());
}

// -------------------------------------------------------- thread invariance --

/// One TreeMatch input: two trees and the element lsim between them.
struct SweepInput {
  SweepInput(Schema s1, Schema s2)
      : source(std::move(s1)), target(std::move(s2)) {
    Thesaurus th = DefaultThesaurus();
    LinguisticMatcher lm(&th, {});
    lsim = lm.Match(source, target).ValueOrDie().lsim;
    source_tree = std::make_unique<SchemaTree>(
        BuildSchemaTree(source).ValueOrDie());
    target_tree = std::make_unique<SchemaTree>(
        BuildSchemaTree(target).ValueOrDie());
  }

  // The trees point at the schemas above.
  SweepInput(SweepInput&&) = delete;

  /// TreeMatch then RecomputeNonLeafSimilarities at `threads`.
  TreeMatchResult Run(TreeMatchOptions options, int threads) const {
    options.num_threads = threads;
    auto r = TreeMatch(*source_tree, *target_tree, lsim,
                       TypeCompatibilityTable::Default(), options);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return {};
    EXPECT_TRUE(
        RecomputeNonLeafSimilarities(*source_tree, *target_tree, options, &*r)
            .ok());
    return std::move(*r);
  }

  Schema source, target;
  Matrix<float> lsim;
  std::unique_ptr<SchemaTree> source_tree, target_tree;
};

template <typename T>
void ExpectSameBits(const Matrix<T>& a, const Matrix<T>& b,
                    const std::string& what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (int64_t r = 0; r < a.rows(); ++r) {
    ASSERT_EQ(std::memcmp(a.row(r), b.row(r),
                          static_cast<size_t>(a.cols()) * sizeof(T)),
              0)
        << what << " differs in row " << r;
  }
}

/// Everything a threaded run must reproduce of the one-thread run, bit for
/// bit: the ssim and wsim cells, both counts matrices, the event sequence
/// and every counter except sweep_tasks.
void ExpectSameResult(const TreeMatchResult& serial,
                      const TreeMatchResult& threaded,
                      const std::string& what) {
  ExpectSameBits(serial.sims.ssim_matrix(), threaded.sims.ssim_matrix(),
                 what + " ssim");
  ExpectSameBits(serial.sims.wsim_matrix(), threaded.sims.wsim_matrix(),
                 what + " wsim");
  ExpectSameBits(serial.counts.strong, threaded.counts.strong,
                 what + " counts.strong");
  ExpectSameBits(serial.counts.included, threaded.counts.included,
                 what + " counts.included");
  ASSERT_EQ(serial.events.size(), threaded.events.size()) << what;
  for (size_t k = 0; k < serial.events.size(); ++k) {
    const FeedbackEvent& a = serial.events[k];
    const FeedbackEvent& b = threaded.events[k];
    ASSERT_TRUE(a.source == b.source && a.target == b.target &&
                a.direction == b.direction)
        << what << " event " << k;
  }
  const TreeMatchStats& a = serial.stats;
  const TreeMatchStats& b = threaded.stats;
  EXPECT_EQ(a.pairs_compared, b.pairs_compared) << what;
  EXPECT_EQ(a.pairs_pruned_leaf_count, b.pairs_pruned_leaf_count) << what;
  EXPECT_EQ(a.pairs_skipped_lazy, b.pairs_skipped_lazy) << what;
  EXPECT_EQ(a.leaf_scans_skipped, b.leaf_scans_skipped) << what;
  EXPECT_EQ(a.increases_applied, b.increases_applied) << what;
  EXPECT_EQ(a.decreases_applied, b.decreases_applied) << what;
  EXPECT_EQ(a.link_tests, b.link_tests) << what;
  EXPECT_EQ(a.scale_ops, b.scale_ops) << what;
  EXPECT_EQ(a.pairs_reused, b.pairs_reused) << what;
  EXPECT_EQ(a.rows_gathered, b.rows_gathered) << what;
  EXPECT_EQ(a.visit_list_pairs, b.visit_list_pairs) << what;
  EXPECT_EQ(a.feedback_divergences, b.feedback_divergences) << what;
}

enum class Split { kSplits, kOneTask };

/// Runs `input` at 1, 2, 3, 4 and 8 threads and compares each against the
/// one-thread run; `split` says whether a threaded sweep may split.
void ExpectThreadInvariant(const SweepInput& input,
                           const TreeMatchOptions& options, Split split,
                           const std::string& what) {
  // Below 32 source nodes no pool is spawned and nothing is tested.
  ASSERT_GE(input.source_tree->num_nodes(), 32) << what;
  const TreeMatchResult serial = input.Run(options, 1);
  EXPECT_EQ(serial.stats.sweep_tasks, 1) << what;
  EXPECT_GT(serial.stats.pairs_compared, 0) << what;
  for (int threads : {2, 3, 4, 8}) {
    const std::string label = what + " @" + std::to_string(threads);
    const TreeMatchResult threaded = input.Run(options, threads);
    ExpectSameResult(serial, threaded, label);
    if (split == Split::kSplits) {
      EXPECT_GT(threaded.stats.sweep_tasks, 1) << label;
    } else {
      EXPECT_EQ(threaded.stats.sweep_tasks, 1) << label;
    }
  }
}

SweepInput SyntheticInput(double zipf) {
  SyntheticOptions o;
  o.num_elements = 512;
  o.name_zipf_exponent = zipf;
  o.seed = 7;
  SyntheticPair p = GenerateSyntheticPair(o);
  return SweepInput(std::move(p.source), std::move(p.target));
}

TEST(TreeMatchThreadsTest, SyntheticPairsAreThreadInvariant) {
  for (double zipf : {0.0, 1.1}) {
    const SweepInput input = SyntheticInput(zipf);
    const std::string what = zipf > 0 ? "zipf" : "uniform";
    ExpectThreadInvariant(input, {}, Split::kSplits, what);
    TreeMatchOptions depth2;
    depth2.max_leaf_depth = 2;
    ExpectThreadInvariant(input, depth2, Split::kSplits,
                          what + " max_leaf_depth=2");
    TreeMatchOptions skip;
    skip.skip_leaves_threshold = 0.9;
    ExpectThreadInvariant(input, skip, Split::kSplits,
                          what + " skip_leaves_threshold=0.9");
  }
}

TEST(TreeMatchThreadsTest, JoinViewDagRunsAsOneTask) {
  auto rdb = LoadSqlDdlFile(std::string(CUPID_DATA_DIR) + "/rdb.sql");
  auto star = LoadSqlDdlFile(std::string(CUPID_DATA_DIR) + "/star.sql");
  ASSERT_TRUE(rdb.ok() && star.ok());
  const SweepInput input(std::move(*rdb), std::move(*star));
  // The default tree build expands join views into nodes shared between
  // two parents; the test needs such a node to mean anything.
  bool shared = false;
  const SchemaTree& tree = *input.source_tree;
  for (TreeNodeId n = 0; n < tree.num_nodes() && !shared; ++n) {
    for (TreeNodeId c : tree.node(n).children) {
      shared = shared || tree.node(c).parent != n;
    }
  }
  ASSERT_TRUE(shared);
  ExpectThreadInvariant(input, {}, Split::kOneTask, "rdb-star");
}

/// A shared complex type under four top-level elements: under lazy
/// expansion its copies straddle every split of the root.
Schema SharedTypeSchema(const std::string& name, int contexts) {
  XmlSchemaBuilder b(name);
  ElementId type = b.AddComplexType("AddressType");
  for (const char* field : {"Street", "City", "Zip", "Country", "Region",
                            "Phone", "Fax", "Email", "Contact", "Note"}) {
    b.AddAttribute(type, field, DataType::kString);
  }
  for (int i = 0; i < contexts; ++i) {
    ElementId e = b.AddElement(b.root(), "Party" + std::to_string(i));
    b.AddAttribute(e, "Id" + std::to_string(i), DataType::kInteger);
    ElementId a = b.AddElement(e, "Address");
    b.SetType(a, type);
  }
  return std::move(b).Build();
}

TEST(TreeMatchThreadsTest, LazyExpansionIsThreadInvariant) {
  TreeMatchOptions lazy;
  lazy.lazy_expansion = true;
  // Copies in different subtrees of the root keep the tree one task.
  const SweepInput shared(SharedTypeSchema("S1", 4),
                          SharedTypeSchema("S2", 3));
  ExpectThreadInvariant(shared, lazy, Split::kOneTask, "shared-type lazy");
  EXPECT_GT(shared.Run(lazy, 4).stats.pairs_skipped_lazy, 0);
  // Without duplicated subtrees, lazy expansion does not constrain a split.
  ExpectThreadInvariant(SyntheticInput(0.0), lazy, Split::kSplits,
                        "uniform lazy");
}

}  // namespace
}  // namespace cupid
