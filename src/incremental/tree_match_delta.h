// Warm-start input of the incremental TreeMatch: how the current schema
// trees relate to the previous run's (structural/tree_match.h,
// TreeMatchDelta). Built by the match pipeline's delta stage
// (core/match_pipeline.h) on every warm rematch.

#ifndef CUPID_INCREMENTAL_TREE_MATCH_DELTA_H_
#define CUPID_INCREMENTAL_TREE_MATCH_DELTA_H_

#include "structural/tree_match.h"
#include "tree/schema_tree.h"
#include "util/matrix.h"

namespace cupid {

struct MatchResult;

/// \brief Builds the warm-start input relating the new trees to the
/// previous run: node correspondence, reusable flags and seeded dirty leaf
/// pairs, with pointers into `previous` (trees, final similarities and
/// counts, sweep events), which must outlive the delta. Changed lsim cells
/// are found by diffing `element_lsim` row-wise against the previous run's
/// ELEMENT-level lsim under the element correspondence (rows that are
/// bitwise identical are dismissed with one memcmp).
TreeMatchDelta BuildTreeMatchDelta(const SchemaTree& new_source,
                                   const SchemaTree& new_target,
                                   const Matrix<float>& element_lsim,
                                   const MatchResult& previous);

}  // namespace cupid

#endif  // CUPID_INCREMENTAL_TREE_MATCH_DELTA_H_
