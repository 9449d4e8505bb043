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

/// \brief Builds the warm-start input relating the new trees to the
/// previous run's state: node correspondence, reusable flags, seeded dirty
/// leaf pairs, and snapshot pointers. `prev_element_lsim` is the previous
/// run's ELEMENT-level lsim table; changed cells are found by diffing it
/// row-wise against `element_lsim` under the element correspondence (rows
/// that are bitwise identical are dismissed with one memcmp).
TreeMatchDelta BuildTreeMatchDelta(const SchemaTree& new_source,
                                   const SchemaTree& new_target,
                                   const Matrix<float>& element_lsim,
                                   const SchemaTree& prev_source,
                                   const SchemaTree& prev_target,
                                   const Matrix<float>& prev_sweep_ssim,
                                   const NodeSimilarities& prev_final,
                                   const Matrix<float>& prev_element_lsim,
                                   const StructuralCounts* prev_final_counts,
                                   const TreeMatchOptions& options);

}  // namespace cupid

#endif  // CUPID_INCREMENTAL_TREE_MATCH_DELTA_H_
