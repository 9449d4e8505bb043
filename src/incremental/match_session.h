// MatchSession — incremental re-matching over an evolving schema pair.
//
// Section 8.4 of the paper envisions feeding a (possibly corrected)
// previous mapping back into a re-run; the serving pattern behind it is a
// schema repository whose schemas change a few elements at a time. A
// session owns one source/target pair plus all per-run state (token
// interner, token-pair memo, name-level lsim table, previous result)
// and recomputes, after each batch of edits, only what those edits dirtied:
//
//   * linguistic phase — name-pair similarities persist in an LsimCache;
//     new or renamed names miss, everything else is a table read;
//   * structural phase — TreeMatch warm-starts from the previous run's
//     result (final similarities and counts, and the sweep's feedback
//     events) via a node correspondence and a dirty leaf-pair bitset
//     (structural/tree_match.h, TreeMatchDelta);
//   * mapping generation — always re-derived (cheap, similarity-driven).
//
// Each Rematch is one run of the match pipeline (core/match_pipeline.h)
// with the gather lsim source and the delta structural mode, and emits one
// "session.rematch" span with the pipeline's stage timings.
//
// Rematch() output is bit-identical to a from-scratch CupidMatcher::Match
// on the session's current schemas (asserted by tests/incremental_test.cc
// and bench/bench_incremental.cc). Configurations outside the warm-start
// subset (see SupportsIncrementalTreeMatch), and trees with join-view /
// view augmentation nodes, fall back to a full recompute — still correct,
// just not faster.
//
// Quickstart:
//
//     MatchSession session(&thesaurus, std::move(po), std::move(order));
//     CUPID_ASSIGN_OR_RETURN(const MatchResult* r0, session.Rematch());
//     session.ApplyEdit(SchemaEdit::RenameElement(
//         EditSide::kSource, "PO.POLines.Item.Qty", "Quantity"));
//     CUPID_ASSIGN_OR_RETURN(const MatchResult* r1, session.Rematch());

#ifndef CUPID_INCREMENTAL_MATCH_SESSION_H_
#define CUPID_INCREMENTAL_MATCH_SESSION_H_

#include <memory>

#include "core/cupid_matcher.h"
#include "incremental/schema_edit.h"
#include "linguistic/lsim_cache.h"

namespace cupid {

/// How the last Rematch ran (diagnostics; drives bench assertions).
struct RematchStats {
  /// Warm start used (false on the first run, after unsupported configs,
  /// or when join views force the fallback).
  bool incremental = false;
  /// TreeMatch stats of the run (sweep + recompute combined). For warm
  /// starts, pairs_reused counts node pairs taken from the previous run.
  TreeMatchStats tree_match;
  /// Cumulative distinct name pairs memoized by the session's LsimCache.
  int64_t lsim_cached_pairs = 0;
  /// Lsim rows bulk-copied from the previous run by the gather (0 on cold
  /// runs, with the perf cache off, or when the gather fell back to the
  /// batch pipeline because too many elements changed).
  int64_t lsim_gathered_rows = 0;
};

/// \brief A stateful matching session over one evolving schema pair.
class MatchSession {
 public:
  /// `thesaurus` must outlive the session; the schemas are owned by it.
  MatchSession(const Thesaurus* thesaurus, Schema source, Schema target,
               CupidConfig config = {});

  MatchSession(const MatchSession&) = delete;
  MatchSession& operator=(const MatchSession&) = delete;

  /// \brief Queues `edit` against the current schemas. Takes effect
  /// immediately on source()/target(); similarity state is refreshed by the
  /// next Rematch().
  Status ApplyEdit(const SchemaEdit& edit);

  /// \brief (Re)matches the current schemas. The returned result is owned
  /// by the session and valid until the next successful Rematch(); it is
  /// bit-identical to CupidMatcher(thesaurus, config).Match(source(),
  /// target()). Serves the cached result if nothing was edited.
  Result<const MatchResult*> Rematch();

  const Schema& source() const;
  const Schema& target() const;
  /// Last Rematch result; null before the first Rematch.
  const MatchResult* last_result() const { return result_.get(); }
  const RematchStats& last_stats() const { return stats_; }
  const CupidConfig& config() const { return config_; }

 private:
  /// Copies one matched schema into its editable slot on first edit.
  void EnsureEditable(EditSide side);

  const Thesaurus* thesaurus_;
  CupidConfig config_;
  LsimCache lsim_cache_;

  /// Schemas being edited; null while identical to the matched ones.
  std::unique_ptr<Schema> work_source_, work_target_;
  /// Schemas of the last match, alive as long as result_ references them.
  std::unique_ptr<Schema> cur_source_, cur_target_;
  /// Last match output: the whole warm-start input of the next Rematch.
  std::unique_ptr<MatchResult> result_;
  RematchStats stats_;
};

}  // namespace cupid

#endif  // CUPID_INCREMENTAL_MATCH_SESSION_H_
