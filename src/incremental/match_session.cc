#include "incremental/match_session.h"

#include <utility>

namespace cupid {

MatchSession::MatchSession(const Thesaurus* thesaurus, Schema source,
                           Schema target, CupidConfig config)
    : thesaurus_(thesaurus),
      config_(std::move(config)),
      lsim_cache_(thesaurus, config_.linguistic),
      work_source_(std::make_unique<Schema>(std::move(source))),
      work_target_(std::make_unique<Schema>(std::move(target))) {}

const Schema& MatchSession::source() const {
  return work_source_ ? *work_source_ : *cur_source_;
}

const Schema& MatchSession::target() const {
  return work_target_ ? *work_target_ : *cur_target_;
}

void MatchSession::EnsureEditable(EditSide side) {
  // Copy only the edited side: the other schema object stays identical, so
  // Rematch can reuse its tree wholesale.
  if (side == EditSide::kSource) {
    if (!work_source_) work_source_ = std::make_unique<Schema>(*cur_source_);
  } else {
    if (!work_target_) work_target_ = std::make_unique<Schema>(*cur_target_);
  }
}

Status MatchSession::ApplyEdit(const SchemaEdit& edit) {
  EnsureEditable(edit.side);
  Schema* schema = edit.side == EditSide::kSource ? work_source_.get()
                                                  : work_target_.get();
  return ApplySchemaEdit(schema, edit);
}

Result<const MatchResult*> MatchSession::Rematch() {
  if (result_ != nullptr && !work_source_ && !work_target_) {
    return result_.get();  // nothing edited since the last run
  }

  // This run's schemas: edited copies where present, otherwise the
  // already-matched ones. The edited copies stay queued until the commit
  // adopts them, so a failed Rematch loses no edits.
  const Schema* s = work_source_ ? work_source_.get() : cur_source_.get();
  const Schema* t = work_target_ ? work_target_.get() : cur_target_.get();

  // lsim through the persistent name-level cache: the first run fills it,
  // warm runs go down the lsim gather. With the perf cache disabled, the
  // naive reference pipeline runs instead — the session then exercises the
  // incremental structural path against uncached linguistic fills. The
  // structural stages warm-start from the previous run; the unedited
  // side's tree is reused (it points at the same, unchanged Schema).
  MatchInputs inputs;
  if (config_.linguistic.use_perf_cache) {
    inputs.lsim = result_ ? LsimSource::kGather : LsimSource::kCache;
    inputs.cache = &lsim_cache_;
  }
  if (result_ != nullptr) {
    inputs.structural = StructuralMode::kDelta;
    inputs.previous = result_.get();
  }

  // Commit. The old result (and the old schemas it references) die here;
  // the new result references the schemas owned below.
  auto commit = [&](MatchRun run) {
    result_ = std::make_unique<MatchResult>(std::move(run.result));
    if (work_source_) cur_source_ = std::move(work_source_);
    if (work_target_) cur_target_ = std::move(work_target_);
    stats_.incremental = run.warm;
    stats_.tree_match = result_->tree_match.stats;
    stats_.lsim_cached_pairs = lsim_cache_.num_cached_pairs();
    stats_.lsim_gathered_rows = result_->linguistic.gathered_rows;
  };
  CUPID_RETURN_NOT_OK(RunMatchPipeline(thesaurus_, config_, *s, *t, inputs,
                                       "session.rematch", commit));
  return result_.get();
}

}  // namespace cupid
