// edit_rematch: one single-element edit on a 512/side pair through
// SchemaRepository::ApplyEdit, then MatchService::Match with the session
// on; closed loop, one caller, shipped default service options. Four
// pairs take turns, 16 operations each, so one pair's shape does not set
// the run's figures.
//
// Chosen because the cost sits in the incremental engine (lsim gather,
// delta sweep, count-delta recompute) while the cold linguistic fill and
// the network do little: a sweep, replay or copy-removal change shows here.
//
// Edits cycle rename, retype, add, remove on one side, then the same four
// on the other side. After the timed phase every response is compared
// with a scratch CupidMatcher::Match on the repository's snapshots of the
// versions the response names.
//
// A traced run also sends a third of its operations through the network
// layer's ProtocolExecutor::Execute, wired as the socket server wires it,
// as an "edit" line and a "match" line on the same repository and service:
// the protocol's parse, dispatch and render, timed in process.

#include <cstdlib>
#include <cstring>

#include "bench.h"
#include "net/protocol.h"
#include "schema/data_type.h"
#include "service/match_service.h"
#include "service/schema_repository.h"
#include "thesaurus/default_thesaurus.h"
#include "util/json.h"
#include "util/strings.h"

namespace perfbench {
namespace {

constexpr int kElements = 512;
constexpr int kPairs = 4;
constexpr int kWarmupOps = 16 * kPairs;
constexpr int kSetupRepetitions = 11;
/// Peak RSS is read after this many timed operations: the repository keeps
/// every version, so a later reading would grow with the program's speed.
constexpr int64_t kRssAtOp = 256;

struct Outcome {
  int pair = 0;
  int source_version = 0;
  int target_version = 0;
  uint64_t digest = 0;
  /// The response line of an operation sent through the protocol; its
  /// mappings are compared as rendered.
  std::string line;
};

/// The protocol's "edit" request for `edit` of the schema named `name`.
std::string EditLine(const std::string& name, const cupid::SchemaEdit& e) {
  cupid::JsonWriter w;
  w.BeginObject();
  w.Key("cmd");
  w.String("edit");
  w.Key("name");
  w.String(name);
  w.Key("op");
  switch (e.kind) {
    case cupid::SchemaEdit::Kind::kRenameElement:
      w.String("rename");
      w.Key("path");
      w.String(e.path);
      w.Key("to");
      w.String(e.new_name);
      break;
    case cupid::SchemaEdit::Kind::kChangeDataType:
      w.String("retype");
      w.Key("path");
      w.String(e.path);
      w.Key("type");
      w.String(cupid::DataTypeName(e.new_type));
      break;
    case cupid::SchemaEdit::Kind::kAddElement:
      w.String("add");
      w.Key("parent");
      w.String(e.path);
      w.Key("leaf");
      w.String(e.element.name);
      w.Key("type");
      w.String(cupid::DataTypeName(e.element.data_type));
      w.Key("optional");
      w.Bool(e.element.optional);
      break;
    case cupid::SchemaEdit::Kind::kRemoveElement:
      w.String("remove");
      w.Key("path");
      w.String(e.path);
      break;
  }
  w.EndObject();
  return std::move(w).str();
}

/// Integer after `key` in a response line, or -1.
int FindInt(const std::string& line, const char* key) {
  size_t at = line.find(key);
  if (at == std::string::npos) return -1;
  return std::atoi(line.c_str() + at + std::strlen(key));
}

}  // namespace

void RunEditRematch(const Args& args, Report* report) {
  std::vector<cupid::SyntheticPair> pairs;
  std::vector<cupid::MatchRequest> requests;
  for (int k = 0; k < kPairs; ++k) {
    pairs.push_back(
        MakePair(kElements, /*zipf=*/false, StreamSeed(args.seed, 100 + k)));
    cupid::MatchRequest request;
    request.source = "src" + std::to_string(k);
    request.target = "tgt" + std::to_string(k);
    requests.push_back(request);
  }
  /// A thesaurus, a repository holding every pair and a service whose
  /// sessions are warm.
  struct Stack {
    cupid::Thesaurus thesaurus = cupid::DefaultThesaurus();
    cupid::SchemaRepository repo;
    cupid::MatchService service{&thesaurus, &repo};
  };
  bool setup_ok = true;
  auto setup = [&] {
    auto stack = std::make_unique<Stack>();
    for (int k = 0; k < kPairs; ++k) {
      const cupid::MatchRequest& r = requests[static_cast<size_t>(k)];
      const cupid::SyntheticPair& p = pairs[static_cast<size_t>(k)];
      setup_ok &=
          stack->repo.Register(r.source, ThroughImporter(p.source)).ok() &&
          stack->repo.Register(r.target, ThroughImporter(p.target)).ok();
      // The first match warms the pair's session: the lazy set-up a
      // long-lived service pays once.
      setup_ok &= stack->service.Match(r).ok();
    }
    return stack;
  };
  std::unique_ptr<Stack> stack;
  SetupSampler setups(args.trace ? 1 : kSetupRepetitions, args.seconds);
  setups.Time([&] { stack = setup(); });
  if (!setup_ok) report->Fail("set-up failed");
  cupid::Thesaurus& thesaurus = stack->thesaurus;
  cupid::SchemaRepository* repo = &stack->repo;
  cupid::MatchService* service = &stack->service;
  // Later repetitions build a second stack between operations; they start
  // once peak memory is read.
  std::unique_ptr<Stack> spare;
  auto throwaway_setup = [&] { spare = setup(); };
  auto drop_spare = [&] { spare.reset(); };

  int64_t source_elements = 0, target_elements = 0;
  for (const cupid::SyntheticPair& p : pairs) {
    source_elements += p.source.num_elements();
    target_elements += p.target.num_elements();
  }
  report->notes.push_back(cupid::StringFormat(
      "{\"inputs\":{\"workload\":\"edit_rematch\",\"pairs\":%d,"
      "\"elements_per_side\":%d,\"mean_source_elements\":%.1f,"
      "\"mean_target_elements\":%.1f,\"zipf_share\":0,"
      "\"edits\":\"rename,retype,add,remove; side alternates every 4; "
      "pair every 16\",\"loop\":\"closed, 1 caller\"}}",
      kPairs, kElements, static_cast<double>(source_elements) / kPairs,
      static_cast<double>(target_elements) / kPairs));

  // The network layer's executor over the same repository and service, in
  // the socket server's mode (match calls the service directly).
  cupid::ProtocolExecutor::Options protocol_options;
  protocol_options.socket_mode = true;
  cupid::ProtocolExecutor executor(&thesaurus, repo, service,
                                   /*scheduler=*/nullptr, /*search=*/nullptr,
                                   /*broker=*/nullptr, protocol_options);

  EditGenerator edits(StreamSeed(args.seed, 101));
  std::vector<Outcome> outcomes;
  int64_t incremental_runs = 0;
  SpanLog log;
  ProgramSpans program;
  Samples untraced, traced, apply_ms, match_ms, overhead_ms;
  HostReference host;
  Samples execute_edit_ms, execute_match_ms;
  Samples ling, trees, delta, sweep, recompute, mapping, commit, unattributed;
  double link_tests = 0, scale_ops = 0, reused = 0, visit = 0;
  double gathered_rows = 0, source_rows = 0;
  int64_t sweeps = 0;
  double rss_mb = 0;

  // Operation i: its pair, the schema it edits and the edit. Pairs take
  // 16 operations each in turn; edits cycle rename, retype, add, remove on
  // one side, then on the other.
  struct Op {
    int pair;
    const cupid::MatchRequest* request;
    const std::string* name;
    cupid::SchemaEdit edit;
  };
  auto make_op = [&](int64_t i) {
    const int k = static_cast<int>((i / 16) % kPairs);
    const cupid::MatchRequest& request = requests[static_cast<size_t>(k)];
    const bool source_side = (i / 4) % 2 == 0;
    const std::string& name = source_side ? request.source : request.target;
    auto schema = repo->Get(name);
    return Op{k, &request, &name,
              edits.Make(**schema, static_cast<int>(i % 4),
                         source_side ? cupid::EditSide::kSource
                                     : cupid::EditSide::kTarget)};
  };

  // One operation: edit, then match. Returns its latency in ms.
  auto run_op = [&](int64_t i, bool with_spans) -> double {
    const Op op = make_op(i);
    const int k = op.pair;
    const cupid::MatchRequest& request = *op.request;
    const std::string& name = *op.name;
    int64_t root = -1, span = -1;
    double edit_ms = 0, service_ms = 0;
    Clock::time_point t0 = Clock::now();
    if (with_spans) {
      root = log.Open("edit_rematch.op", -1, i);
      span = log.Open("repository.apply_edit", root, i);
    }
    cupid::Result<int> version = repo->ApplyEdit(name, op.edit);
    if (with_spans) {
      edit_ms = log.Close(span);
      span = log.Open("service.match", root, i);
    }
    cupid::Result<cupid::MatchResponse> response = service->Match(request);
    if (with_spans) {
      service_ms = log.Close(span);
      log.Close(root);
    }
    const double op_ms = MsBetween(t0, Clock::now());

    ++report->attempted;
    if (!version.ok() || !response.ok()) {
      report->Fail("edit or match failed: " +
                   (version.ok() ? response.status() : version.status())
                       .ToString());
      return op_ms;
    }
    if (response->incremental && !response->result_cache_hit) {
      ++incremental_runs;
    }
    outcomes.push_back(Outcome{
        k, response->source_version, response->target_version,
        MappingDigest(response->leaf_mapping, response->nonleaf_mapping), ""});
    if (!with_spans) return op_ms;

    apply_ms.Add(edit_ms);
    match_ms.Add(service_ms);
    overhead_ms.Add(service_ms - response->timings.match_ms);
    for (const cupid::obs::SpanRecord& s : program.Take(i, root)) {
      const std::string span_name = s.name;
      if (span_name == "session.rematch" && SpanAttr(s, "warm") == 1.0) {
        double parts[7] = {SpanAttr(s, "linguistic_ms"),
                           SpanAttr(s, "trees_ms"),
                           SpanAttr(s, "delta_ms"),
                           SpanAttr(s, "sweep_ms"),
                           SpanAttr(s, "recompute_ms"),
                           SpanAttr(s, "mapping_ms"),
                           SpanAttr(s, "commit_ms")};
        ling.Add(parts[0]);
        trees.Add(parts[1]);
        delta.Add(parts[2]);
        sweep.Add(parts[3]);
        recompute.Add(parts[4]);
        mapping.Add(parts[5]);
        commit.Add(parts[6]);
        double sum = 0;
        for (double p : parts) sum += p;
        unattributed.Add(static_cast<double>(s.duration_us) / 1000.0 - sum);
        gathered_rows += SpanAttr(s, "gathered_rows");
        auto source = repo->Get(request.source, response->source_version);
        if (source.ok()) {
          source_rows += static_cast<double>((*source)->num_elements());
        }
      } else if (span_name == "treematch.sweep") {
        link_tests += SpanAttr(s, "link_tests");
        scale_ops += SpanAttr(s, "scale_ops");
        reused += SpanAttr(s, "reused");
        visit += SpanAttr(s, "visit");
        ++sweeps;
      }
    }
    return op_ms;
  };

  // One operation through the protocol: the same edit and match as
  // request lines, each Execute call in a span.
  auto run_protocol_op = [&](int64_t i) {
    const Op op = make_op(i);
    const int k = op.pair;
    const cupid::MatchRequest& request = *op.request;
    const std::string edit_line = EditLine(*op.name, op.edit);
    // An empty config object selects CupidConfig{}, the configuration of
    // the direct operations, so both reach the same session. Without it the
    // protocol applies the server default (one thread per match), whose
    // session would catch up on every edit made since its last turn.
    const std::string match_line = "{\"cmd\":\"match\",\"source\":\"" +
                                   request.source + "\",\"target\":\"" +
                                   request.target + "\",\"config\":{}}";
    std::vector<std::string> responses;
    auto sink = [&](const std::string& line) { responses.push_back(line); };
    const int64_t root = log.Open("edit_rematch.op", -1, i);
    int64_t span = log.Open("net.execute.edit", root, i);
    executor.Execute(1, edit_line, sink);
    execute_edit_ms.Add(log.Close(span));
    span = log.Open("net.execute.match", root, i);
    executor.Execute(1, match_line, sink);
    execute_match_ms.Add(log.Close(span));
    log.Close(root);
    program.Take(i, root);

    ++report->attempted;
    std::string problem =
        responses.size() == 2 ? "" : "expected one response per line";
    for (const std::string& line : responses) {
      if (problem.empty()) problem = CheckFrame(line);
    }
    if (!problem.empty()) {
      report->Fail("protocol operation: " + problem);
      return;
    }
    if (responses[1].find("\"incremental\":true") != std::string::npos &&
        responses[1].find("\"result_cache_hit\":true") == std::string::npos) {
      ++incremental_runs;
    }
    outcomes.push_back(Outcome{k, FindInt(responses[1], "\"source_version\":"),
                               FindInt(responses[1], "\"target_version\":"),
                               0, responses[1]});
  };

  int64_t i = 0;
  for (; i < kWarmupOps; ++i) run_op(i, false);
  const Clock::time_point end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(args.seconds));
  for (int64_t timed = 0; Clock::now() < end; ++i, ++timed) {
    if (timed == kRssAtOp) rss_mb = SelfPeakRssMb();
    if (timed > kRssAtOp) setups.TimeIfDue(throwaway_setup, drop_spare);
    // Traced runs rotate blocks of 8 operations (every edit kind on both
    // sides) through untraced, traced and traced-through-the-protocol.
    const int64_t mode = args.trace ? (i / 8) % 3 : 0;
    if (mode == 0) {
      untraced.Add(run_op(i, false));
      host.TimeIfDue();
    } else {
      ScopedSink sink(&program);
      if (mode == 1) {
        traced.Add(run_op(i, true));
      } else {
        run_protocol_op(i);
      }
    }
  }
  if (rss_mb == 0) rss_mb = SelfPeakRssMb();
  setups.TimeRemaining(throwaway_setup, drop_spare);

  // Verification: a scratch match per response.
  cupid::CupidConfig scratch_config;
  scratch_config.SetNumThreads(1);
  std::vector<std::string> mismatches(outcomes.size());
  ParallelFor(outcomes.size(), [&](size_t n) {
    const Outcome& o = outcomes[n];
    const cupid::MatchRequest& request = requests[static_cast<size_t>(o.pair)];
    auto s = repo->Get(request.source, o.source_version);
    auto t = repo->Get(request.target, o.target_version);
    if (!s.ok() || !t.ok()) {
      mismatches[n] = "snapshot missing";
      return;
    }
    auto r = cupid::CupidMatcher(&thesaurus, scratch_config).Match(**s, **t);
    if (!r.ok()) {
      mismatches[n] = "scratch match failed";
    } else if (!o.line.empty()) {
      mismatches[n] =
          CompareMappingJson(o.line, r->leaf_mapping, r->nonleaf_mapping);
    } else if (MappingDigest(r->leaf_mapping, r->nonleaf_mapping) !=
               o.digest) {
      mismatches[n] = cupid::StringFormat(
          "%s at versions %d/%d differs from a scratch match",
          request.source.c_str(), o.source_version, o.target_version);
    }
  });
  for (const std::string& m : mismatches) {
    if (!m.empty()) report->Fail(m);
  }

  if (!args.trace) {
    report->Set("setup_s", setups.MedianSeconds());
    report->Set("peak_rss_mb", rss_mb);
    ReportLatency(untraced, Tail{0.99, "p99"}, host, report);
    return;
  }
  report->Set("net.execute_edit_ms", execute_edit_ms.Median());
  report->Set("net.execute_match_ms", execute_match_ms.Median());
  report->Set("repository.apply_edit_ms", apply_ms.Median());
  report->Set("service.match_ms", match_ms.Median());
  report->Set("service.overhead_ms", overhead_ms.Median());
  report->Set("service.incremental_frac",
              static_cast<double>(incremental_runs) /
                  static_cast<double>(outcomes.size()));
  report->Set("incremental.linguistic_ms", ling.Median());
  report->Set("incremental.trees_ms", trees.Median());
  report->Set("incremental.delta_ms", delta.Median());
  report->Set("incremental.sweep_ms", sweep.Median());
  report->Set("incremental.recompute_ms", recompute.Median());
  report->Set("incremental.mapping_ms", mapping.Median());
  report->Set("incremental.commit_ms", commit.Median());
  report->Set("incremental.unattributed_ms", unattributed.Median());
  if (sweeps > 0) {
    const double n = static_cast<double>(sweeps);
    report->Set("structural.link_tests", link_tests / n);
    report->Set("structural.scale_ops", scale_ops / n);
  }
  if (visit > 0) report->Set("incremental.pairs_reused_frac", reused / visit);
  if (source_rows > 0) {
    report->Set("incremental.lsim_gathered_rows_frac",
                gathered_rows / source_rows);
  }
  report->Set("obs.trace_overhead_frac",
              traced.Median() / untraced.Median() - 1.0);
  WriteSpans(args.out_dir + "/spans-edit_rematch.jsonl", log, program);
}

}  // namespace perfbench
