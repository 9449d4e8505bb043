// cupid_cli — match two schema files from the command line.
//
//   cupid_cli <source-schema> <target-schema> [options]
//
//   Schema formats by extension:
//     .xml            XSD-lite XML (importers/xml_schema_loader.h)
//     .sql / .ddl     SQL DDL (importers/sql_ddl_parser.h)
//     .cupid          native text format (importers/native_format.h)
//
//   Options:
//     --thesaurus <file>   load a thesaurus file (thesaurus/thesaurus_io.h);
//                          default: the built-in common-language thesaurus
//     --one-to-one         stable 1:1 mapping instead of the naive 1:n
//     --json               JSON output instead of text
//     --nonleaf            also print element-level (non-leaf) mapping
//     --thaccept <v>       acceptance threshold (default 0.5)
//
// Search mode — rank a corpus of schema files against a probe:
//
//   cupid_cli --search <probe-schema> <target-schema>... [options]
//
//   additional options:
//     --top-k <n>          hits to report (default 10)
//     --exhaustive         full TreeMatch on every target (no pre-screen)
//
// Exit code 0 on success, 1 on any error (message on stderr).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/cupid_matcher.h"
#include "importers/schema_io.h"
#include "mapping/mapping_render.h"
#include "service/corpus_search.h"
#include "service/schema_repository.h"
#include "thesaurus/default_thesaurus.h"
#include "thesaurus/thesaurus_io.h"
#include "util/strings.h"

using namespace cupid;

namespace {

/// Repository names must not contain path separators; search mode registers
/// each file under its basename (disambiguated when two files share one).
std::string RepoName(const std::string& path) {
  size_t slash = path.find_last_of("/\\");
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <source-schema> <target-schema>\n"
               "          [--thesaurus <file>] [--one-to-one] [--json]\n"
               "          [--nonleaf] [--thaccept <v>]\n"
               "   or: %s --search <probe-schema> <target-schema>...\n"
               "          [--top-k <n>] [--exhaustive] [--json]\n"
               "          [--thesaurus <file>] [--thaccept <v>]\n",
               argv0, argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  std::string thesaurus_path;
  bool search = false, one_to_one = false, json = false, nonleaf = false;
  bool exhaustive = false;
  int top_k = 10;
  double th_accept = 0.5;

  for (int i = 1; i < argc; ++i) {
    if (!std::strcmp(argv[i], "--search")) {
      search = true;
    } else if (!std::strcmp(argv[i], "--thesaurus") && i + 1 < argc) {
      thesaurus_path = argv[++i];
    } else if (!std::strcmp(argv[i], "--one-to-one")) {
      one_to_one = true;
    } else if (!std::strcmp(argv[i], "--json")) {
      json = true;
    } else if (!std::strcmp(argv[i], "--nonleaf")) {
      nonleaf = true;
    } else if (!std::strcmp(argv[i], "--exhaustive")) {
      exhaustive = true;
    } else if (!std::strcmp(argv[i], "--top-k") && i + 1 < argc) {
      auto parsed = ParseInt(argv[++i]);
      if (!parsed.ok() || *parsed <= 0) {
        std::fprintf(stderr, "--top-k: %s\n",
                     parsed.ok() ? "must be > 0"
                                 : parsed.status().ToString().c_str());
        return Usage(argv[0]);
      }
      top_k = static_cast<int>(*parsed);
    } else if (!std::strcmp(argv[i], "--thaccept") && i + 1 < argc) {
      auto parsed = ParseDouble(argv[++i]);
      if (!parsed.ok()) {
        std::fprintf(stderr, "--thaccept: %s\n",
                     parsed.status().ToString().c_str());
        return Usage(argv[0]);
      }
      th_accept = *parsed;
    } else if (argv[i][0] == '-') {
      std::fprintf(stderr, "unknown option: %s\n", argv[i]);
      return Usage(argv[0]);
    } else {
      paths.push_back(argv[i]);
    }
  }
  if (search ? paths.size() < 2 : paths.size() != 2) return Usage(argv[0]);
  const std::string& source_path = paths[0];

  auto source = LoadSchemaFileAuto(source_path);
  if (!source.ok()) {
    std::fprintf(stderr, "%s: %s\n", source_path.c_str(),
                 source.status().ToString().c_str());
    return 1;
  }
  Thesaurus thesaurus;
  if (thesaurus_path.empty()) {
    thesaurus = DefaultThesaurus();
  } else {
    auto loaded = LoadThesaurus(thesaurus_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s: %s\n", thesaurus_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    thesaurus = std::move(loaded).ValueOrDie();
  }

  CupidConfig config;
  config.mapping.th_accept = th_accept;
  config.tree_match.th_accept = th_accept;
  config.tree_match.th_low = std::min(config.tree_match.th_low, th_accept);
  config.tree_match.th_high = std::max(config.tree_match.th_high, th_accept);
  if (one_to_one) {
    config.mapping.cardinality = MappingCardinality::kOneToOneStable;
  }
  // Hand-clamping th_low/th_high above keeps Table 1's ordering, but the
  // full range checks (e.g. --thaccept 1.5) live in Validate.
  if (Status s = config.Validate(); !s.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n", s.ToString().c_str());
    return 1;
  }

  if (search) {
    // One-vs-N: register the probe plus every target file in an in-memory
    // repository and rank with the service (pre-screen + full matches).
    SchemaRepository repo;
    const std::string probe_name = RepoName(source_path);
    auto registered = repo.Register(probe_name, *std::move(source));
    if (!registered.ok()) {
      std::fprintf(stderr, "%s: %s\n", source_path.c_str(),
                   registered.status().ToString().c_str());
      return 1;
    }
    for (size_t i = 1; i < paths.size(); ++i) {
      std::string name = RepoName(paths[i]);
      if (repo.LatestVersion(name) > 0) {
        name += StringFormat("#%zu", i);  // duplicate basename
      }
      auto version = repo.RegisterFile(name, paths[i]);
      if (!version.ok()) {
        std::fprintf(stderr, "%s: %s\n", paths[i].c_str(),
                     version.status().ToString().c_str());
        return 1;
      }
    }
    CorpusSearchService service(&thesaurus, &repo);
    SearchRequest request;
    request.source = probe_name;
    request.top_k = top_k;
    request.config = config;
    request.exhaustive = exhaustive;
    auto response = service.Search(request);
    if (!response.ok()) {
      std::fprintf(stderr, "search failed: %s\n",
                   response.status().ToString().c_str());
      return 1;
    }
    if (json) {
      std::printf("%s\n", response->ToJson().c_str());
    } else {
      std::printf("# %lld of %lld candidates fully matched (%lld pruned)\n",
                  static_cast<long long>(response->full_matches),
                  static_cast<long long>(response->candidates_total),
                  static_cast<long long>(response->candidates_pruned));
      for (size_t i = 0; i < response->hits.size(); ++i) {
        const SearchHit& hit = response->hits[i];
        std::printf("%2zu. %-40s score=%.6f prescreen=%.6f\n", i + 1,
                    hit.target.c_str(), hit.score, hit.prescreen);
      }
    }
    return 0;
  }

  auto target = LoadSchemaFileAuto(paths[1]);
  if (!target.ok()) {
    std::fprintf(stderr, "%s: %s\n", paths[1].c_str(),
                 target.status().ToString().c_str());
    return 1;
  }

  CupidMatcher matcher(&thesaurus, config);
  auto result = matcher.Match(*source, *target);
  if (!result.ok()) {
    std::fprintf(stderr, "match failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  if (json) {
    std::printf("%s", RenderMappingJson(result->leaf_mapping).c_str());
  } else {
    std::printf("%s", RenderMappingText(result->leaf_mapping).c_str());
  }
  if (nonleaf) {
    std::printf("%s", RenderMappingText(result->nonleaf_mapping).c_str());
  }
  return 0;
}
