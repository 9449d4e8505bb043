// Output checks of the workloads, and their corruption self-test: every
// check is fed one deliberately corrupted result and must report it.

#include <cmath>
#include <cstring>

#include "bench.h"
#include "service/match_service.h"
#include "thesaurus/default_thesaurus.h"
#include "util/strings.h"

namespace perfbench {
namespace {

template <typename T>
uint32_t Bits(T v) {
  float f = static_cast<float>(v);
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

std::string CompareMatrix(const cupid::Matrix<float>& a,
                          const cupid::Matrix<float>& b, const char* what) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    return std::string(what) + " shape differs";
  }
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < a.cols(); ++j) {
      if (Bits(a(i, j)) != Bits(b(i, j))) {
        return cupid::StringFormat("%s(%lld,%lld) %.9g != %.9g", what,
                                   static_cast<long long>(i),
                                   static_cast<long long>(j), a(i, j),
                                   b(i, j));
      }
    }
  }
  return "";
}

std::string CompareMapping(const cupid::Mapping& a, const cupid::Mapping& b,
                           const char* what) {
  if (a.size() != b.size()) return std::string(what) + " size differs";
  for (size_t i = 0; i < a.size(); ++i) {
    const cupid::MappingElement& x = a.elements[i];
    const cupid::MappingElement& y = b.elements[i];
    if (x.source_path != y.source_path || x.target_path != y.target_path ||
        std::memcmp(&x.wsim, &y.wsim, sizeof(double)) != 0 ||
        std::memcmp(&x.ssim, &y.ssim, sizeof(double)) != 0 ||
        std::memcmp(&x.lsim, &y.lsim, sizeof(double)) != 0) {
      return cupid::StringFormat("%s[%zu] %s->%s differs", what, i,
                                 x.source_path.c_str(),
                                 x.target_path.c_str());
    }
  }
  return "";
}

/// The mappings part of a rendered match response: from "leaf_mapping"
/// to the end of the nonleaf mapping object.
std::string MappingsPart(const std::string& json, size_t end) {
  size_t begin = json.find("\"leaf_mapping\":");
  if (begin == std::string::npos || end == std::string::npos || end < begin) {
    return "";
  }
  return json.substr(begin, end - begin);
}

}  // namespace

std::string CompareResults(const cupid::MatchResult& got,
                           const cupid::MatchResult& want) {
  std::string diff =
      CompareMatrix(got.linguistic.lsim, want.linguistic.lsim, "element lsim");
  const cupid::NodeSimilarities& a = got.tree_match.sims;
  const cupid::NodeSimilarities& b = want.tree_match.sims;
  if (diff.empty()) {
    diff = CompareMatrix(a.lsim_matrix(), b.lsim_matrix(), "lsim");
  }
  if (diff.empty()) {
    diff = CompareMatrix(a.ssim_matrix(), b.ssim_matrix(), "ssim");
  }
  if (diff.empty()) {
    diff = CompareMatrix(a.wsim_matrix(), b.wsim_matrix(), "wsim");
  }
  if (diff.empty()) {
    diff = CompareMapping(got.leaf_mapping, want.leaf_mapping, "leaf mapping");
  }
  if (diff.empty()) {
    diff = CompareMapping(got.nonleaf_mapping, want.nonleaf_mapping,
                          "nonleaf mapping");
  }
  return diff;
}

namespace {

void MixBytes(uint64_t* h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    *h ^= p[i];
    *h *= 0x100000001b3ULL;
  }
}

void MixMatrix(uint64_t* h, const cupid::Matrix<float>& m) {
  uint64_t dims[2] = {static_cast<uint64_t>(m.rows()),
                      static_cast<uint64_t>(m.cols())};
  MixBytes(h, dims, sizeof(dims));
  // Word-wise mixing: the matrices are large and byte-wise FNV is slow.
  for (int64_t i = 0; i < m.rows(); ++i) {
    for (int64_t j = 0; j < m.cols(); ++j) {
      *h = (*h ^ Bits(m(i, j))) * 0x9E3779B97F4A7C15ULL;
      *h ^= *h >> 29;
    }
  }
}

}  // namespace

uint64_t ResultDigest(const cupid::MatchResult& result) {
  uint64_t h = 0xcbf29ce484222325ULL;
  MixMatrix(&h, result.linguistic.lsim);
  MixMatrix(&h, result.tree_match.sims.lsim_matrix());
  MixMatrix(&h, result.tree_match.sims.ssim_matrix());
  MixMatrix(&h, result.tree_match.sims.wsim_matrix());
  return h ^ MappingDigest(result.leaf_mapping, result.nonleaf_mapping);
}

uint64_t MappingDigest(const cupid::Mapping& leaf,
                       const cupid::Mapping& nonleaf) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const cupid::Mapping* m : {&leaf, &nonleaf}) {
    uint64_t n = m->size();
    MixBytes(&h, &n, sizeof(n));
    for (const cupid::MappingElement& e : m->elements) {
      MixBytes(&h, e.source_path.data(), e.source_path.size() + 1);
      MixBytes(&h, e.target_path.data(), e.target_path.size() + 1);
      MixBytes(&h, &e.wsim, sizeof(double));
      MixBytes(&h, &e.ssim, sizeof(double));
      MixBytes(&h, &e.lsim, sizeof(double));
    }
  }
  return h;
}

std::string CheckFrame(const std::string& line) {
  if (line.compare(0, 6, "{\"v\":1") != 0 || line.size() < 7 ||
      (line[6] != ',' && line[6] != '}')) {
    return "frame is not protocol v1: " + line.substr(0, 80);
  }
  if (line.find("\"status\":\"ok\"") == std::string::npos) {
    return "frame status is not ok: " + line.substr(0, 200);
  }
  return "";
}

std::string CompareMappingJson(const std::string& line,
                               const cupid::Mapping& leaf,
                               const cupid::Mapping& nonleaf) {
  cupid::MatchResponse want;
  want.leaf_mapping = leaf;
  want.nonleaf_mapping = nonleaf;
  std::string rendered = want.ToJson(true);
  std::string want_part = MappingsPart(rendered, rendered.size() - 1);
  // The protocol executor splices its envelope (status, selfcheck) after the
  // response body; the mappings end where it begins.
  std::string got_part = MappingsPart(line, line.rfind(",\"status\":"));
  if (got_part.empty()) return "response has no mappings";
  if (got_part != want_part) return "mappings differ from a direct match";
  return "";
}

int RunCheckSelfTest(Report* report) {
  cupid::Thesaurus thesaurus = cupid::DefaultThesaurus();
  cupid::SyntheticPair pair = MakePair(40, false, 7);
  auto matched = cupid::CupidMatcher(&thesaurus).Match(pair.source,
                                                       pair.target);
  if (!matched.ok()) {
    report->notes.push_back("{\"selftest\":\"match failed\"}");
    return 1;
  }
  const cupid::MatchResult& ref = *matched;
  int checks = 0, caught = 0;
  auto expect_caught = [&](bool clean_ok, bool corrupted_caught) {
    ++checks;
    if (clean_ok && corrupted_caught) ++caught;
  };

  // cold_match: the layer composition compared with CupidMatcher::Match.
  {
    cupid::MatchResult bad = ref;
    cupid::Matrix<float>* ssim = bad.tree_match.sims.mutable_ssim_matrix();
    (*ssim)(0, 0) = std::nextafter((*ssim)(0, 0), 2.0f);
    expect_caught(CompareResults(ref, ref).empty(),
                  !CompareResults(bad, ref).empty());
    expect_caught(ResultDigest(ref) == ResultDigest(ref),
                  ResultDigest(bad) != ResultDigest(ref));
  }
  // edit_rematch: response digest compared with a scratch match.
  {
    cupid::Mapping leaf = ref.leaf_mapping;
    if (!leaf.elements.empty()) {
      leaf.elements[0].wsim = std::nextafter(leaf.elements[0].wsim, 2.0);
    }
    expect_caught(
        MappingDigest(ref.leaf_mapping, ref.nonleaf_mapping) ==
            MappingDigest(ref.leaf_mapping, ref.nonleaf_mapping),
        MappingDigest(leaf, ref.nonleaf_mapping) !=
            MappingDigest(ref.leaf_mapping, ref.nonleaf_mapping));
  }
  // edit_rematch, protocol operations: frame envelope and mappings.
  {
    cupid::MatchResponse response;
    response.leaf_mapping = ref.leaf_mapping;
    response.nonleaf_mapping = ref.nonleaf_mapping;
    std::string body = response.ToJson(true);
    std::string line = "{\"v\":1," + body.substr(1, body.size() - 2) +
                       ",\"status\":\"ok\"}";
    std::string error_line = line;
    error_line.replace(error_line.rfind("\"ok\""), 4, "\"error\"");
    expect_caught(CheckFrame(line).empty(), !CheckFrame(error_line).empty());

    std::string bad_line = line;
    size_t digit = bad_line.find("\"wsim\":0.") + 9;
    bad_line[digit] = bad_line[digit] == '9' ? '8' : '9';
    expect_caught(
        CompareMappingJson(line, ref.leaf_mapping, ref.nonleaf_mapping)
            .empty(),
        !CompareMappingJson(bad_line, ref.leaf_mapping, ref.nonleaf_mapping)
             .empty());
  }
  report->notes.push_back(cupid::StringFormat(
      "{\"selftest\":{\"checks\":%d,\"corruption_caught\":%d}}", checks,
      caught));
  return checks - caught;
}

}  // namespace perfbench
