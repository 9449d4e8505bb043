// Correspondence between two versions of one containment forest by dotted
// containment path ("Root.Address.Street"). Shared by the lsim gather plan
// (linguistic/linguistic_matcher.cc, over schema elements) and the
// structural warm start (incremental/tree_match_delta.cc, over schema-tree
// nodes); both id types are int32_t with -1 as the "unmapped" sentinel.
//
// A Forest exposes size(), name(id), parent(id) (-1 for a root) and
// children(id) over ids [0, size()), assigned parent-before-child.

#ifndef CUPID_UTIL_PATH_MAP_H_
#define CUPID_UTIL_PATH_MAP_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace cupid {

/// Every id's containment path, in one ascending pass (O(total path
/// length)). A root — or, defensively, an id whose parent does not precede
/// it — gets its bare name. Path SYNTAX must stay in sync with
/// SchemaTree::PathName and Schema::PathName.
template <typename Forest>
std::vector<std::string> ContainmentPaths(const Forest& f) {
  std::vector<std::string> paths(static_cast<size_t>(f.size()));
  for (int32_t id = 0; id < f.size(); ++id) {
    const int32_t p = f.parent(id);
    paths[static_cast<size_t>(id)] =
        p < 0 || p >= id ? f.name(id)
                         : paths[static_cast<size_t>(p)] + "." + f.name(id);
  }
  return paths;
}

/// \brief Maps every id of `nw` to the id of `old` with the same containment
/// path, or -1.
///
/// Same-named siblings make paths non-unique; occurrences are paired BY
/// RANK when both versions hold the same number, and groups whose sizes
/// differ stay unmapped. Then the unmapped children of mapped parents are
/// paired by sibling order, recursively in one ascending pass: a rename
/// keeps an element's identity but changes every descendant path. Callers
/// verify every value-relevant feature independently, so a wrong pairing
/// (say, a remove plus an add in one batch) only costs reuse.
template <typename Forest>
std::vector<int32_t> MapByContainmentPath(const Forest& nw,
                                          const Forest& old) {
  std::vector<std::string> new_paths = ContainmentPaths(nw);
  std::vector<std::string> old_paths = ContainmentPaths(old);
  std::unordered_map<std::string, std::vector<int32_t>> old_groups;
  old_groups.reserve(old_paths.size());
  for (int32_t o = 0; o < old.size(); ++o) {
    old_groups[old_paths[static_cast<size_t>(o)]].push_back(o);
  }
  std::unordered_map<std::string, std::vector<int32_t>> new_groups;
  new_groups.reserve(new_paths.size());
  for (int32_t n = 0; n < nw.size(); ++n) {
    new_groups[new_paths[static_cast<size_t>(n)]].push_back(n);
  }
  std::vector<int32_t> map(static_cast<size_t>(nw.size()), -1);
  // Each path's group writes a disjoint slice of `map` (an id has one
  // path), so visiting the groups in hash order cannot change the result.
  // NOLINTNEXTLINE(determinism:unordered-iteration)
  for (const auto& [path, news] : new_groups) {
    auto it = old_groups.find(path);
    if (it == old_groups.end() || it->second.size() != news.size()) continue;
    for (size_t i = 0; i < news.size(); ++i) {
      map[static_cast<size_t>(news[i])] = it->second[i];
    }
  }

  std::vector<uint8_t> covered(static_cast<size_t>(old.size()), 0);
  for (int32_t o : map) {
    if (o >= 0) covered[static_cast<size_t>(o)] = 1;
  }
  for (int32_t n = 0; n < nw.size(); ++n) {
    const int32_t o = map[static_cast<size_t>(n)];
    if (o < 0) continue;
    std::vector<int32_t> new_unmapped, old_uncovered;
    for (int32_t c : nw.children(n)) {
      if (map[static_cast<size_t>(c)] < 0) new_unmapped.push_back(c);
    }
    for (int32_t c : old.children(o)) {
      if (!covered[static_cast<size_t>(c)]) old_uncovered.push_back(c);
    }
    if (new_unmapped.empty() || new_unmapped.size() != old_uncovered.size()) {
      continue;
    }
    for (size_t i = 0; i < new_unmapped.size(); ++i) {
      map[static_cast<size_t>(new_unmapped[i])] = old_uncovered[i];
      covered[static_cast<size_t>(old_uncovered[i])] = 1;
    }
  }
  return map;
}

}  // namespace cupid

#endif  // CUPID_UTIL_PATH_MAP_H_
