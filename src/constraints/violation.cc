#include "constraints/violation.h"

#include <algorithm>

namespace dbrepair {

bool ViolationSet::Contains(TupleRef ref) const {
  return std::binary_search(tuples.begin(), tuples.end(), ref);
}

std::string ViolationSet::ToString() const {
  std::string out = "ic" + std::to_string(ic_index + 1) + ": {";
  for (size_t i = 0; i < tuples.size(); ++i) {
    if (i > 0) out += ", ";
    out += "R" + std::to_string(tuples[i].relation) + "[" +
           std::to_string(tuples[i].row) + "]";
  }
  out += "}";
  return out;
}

DegreeInfo ComputeDegrees(const std::vector<ViolationSet>& violations) {
  std::vector<uint64_t> members;
  for (const ViolationSet& v : violations) {
    for (const TupleRef& t : v.tuples) members.push_back(t.Packed());
  }
  std::sort(members.begin(), members.end());
  DegreeInfo info;
  for (size_t i = 0; i < members.size();) {
    size_t end = i + 1;
    while (end < members.size() && members[end] == members[i]) ++end;
    const auto degree = static_cast<uint32_t>(end - i);
    info.per_tuple.emplace_back(members[i], degree);
    info.max_degree = std::max(info.max_degree, degree);
    i = end;
  }
  return info;
}

}  // namespace dbrepair
