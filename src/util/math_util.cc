#include "util/math_util.h"

#include <cstdlib>
#include <deque>
#include <unordered_map>

#include "util/logging.h"

namespace gstream {

std::optional<LinearCombination> MinimalCombination(
    const std::vector<int64_t>& u, int64_t d, int max_terms) {
  GSTREAM_CHECK(!u.empty());
  GSTREAM_CHECK_GE(max_terms, 1);
  int64_t max_u = 0;
  for (int64_t v : u) max_u = std::max<int64_t>(max_u, std::llabs(v));
  GSTREAM_CHECK_GT(max_u, 0);
  // Any optimal path can be reordered so partial sums stay within
  // |d| + max|u_i| of the segment [min(0,d), max(0,d)]; a generous cap of
  // |d| + max_u * max_terms is safe and keeps the search bounded.
  const int64_t bound = std::llabs(d) + max_u * static_cast<int64_t>(max_terms);

  struct Parent {
    int64_t prev;
    int u_index;  // -1 at the origin
    int sign;
    int depth;
  };
  std::unordered_map<int64_t, Parent> visited;
  visited[0] = Parent{0, -1, 0, 0};
  std::deque<int64_t> queue{0};

  while (!queue.empty()) {
    const int64_t value = queue.front();
    queue.pop_front();
    const Parent here = visited.at(value);
    if (value == d) {
      LinearCombination result;
      result.coefficients.assign(u.size(), 0);
      int64_t cursor = d;
      while (cursor != 0 || visited.at(cursor).u_index != -1) {
        const Parent& p = visited.at(cursor);
        if (p.u_index == -1) break;
        result.coefficients[static_cast<size_t>(p.u_index)] += p.sign;
        result.l1_norm += 1;
        cursor = p.prev;
      }
      return result;
    }
    if (here.depth == max_terms) continue;
    for (size_t i = 0; i < u.size(); ++i) {
      for (int sign : {+1, -1}) {
        const int64_t next = value + sign * u[i];
        if (std::llabs(next) > bound) continue;
        if (visited.contains(next)) continue;
        visited[next] =
            Parent{value, static_cast<int>(i), sign, here.depth + 1};
        queue.push_back(next);
      }
    }
  }
  return std::nullopt;
}

}  // namespace gstream
