#include "decorators.h"

namespace uwbench {
namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Mix(uint64_t& hash, uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xffU;
    hash *= kFnvPrime;
  }
}

}  // namespace

uint64_t RankingHash(const ultrawiki::Query& query, size_t k,
                     const std::vector<ultrawiki::EntityId>& ranking) {
  uint64_t hash = kFnvOffset;
  Mix(hash, static_cast<uint64_t>(query.ultra_class));
  for (const ultrawiki::EntityId id : query.pos_seeds) Mix(hash, id);
  Mix(hash, ~0ULL);
  for (const ultrawiki::EntityId id : query.neg_seeds) Mix(hash, id);
  Mix(hash, k);
  Mix(hash, ranking.size());
  for (const ultrawiki::EntityId id : ranking) Mix(hash, id);
  return hash;
}

}  // namespace uwbench
