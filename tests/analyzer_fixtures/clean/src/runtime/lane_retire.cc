// Clean fixture: unordered iteration in a function with no *Result/
// JSON flow (erasure bookkeeping — order-insensitive), in a file that
// names no *Result type and sits outside obs/ and llm/. Neither half
// of unordered-iter may fire, although open_ is declared unordered
// (LaneBook lives in report.cc).
#include <unordered_map>

namespace neu10
{

void
LaneBook::retire(unsigned below)
{
    for (auto it = open_.begin(); it != open_.end();) {
        if (it->first < below)
            it = open_.erase(it);
        else
            ++it;
    }
}

} // namespace neu10
