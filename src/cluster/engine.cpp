#include "synergy/cluster/engine.hpp"

#include <utility>

namespace synergy::cluster {

engine_state event_engine::export_state() const {
  engine_state s{now_, next_seq_, heap_};
  std::sort(s.pending.begin(), s.pending.end(),
            [](const event& a, const event& b) { return a.seq < b.seq; });
  return s;
}

void event_engine::import_state(engine_state s) {
  now_ = s.now;
  next_seq_ = s.next_seq;
  heap_ = std::move(s.pending);
  std::make_heap(heap_.begin(), heap_.end(), later{});
}

}  // namespace synergy::cluster
