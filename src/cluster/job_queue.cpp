#include "synergy/cluster/job_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace synergy::cluster {

namespace {

/// Leaf value of a position that holds no live entry of the tree's class.
constexpr double no_entry = std::numeric_limits<double>::quiet_NaN();
constexpr std::size_t min_capacity = 16;

/// The smaller of two subtree minima, where NaN means "no entry".
double lower(double a, double b) { return std::isnan(a) || b < a ? b : a; }

/// Tree width for `live` entries: room for as many again before the next
/// rebuild.
std::size_t capacity_for(std::size_t live) {
  return std::bit_ceil(std::max(min_capacity, 2 * live));
}

}  // namespace

job_queue::job_queue(std::vector<queued_job> entries) {
  slots_.reserve(entries.size());
  for (auto& qj : entries) {
    const std::uint32_t cls = class_of(static_cast<std::size_t>(qj.job.n_gpus));
    slots_.push_back({std::move(qj), cls, true});
  }
  live_ = slots_.size();
  rebuild(capacity_for(live_));
}

std::size_t job_queue::next(std::size_t pos) const {
  for (++pos; pos < slots_.size(); ++pos)
    if (slots_[pos].live) return pos;
  return npos;
}

void job_queue::push_back(queued_job qj) {
  if (slots_.size() == cap_) rebuild(capacity_for(live_));
  const std::size_t pos = slots_.size();
  const std::uint32_t cls = class_of(static_cast<std::size_t>(qj.job.n_gpus));
  const double est = qj.est_runtime_s;
  slots_.push_back({std::move(qj), cls, true});
  set_leaf(cls, pos, est);
  if (live_++ == 0) head_ = pos;
}

queued_job job_queue::take(std::size_t pos) {
  slot& s = slots_[pos];
  queued_job out = std::move(s.qj);
  s.live = false;
  set_leaf(s.cls, pos, no_entry);
  --live_;
  if (pos == head_ && live_ > 0) head_ = next(pos);
  // Compact once tombstones outnumber live entries: the head cursor and
  // the walks over the queue then cost O(1) amortised per live entry.
  if (slots_.size() >= min_capacity && slots_.size() - live_ > live_) rebuild(capacity_for(live_));
  return out;
}

std::size_t job_queue::find(std::size_t from, std::size_t free_gpus, double now,
                            double reservation) const {
  search q{from, npos, now, reservation};
  for (const auto& c : classes_) {
    if (c.n_gpus > free_gpus) continue;
    // Only positions before the best hit so far can improve on it.
    q.limit = std::min(q.limit, descend(c.tree, 1, 0, cap_, q));
  }
  return q.limit;
}

std::size_t job_queue::descend(const std::vector<double>& tree, std::size_t node, std::size_t lo,
                               std::size_t hi, const search& q) const {
  if (hi <= q.from || lo >= q.limit) return npos;
  const double m = tree[node];
  if (std::isnan(m) || q.now + m > q.reservation) return npos;
  if (hi - lo == 1) return lo;
  const std::size_t mid = lo + (hi - lo) / 2;
  const std::size_t left = descend(tree, 2 * node, lo, mid, q);
  return left != npos ? left : descend(tree, 2 * node + 1, mid, hi, q);
}

void job_queue::rebuild(std::size_t capacity) {
  // Compact in place: a long replay rebuilds tens of thousands of times,
  // and fresh buffers each time fragment the heap. The buffers shrink only
  // once the live queue needs well under half of them.
  std::size_t n = 0;
  for (std::size_t p = 0; p < slots_.size(); ++p)
    if (slots_[p].live) {
      if (p != n) slots_[n] = std::move(slots_[p]);
      ++n;
    }
  slots_.resize(n);
  cap_ = capacity;
  head_ = 0;
  if (slots_.capacity() > 2 * cap_) slots_.shrink_to_fit();
  for (auto& c : classes_) {
    c.tree.assign(2 * cap_, no_entry);
    if (c.tree.capacity() > 2 * c.tree.size()) c.tree.shrink_to_fit();
  }
  for (std::size_t p = 0; p < slots_.size(); ++p)
    classes_[slots_[p].cls].tree[cap_ + p] = slots_[p].qj.est_runtime_s;
  for (auto& c : classes_)
    for (std::size_t i = cap_ - 1; i >= 1; --i) c.tree[i] = lower(c.tree[2 * i], c.tree[2 * i + 1]);
}

std::uint32_t job_queue::class_of(std::size_t n_gpus) {
  for (std::uint32_t c = 0; c < classes_.size(); ++c)
    if (classes_[c].n_gpus == n_gpus) return c;
  classes_.push_back({n_gpus, std::vector<double>(2 * cap_, no_entry)});
  return static_cast<std::uint32_t>(classes_.size() - 1);
}

void job_queue::set_leaf(std::uint32_t cls, std::size_t pos, double est) {
  auto& tree = classes_[cls].tree;
  std::size_t i = cap_ + pos;
  tree[i] = est;
  for (i /= 2; i >= 1; i /= 2) tree[i] = lower(tree[2 * i], tree[2 * i + 1]);
}

}  // namespace synergy::cluster
