#pragma once

/// \file job_queue.hpp
/// The simulator's job queue: arrival order, O(1) removal of any entry, and
/// an index that finds the next entry able to start in O(log n).
///
/// Entries live at positions that only grow: arrivals and requeues append,
/// a start leaves a tombstone. When tombstones outnumber live entries, or an
/// append finds no room, the queue compacts, so memory follows the live
/// queue. Compaction renumbers positions, so a position is only valid until
/// the next push_back() or take().
///
/// The candidate index keeps one segment tree per GPU-count class. Each
/// tree holds, per queue position, the minimum default-clock runtime
/// estimate below it (NaN marks a position without a live entry of that
/// class). find() asks: first entry at or after a position that needs no
/// more than `free_gpus` GPUs and for which `!(now + est > reservation)`.
/// Floating-point `now + x` is monotone in `x`, so a subtree whose minimum
/// fails the test holds no entry that passes it and is skipped whole; every
/// leaf reached is tested with that exact expression. A query costs
/// O(classes x log n). An entry whose estimate is NaN is never found.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <vector>

#include "synergy/cluster/policy.hpp"

namespace synergy::cluster {

class job_queue {
  struct slot {
    queued_job qj;
    std::uint32_t cls{0};  ///< index into classes_
    bool live{false};
  };

 public:
  static constexpr std::size_t npos = std::numeric_limits<std::size_t>::max();

  /// Live entries in queue order.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = queued_job;
    using difference_type = std::ptrdiff_t;
    using pointer = const queued_job*;
    using reference = const queued_job&;

    const_iterator() = default;
    reference operator*() const { return (*q_)[pos_]; }
    pointer operator->() const { return &(*q_)[pos_]; }
    const_iterator& operator++() {
      pos_ = q_->next(pos_);
      return *this;
    }
    const_iterator operator++(int) {
      auto old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.pos_ == b.pos_;
    }

   private:
    friend class job_queue;
    const_iterator(const job_queue* q, std::size_t pos) : q_(q), pos_(pos) {}
    const job_queue* q_{nullptr};
    std::size_t pos_{npos};
  };

  job_queue() = default;
  /// A queue holding `entries` in order.
  explicit job_queue(std::vector<queued_job> entries);

  [[nodiscard]] bool empty() const { return live_ == 0; }
  [[nodiscard]] std::size_t size() const { return live_; }
  [[nodiscard]] const_iterator begin() const { return {this, head()}; }
  [[nodiscard]] const_iterator end() const { return {this, npos}; }

  /// Position of the first live entry, or npos.
  [[nodiscard]] std::size_t head() const { return live_ > 0 ? head_ : npos; }
  /// Position of the live entry after `pos`, or npos.
  [[nodiscard]] std::size_t next(std::size_t pos) const;
  /// The live entry at `pos`.
  [[nodiscard]] const queued_job& operator[](std::size_t pos) const { return slots_[pos].qj; }

  /// Append at the back (an arrival or a requeue).
  void push_back(queued_job qj);
  /// Remove the live entry at `pos` and return it.
  queued_job take(std::size_t pos);
  void clear() { *this = job_queue{}; }

  /// First live entry at position >= `from` with `n_gpus <= free_gpus` and
  /// `!(now + est_runtime_s > reservation)`, or npos.
  [[nodiscard]] std::size_t find(std::size_t from, std::size_t free_gpus, double now,
                                 double reservation) const;

 private:
  /// One GPU-count class: a min-estimate segment tree over positions, the
  /// root at 1 and position p's leaf at cap_ + p.
  struct gpu_class {
    std::size_t n_gpus{0};
    std::vector<double> tree;
  };

  /// Move the live entries to positions 0.. and size every tree for
  /// `capacity` positions (a power of two that holds them all). Classes
  /// stay once seen: there are at most as many as distinct GPU counts.
  void rebuild(std::size_t capacity);
  /// Class index for `n_gpus`, adding an empty tree on first sight.
  std::uint32_t class_of(std::size_t n_gpus);
  /// Set position `pos`'s leaf in class `cls` and refresh its ancestors.
  void set_leaf(std::uint32_t cls, std::size_t pos, double est);
  /// A find() in progress: positions [from, limit) are still open.
  struct search {
    std::size_t from;
    std::size_t limit;
    double now;
    double reservation;
  };
  /// First hit of `q` under `node`, which covers positions [lo, hi).
  [[nodiscard]] std::size_t descend(const std::vector<double>& tree, std::size_t node,
                                    std::size_t lo, std::size_t hi, const search& q) const;

  std::vector<slot> slots_;
  std::vector<gpu_class> classes_;
  std::size_t cap_{0};   ///< leaves per tree; slots_.size() <= cap_
  std::size_t head_{0};  ///< first live position while live_ > 0
  std::size_t live_{0};
};

}  // namespace synergy::cluster
