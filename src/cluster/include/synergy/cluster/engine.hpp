#pragma once

/// \file engine.hpp
/// Deterministic discrete-event engine on virtual time.
///
/// The cluster simulation advances by *events* (job arrivals, completions,
/// faults, ticks), never by wall clock, so a 64-node / 1000-job day of
/// cluster operation replays in milliseconds and bit-identically across
/// runs and platforms. Events at equal timestamps fire in schedule order (a
/// monotone sequence number breaks ties), which is what makes policy
/// comparisons on the same trace meaningful.
///
/// Events are plain records — a kind and an integer id — not closures: the
/// owner dispatches them with one switch, nothing allocates per event, and
/// the pending set exports and imports verbatim, which is all a checkpoint
/// needs to continue a run in the identical order.

#include <algorithm>
#include <cstdint>
#include <vector>

namespace synergy::cluster {

/// What an event does when it fires. Kinds up to `econ_tick` are replay
/// state and ride in checkpoints; the later ones are process-local
/// (checkpoint cadence, crash injection) and are never persisted.
enum class event_kind : std::uint8_t {
  arrival,          ///< id: trace index of the arriving job
  completion,       ///< id: placement epoch of the finishing job
  governor_tick,    ///< id: placement epoch of the governed job
  device_lost,      ///< id: node number (the NNN of its cnNNN name)
  node_crash,       ///< no id; the victim is drawn when it fires
  node_restart,     ///< id: node number
  scrape_tick,      ///< no id
  econ_tick,        ///< no id
  checkpoint_tick,  ///< no id; never persisted
  crash_injection,  ///< no id; never persisted
};

struct event {
  double t{0.0};
  std::uint64_t seq{0};  ///< schedule order: the tie-break among equal times
  event_kind kind{event_kind::arrival};
  std::uint64_t id{0};

  friend bool operator==(const event&, const event&) = default;
};

/// Clock, sequence counter and pending events, in schedule order.
struct engine_state {
  double now{0.0};
  std::uint64_t next_seq{0};
  std::vector<event> pending;
};

class event_engine {
 public:
  /// Current virtual time in seconds (0 at construction).
  [[nodiscard]] double now() const { return now_; }

  /// Schedule an event at absolute virtual time `t` (clamped to now()).
  /// Returns its sequence number.
  std::uint64_t at(double t, event_kind kind, std::uint64_t id = 0) {
    const std::uint64_t seq = next_seq_++;
    heap_.push_back(event{std::max(t, now_), seq, kind, id});
    std::push_heap(heap_.begin(), heap_.end(), later{});
    return seq;
  }

  /// Schedule an event `dt` seconds from now (clamped to non-negative delay).
  std::uint64_t after(double dt, event_kind kind, std::uint64_t id = 0) {
    return at(now_ + dt, kind, id);
  }

  /// Fire events in (time, schedule-order) through `handler(const event&)`
  /// until none remain; returns how many fired. Handlers may schedule
  /// further events.
  template <class Handler>
  std::size_t run(Handler&& handler) {
    std::size_t fired = 0;
    while (!heap_.empty()) {
      handler(pop());
      ++fired;
    }
    return fired;
  }

  /// Fire events with timestamp <= t, then advance the clock to t.
  template <class Handler>
  std::size_t run_until(double t, Handler&& handler) {
    std::size_t fired = 0;
    while (!heap_.empty() && heap_.front().t <= t) {
      handler(pop());
      ++fired;
    }
    now_ = std::max(now_, t);
    return fired;
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const { return heap_.size(); }
  /// Events scheduled so far: the sequence counter.
  [[nodiscard]] std::uint64_t scheduled() const { return next_seq_; }

  /// The clock, the sequence counter and every pending event, sorted by
  /// sequence number (a canonical order, independent of heap layout).
  [[nodiscard]] engine_state export_state() const;
  /// Replace the engine's contents with `s`: events keep their sequence
  /// numbers, so they fire in exactly the order they would have in the
  /// exporting engine, and later events continue from `s.next_seq`.
  void import_state(engine_state s);

 private:
  struct later {
    bool operator()(const event& a, const event& b) const {
      return a.t > b.t || (a.t == b.t && a.seq > b.seq);
    }
  };

  /// Remove the earliest event and move the clock to it.
  event pop() {
    std::pop_heap(heap_.begin(), heap_.end(), later{});
    const event e = heap_.back();
    heap_.pop_back();
    now_ = e.t;
    return e;
  }

  double now_{0.0};
  std::uint64_t next_seq_{0};
  std::vector<event> heap_;
};

}  // namespace synergy::cluster
