#pragma once

/// \file minimpi.hpp
/// In-process message-passing layer with virtual communication time.
///
/// The paper's multi-node experiments run MPI+SYCL applications over
/// InfiniBand EDR with a DragonFly+ topology (Sec. 8.1). minimpi reproduces
/// the programming model in-process: ranks run as threads, point-to-point
/// and collective operations synchronise them, and every operation charges
/// cost to a per-rank *virtual clock* using a latency/bandwidth network
/// model. Compute time (from the simulated GPUs) is charged explicitly via
/// communicator::charge; the job makespan is the maximum rank clock, which
/// is what the weak-scaling study (Fig. 10) plots against energy.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <span>
#include <vector>

namespace minimpi {

/// Reduction operations for allreduce.
enum class op { sum, max, min };

/// Flat latency/bandwidth network model. A DragonFly+ EDR fabric is well
/// approximated as distance-independent at this scale (its diameter is a few
/// hops regardless of node count).
struct network_model {
  double latency_s{1.5e-6};        ///< per-message latency
  double bandwidth_bps{12.5e9};    ///< per-link bandwidth (100 Gb/s EDR)

  /// Time to move one message of `bytes` across the fabric.
  [[nodiscard]] double transfer_time(std::size_t bytes) const {
    return latency_s + static_cast<double>(bytes) / bandwidth_bps;
  }

  /// Cost of a tree collective over n ranks carrying `bytes` per stage.
  [[nodiscard]] double collective_time(int n_ranks, std::size_t bytes) const;
};

class world;

/// Per-rank handle: MPI_COMM_WORLD-style interface plus the virtual clock.
class communicator {
 public:
  [[nodiscard]] int rank() const { return rank_; }
  [[nodiscard]] int size() const;

  // --- virtual time -----------------------------------------------------------

  /// Advance this rank's clock by locally spent time (e.g. a GPU kernel's
  /// simulated duration, or host-side work).
  void charge(double seconds);

  /// This rank's current virtual time (MPI_Wtime analogue).
  [[nodiscard]] double wtime() const { return vtime_; }

  // --- point-to-point -----------------------------------------------------------

  /// Blocking typed send; the receiver's clock advances to at least this
  /// rank's send time plus the modelled transfer time. `charged_bytes`
  /// overrides the wire size used for timing (0 = actual payload size);
  /// simulation clients use it when the real payload is a scaled-down stand-
  /// in for a larger virtual message (e.g. GPU-scale halos).
  template <typename T>
  void send(int dest, int tag, std::span<const T> data, std::size_t charged_bytes = 0) {
    send_bytes(dest, tag, data.data(), data.size_bytes(),
               charged_bytes ? charged_bytes : data.size_bytes());
  }

  /// Blocking typed receive (posts must match sends in (src, tag) order).
  template <typename T>
  void recv(int source, int tag, std::span<T> data) {
    recv_bytes(source, tag, data.data(), data.size_bytes());
  }

  /// Simultaneous exchange with a partner (halo-exchange primitive); both
  /// sides must call it. Deadlock-free regardless of rank order.
  template <typename T>
  void sendrecv(int partner, int tag, std::span<const T> to_send, std::span<T> to_recv,
                std::size_t charged_bytes = 0) {
    send(partner, tag, to_send, charged_bytes);
    recv(partner, tag, to_recv);
  }

  // --- collectives ----------------------------------------------------------------

  /// Reduce a scalar across all ranks; every rank gets the result and all
  /// clocks synchronise to the collective completion time.
  [[nodiscard]] double allreduce(double value, op operation);

  /// Element-wise in-place allreduce of a buffer.
  void allreduce(std::span<double> values, op operation);

  /// Synchronise all ranks (clocks meet at max + barrier cost).
  void barrier();

  /// Broadcast `values` from `root` to every rank (tree-cost collective).
  void broadcast(int root, std::span<double> values);

  /// Gather one value per rank; on `root`, `out` (size = world size,
  /// indexed by rank) receives them, other ranks' `out` is untouched.
  void gather(int root, double value, std::span<double> out);

 private:
  friend class world;
  communicator(world* w, int rank) : world_(w), rank_(rank) {}

  void send_bytes(int dest, int tag, const void* data, std::size_t bytes,
                  std::size_t charged_bytes);
  void recv_bytes(int source, int tag, void* data, std::size_t bytes);

  world* world_;
  int rank_;
  double vtime_{0.0};
};

/// A fixed-size group of ranks executing one SPMD function on threads.
class world {
 public:
  explicit world(int n_ranks, network_model network = {});

  /// Run `rank_fn` once per rank (as concurrent threads) and join. Any
  /// exception thrown by a rank is rethrown here after all threads finish.
  void run(const std::function<void(communicator&)>& rank_fn);

  [[nodiscard]] int size() const { return n_ranks_; }
  [[nodiscard]] const network_model& network() const { return network_; }

  /// Job makespan: maximum rank virtual time after run() returns.
  [[nodiscard]] double makespan() const { return makespan_; }

 private:
  friend class communicator;

  struct message {
    std::vector<std::uint8_t> payload;
    double arrival_vtime;  ///< sender clock at send + transfer time
  };

  using mailbox_key = std::tuple<int, int, int>;  // (source, dest, tag)

  int n_ranks_;
  network_model network_;
  double makespan_{0.0};

  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<mailbox_key, std::deque<message>> mailboxes_;

  // Generation-counted collective state.
  int coll_entered_{0};
  std::uint64_t coll_generation_{0};
  double coll_max_vtime_{0.0};
  std::vector<double> coll_values_;
  std::vector<double> coll_result_;
  double coll_finish_time_{0.0};
};

}  // namespace minimpi
