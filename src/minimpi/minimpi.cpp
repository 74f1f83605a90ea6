#include "minimpi/minimpi.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <thread>

namespace minimpi {

double network_model::collective_time(int n_ranks, std::size_t bytes) const {
  if (n_ranks <= 1) return 0.0;
  const double stages = std::ceil(std::log2(static_cast<double>(n_ranks)));
  return stages * transfer_time(bytes);
}

int communicator::size() const { return world_->n_ranks_; }

void communicator::charge(double seconds) {
  if (seconds < 0.0) throw std::invalid_argument("negative time charge");
  vtime_ += seconds;
}

void communicator::send_bytes(int dest, int tag, const void* data, std::size_t bytes,
                              std::size_t charged_bytes) {
  if (dest < 0 || dest >= world_->n_ranks_) throw std::invalid_argument("bad destination rank");
  // Buffered (eager) send: deposit the message and continue. The sender
  // pays the injection latency; the wire time is carried on the message.
  world::message msg;
  msg.payload.resize(bytes);
  if (bytes > 0) std::memcpy(msg.payload.data(), data, bytes);
  vtime_ += world_->network_.latency_s;
  msg.arrival_vtime = vtime_ + world_->network_.transfer_time(charged_bytes);
  {
    std::scoped_lock lock(world_->mutex_);
    world_->mailboxes_[{rank_, dest, tag}].push_back(std::move(msg));
  }
  world_->cv_.notify_all();
}

void communicator::recv_bytes(int source, int tag, void* data, std::size_t bytes) {
  if (source < 0 || source >= world_->n_ranks_) throw std::invalid_argument("bad source rank");
  std::unique_lock lock(world_->mutex_);
  auto& box = world_->mailboxes_[{source, rank_, tag}];
  world_->cv_.wait(lock, [&] { return !box.empty(); });
  world::message msg = std::move(box.front());
  box.pop_front();
  lock.unlock();
  if (msg.payload.size() != bytes)
    throw std::runtime_error("message size mismatch in recv");
  if (bytes > 0) std::memcpy(data, msg.payload.data(), bytes);
  // The receiver cannot finish before the message arrives.
  vtime_ = std::max(vtime_, msg.arrival_vtime);
}

double communicator::allreduce(double value, op operation) {
  double buf = value;
  allreduce(std::span<double>{&buf, 1}, operation);
  return buf;
}

void communicator::allreduce(std::span<double> values, op operation) {
  auto& w = *world_;
  std::unique_lock lock(w.mutex_);
  const std::uint64_t my_generation = w.coll_generation_;

  if (w.coll_entered_ == 0) {
    w.coll_values_.assign(values.begin(), values.end());
    w.coll_max_vtime_ = vtime_;
  } else {
    if (w.coll_values_.size() != values.size())
      throw std::runtime_error("mismatched allreduce sizes across ranks");
    for (std::size_t i = 0; i < values.size(); ++i) {
      switch (operation) {
        case op::sum: w.coll_values_[i] += values[i]; break;
        case op::max: w.coll_values_[i] = std::max(w.coll_values_[i], values[i]); break;
        case op::min: w.coll_values_[i] = std::min(w.coll_values_[i], values[i]); break;
      }
    }
    w.coll_max_vtime_ = std::max(w.coll_max_vtime_, vtime_);
  }
  ++w.coll_entered_;

  if (w.coll_entered_ == w.n_ranks_) {
    // Last arrival completes the collective for everyone.
    w.coll_result_ = w.coll_values_;
    w.coll_finish_time_ =
        w.coll_max_vtime_ + w.network_.collective_time(w.n_ranks_, values.size_bytes());
    w.coll_entered_ = 0;
    ++w.coll_generation_;
    w.cv_.notify_all();
  } else {
    w.cv_.wait(lock, [&] { return w.coll_generation_ != my_generation; });
  }

  std::copy(w.coll_result_.begin(), w.coll_result_.end(), values.begin());
  vtime_ = w.coll_finish_time_;
}

void communicator::barrier() {
  double token = 0.0;
  allreduce(std::span<double>{&token, 1}, op::sum);
}

void communicator::broadcast(int root, std::span<double> values) {
  if (root < 0 || root >= world_->n_ranks_) throw std::invalid_argument("bad broadcast root");
  // Implemented over the collective rendezvous: the root contributes its
  // payload, everyone else contributes identity zeros; summation recovers
  // the root's values on every rank. Timing matches a tree broadcast.
  std::vector<double> contribution(values.size(), 0.0);
  if (rank_ == root) std::copy(values.begin(), values.end(), contribution.begin());
  allreduce(contribution, op::sum);
  std::copy(contribution.begin(), contribution.end(), values.begin());
}

void communicator::gather(int root, double value, std::span<double> out) {
  if (root < 0 || root >= world_->n_ranks_) throw std::invalid_argument("bad gather root");
  if (rank_ != root) {
    send(root, /*tag=*/-42 - root, std::span<const double>{&value, 1});
    // Leaving ranks synchronise with the root's completion like MPI_Gather
    // on a rendezvous transport: nothing further to do here.
    return;
  }
  if (out.size() < static_cast<std::size_t>(world_->n_ranks_))
    throw std::invalid_argument("gather output too small");
  out[static_cast<std::size_t>(root)] = value;
  for (int r = 0; r < world_->n_ranks_; ++r) {
    if (r == root) continue;
    double v = 0.0;
    recv(r, /*tag=*/-42 - root, std::span<double>{&v, 1});
    out[static_cast<std::size_t>(r)] = v;
  }
}

world::world(int n_ranks, network_model network) : n_ranks_(n_ranks), network_(network) {
  if (n_ranks <= 0) throw std::invalid_argument("world needs at least one rank");
}

void world::run(const std::function<void(communicator&)>& rank_fn) {
  std::vector<communicator> comms;
  comms.reserve(n_ranks_);
  for (int r = 0; r < n_ranks_; ++r) comms.push_back(communicator{this, r});

  std::vector<std::exception_ptr> errors(n_ranks_);
  std::vector<std::thread> threads;
  threads.reserve(n_ranks_);
  for (int r = 0; r < n_ranks_; ++r) {
    threads.emplace_back([&, r] {
      try {
        rank_fn(comms[r]);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();

  makespan_ = 0.0;
  for (const auto& c : comms) makespan_ = std::max(makespan_, c.vtime_);
  mailboxes_.clear();
  for (const auto& err : errors)
    if (err) std::rethrow_exception(err);
}

}  // namespace minimpi
