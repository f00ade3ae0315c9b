// Discrete-event simulation core.
//
// Time is microseconds from scenario start. Events fire in (time,
// insertion-sequence) order, so simultaneous events are deterministic.
// The engine is single-threaded by design: determinism beats parallelism
// for a measurement-reproduction substrate. Parallelism happens one
// level up, under the *replica rule*: each worker thread owns an entire
// private simulator (and dataplane) replica and never touches another
// worker's — see core/parallel_round.h and DESIGN.md, "Parallel
// measurement engine". A Simulator instance must therefore never be
// shared across threads.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

namespace rovista::dataplane {

using TimeUs = std::uint64_t;

constexpr TimeUs microseconds(double seconds) noexcept {
  return static_cast<TimeUs>(seconds * 1e6);
}

constexpr double to_seconds(TimeUs t) noexcept {
  return static_cast<double>(t) * 1e-6;
}

class Simulator {
 public:
  TimeUs now() const noexcept { return now_; }

  /// Schedule `fn` at absolute time `t` (must be >= now()).
  void at(TimeUs t, std::function<void()> fn);

  /// Schedule `fn` at now() + dt.
  void after(TimeUs dt, std::function<void()> fn);

  /// Run every event; returns the number of events processed.
  std::size_t run();

  /// Run events with time <= t, then set now() = t.
  std::size_t run_until(TimeUs t);

  std::size_t pending() const noexcept { return queue_.size(); }

 private:
  struct Event {
    TimeUs time;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  /// Remove and return the earliest event (queue_ must not be empty).
  Event pop_next();

  // A binary min-heap under Later (std::push_heap / std::pop_heap), not a
  // std::priority_queue: its top() is const, so popping would copy each
  // event's callable — and with it any packet it captured.
  std::vector<Event> queue_;
  TimeUs now_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace rovista::dataplane
