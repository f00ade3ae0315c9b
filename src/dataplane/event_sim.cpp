#include "dataplane/event_sim.h"

#include <algorithm>
#include <cassert>

namespace rovista::dataplane {

void Simulator::at(TimeUs t, std::function<void()> fn) {
  assert(t >= now_);
  queue_.push_back(Event{t, next_seq_++, std::move(fn)});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

Simulator::Event Simulator::pop_next() {
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  return ev;
}

void Simulator::after(TimeUs dt, std::function<void()> fn) {
  at(now_ + dt, std::move(fn));
}

std::size_t Simulator::run() {
  std::size_t n = 0;
  while (!queue_.empty()) {
    Event ev = pop_next();
    now_ = ev.time;
    ev.fn();
    ++n;
  }
  return n;
}

std::size_t Simulator::run_until(TimeUs t) {
  std::size_t n = 0;
  while (!queue_.empty() && queue_.front().time <= t) {
    Event ev = pop_next();
    now_ = ev.time;
    ev.fn();
    ++n;
  }
  now_ = t;
  return n;
}

}  // namespace rovista::dataplane
