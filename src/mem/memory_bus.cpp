#include "mem/memory_bus.hpp"

#include <algorithm>

#include "base/expect.hpp"

namespace repro::mem {

MemoryBus::MemoryBus(const MemoryBusConfig& config, MainMemory& memory)
    : config_(config), memory_(memory), buses_(config.bus_count) {
  REPRO_EXPECT(config.bus_count > 0, "need at least one memory bus");
  REPRO_EXPECT(config.bus_count <= kMaxMemBuses,
               "bus count exceeds the hot-state bus cap");
  REPRO_EXPECT(config.transfer_cycles > 0, "transfer time must be positive");
  REPRO_EXPECT(config.invalidate_cycles > 0,
               "invalidate time must be positive");
}

void MemoryBus::bind_hot(BusHot& hot) {
  hot = *hot_;
  hot_ = &hot;
}

TxnId MemoryBus::submit(std::uint32_t bus, MemBusOp op, Addr addr) {
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  REPRO_EXPECT(op != MemBusOp::kIdle, "cannot submit an idle transaction");
  const TxnId id = next_id_++;
  buses_[bus].queue.push_back(PendingTxn{id, op, addr});
  quiescent_ = false;
  return id;
}

void MemoryBus::submit_untracked(std::uint32_t bus, MemBusOp op, Addr addr) {
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  REPRO_EXPECT(op != MemBusOp::kIdle, "cannot submit an idle transaction");
  buses_[bus].queue.push_back(PendingTxn{0, op, addr});
  quiescent_ = false;
}

void MemoryBus::start_next(BusState& bus, std::uint32_t index, Cycle now) {
  if (bus.queue.empty()) {
    return;
  }
  const PendingTxn& head = bus.queue.front();
  if (head.op == MemBusOp::kInvalidate) {
    bus.active = head;
    hot_->remaining[index] = config_.invalidate_cycles;
    bus.queue.pop_front();
    return;
  }
  // Memory-touching transaction: only start when the bank can serve it.
  if (memory_.earliest_start(head.addr, now) > now) {
    return;  // Bank conflict: bus idles this cycle.
  }
  memory_.begin_access(head.addr, now);
  bus.active = head;
  hot_->remaining[index] = config_.transfer_cycles;
  bus.queue.pop_front();
}

void MemoryBus::tick(Cycle now) {
  if (quiescent_) {
    // Every bus latched kIdle last tick with an empty queue; nothing can
    // change until the next submit. Book one idle cycle per bus (lazily,
    // see op_cycles()) and keep the latched opcodes as they are.
    ++quiescent_ticks_;
    return;
  }
  BusHot& hot = *hot_;
  bool all_idle = true;
  for (std::uint32_t b = 0; b < buses_.size(); ++b) {
    BusState& bus = buses_[b];
    if (hot.remaining[b] == 0 && !bus.queue.empty()) {
      start_next(bus, b, now);
    }
    if (hot.remaining[b] > 0) {
      hot.current_op[b] = bus.active.op;
      --hot.remaining[b];
      if (hot.remaining[b] == 0 && bus.active.id != 0) {
        finished_.push_back(bus.active.id);
        ++hot.completion_epoch;
      }
      all_idle = false;
    } else {
      hot.current_op[b] = MemBusOp::kIdle;
      if (!bus.queue.empty()) {
        all_idle = false;  // Bank-blocked head can start without a submit.
      }
    }
    ++bus.op_cycle_counts[static_cast<std::size_t>(hot.current_op[b])];
  }
  quiescent_ = all_idle;
}

Cycle MemoryBus::quiet_horizon(Cycle now) const {
  Cycle horizon = kHorizonNever;
  for (std::uint32_t b = 0; b < buses_.size(); ++b) {
    const BusState& bus = buses_[b];
    const std::uint32_t remaining = hot_->remaining[b];
    if (remaining > 0) {
      // Counting down an active transaction is a pure repeat of the same
      // opcode; the tick that completes it (recording the completion and
      // starting the next queued txn) must run naively.
      horizon = std::min<Cycle>(horizon, remaining - 1);
    } else if (!bus.queue.empty()) {
      const PendingTxn& head = bus.queue.front();
      if (head.op == MemBusOp::kInvalidate) {
        return 0;  // Starts unconditionally on the next tick.
      }
      // Head is blocked on its memory bank: the bus idles until the
      // bank frees, and the tick that can start it must run naively.
      const Cycle start = memory_.earliest_start(head.addr, now);
      if (start <= now) {
        return 0;
      }
      horizon = std::min(horizon, start - now);
    }
    if (horizon == 0) {
      return 0;
    }
  }
  return horizon;
}

void MemoryBus::skip(Cycle cycles) {
  BusHot& hot = *hot_;
  for (std::uint32_t b = 0; b < buses_.size(); ++b) {
    BusState& bus = buses_[b];
    if (hot.remaining[b] > 0) {
      REPRO_EXPECT(cycles < hot.remaining[b],
                   "memory bus skip past a transaction completion");
      hot.current_op[b] = bus.active.op;
      hot.remaining[b] -= static_cast<std::uint32_t>(cycles);
      bus.op_cycle_counts[static_cast<std::size_t>(bus.active.op)] += cycles;
    } else {
      hot.current_op[b] = MemBusOp::kIdle;
      bus.op_cycle_counts[static_cast<std::size_t>(MemBusOp::kIdle)] +=
          cycles;
    }
  }
}

bool MemoryBus::take_finished(TxnId id) {
  const auto it = std::find(finished_.begin(), finished_.end(), id);
  if (it == finished_.end()) {
    return false;
  }
  *it = finished_.back();
  finished_.pop_back();
  return true;
}

MemBusOp MemoryBus::op_on(std::uint32_t bus) const {
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  return hot_->current_op[bus];
}

std::size_t MemoryBus::queue_depth(std::uint32_t bus) const {
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  return buses_[bus].queue.size();
}

void MemoryBus::serialize(capsule::Io& io) {
  const auto txn = [&io](PendingTxn& t) {
    io.u64(t.id);
    io.enum32(t.op);
    io.u64(t.addr);
  };
  for (std::uint32_t b = 0; b < buses_.size(); ++b) {
    BusState& bus = buses_[b];
    // txn(): id, op, addr (8 + 4 + 8 bytes).
    const std::uint64_t depth = io.extent(bus.queue.size(), 20);
    if (io.loading()) {
      bus.queue.assign(static_cast<std::size_t>(depth), PendingTxn{});
    }
    for (PendingTxn& queued : bus.queue) {
      txn(queued);
    }
    txn(bus.active);
    for (std::uint64_t& count : bus.op_cycle_counts) {
      io.u64(count);
    }
    io.u32(hot_->remaining[b]);
    io.enum32(hot_->current_op[b]);
  }
  const std::uint64_t finished = io.extent(finished_.size(), 8);
  if (io.loading()) {
    finished_.assign(static_cast<std::size_t>(finished), 0);
  }
  for (TxnId& id : finished_) {
    io.u64(id);
  }
  io.u64(next_id_);
  io.boolean(quiescent_);
  io.u64(quiescent_ticks_);
  io.u64(hot_->completion_epoch);
}

std::uint64_t MemoryBus::op_cycles(std::uint32_t bus, MemBusOp op) const {
  if (op == MemBusOp::kIdle) {
    REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
    return buses_[bus].op_cycle_counts[static_cast<std::size_t>(op)] +
           quiescent_ticks_;
  }
  REPRO_EXPECT(bus < buses_.size(), "bus index out of range");
  return buses_[bus].op_cycle_counts[static_cast<std::size_t>(op)];
}

}  // namespace repro::mem
