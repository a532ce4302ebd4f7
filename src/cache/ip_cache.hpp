// Interactive Processor cache model.
//
// Each IP owns a 32 KB cache on the system memory bus (Appendix C). IPs
// run interactive load, the operating system, and I/O; their cache filters
// most of that traffic, and their misses appear on the memory bus as
// kIpTraffic transactions. IP writes to pages a CE also touched revoke the
// CE cache's copy (the "unique copy" coherence rule), which we surface via
// a snoop hook so the machine can forward it to the shared cache.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "base/capsule.hpp"
#include "base/types.hpp"
#include "mem/bus_ops.hpp"
#include "mem/memory_bus.hpp"

namespace repro::cache {

struct IpCacheConfig {
  std::uint64_t capacity_bytes = 32 * 1024;
  std::uint32_t ways = 1;  ///< Direct mapped.
  /// Memory bus the IP cache's traffic rides on.
  std::uint32_t bus = 0;
};

struct IpCacheStats {
  std::uint64_t accesses = 0;
  std::uint64_t misses = 0;
  std::uint64_t write_snoops = 0;
};

class IpCache {
 public:
  using SnoopHook = std::function<void(Addr)>;

  IpCache(const IpCacheConfig& config, mem::MemoryBus& bus);

  /// Register the hook invoked when an IP write must revoke CE copies.
  void set_snoop_hook(SnoopHook hook);

  /// Present an access; returns true on hit. Misses queue untracked
  /// kIpTraffic on the memory bus (fire-and-forget: IPs are not the
  /// measured resource, so we model their bus load, not their stall
  /// time).
  bool access(Addr addr, bool is_write);

  [[nodiscard]] const IpCacheStats& stats() const { return stats_; }

  /// Capsule walk: tag array and stats. The snoop hook is wiring the
  /// owner (Machine) reinstalls at construction, not state.
  void serialize(capsule::Io& io) {
    const std::uint64_t tag_count = io.extent(tags_.size(), 8);
    if (io.loading() && tag_count != tags_.size()) {
      throw capsule::CapsuleError("capsule: IP cache geometry mismatch");
    }
    for (Addr& tag : tags_) {
      io.u64(tag);
    }
    io.u64(stats_.accesses);
    io.u64(stats_.misses);
    io.u64(stats_.write_snoops);
  }

 private:
  IpCacheConfig config_;
  mem::MemoryBus& bus_;
  std::vector<Addr> tags_;      ///< 0 = empty; tags are line addresses | 1.
  SnoopHook snoop_;
  IpCacheStats stats_;
};

}  // namespace repro::cache
