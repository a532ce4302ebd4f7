#include "os/vm.hpp"

#include <algorithm>
#include <vector>

#include "base/expect.hpp"
#include "base/rng.hpp"

namespace repro::os {

VirtualMemory::VirtualMemory(const VmConfig& config, KernelCounters& counters)
    : config_(config), counters_(counters),
      frames_(config.physical_bytes) {
  REPRO_EXPECT(config.segments > 0 && config.pages_per_segment > 0,
               "address space must be non-empty");
  REPRO_EXPECT(config.system_fault_fraction >= 0.0 &&
                   config.system_fault_fraction <= 1.0,
               "system fault fraction must be a probability");
}

void VirtualMemory::unmap(JobPages& pages, Addr page) {
  drop_memo();
  const auto it = pages.resident.find(page);
  if (it == pages.resident.end()) {
    return;
  }
  frames_.free(it->second);
  pages.resident.erase(it);
  counters_.increment(KernelCounter::kPagesEvicted);
}

bool VirtualMemory::reclaim_one() {
  while (!global_fifo_.empty()) {
    const auto [job, page] = global_fifo_.front();
    global_fifo_.pop_front();
    const auto job_it = jobs_.find(job);
    if (job_it == jobs_.end()) {
      continue;  // Job released; entry stale.
    }
    if (!job_it->second.resident.contains(page)) {
      continue;  // Evicted earlier; entry stale.
    }
    unmap(job_it->second, page);
    ++stats_.global_reclaims;
    return true;
  }
  return false;
}

Cycle VirtualMemory::touch(JobId job, CeId ce, Addr addr) {
  ++stats_.translations;
  const Addr page = addr / kPageBytes;
  // Memo hit: this exact (job, page) resolved resident for this CE
  // recently and no unmap/release has happened since. Same page means the
  // bounds check below already passed for it, so the early return is
  // behaviour-neutral.
  const std::size_t slot = page & (kMemoSlots - 1);
  if (memo_valid_[ce][slot] && memo_page_[ce][slot] == page &&
      memo_job_[ce][slot] == job) {
    return 0;
  }
  const Addr limit =
      config_.segments * config_.pages_per_segment * kPageBytes;
  REPRO_EXPECT(addr < limit, "virtual address beyond the segmented space");

  JobPages& pages = jobs_[job];
  if (pages.resident.contains(page)) {
    remember(ce, job, page);
    return 0;
  }

  // Page fault: find a frame (reclaiming under exhaustion), map, account.
  std::optional<mem::FrameId> frame = frames_.allocate();
  while (!frame) {
    REPRO_ENSURE(reclaim_one(),
                 "physical memory exhausted with nothing reclaimable");
    frame = frames_.allocate();
  }
  pages.resident.emplace(page, *frame);
  pages.fifo.push_back(page);
  global_fifo_.emplace_back(job, page);
  ++stats_.faults;
  counters_.increment(KernelCounter::kPagesMapped);

  // Deterministically classify user vs system mode from the fault site.
  const bool system_mode =
      static_cast<double>(mix64(page ^ (job << 20) ^ ce) >> 11) * 0x1.0p-53 <
      config_.system_fault_fraction;
  counters_.increment(system_mode ? KernelCounter::kCePageFaultsSystem
                                  : KernelCounter::kCePageFaultsUser);

  if (config_.resident_limit_pages > 0 &&
      pages.resident.size() > config_.resident_limit_pages) {
    // Per-job FIFO cap: skip stale queue entries.
    while (!pages.fifo.empty()) {
      const Addr victim = pages.fifo.front();
      pages.fifo.pop_front();
      if (pages.resident.contains(victim)) {
        unmap(pages, victim);
        ++stats_.evictions;
        break;
      }
    }
  }
  // The freshly mapped page survives any cap eviction above (FIFO evicts
  // the oldest; with a positive cap that is never the page just pushed —
  // and the eviction's unmap() has already wiped the memos by this point).
  remember(ce, job, page);
  return config_.fault_service_cycles;
}

void VirtualMemory::release_job(JobId job) {
  drop_memo();
  const auto it = jobs_.find(job);
  if (it == jobs_.end()) {
    return;
  }
  for (const auto& [page, frame] : it->second.resident) {
    frames_.free(frame);
  }
  jobs_.erase(it);
}

std::uint64_t VirtualMemory::resident_pages(JobId job) const {
  const auto it = jobs_.find(job);
  return it == jobs_.end() ? 0 : it->second.resident.size();
}

void VirtualMemory::serialize(capsule::Io& io) {
  // Page tables. The unordered_maps are only ever iterated in
  // release_job's frame frees (order-independent), so serializing them in
  // sorted key order is behaviour-neutral and makes save/digest canonical.
  // A job is at least its id and two empty extents (3 x 8 bytes); a
  // resident entry is (page, frame) and a FIFO entry a page.
  const std::uint64_t job_count = io.extent(jobs_.size(), 24);
  if (io.loading()) {
    jobs_.clear();
    for (std::uint64_t j = 0; j < job_count; ++j) {
      JobId job = 0;
      io.u64(job);
      JobPages& pages = jobs_[job];
      const std::uint64_t resident = io.extent(0, 16);
      for (std::uint64_t p = 0; p < resident; ++p) {
        Addr page = 0;
        mem::FrameId frame = 0;
        io.u64(page);
        io.u64(frame);
        pages.resident.emplace(page, frame);
      }
      const std::uint64_t fifo_depth = io.extent(0, 8);
      pages.fifo.assign(static_cast<std::size_t>(fifo_depth), 0);
      for (Addr& page : pages.fifo) {
        io.u64(page);
      }
    }
  } else {
    std::vector<JobId> job_ids;
    job_ids.reserve(jobs_.size());
    for (const auto& [job, pages] : jobs_) {
      job_ids.push_back(job);
    }
    std::sort(job_ids.begin(), job_ids.end());
    for (JobId job : job_ids) {
      io.u64(job);
      JobPages& pages = jobs_[job];
      std::vector<Addr> resident_pages_sorted;
      resident_pages_sorted.reserve(pages.resident.size());
      for (const auto& [page, frame] : pages.resident) {
        resident_pages_sorted.push_back(page);
      }
      std::sort(resident_pages_sorted.begin(), resident_pages_sorted.end());
      std::uint64_t resident = io.extent(resident_pages_sorted.size(), 16);
      (void)resident;
      for (Addr page : resident_pages_sorted) {
        io.u64(page);
        io.u64(pages.resident.at(page));
      }
      std::uint64_t fifo_depth = io.extent(pages.fifo.size(), 8);
      (void)fifo_depth;
      for (Addr& page : pages.fifo) {
        io.u64(page);
      }
    }
  }

  // Global reclaim FIFO.
  const std::uint64_t global_depth = io.extent(global_fifo_.size(), 16);
  if (io.loading()) {
    global_fifo_.assign(static_cast<std::size_t>(global_depth), {0, 0});
  }
  for (auto& [job, page] : global_fifo_) {
    io.u64(job);
    io.u64(page);
  }

  // VM-side translation memos (one row per lane — kMaxCes by default,
  // more on wide machines), the Mmu base's memos, stats, frame pool.
  for (CeId ce = 0; ce < memo_job_.size(); ++ce) {
    for (std::size_t slot = 0; slot < kMemoSlots; ++slot) {
      io.u64(memo_job_[ce][slot]);
      io.u64(memo_page_[ce][slot]);
      io.boolean(memo_valid_[ce][slot]);
    }
  }
  serialize_translation_state(io);
  io.u64(stats_.faults);
  io.u64(stats_.evictions);
  io.u64(stats_.global_reclaims);
  io.u64(stats_.translations);
  frames_.serialize(io);
}

}  // namespace repro::os
