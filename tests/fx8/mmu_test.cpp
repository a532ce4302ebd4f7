// Per-CE translation memo of fx8::Mmu.
//
// Mmu::translate keeps a single-entry memo per CE of the last resident
// (job, page): a repeat inside that page skips the virtual touch(), and
// anything else — a new page, another job, another CE, or any unmap
// since (invalidate_translations) — must reach touch() again, or the
// implementation would miss a fault it has to account.
#include "fx8/mmu.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "base/capsule.hpp"

namespace repro::fx8 {
namespace {

/// Records every touch() it serves.
class SpyMmu final : public Mmu {
 public:
  struct Touch {
    JobId job;
    CeId ce;
    Addr addr;
  };

  Cycle touch(JobId job, CeId ce, Addr addr) override {
    touches.push_back(Touch{job, ce, addr});
    return 0;
  }

  using Mmu::invalidate_translations;

  std::vector<Touch> touches;
};

constexpr JobId kJob = 7;
constexpr CeId kCe = 3;
constexpr Addr kAddr = 0x200040;

TEST(MmuMemo, WithinPageRepeatSkipsTouch) {
  SpyMmu mmu;
  EXPECT_EQ(mmu.translate(kJob, kCe, kAddr), 0u);
  ASSERT_EQ(mmu.touches.size(), 1u);
  EXPECT_EQ(mmu.touches[0].job, kJob);
  EXPECT_EQ(mmu.touches[0].ce, kCe);
  EXPECT_EQ(mmu.touches[0].addr, kAddr);

  // Anywhere else inside the same page, same job and CE: a memo hit.
  const Addr page_base = kAddr / kPageBytes * kPageBytes;
  EXPECT_EQ(mmu.translate(kJob, kCe, kAddr + 8), 0u);
  EXPECT_EQ(mmu.translate(kJob, kCe, page_base), 0u);
  EXPECT_EQ(mmu.translate(kJob, kCe, page_base + kPageBytes - 1), 0u);
  EXPECT_EQ(mmu.touches.size(), 1u);
}

TEST(MmuMemo, NewPageJobOrCeReachesTouch) {
  SpyMmu mmu;
  (void)mmu.translate(kJob, kCe, kAddr);
  ASSERT_EQ(mmu.touches.size(), 1u);

  (void)mmu.translate(kJob, kCe, kAddr + kPageBytes);  // New page.
  ASSERT_EQ(mmu.touches.size(), 2u);
  EXPECT_EQ(mmu.touches[1].addr, kAddr + kPageBytes);

  (void)mmu.translate(kJob + 1, kCe, kAddr + kPageBytes);  // New job.
  ASSERT_EQ(mmu.touches.size(), 3u);
  EXPECT_EQ(mmu.touches[2].job, kJob + 1);

  (void)mmu.translate(kJob + 1, kCe + 1, kAddr + kPageBytes);  // New CE.
  ASSERT_EQ(mmu.touches.size(), 4u);
  EXPECT_EQ(mmu.touches[3].ce, kCe + 1);

  // Each CE kept its own slot: both repeats hit.
  (void)mmu.translate(kJob + 1, kCe, kAddr + kPageBytes);
  (void)mmu.translate(kJob + 1, kCe + 1, kAddr + kPageBytes);
  EXPECT_EQ(mmu.touches.size(), 4u);
}

TEST(MmuMemo, InvalidationDropsEveryCeSlot) {
  SpyMmu mmu;
  for (CeId ce = 0; ce < mmu.lanes(); ++ce) {
    (void)mmu.translate(1, ce, 0x1000);
  }
  EXPECT_EQ(mmu.touches.size(), mmu.lanes());
  for (CeId ce = 0; ce < mmu.lanes(); ++ce) {
    (void)mmu.translate(1, ce, 0x1000);
  }
  EXPECT_EQ(mmu.touches.size(), mmu.lanes());  // All memo hits.

  mmu.invalidate_translations();
  for (CeId ce = 0; ce < mmu.lanes(); ++ce) {
    (void)mmu.translate(1, ce, 0x1000);
  }
  EXPECT_EQ(mmu.touches.size(), 2 * mmu.lanes());
}

TEST(MmuMemo, EnsureLanesGrowsToSixtyFourLanes) {
  SpyMmu mmu;
  EXPECT_EQ(mmu.lanes(), kMaxCes);
  (void)mmu.translate(kJob, 0, kAddr);
  ASSERT_EQ(mmu.touches.size(), 1u);

  mmu.ensure_lanes(kMaxTopologyCes);
  EXPECT_EQ(mmu.lanes(), kMaxTopologyCes);
  // Growing wipes the memo: the earlier translation touches again.
  (void)mmu.translate(kJob, 0, kAddr);
  EXPECT_EQ(mmu.touches.size(), 2u);

  // Every one of the 64 lanes memoizes on its own.
  for (CeId ce = 0; ce < kMaxTopologyCes; ++ce) {
    (void)mmu.translate(kJob, ce, kAddr);
    (void)mmu.translate(kJob, ce, kAddr + 16);
  }
  EXPECT_EQ(mmu.touches.size(), 2u + kMaxTopologyCes - 1);

  // Never shrinks.
  mmu.ensure_lanes(kMaxCes);
  EXPECT_EQ(mmu.lanes(), kMaxTopologyCes);

  // The capsule walk covers exactly one memo entry per lane (epoch, job,
  // page) plus the epoch counter.
  capsule::Io io = capsule::Io::saver();
  mmu.serialize_translation_state(io);
  EXPECT_EQ(io.bytes().size(), (3u * kMaxTopologyCes + 1u) * 8u);
}

}  // namespace
}  // namespace repro::fx8
