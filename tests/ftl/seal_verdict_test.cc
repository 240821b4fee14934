// Integrity seals live in the OOB record as a seal state: the claim is
// the record's own (lpn, version), and the payload is the same identity
// except on a torn page, which holds version - 1. verify_page and
// audit_data then compute CRCs only where claim and payload differ.
// These tests check that against the explicit form the state replaces:
// a per-page record holding the claim, the claim's CRC64 and the
// payload identity, with both CRCs computed on every check. They also
// check that the seal state survives recovery and never steers it.
#include "ftl/page_mapping.h"

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "faults/fault_injector.h"
#include "ftl/payload.h"

namespace flex::ftl {

/// Reads and fabricates OOB records (declared a friend of the FTL).
class PageMappingFtlPeer {
 public:
  static int seal(const PageMappingFtl& ftl, std::uint64_t ppn) {
    return static_cast<int>(ftl.oob_[ppn].seal);
  }
  static void set_seal(PageMappingFtl& ftl, std::uint64_t ppn, int seal) {
    ftl.oob_[ppn].seal = static_cast<std::uint64_t>(seal);
  }
  static std::uint32_t claim_lpn(const PageMappingFtl& ftl,
                                 std::uint64_t ppn) {
    return ftl.oob_[ppn].lpn;
  }
  static std::uint32_t claim_version(const PageMappingFtl& ftl,
                                     std::uint64_t ppn) {
    return ftl.oob_[ppn].version;
  }
  static void set_claim(PageMappingFtl& ftl, std::uint64_t ppn,
                        std::uint32_t lpn, std::uint32_t version) {
    ftl.oob_[ppn].lpn = lpn;
    ftl.oob_[ppn].version = version;
  }
  static bool programmed(const PageMappingFtl& ftl, std::uint64_t ppn) {
    return ftl.oob_[ppn].programmed();
  }
  static constexpr int kUnsealed = PageMappingFtl::kUnsealed;
  static constexpr int kSealed = PageMappingFtl::kSealed;
  static constexpr int kTorn = PageMappingFtl::kTorn;
};

namespace {

using Peer = PageMappingFtlPeer;

constexpr std::uint64_t kSeed = 0x5EED;
/// The FTL's modeled page body: 8 payload words.
constexpr std::uint32_t kPayloadWords = 8;

// Tiny drive: 2 chips x 16 blocks x 16 pages = 512 physical pages.
FtlConfig tiny_config() {
  FtlConfig cfg;
  cfg.spec.page_size_bytes = 4096;
  cfg.spec.pages_per_block = 16;
  cfg.spec.blocks_per_chip = 16;
  cfg.spec.chips = 2;
  cfg.over_provisioning = 0.25;
  cfg.gc_low_watermark = 3;
  cfg.integrity = true;
  cfg.integrity_seed = kSeed;
  return cfg;
}

faults::FaultInjector injector(double misdirected, double torn,
                               double silent) {
  faults::FaultConfig cfg;
  cfg.enabled = true;
  cfg.misdirected_write_rate = misdirected;
  cfg.torn_relocation_rate = torn;
  cfg.silent_corruption_rate = silent;
  return faults::FaultInjector(cfg, 0xFA17);
}

/// The delta a transient flip XORs into the delivered CRC (splitmix64
/// finalizer of the read identity, forced odd so it is nonzero).
std::uint64_t flip_delta(std::uint64_t ppn, std::uint64_t block_reads) {
  std::uint64_t x = (ppn ^ (block_reads << 20)) + 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return (x ^ (x >> 31)) | 1;
}

/// The explicit per-page seal record: claim, the claim's CRC and the
/// stored payload's identity.
struct ExplicitSeal {
  bool sealed = false;
  std::uint32_t seal_lpn = 0;
  std::uint32_t seal_version = 0;
  std::uint64_t seal_crc = 0;
  std::uint32_t payload_lpn = 0;
  std::uint32_t payload_version = 0;
};

/// The record a program with claim (lpn, version) and seal state `seal`
/// leaves: unsealed after a misdirected write, version - 1 bytes under
/// the fresh seal after a torn relocation.
ExplicitSeal explicit_seal(const PayloadModel& payload, int seal,
                           std::uint32_t lpn, std::uint32_t version) {
  if (seal == Peer::kUnsealed) return {};
  return {.sealed = true,
          .seal_lpn = lpn,
          .seal_version = version,
          .seal_crc = payload.crc(lpn, version),
          .payload_lpn = lpn,
          .payload_version = seal == Peer::kTorn ? version - 1 : version};
}

SealVerdict reference_verify(const PayloadModel& payload,
                             const ExplicitSeal& seal, std::uint64_t lpn,
                             std::uint64_t expect_version, bool flip,
                             std::uint64_t delta) {
  if (!seal.sealed) {
    return {.flagged = true, .persistent = true, .delivered_bad = true};
  }
  const std::uint64_t stored_crc =
      payload.crc(seal.payload_lpn, seal.payload_version);
  const std::uint64_t actual_crc = flip ? stored_crc ^ delta : stored_crc;
  const bool crc_ok = actual_crc == seal.seal_crc;
  const bool identity_ok =
      seal.seal_lpn == lpn && seal.seal_version == expect_version;
  return {.flagged = !crc_ok || !identity_ok,
          .persistent = !identity_ok || stored_crc != seal.seal_crc,
          .delivered_bad = flip || seal.payload_lpn != lpn ||
                           seal.payload_version != expect_version};
}

DataAudit reference_audit(const PayloadModel& payload,
                          const ExplicitSeal& seal, std::uint64_t lpn,
                          std::uint64_t version) {
  return {.seal_ok = seal.sealed && seal.seal_lpn == lpn &&
                     seal.seal_version == version &&
                     seal.seal_crc == payload.crc(seal.payload_lpn,
                                                  seal.payload_version),
          .payload_ok = seal.sealed && seal.payload_lpn == lpn &&
                        seal.payload_version == version};
}

/// Checks verify_page (reads at block_reads 0..3) and audit_data (for
/// the generations around `lpn`'s current one) against the explicit
/// record built from the OOB claim and seal state at `lpn`'s mapped
/// page `ppn`.
void expect_reference_verdicts(const PageMappingFtl& ftl,
                               const PayloadModel& payload,
                               std::uint64_t lpn, std::uint64_t ppn,
                               bool flip, const std::string& where) {
  const ExplicitSeal seal =
      explicit_seal(payload, Peer::seal(ftl, ppn), Peer::claim_lpn(ftl, ppn),
                    Peer::claim_version(ftl, ppn));
  const std::uint64_t version = ftl.data_version(lpn);
  for (std::uint64_t reads = 0; reads < 4; ++reads) {
    const SealVerdict got = ftl.verify_page(lpn, ppn, reads);
    const SealVerdict want = reference_verify(payload, seal, lpn, version,
                                              flip, flip_delta(ppn, reads));
    EXPECT_EQ(got.flagged, want.flagged) << where << " reads " << reads;
    EXPECT_EQ(got.persistent, want.persistent) << where << " reads " << reads;
    EXPECT_EQ(got.delivered_bad, want.delivered_bad)
        << where << " reads " << reads;
  }
  for (const std::uint64_t v : {version - 1, version, version + 1}) {
    const DataAudit got = ftl.audit_data(lpn, v);
    const DataAudit want = reference_audit(payload, seal, lpn, v);
    EXPECT_EQ(got.seal_ok, want.seal_ok) << where << " audit v" << v;
    EXPECT_EQ(got.payload_ok, want.payload_ok) << where << " audit v" << v;
  }
}

enum class Claim { kMatch, kStaleVersion, kWrongLpn };

// Every seal state x transient flip on/off x OOB claim that matches the
// expected identity, names a stale generation, or names another lpn.
TEST(SealVerdictTest, EveryStateFlipAndIdentityMatchesExplicitRecord) {
  const PayloadModel payload(kSeed, kPayloadWords);
  for (const int state : {Peer::kSealed, Peer::kUnsealed, Peer::kTorn}) {
    for (const bool flip : {false, true}) {
      for (const Claim claim :
           {Claim::kMatch, Claim::kStaleVersion, Claim::kWrongLpn}) {
        const std::string where = "state " + std::to_string(state) +
                                  " flip " + std::to_string(flip) +
                                  " claim " +
                                  std::to_string(static_cast<int>(claim));
        PageMappingFtl ftl(tiny_config());
        const std::uint64_t lpn = 9;
        ftl.write(lpn, PageMode::kNormal, 10);
        ftl.write(lpn + 1, PageMode::kNormal, 11);
        // Generation 3: torn pages then hold generation 2, and a stale
        // claim (generation 2) still names a torn payload of generation 1.
        const auto misdirect = injector(1.0, 0.0, 0.0);
        const auto tear = injector(0.0, 1.0, 0.0);
        ftl.write(lpn, PageMode::kNormal, 12);
        if (state == Peer::kUnsealed) ftl.attach_fault_injector(&misdirect);
        ftl.write(lpn, PageMode::kNormal, 13);
        if (state == Peer::kTorn) {
          ftl.attach_fault_injector(&tear);
          ftl.migrate(lpn, PageMode::kReduced, 14);
        }
        const std::uint64_t ppn = ftl.lookup(lpn)->ppn;
        ASSERT_EQ(Peer::seal(ftl, ppn), state) << where;
        ASSERT_EQ(ftl.data_version(lpn), 3u);
        ASSERT_EQ(ftl.stats().misdirected_writes,
                  state == Peer::kUnsealed ? 1u : 0u);
        ASSERT_EQ(ftl.stats().torn_relocations,
                  state == Peer::kTorn ? 1u : 0u);

        if (claim == Claim::kStaleVersion) {
          Peer::set_claim(ftl, ppn, static_cast<std::uint32_t>(lpn), 2);
        } else if (claim == Claim::kWrongLpn) {
          Peer::set_claim(ftl, ppn, static_cast<std::uint32_t>(lpn + 1), 3);
        }
        const auto reads = injector(0.0, 0.0, flip ? 1.0 : 0.0);
        ftl.attach_fault_injector(&reads);
        expect_reference_verdicts(ftl, payload, lpn, ppn, flip, where);

        // The verdict classes the read path and the crash audit rely on.
        const SealVerdict v = ftl.verify_page(lpn, ppn, 0);
        const DataAudit a = ftl.audit_data(lpn, 3);
        const bool clean = state == Peer::kSealed && claim == Claim::kMatch;
        EXPECT_EQ(v.flagged, !clean || flip) << where;
        EXPECT_EQ(v.persistent, !clean) << where;
        EXPECT_EQ(v.delivered_bad, !clean || flip) << where;
        EXPECT_EQ(a.seal_ok, clean) << where;
      }
    }
  }
}

// The same comparison over a drive that garbage-collects, migrates and
// relocates under every seal-fault kind at once: every mapped lpn's
// verdicts must match the explicit record, flip on and off.
TEST(SealVerdictTest, RandomFaultyDriveMatchesExplicitRecord) {
  const PayloadModel payload(kSeed, kPayloadWords);
  PageMappingFtl ftl(tiny_config());
  const auto faulty = injector(0.05, 0.3, 0.0);
  ftl.attach_fault_injector(&faulty);
  Rng rng(77);
  const std::uint64_t lpns = ftl.logical_pages();
  for (int op = 0; op < 4000; ++op) {
    const std::uint64_t lpn = rng.below(lpns);
    const PageMode mode =
        rng.below(4) == 0 ? PageMode::kReduced : PageMode::kNormal;
    if (ftl.lookup(lpn).has_value() && rng.below(3) == 0) {
      ftl.migrate(lpn, mode, op);
    } else {
      ftl.write(lpn, mode, op);
    }
  }
  ASSERT_GT(ftl.stats().misdirected_writes, 0u);
  ASSERT_GT(ftl.stats().torn_relocations, 0u);
  ASSERT_GT(ftl.stats().gc_page_moves, 0u);
  for (const bool flip : {false, true}) {
    const auto reads = injector(0.0, 0.0, flip ? 1.0 : 0.0);
    ftl.attach_fault_injector(&reads);
    for (std::uint64_t lpn = 0; lpn < lpns; ++lpn) {
      const auto info = ftl.lookup(lpn);
      if (!info.has_value()) continue;
      expect_reference_verdicts(ftl, payload, lpn, info->ppn, flip,
                                "lpn " + std::to_string(lpn));
    }
  }
}

// A ppn -> seal state snapshot of every programmed page.
std::vector<int> seal_states(const PageMappingFtl& ftl, std::uint64_t pages) {
  std::vector<int> states(pages, -1);
  for (std::uint64_t ppn = 0; ppn < pages; ++ppn) {
    if (Peer::programmed(ftl, ppn)) states[ppn] = Peer::seal(ftl, ppn);
  }
  return states;
}

// Torn and unsealed pages stay torn and unsealed across a power loss and
// mount (the seal is durable, like the rest of the OOB record), and the
// seal bits never change which copy Mount() installs: a drive that ran
// the same operations with no seal faults recovers the same map.
TEST(SealVerdictTest, SealStateSurvivesMountAndNeverPicksTheWinner) {
  const FtlConfig cfg = tiny_config();
  const std::uint64_t pages = cfg.spec.total_pages();
  PageMappingFtl faulty(cfg);
  PageMappingFtl clean(cfg);
  const auto faults = injector(0.1, 0.5, 0.0);
  faulty.attach_fault_injector(&faults);
  Rng rng(2015);
  const std::uint64_t lpns = faulty.logical_pages();
  for (int op = 0; op < 3000; ++op) {
    const std::uint64_t lpn = rng.below(lpns);
    const bool move = faulty.lookup(lpn).has_value() && rng.below(3) == 0;
    for (PageMappingFtl* ftl : {&faulty, &clean}) {
      if (move) {
        ftl->migrate(lpn, PageMode::kReduced, op);
      } else {
        ftl->write(lpn, PageMode::kNormal, op);
      }
    }
  }
  const std::vector<int> before = seal_states(faulty, pages);
  std::uint64_t torn = 0;
  std::uint64_t unsealed = 0;
  for (const int s : before) {
    torn += s == Peer::kTorn;
    unsealed += s == Peer::kUnsealed;
  }
  ASSERT_GT(torn, 0u);
  ASSERT_GT(unsealed, 0u);
  ASSERT_EQ(faulty.l2p_dump(), clean.l2p_dump());

  // Power loss discards the volatile state; Mount rebuilds it from OOB.
  faulty.Mount();
  clean.Mount();
  EXPECT_EQ(seal_states(faulty, pages), before);
  EXPECT_EQ(faulty.l2p_dump(), clean.l2p_dump());
  EXPECT_TRUE(faulty.check_consistency().ok());

  // Rewriting every programmed record's seal bits (stale copies too)
  // leaves the installed copies unchanged.
  const std::vector<std::uint64_t> map = faulty.l2p_dump();
  for (std::uint64_t ppn = 0; ppn < pages; ++ppn) {
    if (Peer::programmed(faulty, ppn)) {
      Peer::set_seal(faulty, ppn, static_cast<int>(ppn % 3));
    }
  }
  faulty.Mount();
  EXPECT_EQ(faulty.l2p_dump(), map);
  EXPECT_TRUE(faulty.check_consistency().ok());
}

}  // namespace
}  // namespace flex::ftl
