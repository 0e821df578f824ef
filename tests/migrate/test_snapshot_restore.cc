/**
 * @file
 * The snapshot / restore hypercall pair: quiesce preconditions, fork
 * vs move semantics, version-vector accounting, the typed rejection
 * surface of restore (truncated / auth / rollback), and the
 * all-or-nothing obligation when a restore dies mid-build.
 */

#include <gtest/gtest.h>

#include "hv/hv_invariants.hh"
#include "migrate_test_util.hh"
#include "obs/stats.hh"

namespace hev::hv
{
namespace
{

using migrate::test::PageWords;
using migrate::test::readPage;
using migrate::test::smallConfig;
using migrate::test::tinyEpcConfig;

constexpr u64 elStart = 0x10'0000;

TEST(SnapshotRestore, ForkRoundTripPreservesEveryWord)
{
    Machine src(smallConfig());
    Machine dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 4, 1, 0xf111);
    ASSERT_TRUE(enclave);

    // A write after launch, so the image carries post-launch state.
    ASSERT_TRUE(src.monitor()
                    .enclaveStore(enclave->id, Gva(elStart + 0x18), 0xabba)
                    .ok());

    auto image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                 SnapshotMode::Fork);
    ASSERT_TRUE(image) << hvErrorName(image.error());
    EXPECT_EQ(image->addedPages, 5u); // 4 Reg + 1 TCS
    EXPECT_EQ(image->pages.size(), 5u);
    EXPECT_EQ(image->pageMeta.size(), 5u);

    auto twin = dst.monitor().hcEnclaveRestoreImage(*image);
    ASSERT_TRUE(twin) << hvErrorName(twin.error());

    // Fork: the source stays fully resident and readable.
    for (u64 page = 0; page < 5; ++page) {
        const u64 gva = elStart + page * pageSize;
        EXPECT_EQ(readPage(src.monitor(), enclave->id, gva),
                  readPage(dst.monitor(), *twin, gva));
    }
    const auto word = dst.monitor().enclaveLoad(*twin, Gva(elStart + 0x18));
    ASSERT_TRUE(word);
    EXPECT_EQ(*word, 0xabbaull);

    // The twin is a real enclave: enterable through its TCS.
    ASSERT_TRUE(dst.monitor().hcEnclaveEnter(*twin, dst.vcpu()).ok());
    const auto inside = dst.memLoad(Gva(elStart + 0x18));
    ASSERT_TRUE(inside);
    EXPECT_EQ(*inside, 0xabbaull);
    ASSERT_TRUE(dst.monitor().hcEnclaveExit(dst.vcpu()).ok());
}

TEST(SnapshotRestore, MoveDestroysTheSource)
{
    Machine src(smallConfig());
    Machine dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 3, 1, 0x307e);
    ASSERT_TRUE(enclave);
    const PageWords expect =
        readPage(src.monitor(), enclave->id, elStart);

    auto image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                 SnapshotMode::Move);
    ASSERT_TRUE(image);

    // The source is gone: no reads, no re-entry, no second snapshot.
    PageWords scratch{};
    EXPECT_FALSE(src.monitor()
                     .enclaveReadPage(enclave->id, Gva(elStart),
                                      scratch.data())
                     .ok());
    EXPECT_FALSE(src.monitor().hcEnclaveEnter(enclave->id, src.vcpu()).ok());
    EXPECT_FALSE(
        src.monitor().hcEnclaveSnapshot(enclave->id, SnapshotMode::Fork));

    auto twin = dst.monitor().hcEnclaveRestoreImage(*image);
    ASSERT_TRUE(twin);
    EXPECT_EQ(readPage(dst.monitor(), *twin, elStart), expect);
}

TEST(SnapshotRestore, SnapshotRejectsUnquiescedEnclaves)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 2, 1, 0x411);
    ASSERT_TRUE(enclave);

    // Resident vCPU: not quiesced.
    ASSERT_TRUE(
        machine.monitor().hcEnclaveEnter(enclave->id, machine.vcpu()).ok());
    auto while_resident = machine.monitor().hcEnclaveSnapshot(
        enclave->id, SnapshotMode::Fork);
    EXPECT_EQ(while_resident.error(), HvError::BadEnclaveState);
    ASSERT_TRUE(machine.monitor().hcEnclaveExit(machine.vcpu()).ok());

    // Evicted page in OS custody: not fully resident.
    auto blob =
        machine.monitor().hcEnclaveEvictPage(enclave->id, Gva(elStart));
    ASSERT_TRUE(blob);
    auto while_evicted = machine.monitor().hcEnclaveSnapshot(
        enclave->id, SnapshotMode::Fork);
    EXPECT_EQ(while_evicted.error(), HvError::BadEnclaveState);
    ASSERT_TRUE(
        machine.monitor().hcEnclaveReloadPage(enclave->id, *blob).ok());

    // Quiesced again: the snapshot goes through.
    EXPECT_TRUE(machine.monitor().hcEnclaveSnapshot(enclave->id,
                                                    SnapshotMode::Fork));
    EXPECT_EQ(machine.monitor()
                  .hcEnclaveSnapshot(99, SnapshotMode::Fork)
                  .error(),
              HvError::NoSuchEnclave);
}

TEST(SnapshotRestore, VersionVectorIsConsumedLikeAnEvictAllFold)
{
    Machine machine(smallConfig());
    auto enclave = machine.setupEnclave(elStart, 2, 1, 0x7e5);
    ASSERT_TRUE(enclave);

    auto first = machine.monitor().hcEnclaveSnapshot(enclave->id,
                                                     SnapshotMode::Fork);
    ASSERT_TRUE(first);
    for (u64 i = 0; i < first->pages.size(); ++i) {
        EXPECT_EQ(first->pages[i].version, first->versionBase + i);
        EXPECT_EQ(first->pageMeta[i].version, first->versionBase + i);
    }

    // The next seal — snapshot or evict — continues past the vector.
    auto second = machine.monitor().hcEnclaveSnapshot(enclave->id,
                                                      SnapshotMode::Fork);
    ASSERT_TRUE(second);
    EXPECT_EQ(second->versionBase,
              first->versionBase + first->pages.size());
    auto blob =
        machine.monitor().hcEnclaveEvictPage(enclave->id, Gva(elStart));
    ASSERT_TRUE(blob);
    EXPECT_EQ(blob->version,
              second->versionBase + second->pages.size());
}

TEST(SnapshotRestore, RestoreRejectsTruncatedImages)
{
    Machine src(smallConfig());
    Machine dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 3, 1, 0x7a11);
    ASSERT_TRUE(enclave);
    auto image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                 SnapshotMode::Fork);
    ASSERT_TRUE(image);

    EnclaveImage dropped_page = *image;
    dropped_page.pages.pop_back();
    EXPECT_EQ(dst.monitor().hcEnclaveRestoreImage(dropped_page).error(),
              HvError::ImageTruncated);

    EnclaveImage dropped_meta = *image;
    dropped_meta.pageMeta.pop_back();
    EXPECT_EQ(dst.monitor().hcEnclaveRestoreImage(dropped_meta).error(),
              HvError::ImageTruncated);

    EnclaveImage lying_header = *image;
    lying_header.addedPages -= 1;
    EXPECT_EQ(dst.monitor().hcEnclaveRestoreImage(lying_header).error(),
              HvError::ImageTruncated);
}

TEST(SnapshotRestore, RestoreRejectsTamperedImages)
{
    Machine src(smallConfig());
    Machine dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 2, 1, 0x7a22);
    ASSERT_TRUE(enclave);
    auto image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                 SnapshotMode::Fork);
    ASSERT_TRUE(image);

    // Image MAC bit flip.
    EnclaveImage bad_mac = *image;
    bad_mac.mac ^= 1ull << 17;
    EXPECT_EQ(dst.monitor().hcEnclaveRestoreImage(bad_mac).error(),
              HvError::ImageAuthFailed);

    // Payload word flip without touching any MAC.
    EnclaveImage bad_word = *image;
    bad_word.pages[0].words[7] ^= 0xff;
    EXPECT_EQ(dst.monitor().hcEnclaveRestoreImage(bad_word).error(),
              HvError::ImageAuthFailed);

    // Re-MAC'd payload flip: the blob verifies, but its digest no
    // longer matches the header's page-meta slice.
    EnclaveImage re_maced = *image;
    re_maced.pages[0].words[7] ^= 0xff;
    re_maced.pages[0].mac = sealedBlobMac(re_maced.pages[0]);
    re_maced.mac = enclaveImageMac(re_maced);
    EXPECT_EQ(dst.monitor().hcEnclaveRestoreImage(re_maced).error(),
              HvError::ImageAuthFailed);

    // Header entry-point tamper.
    EnclaveImage bad_entry = *image;
    bad_entry.entryPoint += 8;
    EXPECT_EQ(dst.monitor().hcEnclaveRestoreImage(bad_entry).error(),
              HvError::ImageAuthFailed);
}

TEST(SnapshotRestore, LedgerRejectsReplayAndStaleImages)
{
    Machine src(smallConfig());
    Machine dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 2, 1, 0x7a33);
    ASSERT_TRUE(enclave);

    auto old_image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                     SnapshotMode::Fork);
    ASSERT_TRUE(old_image);
    auto new_image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                     SnapshotMode::Fork);
    ASSERT_TRUE(new_image);

    // Fresh image lands; replaying the same image is rollback.
    ASSERT_TRUE(dst.monitor().hcEnclaveRestoreImage(*new_image));
    EXPECT_EQ(dst.monitor().hcEnclaveRestoreImage(*new_image).error(),
              HvError::ImageRollback);
    // So is presenting the older snapshot of the same lineage.
    EXPECT_EQ(dst.monitor().hcEnclaveRestoreImage(*old_image).error(),
              HvError::ImageRollback);
    // A genuinely newer snapshot still lands.
    auto newer = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                 SnapshotMode::Fork);
    ASSERT_TRUE(newer);
    EXPECT_TRUE(dst.monitor().hcEnclaveRestoreImage(*newer));
}

TEST(SnapshotRestore, FailedRestoreLeavesNoTrace)
{
    Machine src(smallConfig());
    auto enclave = src.setupEnclave(elStart, 6, 1, 0x7a44);
    ASSERT_TRUE(enclave);
    auto image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                 SnapshotMode::Fork);
    ASSERT_TRUE(image);

    // A destination whose EPC is too small: the build dies mid-loop.
    Machine dst(tinyEpcConfig(4));
    const u64 epcm_before = epcmDigest(dst.monitor().epcm());
    auto twin = dst.monitor().hcEnclaveRestoreImage(*image);
    ASSERT_FALSE(twin);
    EXPECT_EQ(twin.error(), HvError::OutOfEpc);

    // No EPC residue, no half-built enclave, and the enclave-id
    // counter rolled back: the next creation gets the twin's id.
    EXPECT_EQ(epcmDigest(dst.monitor().epcm()), epcm_before);
    EXPECT_TRUE(checkMonitorInvariants(dst.monitor()).empty());
    auto small = dst.setupEnclave(elStart, 1, 1, 0x7a55);
    ASSERT_TRUE(small);
    auto fits = dst.monitor().hcEnclaveSnapshot(small->id,
                                                SnapshotMode::Fork);
    EXPECT_TRUE(fits);
}

TEST(SnapshotRestore, FailedRestoreIsNotCountedAsCreated)
{
    Machine src(smallConfig());
    auto enclave = src.setupEnclave(elStart, 40, 1, 0x7a77);
    ASSERT_TRUE(enclave);
    auto image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                 SnapshotMode::Fork);
    ASSERT_TRUE(image);
    ASSERT_EQ(image->pages.size(), 41u);

    Machine dst(tinyEpcConfig(16));
    const auto created = [] {
        return obs::snapshotStats().counters["hv.enclaves_created"];
    };
    const u64 counter_before = created();
    auto twin = dst.monitor().hcEnclaveRestoreImage(*image);
    ASSERT_FALSE(twin);
    EXPECT_EQ(twin.error(), HvError::OutOfEpc);
    EXPECT_EQ(dst.monitor().stats().enclavesCreated, 0u);
    EXPECT_EQ(created(), counter_before);
}

TEST(SnapshotRestore, RestoredTwinSurvivesTheInvariantSweep)
{
    Machine src(smallConfig());
    Machine dst(smallConfig());
    auto enclave = src.setupEnclave(elStart, 3, 1, 0x7a66);
    ASSERT_TRUE(enclave);
    auto image = src.monitor().hcEnclaveSnapshot(enclave->id,
                                                 SnapshotMode::Move);
    ASSERT_TRUE(image);
    ASSERT_TRUE(dst.monitor().hcEnclaveRestoreImage(*image));
    EXPECT_EQ(dst.monitor().stats().enclavesCreated, 1u);
    EXPECT_TRUE(checkMonitorInvariants(src.monitor()).empty());
    EXPECT_TRUE(checkMonitorInvariants(dst.monitor()).empty());
}

} // namespace
} // namespace hev::hv
