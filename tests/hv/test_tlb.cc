/**
 * @file
 * Unit tests for the tagged TLB model.
 */

#include <vector>

#include <gtest/gtest.h>

#include "hv/tlb.hh"

namespace hev::hv
{
namespace
{

TEST(TlbTest, MissThenHit)
{
    Tlb tlb;
    EXPECT_FALSE(tlb.lookup(normalVmDomain, 0x1000).has_value());
    tlb.insert(normalVmDomain, 0x1000, {0x9000, true});
    auto hit = tlb.lookup(normalVmDomain, 0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->hpaPage, 0x9000ull);
    EXPECT_TRUE(hit->writable);
    EXPECT_EQ(tlb.hits(), 1ull);
    EXPECT_EQ(tlb.misses(), 1ull);
}

TEST(TlbTest, SamePageDifferentOffsetHits)
{
    Tlb tlb;
    tlb.insert(normalVmDomain, 0x1000, {0x9000, false});
    EXPECT_TRUE(tlb.lookup(normalVmDomain, 0x1abc).has_value());
    EXPECT_FALSE(tlb.lookup(normalVmDomain, 0x2000).has_value());
}

TEST(TlbTest, DomainsAreIsolated)
{
    Tlb tlb;
    tlb.insert(normalVmDomain, 0x1000, {0x9000, true});
    tlb.insert(7, 0x1000, {0xa000, false});

    auto normal = tlb.lookup(normalVmDomain, 0x1000);
    auto enclave = tlb.lookup(7, 0x1000);
    ASSERT_TRUE(normal && enclave);
    EXPECT_EQ(normal->hpaPage, 0x9000ull);
    EXPECT_EQ(enclave->hpaPage, 0xa000ull);
    EXPECT_FALSE(tlb.lookup(8, 0x1000).has_value());
}

TEST(TlbTest, FlushDomainRemovesOnlyThatDomain)
{
    Tlb tlb;
    tlb.insert(normalVmDomain, 0x1000, {0x9000, true});
    tlb.insert(3, 0x1000, {0xa000, true});
    tlb.insert(3, 0x2000, {0xb000, true});
    tlb.flushDomain(3);
    EXPECT_TRUE(tlb.lookup(normalVmDomain, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(3, 0x1000).has_value());
    EXPECT_FALSE(tlb.lookup(3, 0x2000).has_value());
    EXPECT_EQ(tlb.size(), 1ull);
}

TEST(TlbTest, FlushAllEmpties)
{
    Tlb tlb;
    tlb.insert(0, 0x1000, {0x9000, true});
    tlb.insert(1, 0x2000, {0xa000, true});
    tlb.flushAll();
    EXPECT_EQ(tlb.size(), 0ull);
    EXPECT_FALSE(tlb.lookup(0, 0x1000).has_value());
}

TEST(TlbTest, InsertOverwritesExisting)
{
    Tlb tlb;
    tlb.insert(0, 0x1000, {0x9000, false});
    tlb.insert(0, 0x1000, {0xc000, true});
    auto hit = tlb.lookup(0, 0x1000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->hpaPage, 0xc000ull);
    EXPECT_TRUE(hit->writable);
    EXPECT_EQ(tlb.size(), 1ull);
}

TEST(TlbTest, InvalidatePageOnNonPresentEntryIsANoOp)
{
    Tlb tlb;
    // On an empty TLB...
    tlb.invalidatePage(normalVmDomain, 0x1000);
    EXPECT_EQ(tlb.size(), 0ull);

    // ...and on a miss next to live entries: neither the same page in
    // another domain nor another page in the same domain is touched.
    tlb.insert(3, 0x1000, {0x9000, true});
    tlb.insert(normalVmDomain, 0x2000, {0xa000, false});
    tlb.invalidatePage(normalVmDomain, 0x1000);
    EXPECT_EQ(tlb.size(), 2ull);
    EXPECT_TRUE(tlb.lookup(3, 0x1000).has_value());
    EXPECT_TRUE(tlb.lookup(normalVmDomain, 0x2000).has_value());
}

TEST(TlbTest, InvalidatePageLeavesSiblingPagesOfTheDomain)
{
    // The batched-evict maintenance discipline: per-page invalidation
    // drops exactly the named page, unlike flushDomain.
    Tlb tlb;
    for (u64 page = 0; page < 4; ++page)
        tlb.insert(5, 0x10'0000 + page * pageSize, {0x9000, true});
    tlb.invalidatePage(5, 0x10'1000 + 0x2c0); // offset within the page
    EXPECT_EQ(tlb.countDomain(5), 3ull);
    EXPECT_FALSE(tlb.lookup(5, 0x10'1000).has_value());
    EXPECT_TRUE(tlb.lookup(5, 0x10'0000).has_value());
    EXPECT_TRUE(tlb.lookup(5, 0x10'2000).has_value());
    EXPECT_TRUE(tlb.lookup(5, 0x10'3000).has_value());
}

TEST(TlbTest, DomainTagReuseAfterFlushStartsEmpty)
{
    // If a domain tag were ever recycled (the monitor's enclave ids are
    // monotonic, but the model must not depend on that), a flush must
    // leave nothing for the next tenant to inherit.
    Tlb tlb;
    tlb.insert(9, 0x1000, {0x9000, true});
    tlb.insert(9, 0x2000, {0xa000, false});
    tlb.flushDomain(9);
    EXPECT_EQ(tlb.countDomain(9), 0ull);
    EXPECT_FALSE(tlb.lookup(9, 0x1000).has_value());

    // The reused tag accumulates only its own fresh entries.
    tlb.insert(9, 0x3000, {0xb000, true});
    EXPECT_EQ(tlb.countDomain(9), 1ull);
    EXPECT_FALSE(tlb.lookup(9, 0x1000).has_value());
    auto hit = tlb.lookup(9, 0x3000);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->hpaPage, 0xb000ull);
}

TEST(TlbTest, FlushDomainOnEmptyDomainCountsNoFlushWork)
{
    Tlb tlb;
    tlb.insert(2, 0x1000, {0x9000, true});
    const u64 size_before = tlb.size();
    tlb.flushDomain(7); // no entries tagged 7
    EXPECT_EQ(tlb.size(), size_before);
    EXPECT_TRUE(tlb.lookup(2, 0x1000).has_value());
}

TEST(TlbTest, WideDomainIdsKeepTheirFullTag)
{
    // Domain ids are 32-bit; a tag that kept only the low 12 bits made
    // enclave 4096 alias the normal VM and made flushDomain miss every
    // id from 4096 on, leaking entries.
    Tlb tlb;
    tlb.insert(normalVmDomain, 0x1000, {0x9000, true});
    tlb.insert(4096, 0x1000, {0xa000, false});
    tlb.insert(5000, 0x1000, {0xb000, true});
    tlb.insert(5000, 0x2000, {0xc000, true});
    EXPECT_EQ(tlb.size(), 4ull);
    EXPECT_EQ(tlb.lookup(normalVmDomain, 0x1000)->hpaPage, 0x9000ull);
    EXPECT_EQ(tlb.lookup(4096, 0x1000)->hpaPage, 0xa000ull);

    tlb.flushDomain(4096);
    EXPECT_FALSE(tlb.lookup(4096, 0x1000).has_value());
    ASSERT_TRUE(tlb.lookup(normalVmDomain, 0x1000).has_value());
    EXPECT_EQ(tlb.countDomain(normalVmDomain), 1ull);

    tlb.flushDomain(5000);
    EXPECT_EQ(tlb.countDomain(5000), 0ull);
    EXPECT_EQ(tlb.size(), 1ull);

    std::vector<DomainId> domains;
    tlb.forEach([&](DomainId domain, u64 va_page, const TlbEntry &) {
        domains.push_back(domain);
        EXPECT_EQ(va_page, 0x1000ull);
    });
    EXPECT_EQ(domains, std::vector<DomainId>{normalVmDomain});
}

} // namespace
} // namespace hev::hv
