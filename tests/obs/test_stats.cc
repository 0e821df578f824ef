/**
 * @file
 * Stats-registry tests: histogram bucket geometry and the percentile
 * estimator, merge-on-snapshot equalling the sum over per-thread
 * shards, the snapshot diff (including across thread retirement),
 * gauge semantics, the runtime enable switch, intern-overflow
 * diagnostics, and JSON rendering.
 */

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/stats.hh"

using namespace hev;
using namespace hev::obs;

namespace
{

u64
counterValue(const Snapshot &snap, const std::string &name)
{
    auto it = snap.counters.find(name);
    return it == snap.counters.end() ? 0 : it->second;
}

} // namespace

TEST(HistogramData, BucketEdges)
{
    // Bucket 0 holds exactly the value 0.
    EXPECT_EQ(HistogramData::bucketOf(0), 0u);
    EXPECT_EQ(HistogramData::bucketLow(0), 0u);
    EXPECT_EQ(HistogramData::bucketHigh(0), 1u);

    // Bucket k (k >= 1) holds [2^(k-1), 2^k).
    EXPECT_EQ(HistogramData::bucketOf(1), 1u);
    EXPECT_EQ(HistogramData::bucketOf(2), 2u);
    EXPECT_EQ(HistogramData::bucketOf(3), 2u);
    EXPECT_EQ(HistogramData::bucketOf(4), 3u);
    EXPECT_EQ(HistogramData::bucketOf(1023), 10u);
    EXPECT_EQ(HistogramData::bucketOf(1024), 11u);
    EXPECT_EQ(HistogramData::bucketOf(~0ull), 64u);

    for (u32 bucket = 1; bucket < histBuckets; ++bucket) {
        const u64 low = HistogramData::bucketLow(bucket);
        EXPECT_EQ(HistogramData::bucketOf(low), bucket);
        const u64 high = HistogramData::bucketHigh(bucket);
        if (high) {
            EXPECT_EQ(HistogramData::bucketOf(high - 1), bucket);
        }
    }
}

TEST(HistogramData, BucketEdgeExtremes)
{
    // The smallest nonzero value sits alone at the bottom of bucket 1.
    EXPECT_EQ(HistogramData::bucketOf(1), 1u);
    EXPECT_EQ(HistogramData::bucketLow(1), 1u);
    EXPECT_EQ(HistogramData::bucketHigh(1), 2u);

    // The top bucket holds [2^63, 2^64); its exclusive upper edge
    // does not fit in a u64 and is encoded as 0.
    EXPECT_EQ(HistogramData::bucketOf(1ull << 63), 64u);
    EXPECT_EQ(HistogramData::bucketOf(~0ull), 64u);
    EXPECT_EQ(HistogramData::bucketLow(64), 1ull << 63);
    EXPECT_EQ(HistogramData::bucketHigh(64), 0u);
}

TEST(HistogramData, PercentileFromBuckets)
{
    const HistogramData empty;
    EXPECT_DOUBLE_EQ(empty.percentile(50.0), 0.0);

    // A single sample answers every percentile exactly: the edge
    // buckets interpolate coarsely but clamp to the recorded min/max.
    HistogramData one;
    one.record(1000);
    EXPECT_DOUBLE_EQ(one.percentile(0.0), 1000.0);
    EXPECT_DOUBLE_EQ(one.percentile(50.0), 1000.0);
    EXPECT_DOUBLE_EQ(one.percentile(100.0), 1000.0);

    // Uniform 0..1023: extremes are exact, the interior is within the
    // log2-bucket resolution (a factor of two), and the estimate is
    // monotone in p.
    HistogramData h;
    for (u64 v = 0; v < 1024; ++v)
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(100.0), 1023.0);
    const double p50 = h.percentile(50.0);
    EXPECT_GE(p50, 256.0);
    EXPECT_LE(p50, 1024.0);
    EXPECT_GE(h.percentile(99.0), p50);

    // The top bucket's open upper edge ("2^64") interpolates without
    // overflowing and stays inside the recorded range.
    HistogramData top;
    top.record(1ull << 63);
    top.record(~0ull);
    EXPECT_DOUBLE_EQ(top.percentile(100.0), double(~0ull));
    EXPECT_GE(top.percentile(50.0), double(1ull << 63));
    EXPECT_LE(top.percentile(50.0), double(~0ull));
}

TEST(HistogramData, RecordTracksMoments)
{
    HistogramData h;
    h.record(0);
    h.record(7);
    h.record(9);
    EXPECT_EQ(h.count, 3u);
    EXPECT_EQ(h.sum, 16u);
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, 9u);
    EXPECT_DOUBLE_EQ(h.mean(), 16.0 / 3.0);
    EXPECT_EQ(h.buckets[0], 1u);
    EXPECT_EQ(h.buckets[3], 1u); // 7 in [4, 8)
    EXPECT_EQ(h.buckets[4], 1u); // 9 in [8, 16)
}

TEST(Stats, SnapshotMergesAllThreadShards)
{
    static const Counter counter("test.stats.sharded");
    static const Histogram hist("test.stats.sharded_hist");
    const Snapshot before = snapshotStats();

    constexpr int threads = 6;
    constexpr u64 perThread = 1000;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([] {
            for (u64 i = 0; i < perThread; ++i) {
                counter.inc();
                hist.record(i);
            }
        });
    }
    for (std::thread &t : pool)
        t.join();

    // Merge equals the sum over shards — including shards of already
    // exited threads (they retire into the accumulator on join).
    const Snapshot diff = snapshotStats().minus(before);
    EXPECT_EQ(counterValue(diff, "test.stats.sharded"),
              u64(threads) * perThread);
    const HistogramData &h =
        diff.histograms.at("test.stats.sharded_hist");
    EXPECT_EQ(h.count, u64(threads) * perThread);
    EXPECT_EQ(h.sum, u64(threads) * (perThread * (perThread - 1) / 2));
    EXPECT_EQ(h.min, 0u);
    EXPECT_EQ(h.max, perThread - 1);
}

TEST(Stats, SnapshotMinusAcrossThreadRetirement)
{
    static const Counter counter("test.stats.retire");
    static const Histogram hist("test.stats.retire_hist");
    const Snapshot before = snapshotStats();

    std::atomic<bool> recorded{false};
    std::atomic<bool> release{false};
    std::thread worker([&] {
        for (u64 i = 0; i < 100; ++i) {
            counter.inc();
            hist.record(i);
        }
        recorded.store(true);
        while (!release.load())
            std::this_thread::yield();
    });
    while (!recorded.load())
        std::this_thread::yield();

    // `mid` reads the worker's activity out of its live shard...
    const Snapshot mid = snapshotStats();
    EXPECT_EQ(counterValue(mid.minus(before), "test.stats.retire"),
              100u);

    // ...then the worker exits, folding that shard into the retired
    // accumulator.  A diff spanning the retirement must be empty —
    // the move between pools is not activity — and the full span must
    // still sum to exactly the worker's increments.
    release.store(true);
    worker.join();
    const Snapshot after = snapshotStats();
    const Snapshot diff = after.minus(mid);
    EXPECT_EQ(counterValue(diff, "test.stats.retire"), 0u);
    const auto it = diff.histograms.find("test.stats.retire_hist");
    if (it != diff.histograms.end()) {
        EXPECT_EQ(it->second.count, 0u);
    }
    const Snapshot span = after.minus(before);
    EXPECT_EQ(counterValue(span, "test.stats.retire"), 100u);
    const HistogramData &spanned =
        span.histograms.at("test.stats.retire_hist");
    EXPECT_EQ(spanned.count, 100u);
    EXPECT_EQ(spanned.sum, 100u * 99u / 2u);
}

TEST(StatsDeathTest, InternOverflowNamesTheOffender)
{
    // Exhausting the gauge slots must die loudly, naming the stat
    // that could not be interned — not corrupt the shard arrays.
    EXPECT_DEATH(
        {
            for (u32 i = 0; i <= maxGauges; ++i) {
                const std::string name =
                    "test.stats.overflow." + std::to_string(i);
                const Gauge gauge(name.c_str());
                gauge.set(1);
            }
        },
        "cannot intern 'test\\.stats\\.overflow\\.");
}

TEST(Stats, CounterAddAccumulates)
{
    static const Counter counter("test.stats.add");
    const Snapshot before = snapshotStats();
    counter.add(40);
    counter.add(2);
    const Snapshot diff = snapshotStats().minus(before);
    EXPECT_EQ(counterValue(diff, "test.stats.add"), 42u);
}

TEST(Stats, SameNameSharesOneSlot)
{
    static const Counter a("test.stats.same");
    static const Counter b("test.stats.same");
    EXPECT_EQ(a.id(), b.id());
    const Snapshot before = snapshotStats();
    a.inc();
    b.inc();
    EXPECT_EQ(counterValue(snapshotStats().minus(before),
                           "test.stats.same"),
              2u);
}

TEST(Stats, GaugeIsLastWriteWins)
{
    static const Gauge gauge("test.stats.gauge");
    gauge.set(5);
    gauge.add(-2);
    const Snapshot snap = snapshotStats();
    EXPECT_EQ(snap.gauges.at("test.stats.gauge"), 3);
    // Diffing keeps the level, it does not subtract.
    EXPECT_EQ(snap.minus(snap).gauges.at("test.stats.gauge"), 3);
}

TEST(Stats, DisabledIncrementsAreDropped)
{
    static const Counter counter("test.stats.disabled");
    const Snapshot before = snapshotStats();
    setStatsEnabled(false);
    counter.inc();
    setStatsEnabled(true);
    counter.inc();
    EXPECT_EQ(counterValue(snapshotStats().minus(before),
                           "test.stats.disabled"),
              1u);
}

TEST(Stats, RenderJsonHasFixedSchema)
{
    static const Counter counter("test.stats.json");
    counter.inc();
    const std::string json = renderStatsJson(snapshotStats());
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"test.stats.json\""), std::string::npos);
}
