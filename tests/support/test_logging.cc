/**
 * @file
 * Logging subsystem tests: format correctness, the thread-local
 * hypercall label, and — the property the mutex plus single-fwrite
 * design exists for — no byte interleaving between concurrent writers.
 */

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "support/logging.hh"

using namespace hev;

namespace
{

std::vector<std::string>
lines(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line))
        out.push_back(line);
    return out;
}

} // namespace

TEST(Logging, WarnFormatsTaggedLine)
{
    testing::internal::CaptureStderr();
    warn("value %d at %#x", 42, 0x1000);
    const std::string text = testing::internal::GetCapturedStderr();
    EXPECT_EQ(text, "warn: value 42 at 0x1000\n");
}

TEST(Logging, ContextPrefixEmptyByDefault)
{
    testing::internal::CaptureStderr();
    warn("bare");
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "warn: bare\n");
}

TEST(Logging, ContextPrefixNestsAndUnwinds)
{
    // The innermost live label alone prefixes a line; ending it
    // restores the enclosing one.
    testing::internal::CaptureStderr();
    {
        LogLabel outer("hc_outer", 3);
        warn("a");
        {
            LogLabel inner("hc_inner", 4);
            warn("b");
        }
        warn("c");
    }
    warn("d");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: [hc=hc_outer principal=3] a\n"
              "warn: [hc=hc_inner principal=4] b\n"
              "warn: [hc=hc_outer principal=3] c\n"
              "warn: d\n");
}

TEST(Logging, ContextPrefixAppearsInMessages)
{
    testing::internal::CaptureStderr();
    {
        LogLabel label("test", 7);
        warn("rejected");
    }
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: [hc=test principal=7] rejected\n");
}

TEST(Logging, ContextIsThreadLocal)
{
    LogLabel label("main_thread", 1);
    testing::internal::CaptureStderr();
    std::thread t([] { warn("other"); });
    t.join();
    warn("main");
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "warn: other\n"
              "warn: [hc=main_thread principal=1] main\n");
}

TEST(Logging, ConcurrentWritersNeverInterleaveBytes)
{
    constexpr int threads = 8;
    constexpr int perThread = 200;

    testing::internal::CaptureStderr();
    {
        std::vector<std::thread> pool;
        for (int who = 0; who < threads; ++who) {
            pool.emplace_back([who] {
                LogLabel label("worker", u64(who));
                for (int i = 0; i < perThread; ++i)
                    warn("w%d message %d of %d", who, i, perThread);
            });
        }
        for (std::thread &t : pool)
            t.join();
    }
    const std::string text = testing::internal::GetCapturedStderr();

    // Every line must be exactly one expected message — a single
    // foreign byte means two writers interleaved.
    std::set<std::string> expected;
    for (int who = 0; who < threads; ++who) {
        for (int i = 0; i < perThread; ++i) {
            std::ostringstream line;
            line << "warn: [hc=worker principal=" << who << "] w" << who
                 << " message " << i << " of " << perThread;
            expected.insert(line.str());
        }
    }
    const std::vector<std::string> got = lines(text);
    ASSERT_EQ(got.size(), size_t(threads * perThread));
    for (const std::string &line : got)
        EXPECT_TRUE(expected.count(line)) << "mangled line: " << line;
    EXPECT_EQ(std::set<std::string>(got.begin(), got.end()).size(),
              expected.size());
}
