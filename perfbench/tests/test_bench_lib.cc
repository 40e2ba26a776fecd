/**
 * @file
 * Tests of the benchmark's own helpers (perfbench/src/bench_lib.*):
 * the percentile-with-ten-beyond rule, the output digest, the summed
 * process-tree RSS sampler, span self time, and the Figure 9 error.
 * Build and run with
 *   cmake -S perfbench -B .bench_build && cmake --build .bench_build
 *   ctest --test-dir .bench_build --output-on-failure
 */

#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "bench_lib.hh"

namespace perfbench {
namespace {

TEST(Percentile, TailNeedsTenSamplesBeyondIt)
{
    EXPECT_EQ(tailPermille(0), 0u);
    EXPECT_EQ(tailPermille(19), 0u);
    EXPECT_EQ(tailPermille(99), 0u); // p90 is rank 90: 9 beyond
    EXPECT_EQ(tailPermille(100), 900u);
    EXPECT_EQ(tailPermille(999), 900u);
    EXPECT_EQ(tailPermille(1000), 990u);
    EXPECT_EQ(tailPermille(9999), 990u);
    EXPECT_EQ(tailPermille(10000), 999u);
}

TEST(Percentile, NearestRankAndMedian)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(nearestRank(v, 900), 90);
    EXPECT_EQ(nearestRank(v, 990), 99);
    EXPECT_EQ(median({3, 1, 2}), 2);
    EXPECT_EQ(median({4, 1, 3, 2}), 2.5);
    EXPECT_EQ(median({}), 0);

    const Summary s = summarize(v);
    EXPECT_EQ(s.n, 100u);
    EXPECT_EQ(s.median, 50.5);
    EXPECT_EQ(s.tailPermille, 900u);
    EXPECT_EQ(s.tail, 90);
    EXPECT_EQ(formatSummary(s, "ms"), "median 50.5 ms, p90 90 ms, n=100");
    EXPECT_EQ(formatSummary(summarize({7}), "s"), "median 7 s, n=1");
}

TEST(Overhead, MedianOfPairsAndNoiseFloor)
{
    // One pair disturbed by a slow plain round must not move it.
    EXPECT_DOUBLE_EQ(pairedOverheadPct({10, 20, 10}, {11, 11, 10.5}), 5);
    EXPECT_DOUBLE_EQ(pairedOverheadPct({}, {}), 0);
    EXPECT_DOUBLE_EQ(spreadPct({9, 10, 11}), 20);
    EXPECT_DOUBLE_EQ(spreadPct({}), 0);
}

TEST(Digest, CoversEveryFieldInOrder)
{
    rarpred::CpuStats a;
    a.instructions = 1000;
    a.cycles = 700;
    rarpred::CpuStats b = a;

    auto digestOf = [](std::vector<rarpred::CpuStats> cells) {
        Digest d;
        for (const auto &c : cells)
            d.addStats(c);
        return d.value();
    };
    EXPECT_EQ(digestOf({a, b}), digestOf({a, b}));
    b.specCyclesSaved = 1; // the last field counts too
    EXPECT_NE(digestOf({a, a}), digestOf({a, b}));
    EXPECT_NE(digestOf({a, b}), digestOf({b, a})); // cell order counts

    Digest ok, failed;
    ok.addStats(rarpred::CpuStats{});
    failed.addError(4);
    EXPECT_NE(ok.value(), failed.value());
    EXPECT_EQ(hex64(0x1f), "0x000000000000001f");
}

TEST(Rss, SumsChildProcesses)
{
    constexpr size_t kBytes = 64u << 20;
    int ready[2], release[2];
    ASSERT_EQ(::pipe(ready), 0);
    ASSERT_EQ(::pipe(release), 0);
    const uint64_t before = treePeakRssBytes(::getpid());
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        void *mem = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (mem == MAP_FAILED)
            ::_exit(1);
        std::memset(mem, 1, kBytes); // touch: make it resident
        asm volatile("" : : "r"(mem) : "memory");
        char c = 1;
        (void)!::write(ready[1], &c, 1);
        (void)!::read(release[0], &c, 1);
        ::_exit(0);
    }
    char c = 0;
    ASSERT_EQ(::read(ready[0], &c, 1), 1);
    const uint64_t with_child = treePeakRssBytes(::getpid());
    {
        RssSampler sampler(5);
        ::usleep(30000);
        EXPECT_GE(sampler.stop(), before + kBytes * 9 / 10);
    }
    (void)!::write(release[1], &c, 1);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    for (const int fd : {ready[0], ready[1], release[0], release[1]})
        ::close(fd);

    EXPECT_GE(with_child, before + kBytes * 9 / 10);
    EXPECT_LT(treePeakRssBytes(::getpid()), with_child - kBytes / 2);
}

TEST(Rss, SamplerCountsOnlyWhatRunsWhileItLives)
{
    constexpr size_t kBytes = 64u << 20;
    void *mem = ::mmap(nullptr, kBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    ASSERT_NE(mem, MAP_FAILED);
    std::memset(mem, 1, kBytes);
    asm volatile("" : : "r"(mem) : "memory");
    ::munmap(mem, kBytes);
    const uint64_t old_peak = treePeakRssBytes(::getpid());

    RssSampler sampler(5);
    EXPECT_LT(sampler.stop(), old_peak - kBytes / 2);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    // Parent [0,100); children overlap ([10,30) and [20,50)) and one
    // runs past the parent's end ([90,120) counts as [90,100)).
    const std::vector<Span> spans = {
        {1, 0, "sweep", 0, 100},
        {2, 1, "cell", 10, 30},
        {3, 1, "cell", 20, 50},
        {4, 1, "cell", 90, 120},
        {5, 2, "cpu.pump", 12, 28},
    };
    const std::vector<uint64_t> self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 100u - 40u - 10u);
    EXPECT_EQ(self[1], 20u - 16u);
    EXPECT_EQ(self[2], 30u);
    EXPECT_EQ(self[3], 30u);
    EXPECT_EQ(self[4], 16u);

    const std::vector<SpanTotal> totals = spanTotals(spans);
    ASSERT_EQ(totals.size(), 3u);
    EXPECT_EQ(totals[0].name, "cell");
    EXPECT_EQ(totals[0].count, 3u);
    EXPECT_EQ(totals[0].totalNs, 80u);
    EXPECT_EQ(totals[0].selfNs, 64u);
}

TEST(Spans, RecorderNestsScopedSpans)
{
    SpanRecorder rec;
    {
        ScopedSpan outer(&rec, "outer");
        ScopedSpan inner(&rec, "inner", outer.id());
    }
    { ScopedSpan off(nullptr, "untraced"); }
    const std::vector<Span> spans = rec.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[0].name, "inner"); // recorded when it ends
    EXPECT_EQ(spans[0].parent, spans[1].id);
    EXPECT_LE(spans[1].startNs, spans[0].startNs);
    EXPECT_GE(spans[1].endNs, spans[0].endNs);
}

TEST(Fig9, ErrorAgainstThePaperOnTheCurrentTable)
{
    // bench_fig9_speedup's selective columns (percent), Table 5.1 order.
    const std::vector<Fig9Row> rows = {
        {false, 0.42, 0.48}, {false, 6.93, 6.78}, {false, 1.44, 1.30},
        {false, 1.86, 2.08}, {false, 1.18, 1.12}, {false, 1.14, 1.29},
        {false, 1.43, 1.52}, {false, 1.32, 1.49}, {true, 4.79, 5.33},
        {true, 4.34, 5.68},  {true, -0.00, 1.26}, {true, 4.63, 5.49},
        {true, 0.00, 0.90},  {true, 5.56, 5.56},  {true, 0.00, 0.37},
        {true, 5.52, 5.70},  {true, 3.72, 2.03},  {true, 0.03, 0.03},
    };
    // Means 1.97/2.86 (sel RAW) and 2.01/3.24 (sel RAW+RAR) against
    // 4.28/3.20 and 6.44/4.66.
    EXPECT_NEAR(fig9ErrPp(rows), 2.13, 0.005);

    // Matching the paper exactly gives zero error.
    EXPECT_NEAR(fig9ErrPp({{false, 4.28, 6.44}, {true, 3.20, 4.66}}), 0,
                1e-12);
}

TEST(Json, ResultLine)
{
    EXPECT_EQ(resultJson(true, 90, 0, {{"wall_s", 1.5, "s"}}),
              "{\"correct\": true, \"attempted\": 90, \"failed\": 0, "
              "\"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": "
              "\"s\"}}}");
    EXPECT_EQ(resultJson(false, 3, 1, {}),
              "{\"correct\": false, \"attempted\": 3, \"failed\": 1, "
              "\"metrics\": {}}");
}

} // namespace
} // namespace perfbench
