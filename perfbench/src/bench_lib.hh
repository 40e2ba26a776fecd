/**
 * @file
 * Measurement helpers of the repository benchmark (perfbench): the
 * percentile-with-tail rule for reporting timings, the output digest
 * of the correctness gate, the summed process-tree RSS sampler, span
 * recording with self time, and the Figure 9 error against the
 * paper's means. Everything here is independent of which workload is
 * running; perfbench/tests/test_bench_lib.cc covers it.
 */

#ifndef PERFBENCH_BENCH_LIB_HH_
#define PERFBENCH_BENCH_LIB_HH_

#include <sys/types.h>

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cpu/cpu_config.hh"

namespace perfbench {

/** Monotonic host time (std::chrono::steady_clock). */
uint64_t nowNs();
double nowSeconds();

// ------------------------------------------------------- percentiles

/**
 * The highest of p90, p99 and p99.9 that still has at least ten of
 * @p n samples strictly beyond its nearest-rank position, in tenths
 * of a percent (900, 990, 999); 0 when even p90 has fewer than ten.
 */
unsigned tailPermille(size_t n);

/** Nearest-rank percentile of @p sorted at @p permille (1..1000). */
double nearestRank(const std::vector<double> &sorted, unsigned permille);

/** Median (mean of the middle two for an even count); 0 when empty. */
double median(std::vector<double> samples);

/** A timing as reported: median, the tail percentile, sample count. */
struct Summary
{
    double median = 0;
    unsigned tailPermille = 0; ///< 0: no percentile has 10 beyond it
    double tail = 0;
    size_t n = 0;
};

Summary summarize(std::vector<double> samples);

/** "median 1.23 s, p90 4.56 s, n=100" (tail omitted when none). */
std::string formatSummary(const Summary &s, const char *unit);

/**
 * Tracing cost from paired rounds: the median over pairs of
 * 100 * (traced - plain) / plain, in percent. @p plain and @p traced
 * hold one wall time per pair; 0 when there is no pair.
 */
double pairedOverheadPct(const std::vector<double> &plain,
                         const std::vector<double> &traced);

/** Round-to-round noise of @p plain: 100 * (max - min) / median. */
double spreadPct(const std::vector<double> &plain);

// ------------------------------------------------------------ digest

/**
 * FNV-1a over little-endian 64-bit words. The correctness gate feeds
 * it every cell's CpuStats in cell order, so two runs agree exactly
 * when every simulated statistic agrees.
 */
class Digest
{
  public:
    void addU64(uint64_t v);
    void addStats(const rarpred::CpuStats &s);
    /** A failed cell: its status code in place of stats. */
    void addError(unsigned code);
    uint64_t value() const { return h_; }

  private:
    uint64_t h_ = 0xcbf29ce484222325ull;
};

/** "0x" and 16 hex digits. */
std::string hex64(uint64_t v);

// --------------------------------------------------------------- RSS

/**
 * Peak resident set size (VmHWM) summed over process @p root and all
 * of its live descendants, read from /proc (pid -> ppid from
 * /proc/N/stat, VmHWM from /proc/N/status). Processes that exit
 * mid-scan are skipped.
 */
uint64_t treePeakRssBytes(pid_t root);

/**
 * Samples treePeakRssBytes(getpid()) on a background thread every
 * @p interval_ms and keeps the largest sum: the peak memory of the
 * benchmark and every process it started (worker processes, agents,
 * their workers). Construction restarts this process's own VmHWM, so
 * only what runs while the sampler lives counts. Per-process peaks
 * are exact, so a short-lived spike between two samples still counts
 * while its process lives.
 */
class RssSampler
{
  public:
    explicit RssSampler(unsigned interval_ms = 100);
    ~RssSampler();
    RssSampler(const RssSampler &) = delete;
    RssSampler &operator=(const RssSampler &) = delete;

    /** Stop sampling (idempotent) and return the peak in bytes. */
    uint64_t stop();

  private:
    void loop(unsigned interval_ms);
    void sampleOnce();

    std::atomic<uint64_t> peak_{0};
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false; ///< guarded by mu_
    std::thread thread_;
};

// ------------------------------------------------------------- spans

/** One timed interval; parent 0 means a root span. */
struct Span
{
    uint64_t id = 0;
    uint64_t parent = 0;
    std::string name;
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/** Thread-safe in-memory span store; written out once at exit. */
class SpanRecorder
{
  public:
    uint64_t newId() { return next_.fetch_add(1) + 1; }
    void add(Span span);
    std::vector<Span> spans() const;

  private:
    std::atomic<uint64_t> next_{0};
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/**
 * RAII span: starts at construction, recorded at destruction. A null
 * recorder makes it a no-op (the untraced run).
 */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const char *name, uint64_t parent = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    uint64_t id() const { return id_; }

  private:
    SpanRecorder *rec_;
    const char *name_;
    uint64_t id_ = 0;
    uint64_t parent_;
    uint64_t start_;
};

/**
 * Self time of every span, index-aligned with @p spans: its duration
 * minus the part of its interval covered by the union of its
 * children's intervals (children may overlap when they ran on
 * several threads).
 */
std::vector<uint64_t> selfTimesNs(const std::vector<Span> &spans);

/** Per-name totals for the span summary. */
struct SpanTotal
{
    std::string name;
    uint64_t count = 0;
    uint64_t totalNs = 0;
    uint64_t selfNs = 0;
};

std::vector<SpanTotal> spanTotals(const std::vector<Span> &spans);

/** Write spans and per-name totals to @p path as JSON. */
bool writeSpansJson(const std::string &path,
                    const std::vector<Span> &spans);

// ---------------------------------------------------- Figure 9 error

/** Per-program speedups (percent) of the two selective mechanisms. */
struct Fig9Row
{
    bool isFp = false;
    double selRaw = 0;
    double selRawRar = 0;
};

/**
 * Mean |measured - paper| in percentage points over the paper's four
 * Figure 9 means: selective RAW 4.28 (int) / 3.20 (fp), selective
 * RAW+RAR 6.44 / 4.66.
 */
double fig9ErrPp(const std::vector<Fig9Row> &rows);

// -------------------------------------------------------------- JSON

/** One metric of the result line; main() fills in layer units. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit = "";
};

/** The benchmark's final stdout line. */
std::string resultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric> &metrics);

} // namespace perfbench

#endif // PERFBENCH_BENCH_LIB_HH_
