/**
 * @file
 * Internals shared by the benchmark's workloads: run options, the
 * per-run report, the timed cell body of the traced run, and the
 * layer probes. See perfbench/README.md for what each workload and
 * metric means.
 */

#ifndef PERFBENCH_PERFBENCH_HH_
#define PERFBENCH_PERFBENCH_HH_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench_lib.hh"
#include "cpu/ooo_cpu.hh"
#include "service/proto.hh"
#include "vm/trace.hh"
#include "workload/workload.hh"

namespace perfbench {

/** Seed whose output digests are recorded in the source. */
inline constexpr uint64_t kDefaultSeed = 1;

struct RunOptions
{
    std::string workload;
    uint64_t seed = kDefaultSeed;
    unsigned seconds = 10;
    bool trace = false;
    std::string buildDir; ///< directory holding the benchmark binary
    std::string tmpDir;   ///< this run's private mkdtemp directory
};

/** What one benchmark run measured. */
struct RunReport
{
    bool correct = true;
    std::string whyIncorrect;
    uint64_t attempted = 0; ///< cells attempted, over all rounds
    uint64_t failed = 0;    ///< failed, refused or shed cells

    std::vector<double> setupS;   ///< one per set-up probe process
    std::vector<double> wallS;    ///< one sample per round
    std::vector<double> simMips;  ///< one sample per round
    std::vector<double> requestMs; ///< service requests (service_fleet)
    uint64_t peakRssBytes = 0;
    double fig9ErrPp = -1; ///< fig9 only; < 0 when not applicable

    std::vector<Metric> layers; ///< traced run only
    std::vector<std::string> notes; ///< extra human-readable lines

    void
    fail(const std::string &why)
    {
        if (correct)
            whyIncorrect = why;
        correct = false;
    }
};

/**
 * The correctness gate for one round: no failed cell and the output
 * digest equal to the reference. Otherwise marks @p report incorrect
 * (naming @p what) and returns false.
 */
bool checkRound(uint64_t digest, uint64_t failed, uint64_t reference,
                const char *what, RunReport *report);

/**
 * The human-readable line next to trace_overhead_pct: the paired
 * overhead, the pair count and the untraced rounds' spread, which is
 * the noise floor the overhead has to clear.
 */
std::string overheadNote(const std::vector<double> &plain,
                         const std::vector<double> &traced);

/** bench_fig9_speedup's five configurations, in its column order. */
std::vector<rarpred::service::CellConfigMsg> fig9Configs();

/**
 * Set up the workload once, in this (fresh) process, and return the
 * seconds it took, or -1 on failure: workload lookup and runner
 * construction (fig9), or agent spawn plus daemon start up to its
 * first STATUS reply (service_fleet). The agents are stopped again.
 */
double gridSetupOnce(const RunOptions &opt);
double fleetSetupOnce(const RunOptions &opt);

int runGridWorkload(const RunOptions &opt, RunReport *report);
int runFleetWorkload(const RunOptions &opt, RunReport *report);

// ---------------------------------------------- the traced cell body

/** Per-cell measurements of the traced cell body. */
struct CellRecord
{
    bool cloaked = false;
    size_t workload = 0;   ///< index into the grid's workload list
    uint64_t records = 0;
    uint64_t decodeNs = 0; ///< inside TraceSource::nextBlock
    uint64_t simNs = 0;    ///< inside OooCpu::onBatch
    uint64_t startNs = 0;
    rarpred::OooCpu::HotPathLoads hot;
    rarpred::CpuStats stats;
};

/**
 * The standard CPU cell (what runCellSweep and the sweep service run
 * per cell) with each phase timed from outside: OooCpu construction,
 * the trace pump split into nextBlock and onBatch, stats copy-out
 * and teardown. Records spans under @p parent when @p spans is set.
 */
rarpred::CpuStats timedCell(const rarpred::service::CellConfigMsg &cfg,
                            rarpred::TraceSource &source, CellRecord *rec,
                            SpanRecorder *spans, uint64_t parent);

/** cpu.*, predictor.* and vm.decode metrics over traced cells. */
std::vector<Metric> cellLayerMetrics(const std::vector<CellRecord> &cells);

// ------------------------------------------------------ layer probes

/**
 * workload.*, vm.record/trace_bytes and core.* metrics: build and
 * record each workload in @p workloads (at @p max_insts), then replay
 * it into a standalone CloakingEngine with @p cloak.
 */
std::vector<Metric>
probeWorkloadVmCore(const std::vector<const rarpred::Workload *> &workloads,
                    uint64_t max_insts,
                    const rarpred::CloakingConfig &cloak,
                    SpanRecorder *spans);

/** cpu.construct_us_1t / _4t over @p configs. */
std::vector<Metric>
probeConstruct(const std::vector<rarpred::service::CellConfigMsg> &configs);

/** service.store_put_us / store_get_us on a ResultStore in @p dir. */
std::vector<Metric>
probeStore(const std::string &dir,
           const std::vector<rarpred::CpuStats> &sample);

/** "group.stat value" lines (SimJobRunner::dumpStats) by name. */
std::map<std::string, double> parseStatLines(const std::string &text);

/** Deterministic 64-bit mix for deriving inputs from the seed. */
uint64_t splitmix64(uint64_t x);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH_
