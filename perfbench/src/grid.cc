/**
 * @file
 * The fig9 workload: one runCellSweep over the 18 paper programs x
 * the five Figure 9 configurations, full-length traces, on a
 * 4-thread SimJobRunner — exactly what bench_fig9_speedup --workers=4
 * runs. Its inputs are fixed by the paper, so the seed selects
 * nothing and the recorded digest is the reference for every seed.
 */

#include <cstdio>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "driver/sweep.hh"
#include "perfbench.hh"

namespace perfbench {

namespace {

using rarpred::CpuStats;
using rarpred::Result;
using rarpred::Workload;
using rarpred::driver::SimJobRunner;
using rarpred::service::CellConfigMsg;

/** runCellSweep digest of the Figure 9 grid (seed-independent). */
constexpr uint64_t kFig9Digest = 0x9a80f6522e346507ull;

constexpr unsigned kWorkers = 4;

/** Untraced/traced round pairs of the traced run. Two, in the order
 *  untraced, traced, traced, untraced, cancel a linear drift; a third
 *  pair would take the traced run past two minutes. */
constexpr unsigned kOverheadPairs = 2;

/** Workload lookup plus runner construction: the grid's set-up. */
struct Setup
{
    std::vector<const Workload *> workloads;
    std::unique_ptr<SimJobRunner> runner;
    double seconds = 0;
};

bool
setUp(unsigned workers, Setup *out, RunReport *report)
{
    const double t0 = nowSeconds();
    out->workloads.clear();
    for (const Workload &paper : rarpred::allWorkloads()) {
        auto w = rarpred::lookupWorkload(paper.abbrev);
        if (!w.ok()) {
            report->fail("workload lookup: " + w.status().toString());
            return false;
        }
        out->workloads.push_back(*w);
    }
    rarpred::driver::RunnerConfig rc;
    rc.workers = workers;
    out->runner = std::make_unique<SimJobRunner>(rc);
    out->seconds = nowSeconds() - t0;
    return true;
}

/** Digest, counts and committed instructions of one sweep's cells. */
struct Outcome
{
    uint64_t digest = 0;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    uint64_t insts = 0;
};

Outcome
outcomeOf(const std::vector<Result<CpuStats>> &cells)
{
    Outcome o;
    Digest d;
    for (const Result<CpuStats> &c : cells) {
        ++o.attempted;
        if (c.ok()) {
            d.addStats(*c);
            o.insts += c->instructions;
        } else {
            d.addError((unsigned)c.status().code());
            ++o.failed;
        }
    }
    o.digest = d.value();
    return o;
}

double
fig9Err(const std::vector<const Workload *> &workloads,
        const std::vector<Result<CpuStats>> &cells)
{
    std::vector<Fig9Row> rows;
    for (size_t wi = 0; wi < workloads.size(); ++wi) {
        const size_t row = wi * 5;
        const double base = (double)cells[row]->cycles;
        rows.push_back({workloads[wi]->isFp,
                        100.0 * (base / (double)cells[row + 1]->cycles - 1),
                        100.0 * (base / (double)cells[row + 2]->cycles - 1)});
    }
    return fig9ErrPp(rows);
}

std::string
dumpStats(const SimJobRunner &runner)
{
    std::ostringstream os;
    runner.dumpStats(os);
    return os.str();
}

/** An untraced round on @p workers threads, checked against the
 *  reference. Fills its wall time, driver stats and cells. */
bool
plainRound(unsigned workers, double *wall, std::string *stats,
           std::vector<Result<CpuStats>> *cells, RunReport *report)
{
    Setup s;
    if (!setUp(workers, &s, report))
        return false;
    const double t0 = nowSeconds();
    *cells = rarpred::driver::runCellSweep(*s.runner, s.workloads,
                                           fig9Configs())
                 .cells;
    *wall = nowSeconds() - t0;
    const Outcome o = outcomeOf(*cells);
    *stats = dumpStats(*s.runner);
    return checkRound(o.digest, o.failed, kFig9Digest,
                      workers == 1 ? "serial round" : "untraced round",
                      report);
}

/** A traced round: runSweep with the timed cell body, under a
 *  "sweep" span. Fills its cell records, wall time and end time. */
bool
tracedRound(SpanRecorder *spans, std::vector<CellRecord> *recs,
            double *wall, uint64_t *sweep_end, RunReport *report)
{
    const std::vector<CellConfigMsg> configs = fig9Configs();
    const size_t nc = configs.size();
    Setup t;
    if (!setUp(kWorkers, &t, report))
        return false;
    std::unordered_map<const Workload *, size_t> index;
    for (size_t wi = 0; wi < t.workloads.size(); ++wi)
        index[t.workloads[wi]] = wi;
    recs->assign(t.workloads.size() * nc, CellRecord{});
    ScopedSpan sweep(spans, "sweep");
    const uint64_t sweep_id = sweep.id();
    const double t0 = nowSeconds();
    const auto traced = rarpred::driver::runSweep(
        *t.runner, t.workloads, nc,
        [&](const Workload &w, size_t ci, rarpred::TraceSource &src,
            rarpred::Rng &) {
            const size_t wi = index.at(&w);
            CellRecord &rec = (*recs)[wi * nc + ci];
            rec.workload = wi;
            return timedCell(configs[ci], src, &rec, spans, sweep_id);
        });
    *wall = nowSeconds() - t0;
    *sweep_end = nowNs();
    const Outcome o = outcomeOf(traced.cells);
    report->attempted += o.attempted;
    report->failed += o.failed;
    return checkRound(o.digest, o.failed, kFig9Digest, "traced round",
                      report);
}

/**
 * The traced run: kOverheadPairs pairs of one untraced and one
 * traced round (alternating which goes first) for the tracing cost
 * and the driver counters, the serial grid for job inflation, and
 * the layer probes. Cell metrics come from the last traced round.
 */
void
tracedRun(const RunOptions &opt, RunReport *report)
{
    SpanRecorder spans;
    std::vector<CellRecord> recs;
    std::vector<double> plain_wall, traced_wall;
    std::string driver_stats;
    std::vector<Result<CpuStats>> cells;
    uint64_t sweep_end = 0;
    for (unsigned pair = 0; pair < kOverheadPairs; ++pair) {
        for (unsigned half = 0; half < 2; ++half) {
            double wall = 0;
            if ((half == 0) == (pair % 2 == 0)) {
                if (!plainRound(kWorkers, &wall, &driver_stats, &cells,
                                report))
                    return;
                plain_wall.push_back(wall);
            } else {
                if (!tracedRound(&spans, &recs, &wall, &sweep_end, report))
                    return;
                traced_wall.push_back(wall);
            }
        }
    }
    const auto driver = parseStatLines(driver_stats);
    std::vector<CpuStats> sample;
    for (size_t i = 0; i < cells.size() && sample.size() < 64;
         i += 1 + cells.size() / 64)
        sample.push_back(*cells[i]);
    uint64_t last_start = 0;
    for (const CellRecord &r : recs)
        last_start = std::max(last_start, r.startNs);

    double serial_wall = 0;
    std::string serial_stats;
    if (!plainRound(1, &serial_wall, &serial_stats, &cells, report))
        return;
    cells.clear();
    const auto serial = parseStatLines(serial_stats);

    std::vector<Metric> &m = report->layers;
    m = cellLayerMetrics(recs);
    Setup s;
    if (!setUp(kWorkers, &s, report))
        return;
    const std::vector<CellConfigMsg> configs = fig9Configs();
    for (Metric &x :
         probeWorkloadVmCore(s.workloads, ~0ull,
                             configs[1].toTimingConfig().engine, &spans))
        m.push_back(x);
    for (Metric &x : probeConstruct(configs))
        m.push_back(x);
    for (Metric &x : probeStore(opt.tmpDir, sample))
        m.push_back(x);

    const double job_us = driver.at("driver.jobMicrosTotal");
    const double sweep_us = driver.at("driver.sweepMicrosTotal");
    const double serial_job_us = serial.at("driver.jobMicrosTotal");
    m.push_back({"driver.slot_busy_share",
                 sweep_us == 0 ? 0 : job_us / (kWorkers * sweep_us)});
    m.push_back({"driver.job_inflation",
                 serial_job_us == 0 ? 0 : job_us / serial_job_us});
    m.push_back({"driver.tail_s",
                 sweep_end > last_start
                     ? (double)(sweep_end - last_start) * 1e-9
                     : 0.0});
    m.push_back({"driver.queue_ms_mean",
                 driver.at("driver.queueLatencyMsMean")});
    m.push_back({"driver.trace_generations",
                 driver.at("driver.traceGenerations")});
    m.push_back({"driver.trace_cache_hits",
                 driver.at("driver.traceCacheHits")});
    m.push_back({"driver.trace_resident_mb",
                 driver.at("driver.traceResidentBytes") / 1e6});
    // No fleet and no service requests in an in-process grid.
    for (const char *name :
         {"driver.fleet.leases_granted", "driver.fleet.leases_reassigned",
          "driver.fleet.reconnects", "service.warm_request_ms_p50",
          "service.cold_cell_ms_p50", "service.store_hit_share"})
        m.push_back({name, 0});
    m.push_back({"trace_overhead_pct",
                 pairedOverheadPct(plain_wall, traced_wall)});
    report->notes.push_back(overheadNote(plain_wall, traced_wall));

    const std::string path =
        opt.buildDir + "/perfbench-spans-" + opt.workload + ".json";
    if (writeSpansJson(path, spans.spans()))
        std::fprintf(stderr, "perfbench: spans written to %s\n",
                     path.c_str());
}

} // namespace

std::vector<CellConfigMsg>
fig9Configs()
{
    using rarpred::CloakingMode;
    using rarpred::RecoveryModel;
    auto mechanism = [](CloakingMode mode, RecoveryModel recovery) {
        CellConfigMsg cfg;
        cfg.cloakEnabled = 1;
        cfg.mode = (uint8_t)mode;
        cfg.recovery = (uint8_t)recovery;
        return cfg;
    };
    // bench_fig9_speedup's grid: the base core, then selective RAW,
    // selective RAW+RAR, squash RAW, squash RAW+RAR.
    return {
        CellConfigMsg{},
        mechanism(CloakingMode::RawOnly, RecoveryModel::Selective),
        mechanism(CloakingMode::RawPlusRar, RecoveryModel::Selective),
        mechanism(CloakingMode::RawOnly, RecoveryModel::Squash),
        mechanism(CloakingMode::RawPlusRar, RecoveryModel::Squash),
    };
}

double
gridSetupOnce(const RunOptions &)
{
    RunReport report;
    Setup s;
    return setUp(kWorkers, &s, &report) ? s.seconds : -1;
}

int
runGridWorkload(const RunOptions &opt, RunReport *report)
{
    std::fprintf(stderr, "perfbench: fig9 reference digest %s\n",
                 hex64(kFig9Digest).c_str());
    if (opt.trace) {
        tracedRun(opt, report);
        return report->correct ? 0 : 1;
    }

    RssSampler rss;
    const std::vector<CellConfigMsg> configs = fig9Configs();
    const double begin = nowSeconds();
    while (report->correct) {
        Setup s;
        if (!setUp(kWorkers, &s, report))
            break;
        const double t0 = nowSeconds();
        const auto res =
            rarpred::driver::runCellSweep(*s.runner, s.workloads, configs);
        const double wall = nowSeconds() - t0;
        const Outcome o = outcomeOf(res.cells);
        report->attempted += o.attempted;
        report->failed += o.failed;
        if (!checkRound(o.digest, o.failed, kFig9Digest, "timed round",
                        report))
            break;
        report->wallS.push_back(wall);
        std::fprintf(stderr, "perfbench: round %zu wall %.4f s\n",
                     report->wallS.size(), wall);
        report->simMips.push_back((double)o.insts / wall / 1e6);
        report->fig9ErrPp = fig9Err(s.workloads, res.cells);
        if (nowSeconds() - begin >= opt.seconds)
            break;
    }
    report->peakRssBytes = rss.stop();
    return report->correct ? 0 : 1;
}

} // namespace perfbench
