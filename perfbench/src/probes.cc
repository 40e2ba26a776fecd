#include <algorithm>
#include <cstdio>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "core/cloaking.hh"
#include "perfbench.hh"
#include "service/result_store.hh"
#include "vm/recorded_trace.hh"

namespace perfbench {

using rarpred::CpuStats;
using rarpred::service::CellConfigMsg;

uint64_t
splitmix64(uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

std::map<std::string, double>
parseStatLines(const std::string &text)
{
    std::map<std::string, double> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const size_t sp = line.rfind(' ');
        if (sp == std::string::npos || sp == 0)
            continue;
        out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
    }
    return out;
}

bool
checkRound(uint64_t digest, uint64_t failed, uint64_t reference,
           const char *what, RunReport *report)
{
    if (failed != 0) {
        report->fail(std::string(what) + ": " + std::to_string(failed) +
                     " cells failed");
        return false;
    }
    if (digest != reference) {
        report->fail(std::string(what) + ": digest " + hex64(digest) +
                     " != reference " + hex64(reference));
        return false;
    }
    return true;
}

std::string
overheadNote(const std::vector<double> &plain,
             const std::vector<double> &traced)
{
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "trace_overhead_pct %.3g %% (median of %zu untraced/"
                  "traced pairs; untraced rounds spread %.3g %%)",
                  pairedOverheadPct(plain, traced),
                  std::min(plain.size(), traced.size()), spreadPct(plain));
    return buf;
}

// ---------------------------------------------- the traced cell body

CpuStats
timedCell(const CellConfigMsg &cfg, rarpred::TraceSource &source,
          CellRecord *rec, SpanRecorder *spans, uint64_t parent)
{
    ScopedSpan cell(spans, "cell", parent);
    rec->startNs = nowNs();
    rec->cloaked = cfg.cloakEnabled != 0;

    std::unique_ptr<rarpred::OooCpu> cpu;
    {
        ScopedSpan s(spans, "cpu.construct", cell.id());
        rarpred::CpuConfig core;
        core.memDep = cfg.memDepPolicy();
        cpu = std::make_unique<rarpred::OooCpu>(core, cfg.toTimingConfig());
    }
    {
        // The same loop as drainTraceBatched(), with both halves timed.
        ScopedSpan s(spans, "cpu.pump", cell.id());
        rarpred::DynInst block[rarpred::kTraceBatch];
        for (;;) {
            const uint64_t t0 = nowNs();
            const size_t n = source.nextBlock(block, rarpred::kTraceBatch);
            const uint64_t t1 = nowNs();
            rec->decodeNs += t1 - t0;
            if (n == 0)
                break;
            cpu->onBatch(block, n);
            rec->simNs += nowNs() - t1;
            rec->records += n;
        }
    }
    {
        ScopedSpan s(spans, "cpu.stats", cell.id());
        rec->stats = cpu->stats();
        rec->hot = cpu->hotPathLoads();
    }
    {
        ScopedSpan s(spans, "cpu.destroy", cell.id());
        cpu.reset();
    }
    return rec->stats;
}

namespace {

double
ratio(double num, double den)
{
    return den == 0 ? 0.0 : num / den;
}

} // namespace

std::vector<Metric>
cellLayerMetrics(const std::vector<CellRecord> &cells)
{
    double records = 0, decode_ns = 0, base_ns = 0, base_records = 0;
    double arena = 0, srt_probes = 0, srt_lookups = 0;
    double issue_probes = 0, issue_lookups = 0, ipc_sum = 0, ipc_n = 0;
    double insts = 0, bmisp = 0, morder = 0;
    // Per-workload base-core rate, for the cloaked cells' extra cost.
    std::unordered_map<size_t, std::pair<double, double>> base_rate;
    for (const CellRecord &c : cells) {
        records += (double)c.records;
        decode_ns += (double)c.decodeNs;
        arena += (double)c.hot.arenaReservedBytes;
        srt_probes += (double)c.hot.srt.probes;
        srt_lookups += (double)c.hot.srt.lookups;
        issue_probes += (double)c.hot.issueBw.probes;
        issue_lookups += (double)c.hot.issueBw.lookups;
        insts += (double)c.stats.instructions;
        bmisp += (double)c.stats.branchMispredicts;
        morder += (double)c.stats.memOrderViolations;
        if (!c.cloaked) {
            base_ns += (double)c.simNs;
            base_records += (double)c.records;
            ipc_sum += c.stats.ipc();
            ipc_n += 1;
            auto &[ns, recs] = base_rate[c.workload];
            ns += (double)c.simNs;
            recs += (double)c.records;
        }
    }
    double extra_ns = 0, extra_records = 0;
    for (const CellRecord &c : cells) {
        auto it = base_rate.find(c.workload);
        if (!c.cloaked || it == base_rate.end() || it->second.second == 0)
            continue;
        const double rate = it->second.first / it->second.second;
        extra_ns += (double)c.simNs - rate * (double)c.records;
        extra_records += (double)c.records;
    }
    return {
        {"vm.decode_ns_per_record", ratio(decode_ns, records)},
        {"cpu.base_ns_per_record", ratio(base_ns, base_records)},
        {"cpu.cloak_extra_ns_per_record", ratio(extra_ns, extra_records)},
        {"cpu.arena_reserved_kb",
         ratio(arena, (double)cells.size()) / 1024.0},
        {"cpu.srt_avg_probe", ratio(srt_probes, srt_lookups)},
        {"cpu.issue_bw_avg_probe", ratio(issue_probes, issue_lookups)},
        {"cpu.ipc_base_mean", ratio(ipc_sum, ipc_n)},
        {"predictor.branch_mispredicts_pki", ratio(bmisp, insts) * 1000},
        {"predictor.mem_order_violations_pki",
         ratio(morder, insts) * 1000},
    };
}

// ------------------------------------------------------ layer probes

std::vector<Metric>
probeWorkloadVmCore(const std::vector<const rarpred::Workload *> &workloads,
                    uint64_t max_insts, const rarpred::CloakingConfig &cloak,
                    SpanRecorder *spans)
{
    ScopedSpan root(spans, "probe.vm_core");
    double build_ns = 0, record_ns = 0, insts = 0, bytes = 0;
    double cloak_ns = 0, ddt_probes = 0, ddt_lookups = 0, ddt_fill = 0;
    double loads = 0, covered = 0, wrong = 0;
    for (const rarpred::Workload *w : workloads) {
        uint64_t t0 = nowNs();
        std::unique_ptr<rarpred::Program> program;
        {
            ScopedSpan s(spans, "workload.build", root.id());
            program = std::make_unique<rarpred::Program>(w->build(1));
        }
        uint64_t t1 = nowNs();
        build_ns += (double)(t1 - t0);
        std::unique_ptr<rarpred::RecordedTrace> trace;
        {
            ScopedSpan s(spans, "vm.record", root.id());
            trace = std::make_unique<rarpred::RecordedTrace>(
                rarpred::RecordedTrace::record(*program, max_insts));
        }
        record_ns += (double)(nowNs() - t1);
        insts += (double)trace->size();
        bytes += (double)trace->memoryBytes();

        ScopedSpan s(spans, "core.cloak", root.id());
        rarpred::CloakingEngine engine(cloak);
        rarpred::RecordedTraceSource source(*trace);
        rarpred::DynInst block[rarpred::kTraceBatch];
        while (size_t n = source.nextBlock(block, rarpred::kTraceBatch)) {
            const uint64_t c0 = nowNs();
            engine.onBatch(block, n);
            cloak_ns += (double)(nowNs() - c0);
        }
        const rarpred::ProbeStats ddt = engine.detector().probeStats();
        const rarpred::ProbeStats ddt_loads =
            engine.detector().loadProbeStats();
        ddt_probes += (double)(ddt.probes + ddt_loads.probes);
        ddt_lookups += (double)(ddt.lookups + ddt_loads.lookups);
        ddt_fill += ddt.loadFactor();
        const rarpred::CloakingStats &cs = engine.stats();
        loads += (double)cs.loads;
        covered += (double)cs.covered();
        wrong += (double)cs.mispredicted();
    }
    const double n = (double)workloads.size();
    return {
        {"workload.build_us", ratio(build_ns, n) / 1000.0},
        {"vm.record_ns_per_inst", ratio(record_ns, insts)},
        {"vm.trace_bytes_per_inst", ratio(bytes, insts)},
        {"core.cloak_ns_per_record", ratio(cloak_ns, insts)},
        {"core.ddt_avg_probe", ratio(ddt_probes, ddt_lookups)},
        {"core.ddt_load_factor", ratio(ddt_fill, n)},
        {"core.coverage", ratio(covered, loads)},
        {"core.mispredict_share", ratio(wrong, covered + wrong)},
    };
}

std::vector<Metric>
probeConstruct(const std::vector<CellConfigMsg> &configs)
{
    constexpr unsigned kReps = 64;
    // Mean microseconds per OooCpu construction + destruction.
    auto loop = [&configs]() {
        const uint64_t t0 = nowNs();
        for (unsigned r = 0; r < kReps; ++r)
            for (const CellConfigMsg &cfg : configs) {
                rarpred::CpuConfig core;
                core.memDep = cfg.memDepPolicy();
                rarpred::OooCpu cpu(core, cfg.toTimingConfig());
            }
        return (double)(nowNs() - t0) / 1000.0 /
               (double)(kReps * configs.size());
    };
    const double one = loop();

    constexpr unsigned kThreads = 4;
    std::vector<double> per_thread(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] { per_thread[t] = loop(); });
    for (std::thread &t : threads)
        t.join();
    double sum = 0;
    for (const double v : per_thread)
        sum += v;
    return {
        {"cpu.construct_us_1t", one},
        {"cpu.construct_us_4t", sum / kThreads},
    };
}

std::vector<Metric>
probeStore(const std::string &dir, const std::vector<CpuStats> &sample)
{
    rarpred::service::ResultStore store(dir + "/probe-store");
    double put_ns = 0, get_ns = 0;
    bool ok = store.init().ok();
    for (size_t i = 0; ok && i < sample.size(); ++i) {
        const uint64_t t0 = nowNs();
        ok = store.put(splitmix64(i + 1), sample[i]).ok();
        put_ns += (double)(nowNs() - t0);
    }
    for (size_t i = 0; ok && i < sample.size(); ++i) {
        const uint64_t t0 = nowNs();
        auto got = store.get(splitmix64(i + 1));
        get_ns += (double)(nowNs() - t0);
        ok = got.ok() && got->cycles == sample[i].cycles;
    }
    const double n = ok ? (double)sample.size() : 0;
    return {
        {"service.store_put_us", ratio(put_ns, n) / 1000.0},
        {"service.store_get_us", ratio(get_ns, n) / 1000.0},
    };
}

} // namespace perfbench
