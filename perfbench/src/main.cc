/**
 * @file
 * perfbench: the repository benchmark.
 *
 *   perfbench --workload fig9|service_fleet --seed N
 *             --seconds S --trace 0|1 [--tmp-root DIR]
 *
 * Untraced (--trace 0), the run repeats its workload's round for at
 * least S seconds and reports the end-to-end metrics; traced
 * (--trace 1), it reports the per-layer metrics instead. Human-
 * readable lines go first; the last stdout line is one JSON object
 * {"correct", "attempted", "failed", "metrics"}. Every round's
 * outputs are digested and checked against the reference; a mismatch
 * prints "correct": false with no metrics and exits 1.
 * perfbench/README.md describes workloads and metrics.
 *
 *   perfbench --setup-probe WORKLOAD --seed N [--tmp-root DIR]
 *
 * sets the workload up once in this fresh process and prints the
 * seconds it took; the untraced run spawns it for setup_s.
 */

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "driver/sim_job_runner.hh"
#include "perfbench.hh"

namespace {

using namespace perfbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

/** BENCHMARK.json's end_to_end metrics, in its order. */
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"wall_s", "s"},
    {"sim_mips", "MIPS"},
    {"peak_rss_mb", "MB"},
};

/** BENCHMARK.json's per_layer metrics, in its order. */
constexpr MetricDef kPerLayer[] = {
    {"workload.build_us", "us"},
    {"vm.record_ns_per_inst", "ns"},
    {"vm.trace_bytes_per_inst", "B"},
    {"vm.decode_ns_per_record", "ns"},
    {"core.cloak_ns_per_record", "ns"},
    {"core.ddt_avg_probe", "slots"},
    {"core.ddt_load_factor", "ratio"},
    {"core.coverage", "ratio"},
    {"core.mispredict_share", "ratio"},
    {"cpu.base_ns_per_record", "ns"},
    {"cpu.cloak_extra_ns_per_record", "ns"},
    {"cpu.construct_us_1t", "us"},
    {"cpu.construct_us_4t", "us"},
    {"cpu.arena_reserved_kb", "KiB"},
    {"cpu.srt_avg_probe", "slots"},
    {"cpu.issue_bw_avg_probe", "slots"},
    {"cpu.ipc_base_mean", "inst/cycle"},
    {"predictor.branch_mispredicts_pki", "1/kinst"},
    {"predictor.mem_order_violations_pki", "1/kinst"},
    {"driver.slot_busy_share", "ratio"},
    {"driver.job_inflation", "ratio"},
    {"driver.tail_s", "s"},
    {"driver.queue_ms_mean", "ms"},
    {"driver.trace_generations", "count"},
    {"driver.trace_cache_hits", "count"},
    {"driver.trace_resident_mb", "MB"},
    {"driver.fleet.leases_granted", "count"},
    {"driver.fleet.leases_reassigned", "count"},
    {"driver.fleet.reconnects", "count"},
    {"service.warm_request_ms_p50", "ms"},
    {"service.store_get_us", "us"},
    {"service.cold_cell_ms_p50", "ms"},
    {"service.store_put_us", "us"},
    {"service.store_hit_share", "ratio"},
    {"trace_overhead_pct", "%"},
};

int
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "fig9|service_fleet --seed N --seconds S "
                 "--trace 0|1 [--tmp-root DIR]\n",
                 why);
    return 2;
}

bool
parseU64(const char *s, uint64_t *out)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (*s == '\0' || *s == '-' || *end != '\0' || errno != 0)
        return false;
    *out = v;
    return true;
}

/** The run's private scratch directory, removed on every exit path. */
class TempDir
{
  public:
    explicit TempDir(const std::string &root)
    {
        std::string tmpl = root + "/perfbench.XXXXXX";
        if (::mkdtemp(tmpl.data()) != nullptr)
            path_ = tmpl;
    }
    ~TempDir()
    {
        if (!path_.empty()) {
            std::error_code ec;
            std::filesystem::remove_all(path_, ec);
        }
    }
    TempDir(const TempDir &) = delete;
    TempDir &operator=(const TempDir &) = delete;

    const std::string &path() const { return path_; }

  private:
    std::string path_;
};

/** setup_s: the median of this many fresh processes, each timing one
 *  cold set-up, so that per-process state (address layout, page
 *  cache, allocator) averages out. */
constexpr int kSetupProbes = 21;

/** Run "<exe> --setup-probe" and parse the seconds it prints. */
double
setupInFreshProcess(const std::string &exe, const RunOptions &opt)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0)
        return -1;
    const std::string seed = std::to_string(opt.seed);
    const char *argv[] = {exe.c_str(),        "--setup-probe",
                          opt.workload.c_str(), "--seed",
                          seed.c_str(),       "--tmp-root",
                          opt.tmpDir.c_str(), nullptr};
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, exe.c_str(), &fa, nullptr,
                                 const_cast<char *const *>(argv), environ);
    posix_spawn_file_actions_destroy(&fa);
    ::close(fds[1]);
    std::string out;
    char buf[256];
    ssize_t n = 0;
    while (rc == 0 && (n = ::read(fds[0], buf, sizeof buf)) != 0) {
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0)
            break;
        out.append(buf, (size_t)n);
    }
    ::close(fds[0]);
    if (rc != 0)
        return -1;
    int status = 0;
    while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        return -1;
    return std::strtod(out.c_str(), nullptr);
}

void
printHuman(const RunOptions &opt, const RunReport &r)
{
    std::printf("perfbench %s seed=%llu seconds=%u\n", opt.workload.c_str(),
                (unsigned long long)opt.seed, opt.seconds);
    std::printf("  %-16s %s\n", "setup_s",
                formatSummary(summarize(r.setupS), "s").c_str());
    std::printf("  %-16s %s\n", "wall_s",
                formatSummary(summarize(r.wallS), "s").c_str());
    std::printf("  %-16s %s\n", "sim_mips",
                formatSummary(summarize(r.simMips), "MIPS").c_str());
    std::printf("  %-16s %.6g MB (peak of summed process-tree RSS)\n",
                "peak_rss_mb", (double)r.peakRssBytes / 1e6);
    std::printf("  %-16s %.6g (%llu of %llu cells failed)\n",
                "cell_error_rate",
                r.attempted == 0 ? 0.0
                                 : (double)r.failed / (double)r.attempted,
                (unsigned long long)r.failed,
                (unsigned long long)r.attempted);
    if (opt.workload == "service_fleet") {
        std::vector<double> sorted = r.requestMs;
        std::sort(sorted.begin(), sorted.end());
        std::printf("  %-16s %.6g ms (n=%zu)\n", "request_ms_p50",
                    median(r.requestMs), sorted.size());
        std::printf("  %-16s %.6g ms (n=%zu)\n", "request_ms_p90",
                    nearestRank(sorted, 900), sorted.size());
    } else {
        std::printf("  %-16s n/a ms (service_fleet only)\n",
                    "request_ms_p50");
        std::printf("  %-16s n/a ms (service_fleet only)\n",
                    "request_ms_p90");
    }
    if (r.fig9ErrPp >= 0)
        std::printf("  %-16s %.2f pp\n", "fig9_err_pp", r.fig9ErrPp);
    else
        std::printf("  %-16s n/a pp (fig9 only)\n", "fig9_err_pp");
    for (const std::string &note : r.notes)
        std::printf("  %s\n", note.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions opt;
    std::string tmp_root;
    bool have_workload = false, have_trace = false, setup_probe = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage(("missing value for " + arg).c_str());
        const char *val = argv[++i];
        uint64_t v = 0;
        if (arg == "--workload") {
            opt.workload = val;
            have_workload = true;
        } else if (arg == "--seed" && parseU64(val, &v)) {
            opt.seed = v;
        } else if (arg == "--seconds" && parseU64(val, &v) && v >= 1 &&
                   v <= 3600) {
            opt.seconds = (unsigned)v;
        } else if (arg == "--trace" && parseU64(val, &v) && v <= 1) {
            opt.trace = v == 1;
            have_trace = true;
        } else if (arg == "--setup-probe") {
            opt.workload = val;
            have_workload = have_trace = setup_probe = true;
        } else if (arg == "--tmp-root") {
            tmp_root = val;
        } else {
            return usage(("bad argument " + arg + " " + val).c_str());
        }
    }
    if (!have_workload || !have_trace)
        return usage("--workload and --trace are required");
    const bool grid = opt.workload == "fig9";
    if (!grid && opt.workload != "service_fleet")
        return usage(("unknown workload " + opt.workload).c_str());

    char exe[4096];
    const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (n <= 0)
        return usage("cannot resolve /proc/self/exe");
    exe[n] = '\0';
    opt.buildDir = std::filesystem::path(exe).parent_path().string();

    // A SIGINT/SIGTERM stops in-process sweeps gracefully, so the run
    // still unwinds: agents reaped, scratch directory removed.
    rarpred::driver::installStopHandlers();

    RunReport report;
    int rc = 0;
    {
        TempDir tmp(tmp_root.empty() ? opt.buildDir : tmp_root);
        if (tmp.path().empty()) {
            std::fprintf(stderr, "perfbench: mkdtemp failed\n");
            return 1;
        }
        opt.tmpDir = tmp.path();
        if (setup_probe) {
            const double s = grid ? gridSetupOnce(opt) : fleetSetupOnce(opt);
            std::printf("%.9g\n", s);
            return s < 0 ? 1 : 0;
        }
        for (int i = 0; i < kSetupProbes && !opt.trace; ++i) {
            const double s = setupInFreshProcess(exe, opt);
            if (s < 0) {
                report.fail("set-up probe process failed");
                break;
            }
            report.setupS.push_back(s);
        }
        try {
            if (report.correct)
                rc = grid ? runGridWorkload(opt, &report)
                          : runFleetWorkload(opt, &report);
        } catch (const std::exception &e) {
            report.fail(std::string("exception: ") + e.what());
            rc = 1;
        }
    }
    if (rarpred::driver::stopRequested()) {
        // A stop cuts sweeps short, so whatever failed first failed
        // because of it.
        report.fail("interrupted");
        report.whyIncorrect = "interrupted";
    }

    std::vector<Metric> metrics;
    if (report.correct && !opt.trace) {
        printHuman(opt, report);
        const double values[] = {
            median(report.setupS), median(report.wallS),
            median(report.simMips), (double)report.peakRssBytes / 1e6};
        for (size_t i = 0; i < std::size(kEndToEnd); ++i)
            metrics.push_back({kEndToEnd[i].name, values[i],
                               kEndToEnd[i].unit});
    } else if (report.correct) {
        std::map<std::string, double> by_name;
        for (const Metric &m : report.layers)
            by_name[m.name] = m.value;
        for (const MetricDef &d : kPerLayer) {
            auto it = by_name.find(d.name);
            if (it == by_name.end()) {
                report.fail(std::string("missing layer metric ") + d.name);
                break;
            }
            metrics.push_back({d.name, it->second, d.unit});
            std::printf("  %-36s %.6g %s\n", d.name, it->second, d.unit);
        }
        for (const std::string &note : report.notes)
            std::printf("  %s\n", note.c_str());
    }
    if (!report.correct) {
        std::fprintf(stderr, "perfbench: INCORRECT: %s\n",
                     report.whyIncorrect.c_str());
        metrics.clear();
        rc = rc == 0 ? 1 : rc;
        if (report.attempted == 0) { // failed before any cell ran
            report.attempted = 1;
            report.failed = 1;
        }
    }
    std::printf("%s\n", resultJson(report.correct, report.attempted,
                                   report.failed, metrics)
                            .c_str());
    std::fflush(stdout);
    return rc;
}
