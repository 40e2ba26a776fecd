/**
 * @file
 * The service_fleet workload: a closed loop of kClients client
 * threads, each sending its own seeded script of small sweep
 * requests, one at a time, to an in-process SweepDaemon over a Unix
 * socket. The daemon leases every simulated cell to a fleet of
 * kAgents loopback rarpred-agent processes (kAgentWorkers worker
 * processes each). A cold request is bench_service_cache's request:
 * one paper program x {base core, selective RAW+RAR} at about
 * kCellInsts instructions; the seed picks the program, and a length
 * unique to the request makes both cells new to the store, so they
 * are leased, simulated and written. A warm request repeats one of
 * its client's earlier cold requests, so all of its cells are store
 * reads. Every round starts agents, the daemon and the store afresh.
 */

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <thread>

#include "driver/fleet_dispatcher.hh"
#include "driver/sweep.hh"
#include "perfbench.hh"
#include "service/client.hh"
#include "service/daemon.hh"

namespace perfbench {

namespace {

using rarpred::CpuStats;
using rarpred::service::CellConfigMsg;
using rarpred::service::SweepRequestMsg;

/** Reply digest of the default seed's script. */
constexpr uint64_t kFleetDigest = 0x794d7aedf80322ffull;

constexpr unsigned kClients = 2;
constexpr unsigned kAgents = 2;
constexpr unsigned kAgentWorkers = 2;
constexpr unsigned kDaemonWorkers = 4;
/** Assumed, not derived: enough requests for a request_ms_p90 with
 *  more than ten samples beyond it, and a round of a few seconds. */
constexpr size_t kRequestsPerClient = 150;
/** Warm requests set the p50 and cold ones the p90 only while the
 *  warm share lies between 50% and 90%; this is the middle. */
constexpr unsigned kWarmPercent = 70;
/** bench_service_cache's cell length. */
constexpr uint64_t kCellInsts = 200000;

struct Request
{
    SweepRequestMsg msg;
    bool warm = false;
    size_t source = 0; ///< the client's cold request this one repeats
};

using Script = std::vector<std::vector<Request>>; // [client][request]

/** A cold request's configs: the base core and selective RAW+RAR. */
std::vector<CellConfigMsg>
cellConfigs()
{
    const std::vector<CellConfigMsg> fig9 = fig9Configs();
    return {fig9[0], fig9[2]};
}

Script
makeScript(uint64_t seed)
{
    const std::vector<rarpred::Workload> &programs = rarpred::allWorkloads();
    Script script(kClients);
    for (unsigned c = 0; c < kClients; ++c) {
        // Exactly kWarmPercent of the requests are warm, at seeded
        // positions after the first, so every seed does the same work.
        std::vector<size_t> order;
        for (size_t k = 1; k < kRequestsPerClient; ++k)
            order.push_back(k);
        for (size_t i = order.size(); i > 1; --i)
            std::swap(order[i - 1],
                      order[splitmix64(seed ^ (c * 7919 + i)) % i]);
        std::vector<bool> warm(kRequestsPerClient, false);
        for (size_t i = 0; i < kRequestsPerClient * kWarmPercent / 100; ++i)
            warm[order[i]] = true;

        std::vector<size_t> cold;
        for (size_t k = 0; k < kRequestsPerClient; ++k) {
            const uint64_t r =
                splitmix64(seed ^ splitmix64(((uint64_t)c << 32) | k));
            if (warm[k]) {
                Request q = script[c][cold[(r >> 8) % cold.size()]];
                q.warm = true;
                script[c].push_back(q);
                continue;
            }
            Request q;
            q.source = k;
            q.msg.tenant = "client" + std::to_string(c);
            q.msg.maxInsts = kCellInsts + c * kRequestsPerClient + k;
            q.msg.workloads = {programs[(r >> 16) % programs.size()].abbrev};
            q.msg.configs = cellConfigs();
            cold.push_back(k);
            script[c].push_back(q);
        }
    }
    return script;
}

// ------------------------------------------------------------ agents

/** Loopback rarpred-agent processes; stopped and reaped on scope exit. */
class AgentSet
{
  public:
    AgentSet() = default;
    ~AgentSet() { stopAll(); }
    AgentSet(const AgentSet &) = delete;
    AgentSet &operator=(const AgentSet &) = delete;

    bool spawn(const std::string &binary, std::string *err);
    /** SIGTERM, a grace period, then SIGKILL; always waits. */
    void stopAll();
    std::string endpoints() const;

  private:
    struct Agent
    {
        pid_t pid = -1;
        int out = -1; ///< the agent's stdout, kept open until it exits
        uint16_t port = 0;
    };
    std::vector<Agent> agents_;
};

bool
AgentSet::spawn(const std::string &binary, std::string *err)
{
    int fds[2];
    if (::pipe2(fds, O_CLOEXEC) != 0) {
        *err = std::string("pipe: ") + std::strerror(errno);
        return false;
    }
    const std::string workers = "--workers=" + std::to_string(kAgentWorkers);
    const char *argv[] = {binary.c_str(), "--port=0", workers.c_str(),
                          nullptr};
    const pid_t parent = ::getpid();
    const pid_t pid = ::fork();
    if (pid < 0) {
        *err = std::string("fork: ") + std::strerror(errno);
        ::close(fds[0]);
        ::close(fds[1]);
        return false;
    }
    if (pid == 0) {
        // Only async-signal-safe calls between fork and exec. The
        // agent dies with the benchmark even if the benchmark is
        // killed outright.
        ::prctl(PR_SET_PDEATHSIG, SIGTERM);
        if (::getppid() != parent)
            ::_exit(126);
        ::dup2(fds[1], STDOUT_FILENO);
        ::execv(argv[0], const_cast<char *const *>(argv));
        ::_exit(127);
    }
    ::close(fds[1]);
    agents_.push_back(Agent{pid, fds[0], 0});
    Agent &a = agents_.back();

    // The agent prints "agent.port N" once it listens.
    std::string line;
    const double deadline = nowSeconds() + 10;
    while (line.find('\n') == std::string::npos) {
        const double left = deadline - nowSeconds();
        struct pollfd p = {a.out, POLLIN, 0};
        if (left <= 0 || ::poll(&p, 1, (int)(left * 1000) + 1) <= 0) {
            *err = "agent did not report its port";
            return false;
        }
        char buf[128];
        const ssize_t n = ::read(a.out, buf, sizeof buf);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            *err = "agent exited before reporting its port";
            return false;
        }
        line.append(buf, (size_t)n);
    }
    unsigned port = 0;
    if (std::sscanf(line.c_str(), "agent.port %u", &port) != 1 ||
        port == 0 || port > 65535) {
        *err = "unexpected agent output: " + line;
        return false;
    }
    a.port = (uint16_t)port;
    return true;
}

void
AgentSet::stopAll()
{
    for (Agent &a : agents_)
        if (a.pid > 0)
            ::kill(a.pid, SIGTERM);
    const double deadline = nowSeconds() + 5;
    for (Agent &a : agents_) {
        while (a.pid > 0) {
            const pid_t r = ::waitpid(a.pid, nullptr, WNOHANG);
            if (r == a.pid || (r < 0 && errno != EINTR)) {
                a.pid = -1;
            } else if (nowSeconds() > deadline) {
                ::kill(a.pid, SIGKILL);
                while (::waitpid(a.pid, nullptr, 0) < 0 && errno == EINTR) {
                }
                a.pid = -1;
            } else {
                ::usleep(2000);
            }
        }
        if (a.out >= 0) {
            ::close(a.out);
            a.out = -1;
        }
    }
    agents_.clear();
}

std::string
AgentSet::endpoints() const
{
    std::string out;
    for (const Agent &a : agents_)
        out += (out.empty() ? "" : ",") + std::string("127.0.0.1:") +
               std::to_string(a.port);
    return out;
}

// ------------------------------------------------------------ rounds

/** Agents plus daemon: one round's service. */
struct Service
{
    AgentSet agents;
    std::unique_ptr<rarpred::service::SweepDaemon> daemon;
    double setupS = 0;

    Service() = default;
    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;
    ~Service()
    {
        // Daemon first: it owns the fleet connections to the agents.
        if (daemon)
            daemon->stop();
        daemon.reset();
        agents.stopAll();
    }
};

bool
startService(const RunOptions &opt, unsigned round, Service *svc,
             RunReport *report)
{
    const double t0 = nowSeconds();
    std::string err;
    for (unsigned i = 0; i < kAgents; ++i)
        if (!svc->agents.spawn(opt.buildDir + "/driver/rarpred-agent",
                               &err)) {
            report->fail("agent: " + err);
            return false;
        }
    rarpred::service::DaemonConfig dc;
    dc.socketPath = opt.tmpDir + "/d" + std::to_string(round) + ".sock";
    dc.storeDir = opt.tmpDir + "/store" + std::to_string(round);
    dc.workers = kDaemonWorkers;
    dc.fleet = svc->agents.endpoints();
    svc->daemon = std::make_unique<rarpred::service::SweepDaemon>(dc);
    const rarpred::Status served = svc->daemon->serve();
    if (!served.ok()) {
        report->fail("daemon: " + served.toString());
        return false;
    }
    auto st = rarpred::service::ServiceClient(dc.socketPath, 5000).status();
    if (!st.ok() || !st->ready) {
        report->fail("daemon not ready");
        return false;
    }
    svc->setupS = nowSeconds() - t0;
    return true;
}

/** What the clients saw in one round. */
struct ScriptResult
{
    uint64_t digest = 0;
    uint64_t cells = 0;
    uint64_t failed = 0;
    uint64_t simInsts = 0; ///< simulated cells only, store hits excluded
    double warmTotalMs = 0;
    double coldTotalMs = 0;
    std::vector<double> warmMs;
    std::vector<double> coldCellMs; ///< cold request time per cell
    std::vector<double> requestMs;
};

ScriptResult
runScript(const std::string &socket, const Script &script,
          SpanRecorder *spans)
{
    std::vector<Digest> digests(script.size());
    std::vector<ScriptResult> per(script.size());
    ScopedSpan root(spans, "script");
    std::vector<std::thread> threads;
    for (size_t c = 0; c < script.size(); ++c)
        threads.emplace_back([&, c] {
            Digest &digest = digests[c];
            ScriptResult &r = per[c];
            rarpred::service::ServiceClient client(socket, 120000);
            for (const Request &q : script[c]) {
                const size_t n = q.msg.numCells();
                r.cells += n;
                ScopedSpan s(spans, q.warm ? "request.warm" : "request.cold",
                             root.id());
                const double t0 = nowSeconds();
                const auto reply = client.sweep(q.msg);
                const double ms = (nowSeconds() - t0) * 1000;
                r.requestMs.push_back(ms);
                if (!reply.ok() || reply->rows.size() != n) {
                    // A shed or broken request fails all of its cells.
                    r.failed += n;
                    for (size_t i = 0; i < n; ++i)
                        digest.addError(reply.ok()
                                            ? 0xff
                                            : (unsigned)reply.status().code());
                    continue;
                }
                for (size_t i = 0; i < n; ++i) {
                    const auto &row = reply->rows[i];
                    if (row.cell != i || row.errorCode != 0) {
                        ++r.failed;
                        digest.addError(row.errorCode);
                        continue;
                    }
                    digest.addStats(row.stats);
                    if (!row.fromStore)
                        r.simInsts += row.stats.instructions;
                }
                if (q.warm) {
                    r.warmMs.push_back(ms);
                    r.warmTotalMs += ms;
                } else {
                    r.coldCellMs.push_back(ms / (double)n);
                    r.coldTotalMs += ms;
                }
            }
        });
    for (std::thread &t : threads)
        t.join();

    ScriptResult out;
    Digest all;
    auto append = [](std::vector<double> *to, const std::vector<double> &v) {
        to->insert(to->end(), v.begin(), v.end());
    };
    for (size_t c = 0; c < per.size(); ++c) {
        const ScriptResult &r = per[c];
        all.addU64(digests[c].value());
        out.cells += r.cells;
        out.failed += r.failed;
        out.simInsts += r.simInsts;
        out.warmTotalMs += r.warmTotalMs;
        out.coldTotalMs += r.coldTotalMs;
        append(&out.warmMs, r.warmMs);
        append(&out.coldCellMs, r.coldCellMs);
        append(&out.requestMs, r.requestMs);
    }
    out.digest = all.value();
    return out;
}

/** Cells of the script's warm and of its cold requests. */
void
countCells(const Script &script, uint64_t *warm, uint64_t *cold)
{
    *warm = *cold = 0;
    for (const std::vector<Request> &reqs : script)
        for (const Request &q : reqs)
            (q.warm ? *warm : *cold) += q.msg.numCells();
}

/**
 * The fleet half of the correctness gate. A fleet-level Unavailable
 * makes the daemon's runner compute the cell in process, with the
 * same bytes, so the digest alone cannot tell whether the fleet did
 * the work. Every cold cell must have been simulated once and leased
 * to a healthy fleet that accepted its result, and every warm cell
 * must have been a store hit. (The runner's fleet.fallbackLocal
 * counter is internal to the daemon's per-request runners.)
 */
bool
checkFleet(rarpred::service::SweepDaemon &daemon, const Script &script,
           const char *what, RunReport *report)
{
    uint64_t warm = 0, cold = 0;
    countCells(script, &warm, &cold);
    const auto counters = daemon.counters();
    const rarpred::driver::FleetStats fleet = daemon.fleet()->stats();
    std::string why;
    if (fleet.degraded || fleet.agentsDemoted != 0)
        why = "fleet degraded or an agent demoted";
    else if (fleet.determinismViolations != 0)
        why = "fleet determinism violations";
    else if (fleet.leasesGranted < cold || fleet.resultsAccepted < cold)
        why = std::to_string(fleet.resultsAccepted) + " fleet results for " +
              std::to_string(cold) + " cold cells";
    else if (counters.cellsSimulated != cold || counters.storeHit != warm)
        why = std::to_string(counters.cellsSimulated) + " cells simulated, " +
              std::to_string(counters.storeHit) + " store hits for " +
              std::to_string(cold) + " cold and " + std::to_string(warm) +
              " warm cells";
    if (why.empty())
        return true;
    report->fail(std::string(what) + ": " + why);
    return false;
}

/** One round on a fresh service: its client-side result, checked
 *  against @p ref and the fleet gate. */
bool
fleetRound(const RunOptions &opt, unsigned round, const Script &script,
           uint64_t ref, SpanRecorder *spans, const char *what,
           ScriptResult *r, double *wall, RunReport *report,
           rarpred::driver::FleetStats *fleet = nullptr,
           rarpred::service::ServiceCounterSnapshot *counters = nullptr)
{
    Service svc;
    if (!startService(opt, round, &svc, report))
        return false;
    const double t0 = nowSeconds();
    *r = runScript(svc.daemon->config().socketPath, script, spans);
    *wall = nowSeconds() - t0;
    report->attempted += r->cells;
    report->failed += r->failed;
    if (fleet != nullptr)
        *fleet = svc.daemon->fleet()->stats();
    if (counters != nullptr)
        *counters = svc.daemon->counters();
    return checkRound(r->digest, r->failed, ref, what, report) &&
           checkFleet(*svc.daemon, script, what, report);
}

/**
 * The reference: every cold request's grid computed in-process and
 * serially, digested in the clients' reply order. With @p records
 * set, cells run through the timed cell body instead of runCellSweep.
 */
bool
reference(const Script &script, uint64_t *digest,
          std::vector<CellRecord> *records, RunReport *report)
{
    Digest all;
    for (const std::vector<Request> &reqs : script) {
        std::vector<std::vector<CpuStats>> results(reqs.size());
        Digest d;
        for (size_t k = 0; k < reqs.size(); ++k) {
            const Request &q = reqs[k];
            if (q.warm) {
                results[k] = results[q.source];
            } else {
                rarpred::driver::RunnerConfig rc;
                rc.workers = 1;
                rc.maxInsts = q.msg.maxInsts;
                rarpred::driver::SimJobRunner runner(rc);
                std::vector<const rarpred::Workload *> ws;
                for (const std::string &name : q.msg.workloads) {
                    auto w = rarpred::lookupWorkload(name);
                    if (!w.ok()) {
                        report->fail("reference: " + w.status().toString());
                        return false;
                    }
                    ws.push_back(*w);
                }
                const size_t nc = q.msg.configs.size();
                std::vector<rarpred::Result<CpuStats>> cells;
                if (records == nullptr) {
                    cells = rarpred::driver::runCellSweep(runner, ws,
                                                          q.msg.configs)
                                .cells;
                } else {
                    const size_t base = records->size();
                    records->resize(base + ws.size() * nc);
                    cells = rarpred::driver::runSweep(
                                runner, ws, nc,
                                [&](const rarpred::Workload &w, size_t ci,
                                    rarpred::TraceSource &src, rarpred::Rng &) {
                                    const size_t wi = (size_t)(
                                        std::find(ws.begin(), ws.end(), &w) -
                                        ws.begin());
                                    CellRecord &rec =
                                        (*records)[base + wi * nc + ci];
                                    rec.workload = base + wi;
                                    return timedCell(q.msg.configs[ci], src,
                                                     &rec, nullptr, 0);
                                })
                                .cells;
                }
                for (const auto &c : cells) {
                    if (!c.ok()) {
                        report->fail("reference cell failed: " +
                                     c.status().toString());
                        return false;
                    }
                    results[k].push_back(*c);
                }
            }
            for (const CpuStats &s : results[k])
                d.addStats(s);
        }
        all.addU64(d.value());
    }
    *digest = all.value();
    return true;
}

/** Untraced/traced round pairs of the traced run. */
constexpr unsigned kOverheadPairs = 3;

/**
 * The traced run: kOverheadPairs pairs of one untraced and one traced
 * round (alternating which goes first), then the layer probes on the
 * script's inputs. Fleet and service counts come from the last
 * traced round.
 */
int
tracedRun(const RunOptions &opt, const Script &script, uint64_t ref,
          const std::vector<CellRecord> &records, RunReport *report)
{
    SpanRecorder spans;
    std::vector<double> plain_wall, traced_wall;
    ScriptResult traced;
    rarpred::driver::FleetStats fleet;
    rarpred::service::ServiceCounterSnapshot counters;
    unsigned round = 0;
    for (unsigned pair = 0; pair < kOverheadPairs; ++pair)
        for (unsigned half = 0; half < 2; ++half) {
            double wall = 0;
            ScriptResult r;
            if ((half == 0) == (pair % 2 == 0)) {
                if (!fleetRound(opt, round++, script, ref, nullptr,
                                "untraced round", &r, &wall, report))
                    return 1;
                plain_wall.push_back(wall);
            } else {
                if (!fleetRound(opt, round++, script, ref, &spans,
                                "traced round", &traced, &wall, report,
                                &fleet, &counters))
                    return 1;
                traced_wall.push_back(wall);
            }
        }

    std::vector<Metric> &m = report->layers;
    m = cellLayerMetrics(records);
    std::vector<const rarpred::Workload *> ws;
    for (const auto &reqs : script)
        for (const Request &q : reqs)
            for (const std::string &name : q.msg.workloads) {
                const rarpred::Workload *w = *rarpred::lookupWorkload(name);
                if (!q.warm && std::find(ws.begin(), ws.end(), w) == ws.end())
                    ws.push_back(w);
            }
    std::vector<CpuStats> sample;
    for (size_t i = 0; i < records.size() && sample.size() < 64; ++i)
        sample.push_back(records[i].stats);
    const std::vector<CellConfigMsg> configs = cellConfigs();
    for (Metric &x :
         probeWorkloadVmCore(ws, kCellInsts,
                             configs[1].toTimingConfig().engine, &spans))
        m.push_back(x);
    for (Metric &x : probeConstruct(configs))
        m.push_back(x);
    for (Metric &x : probeStore(opt.tmpDir, sample))
        m.push_back(x);
    // The daemon's per-request runners are internal to it.
    for (const char *name :
         {"driver.slot_busy_share", "driver.job_inflation", "driver.tail_s",
          "driver.queue_ms_mean", "driver.trace_generations",
          "driver.trace_cache_hits", "driver.trace_resident_mb"})
        m.push_back({name, 0});
    m.push_back({"driver.fleet.leases_granted", (double)fleet.leasesGranted});
    m.push_back({"driver.fleet.leases_reassigned",
                 (double)fleet.leasesReassigned});
    m.push_back({"driver.fleet.reconnects", (double)fleet.reconnects});
    m.push_back({"service.warm_request_ms_p50", median(traced.warmMs)});
    m.push_back({"service.cold_cell_ms_p50", median(traced.coldCellMs)});
    const double lookups = (double)(counters.storeHit + counters.storeMiss);
    m.push_back({"service.store_hit_share",
                 lookups == 0 ? 0 : (double)counters.storeHit / lookups});
    m.push_back({"trace_overhead_pct",
                 pairedOverheadPct(plain_wall, traced_wall)});
    report->notes.push_back(overheadNote(plain_wall, traced_wall));
    const std::string path =
        opt.buildDir + "/perfbench-spans-" + opt.workload + ".json";
    if (writeSpansJson(path, spans.spans()))
        std::fprintf(stderr, "perfbench: spans written to %s\n", path.c_str());
    return 0;
}

/** Lines that show where a round's time goes, for the assumed mix. */
void
addMixNotes(double ref_seconds, uint64_t cold_cells,
            const std::vector<double> &warm_share,
            const std::vector<double> &cold_cell_ms, RunReport *report)
{
    char buf[240];
    std::snprintf(buf, sizeof buf,
                  "mix: %u%% warm requests, %.3g %% of client time in warm "
                  "and %.3g %% in cold requests (median over rounds)",
                  kWarmPercent, 100 * median(warm_share),
                  100 * (1 - median(warm_share)));
    report->notes.push_back(buf);
    std::snprintf(buf, sizeof buf,
                  "cold cell: %.4g ms over the fleet (median over rounds of "
                  "cold request time per cell) vs %.4g ms in-process serial",
                  median(cold_cell_ms),
                  cold_cells == 0 ? 0.0 : 1000 * ref_seconds / cold_cells);
    report->notes.push_back(buf);
}

} // namespace

double
fleetSetupOnce(const RunOptions &opt)
{
    RunReport report;
    Service svc;
    return startService(opt, 0, &svc, &report) ? svc.setupS : -1;
}

int
runFleetWorkload(const RunOptions &opt, RunReport *report)
{
    const Script script = makeScript(opt.seed);

    uint64_t ref = 0;
    std::vector<CellRecord> records;
    const double ref_t0 = nowSeconds();
    if (!reference(script, &ref, opt.trace ? &records : nullptr, report))
        return 1;
    const double ref_seconds = nowSeconds() - ref_t0;
    if (opt.seed == kDefaultSeed && ref != kFleetDigest) {
        report->fail("reference " + hex64(ref) + " != recorded " +
                     hex64(kFleetDigest));
        return 1;
    }
    std::fprintf(stderr, "perfbench: service_fleet reference digest %s\n",
                 hex64(ref).c_str());
    if (opt.trace)
        return tracedRun(opt, script, ref, records, report);

    RssSampler rss;
    std::vector<double> warm_share, cold_cell_ms;
    unsigned round = 0;
    const double begin = nowSeconds();
    do {
        ScriptResult r;
        double wall = 0;
        if (!fleetRound(opt, round++, script, ref, nullptr, "timed round",
                        &r, &wall, report))
            break;
        report->wallS.push_back(wall);
        std::fprintf(stderr, "perfbench: round %zu wall %.4f s\n",
                     report->wallS.size(), wall);
        report->simMips.push_back((double)r.simInsts / wall / 1e6);
        report->requestMs.insert(report->requestMs.end(),
                                 r.requestMs.begin(), r.requestMs.end());
        warm_share.push_back(r.warmTotalMs / (r.warmTotalMs + r.coldTotalMs));
        cold_cell_ms.push_back(median(r.coldCellMs));
    } while (report->correct && nowSeconds() - begin < opt.seconds);
    report->peakRssBytes = rss.stop();
    uint64_t warm = 0, cold = 0;
    countCells(script, &warm, &cold);
    addMixNotes(ref_seconds, cold, warm_share, cold_cell_ms, report);
    return report->correct ? 0 : 1;
}

} // namespace perfbench
