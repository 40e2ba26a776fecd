#include "bench_lib.hh"

#include <dirent.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <unordered_map>

namespace perfbench {

uint64_t
nowNs()
{
    using namespace std::chrono;
    return (uint64_t)duration_cast<nanoseconds>(
               steady_clock::now().time_since_epoch())
        .count();
}

double
nowSeconds()
{
    return (double)nowNs() * 1e-9;
}

// ------------------------------------------------------- percentiles

namespace {

/** 1-based nearest rank of @p permille among @p n samples. */
size_t
rankOf(size_t n, unsigned permille)
{
    // ceil(permille * n / 1000) in integers: 0.9 * 100 is not 90.0
    // in binary floating point.
    const size_t r = (permille * n + 999) / 1000;
    return r == 0 ? 1 : r;
}

} // namespace

unsigned
tailPermille(size_t n)
{
    for (const unsigned p : {999u, 990u, 900u})
        if (n >= 10 && n - rankOf(n, p) >= 10)
            return p;
    return 0;
}

double
nearestRank(const std::vector<double> &sorted, unsigned permille)
{
    if (sorted.empty())
        return 0;
    return sorted[std::min(sorted.size(), rankOf(sorted.size(), permille)) -
                  1];
}

double
median(std::vector<double> samples)
{
    if (samples.empty())
        return 0;
    std::sort(samples.begin(), samples.end());
    const size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : (samples[n / 2 - 1] + samples[n / 2]) / 2;
}

Summary
summarize(std::vector<double> samples)
{
    Summary s;
    s.n = samples.size();
    s.median = median(samples);
    s.tailPermille = tailPermille(s.n);
    if (s.tailPermille != 0) {
        std::sort(samples.begin(), samples.end());
        s.tail = nearestRank(samples, s.tailPermille);
    }
    return s;
}

std::string
formatSummary(const Summary &s, const char *unit)
{
    char buf[160];
    int len = std::snprintf(buf, sizeof buf, "median %.6g %s", s.median,
                            unit);
    if (s.tailPermille != 0) {
        const unsigned p = s.tailPermille;
        if (p % 10 == 0)
            len += std::snprintf(buf + len, sizeof buf - len,
                                 ", p%u %.6g %s", p / 10, s.tail, unit);
        else
            len += std::snprintf(buf + len, sizeof buf - len,
                                 ", p%u.%u %.6g %s", p / 10, p % 10,
                                 s.tail, unit);
    }
    std::snprintf(buf + len, sizeof buf - len, ", n=%zu", s.n);
    return buf;
}

double
pairedOverheadPct(const std::vector<double> &plain,
                  const std::vector<double> &traced)
{
    std::vector<double> pct;
    for (size_t i = 0; i < std::min(plain.size(), traced.size()); ++i)
        pct.push_back(100.0 * (traced[i] - plain[i]) / plain[i]);
    return median(pct);
}

double
spreadPct(const std::vector<double> &plain)
{
    const double mid = median(plain);
    if (mid == 0)
        return 0;
    const auto [lo, hi] = std::minmax_element(plain.begin(), plain.end());
    return 100.0 * (*hi - *lo) / mid;
}

// ------------------------------------------------------------ digest

void
Digest::addU64(uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xff;
        h_ *= 0x100000001b3ull;
    }
}

void
Digest::addStats(const rarpred::CpuStats &s)
{
    for (const uint64_t v :
         {s.instructions, s.cycles, s.loads, s.stores,
          s.branchMispredicts, s.memOrderViolations, s.valueSpecUsed,
          s.valueSpecCorrect, s.valueSpecWrong, s.squashes,
          s.specCyclesSaved})
        addU64(v);
}

void
Digest::addError(unsigned code)
{
    addU64(0xe7707e77ull);
    addU64(code);
}

std::string
hex64(uint64_t v)
{
    char buf[24];
    std::snprintf(buf, sizeof buf, "0x%016llx", (unsigned long long)v);
    return buf;
}

// --------------------------------------------------------------- RSS

namespace {

bool
readSmallFile(const char *path, char *buf, size_t cap)
{
    FILE *f = std::fopen(path, "re");
    if (f == nullptr)
        return false;
    const size_t n = std::fread(buf, 1, cap - 1, f);
    std::fclose(f);
    buf[n] = '\0';
    return n > 0;
}

/** ppid from /proc/<pid>/stat; the comm field may hold ')' or ' '. */
bool
readPpid(pid_t pid, pid_t *ppid)
{
    char path[64];
    char buf[512];
    std::snprintf(path, sizeof path, "/proc/%d/stat", (int)pid);
    if (!readSmallFile(path, buf, sizeof buf))
        return false;
    const char *close = std::strrchr(buf, ')');
    if (close == nullptr)
        return false;
    char state = 0;
    int parent = 0;
    if (std::sscanf(close + 1, " %c %d", &state, &parent) != 2)
        return false;
    *ppid = (pid_t)parent;
    return true;
}

/** VmHWM, the kernel's record of the process's peak resident set. */
uint64_t
peakRssBytes(pid_t pid)
{
    char path[64];
    char buf[4096];
    std::snprintf(path, sizeof path, "/proc/%d/status", (int)pid);
    if (!readSmallFile(path, buf, sizeof buf))
        return 0;
    const char *line = std::strstr(buf, "VmHWM:");
    unsigned long long kb = 0;
    if (line == nullptr || std::sscanf(line + 6, "%llu", &kb) != 1)
        return 0;
    return (uint64_t)kb * 1024;
}

} // namespace

uint64_t
treePeakRssBytes(pid_t root)
{
    std::unordered_map<pid_t, std::vector<pid_t>> children;
    if (DIR *d = ::opendir("/proc")) {
        while (const dirent *e = ::readdir(d)) {
            char *end = nullptr;
            const long pid = std::strtol(e->d_name, &end, 10);
            if (end == e->d_name || *end != '\0')
                continue;
            pid_t ppid = 0;
            if (readPpid((pid_t)pid, &ppid))
                children[ppid].push_back((pid_t)pid);
        }
        ::closedir(d);
    }
    uint64_t total = 0;
    std::vector<pid_t> todo{root};
    while (!todo.empty()) {
        const pid_t pid = todo.back();
        todo.pop_back();
        total += peakRssBytes(pid);
        auto it = children.find(pid);
        if (it != children.end())
            todo.insert(todo.end(), it->second.begin(), it->second.end());
    }
    return total;
}

RssSampler::RssSampler(unsigned interval_ms)
{
    // Restart this process's VmHWM, so the peak covers only what
    // runs from here on (clear_refs "5", Linux 4.0 and later).
    if (FILE *f = std::fopen("/proc/self/clear_refs", "we")) {
        std::fputs("5", f);
        std::fclose(f);
    }
    sampleOnce();
    thread_ = std::thread([this, interval_ms] { loop(interval_ms); });
}

RssSampler::~RssSampler() { stop(); }

uint64_t
RssSampler::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        stopping_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) {
        thread_.join();
        sampleOnce();
    }
    return peak_.load();
}

void
RssSampler::sampleOnce()
{
    const uint64_t now = treePeakRssBytes(::getpid());
    uint64_t prev = peak_.load();
    while (now > prev && !peak_.compare_exchange_weak(prev, now)) {
    }
}

void
RssSampler::loop(unsigned interval_ms)
{
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(interval_ms),
                         [this] { return stopping_; })) {
        lock.unlock();
        sampleOnce();
        lock.lock();
    }
}

// ------------------------------------------------------------- spans

void
SpanRecorder::add(Span span)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(span));
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

ScopedSpan::ScopedSpan(SpanRecorder *rec, const char *name,
                       uint64_t parent)
    : rec_(rec), name_(name), parent_(parent), start_(0)
{
    if (rec_ != nullptr) {
        id_ = rec_->newId();
        start_ = nowNs();
    }
}

ScopedSpan::~ScopedSpan()
{
    if (rec_ != nullptr)
        rec_->add(Span{id_, parent_, name_, start_, nowNs()});
}

std::vector<uint64_t>
selfTimesNs(const std::vector<Span> &spans)
{
    std::unordered_map<uint64_t, std::vector<size_t>> kids;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].parent != 0)
            kids[spans[i].parent].push_back(i);

    std::vector<uint64_t> self(spans.size(), 0);
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        const uint64_t dur = s.endNs > s.startNs ? s.endNs - s.startNs : 0;
        auto it = kids.find(s.id);
        if (it == kids.end()) {
            self[i] = dur;
            continue;
        }
        // Union of the children's intervals, clipped to the parent.
        std::vector<std::pair<uint64_t, uint64_t>> iv;
        for (const size_t k : it->second) {
            const uint64_t a = std::max(spans[k].startNs, s.startNs);
            const uint64_t b = std::min(spans[k].endNs, s.endNs);
            if (b > a)
                iv.emplace_back(a, b);
        }
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_a = 0, cur_b = 0;
        bool open = false;
        for (const auto &[a, b] : iv) {
            if (open && a <= cur_b) {
                cur_b = std::max(cur_b, b);
                continue;
            }
            if (open)
                covered += cur_b - cur_a;
            cur_a = a;
            cur_b = b;
            open = true;
        }
        if (open)
            covered += cur_b - cur_a;
        self[i] = dur - std::min(dur, covered);
    }
    return self;
}

std::vector<SpanTotal>
spanTotals(const std::vector<Span> &spans)
{
    const std::vector<uint64_t> self = selfTimesNs(spans);
    std::map<std::string, SpanTotal> by_name;
    for (size_t i = 0; i < spans.size(); ++i) {
        SpanTotal &t = by_name[spans[i].name];
        t.name = spans[i].name;
        ++t.count;
        t.totalNs += spans[i].endNs - spans[i].startNs;
        t.selfNs += self[i];
    }
    std::vector<SpanTotal> out;
    for (auto &[name, t] : by_name)
        out.push_back(t);
    return out;
}

bool
writeSpansJson(const std::string &path, const std::vector<Span> &spans)
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        return false;
    os << "{\"totals\": [";
    bool first = true;
    for (const SpanTotal &t : spanTotals(spans)) {
        os << (first ? "\n" : ",\n") << "  {\"name\": \"" << t.name
           << "\", \"count\": " << t.count
           << ", \"total_ns\": " << t.totalNs
           << ", \"self_ns\": " << t.selfNs << "}";
        first = false;
    }
    os << "\n], \"spans\": [";
    first = true;
    for (const Span &s : spans) {
        os << (first ? "\n" : ",\n") << "  {\"id\": " << s.id
           << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
           << "\", \"start_ns\": " << s.startNs
           << ", \"end_ns\": " << s.endNs << "}";
        first = false;
    }
    os << "\n]}\n";
    return (bool)os;
}

// ---------------------------------------------------- Figure 9 error

double
fig9ErrPp(const std::vector<Fig9Row> &rows)
{
    double sum[2][2] = {};
    int count[2] = {0, 0};
    for (const Fig9Row &r : rows) {
        const int fp = r.isFp ? 1 : 0;
        sum[0][fp] += r.selRaw;
        sum[1][fp] += r.selRawRar;
        ++count[fp];
    }
    // Paper means, [mechanism][int/fp].
    const double paper[2][2] = {{4.28, 3.20}, {6.44, 4.66}};
    double err = 0;
    for (int m = 0; m < 2; ++m)
        for (int fp = 0; fp < 2; ++fp) {
            const double mean =
                count[fp] == 0 ? 0.0 : sum[m][fp] / count[fp];
            err += std::fabs(mean - paper[m][fp]);
        }
    return err / 4;
}

// -------------------------------------------------------------- JSON

std::string
resultJson(bool correct, uint64_t attempted, uint64_t failed,
           const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics) {
        char num[64];
        std::snprintf(num, sizeof num, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        os << (first ? "" : ", ") << "\"" << m.name
           << "\": {\"value\": " << num << ", \"unit\": \"" << m.unit
           << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

} // namespace perfbench
