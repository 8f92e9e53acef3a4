#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/resource.h>
#include <unistd.h>

#include "common/fingerprint.hh"
#include "perfbench.hh"
#include "workload/benchmarks.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

void
Outcome::fail(const std::string &why, std::uint64_t ops)
{
    failed += ops;
    notes.push_back("FAIL " + why);
}

int
Spans::open(const std::string &name, int parent, std::uint64_t op)
{
    const double t = secondsSince(epoch);
    std::lock_guard<std::mutex> lock(mutex);
    spans.push_back({name, t, t, parent, op});
    return static_cast<int>(spans.size() - 1);
}

void
Spans::close(int id)
{
    const double t = secondsSince(epoch);
    std::lock_guard<std::mutex> lock(mutex);
    spans.at(static_cast<std::size_t>(id)).end = t;
}

double
Spans::total(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex);
    double sum = 0;
    for (const auto &s : spans)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

std::vector<Spans::Span>
Spans::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex);
    return spans;
}

std::uint64_t
digestOf(const std::string &text)
{
    shmgpu::Fingerprint h;
    h.str(text);
    return h.value();
}

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

void
DigestBook::observe(const std::string &cell, std::uint64_t digest,
                    Outcome &out)
{
    const std::string h = hex64(digest);
    std::string why;
    {
        std::lock_guard<std::mutex> lock(mutex);
        ++out.attempted;
        auto [it, fresh] = first.emplace(cell, h);
        if (!fresh && it->second != h) {
            why = "output of " + cell + " changed between runs of one seed (" +
                  it->second + " then " + h + ")";
        } else if (checkCommitted) {
            auto want = committed.find(cell);
            if (want == committed.end())
                why = "no committed digest for " + cell;
            else if (want->second != h)
                why = "output of " + cell + " is " + h +
                      ", committed digest is " + want->second;
        }
        if (!why.empty())
            out.fail(why);
    }
}

void
DigestBook::finish(Outcome &out) const
{
    if (!checkCommitted)
        return;
    std::lock_guard<std::mutex> lock(mutex);
    for (const auto &[cell, h] : committed) {
        (void)h;
        if (!first.count(cell)) {
            ++out.attempted;
            out.fail("cell " + cell + " missing from the run");
        }
    }
}

namespace
{

std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9E3779B97F4A7C15ull;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

} // namespace

workload::WorkloadSpec
seededSpec(const std::string &name, std::uint64_t seed)
{
    workload::WorkloadSpec spec = workload::findWorkload(name);
    if (seed != 0)
        spec.seed = mix64(spec.seed ^ mix64(seed));
    return spec;
}

std::vector<workload::WorkloadSpec>
seededTableVii(std::uint64_t seed)
{
    std::vector<workload::WorkloadSpec> out;
    for (const auto &w : workload::allWorkloads())
        out.push_back(seededSpec(w.name, seed));
    return out;
}

gpu::GpuParams
benchGpu(Cycle kernel_cap)
{
    gpu::GpuParams p; // the Table V (turing) machine
    p.maxCyclesPerKernel = kernel_cap;
    return p;
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

namespace
{

double
currentRssMb()
{
    std::ifstream in("/proc/self/statm");
    double size_pages = 0, resident_pages = 0;
    in >> size_pages >> resident_pages;
    return resident_pages * static_cast<double>(sysconf(_SC_PAGESIZE)) /
           (1024.0 * 1024.0);
}

} // namespace

RssSampler::RssSampler(std::vector<double> &sink)
    : samples(sink), worker([this] {
          std::unique_lock<std::mutex> lock(mutex);
          do {
              samples.push_back(currentRssMb());
          } while (!wake.wait_for(lock, std::chrono::milliseconds(10),
                                  [this] { return stopping; }));
          samples.push_back(currentRssMb());
      })
{
}

RssSampler::~RssSampler()
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wake.notify_one();
    worker.join();
}

namespace
{

/** "p3" / "l2_p3_b1" / "dram_p3" -> "" / "l2" / "dram". */
std::string
foldComponent(const std::string &c)
{
    auto all_digits = [](const std::string &s, std::size_t from) {
        if (from >= s.size())
            return false;
        for (std::size_t i = from; i < s.size(); ++i)
            if (!std::isdigit(static_cast<unsigned char>(s[i])))
                return false;
        return true;
    };
    if (c.size() > 1 && c[0] == 'p' && all_digits(c, 1))
        return "";
    std::size_t cut = c.find("_p");
    if (cut != std::string::npos) {
        std::string rest = c.substr(cut + 2);
        std::size_t b = rest.find("_b");
        if (b != std::string::npos)
            rest = rest.substr(0, b) + rest.substr(b + 2);
        if (all_digits(rest, 0))
            return c.substr(0, cut);
    }
    return c;
}

} // namespace

std::map<std::string, double>
foldedStats(const stats::StatGroup &root)
{
    std::ostringstream os;
    root.dump(os);
    std::istringstream in(os.str());
    std::map<std::string, double> out;
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream ls(line);
        std::string path;
        double value = 0;
        if (!(ls >> path >> value))
            continue;
        std::string folded;
        std::size_t pos = 0;
        while (pos <= path.size()) {
            std::size_t dot = path.find('.', pos);
            if (dot == std::string::npos)
                dot = path.size();
            std::string c = foldComponent(path.substr(pos, dot - pos));
            if (!c.empty())
                folded += (folded.empty() ? "" : ".") + c;
            pos = dot + 1;
        }
        out[folded] += value;
    }
    return out;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail
tailOf(std::vector<double> samples)
{
    Tail t;
    if (samples.empty())
        return t;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    t.p50 = median(samples);
    char buf[96];
    if (n >= 20) {
        // Nearest rank: the 11th largest sample has exactly ten beyond,
        // and with 20 or more samples it lies at or above the median.
        t.tail = samples[n - 11];
        std::snprintf(buf, sizeof(buf), "p%.4g of %zu samples (10 beyond)",
                      100.0 * static_cast<double>(n - 10) /
                          static_cast<double>(n),
                      n);
    } else {
        t.tail = samples.back();
        std::snprintf(buf, sizeof(buf),
                      "max of %zu samples (too few for a tail percentile "
                      "with 10 beyond)",
                      n);
    }
    t.label = buf;
    return t;
}

bool
anotherRep(const std::vector<double> &rep_seconds, double budget)
{
    if (rep_seconds.empty())
        return true;
    double spent = 0;
    for (double s : rep_seconds)
        spent += s;
    const double mean = spent / static_cast<double>(rep_seconds.size());
    return spent + mean <= budget;
}

void
endToEndMetrics(const Measured &m, Outcome &out)
{
    double wall = 0;
    for (double s : m.repSeconds)
        wall += s;
    // The median pools every cell; the tail is taken per repetition and
    // the median of those reported, so its percentile does not change
    // with the number of repetitions that fit the budget.
    std::vector<double> all, tails;
    std::string tail_label;
    for (const auto &rep : m.repCells) {
        all.insert(all.end(), rep.begin(), rep.end());
        const Tail t = tailOf(rep);
        tails.push_back(t.tail);
        tail_label = t.label;
    }
    // A process's peak memory depends on which cells happen to overlap
    // in the pool (two SHM_upper_bound profile passes at once add about
    // 20 MB), so the bounded figure is the level resident memory holds
    // for at least a tenth of the timed region.
    std::vector<double> rss = m.rssSamples;
    std::sort(rss.begin(), rss.end());
    const double rss_p90 =
        rss.empty() ? 0
                    : rss[static_cast<std::size_t>(0.9 * (rss.size() - 1))];

    out.add("setup_s", median(m.setupSeconds), "s");
    out.add("wall_s", median(m.repSeconds), "s");
    out.add("cells_per_s",
            wall > 0 ? static_cast<double>(all.size()) / wall : 0, "cells/s");
    out.add("sim_minstr_per_s", wall > 0 ? m.instructions / wall / 1e6 : 0,
            "Minstr/s");
    out.add("cell_p50_s", median(all), "s");
    out.add("cell_tail_s", median(tails), "s");
    out.add("rss_p90_mb", rss_p90, "MB");
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "timed: %zu repetition(s), %zu cells on %u worker(s); "
                  "cell_tail_s is the median over repetitions of each "
                  "one's %s",
                  m.repSeconds.size(), all.size(), m.workers,
                  tail_label.c_str());
    out.note(buf);
    std::snprintf(buf, sizeof(buf),
                  "peak_rss_mb %.4f MB (process high-water mark; rss_p90_mb "
                  "is over %zu samples)",
                  peakRssMb(), m.rssSamples.size());
    out.note(buf);
}

} // namespace perfbench
