/**
 * @file
 * perfbench: the repository benchmark program.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --root DIR --expected FILE [--trace-out FILE]
 *             [--write-digests FILE]
 *
 * Prints the host fingerprint and human-readable lines, then, as the
 * last line, one JSON object {"correct", "attempted", "failed",
 * "metrics"}: the end-to-end metrics untraced, the per-layer metrics
 * traced. error_rate = failed / attempted.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/json.hh"
#include "common/logging.hh"
#include "crypto/dispatch.hh"
#include "perfbench.hh"

using namespace perfbench;
namespace json = shmgpu::json;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "paper_grid|long_cell|tenant_mix|secure_memory --seed N "
                 "--seconds S --trace 0|1 --root DIR --expected FILE "
                 "[--trace-out FILE] [--write-digests FILE]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &v)
{
    if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos)
        usage(("bad value for " + flag + ": '" + v + "'").c_str());
    return std::strtoull(v.c_str(), nullptr, 10);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string v = argv[++i];
        if (flag == "--workload")
            o.workload = v;
        else if (flag == "--seed")
            o.seed = parseUnsigned(flag, v);
        else if (flag == "--seconds")
            o.seconds = static_cast<double>(parseUnsigned(flag, v));
        else if (flag == "--trace")
            o.trace = parseUnsigned(flag, v) != 0;
        else if (flag == "--root")
            o.root = v;
        else if (flag == "--expected")
            o.expectedPath = v;
        else if (flag == "--trace-out")
            o.traceOut = v;
        else if (flag == "--write-digests")
            o.writeDigestsPath = v;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (o.workload != "paper_grid" && o.workload != "long_cell" &&
        o.workload != "tenant_mix" && o.workload != "secure_memory")
        usage(("unknown workload '" + o.workload + "'").c_str());
    if (o.expectedPath.empty())
        usage("--expected is required");
    o.jobs = std::max(1u, std::min(std::thread::hardware_concurrency(), 4u));
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

/** Timing an unoptimized or instrumented build measures the
 *  optimizer and the sanitizer, not the code. */
void
refuseUnoptimizedBuild()
{
    bool bad = PERFBENCH_SANITIZED != 0;
#if !defined(NDEBUG) || !defined(__OPTIMIZE__) ||                           \
    defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    bad = true;
#endif
    if (bad) {
        std::fprintf(stderr,
                     "perfbench: refusing to run a %s build (flags '%s'): "
                     "only optimized, uninstrumented builds are timed\n",
                     PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
        std::exit(2);
    }
}

std::map<std::string, std::string>
loadExpected(const std::string &path, const std::string &workload)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfbench: cannot read %s\n", path.c_str());
        std::exit(2);
    }
    std::stringstream ss;
    ss << in.rdbuf();
    json::Value doc;
    if (!json::Value::tryParse(ss.str(), &doc) || !doc.isObject()) {
        std::fprintf(stderr, "perfbench: %s is not a JSON object\n",
                     path.c_str());
        std::exit(2);
    }
    std::map<std::string, std::string> out;
    if (doc.contains(workload))
        for (const auto &[cell, h] : doc.at(workload).members())
            out[cell] = h.asString();
    return out;
}

void
writeDigests(const std::string &path, const std::string &workload,
             const std::map<std::string, std::string> &seen)
{
    json::Value doc = json::Value::object();
    std::ifstream in(path);
    if (in) {
        std::stringstream ss;
        ss << in.rdbuf();
        json::Value old;
        if (json::Value::tryParse(ss.str(), &old) && old.isObject())
            doc = old;
    }
    json::Value cells = json::Value::object();
    for (const auto &[cell, h] : seen)
        cells[cell] = h;
    doc[workload] = cells;
    std::ofstream os(path);
    doc.write(os);
    os << "\n";
}

void
writeTrace(const std::string &path, const Options &o,
           const std::vector<std::string> &fingerprint, const Spans &spans)
{
    json::Value doc = json::Value::object();
    json::Value fp = json::Value::array();
    for (const auto &l : fingerprint)
        fp.append(l);
    doc["fingerprint"] = fp;
    doc["workload"] = o.workload;
    json::Value list = json::Value::array();
    std::map<std::string, std::pair<double, double>> by_name;
    const auto all = spans.snapshot();
    std::vector<double> child(all.size(), 0);
    for (const auto &s : all)
        if (s.parent >= 0)
            child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    for (std::size_t i = 0; i < all.size(); ++i) {
        const auto &s = all[i];
        json::Value v = json::Value::object();
        v["name"] = s.name;
        v["start_s"] = s.start;
        v["end_s"] = s.end;
        v["parent"] = s.parent;
        v["op"] = s.op;
        list.append(v);
        by_name[s.name].first += s.end - s.start;
        by_name[s.name].second += s.end - s.start - child[i];
    }
    json::Value totals = json::Value::object();
    for (const auto &[name, t] : by_name) {
        json::Value v = json::Value::object();
        v["total_s"] = t.first;
        v["self_s"] = t.second;
        totals[name] = v;
    }
    doc["totals"] = totals;
    doc["spans"] = list;
    std::ofstream os(path);
    if (!os) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return;
    }
    doc.write(os);
    os << "\n";
}

} // namespace

int
main(int argc, char **argv)
{
    refuseUnoptimizedBuild();
    Options o = parseArgs(argc, argv);
    shmgpu::log_detail::setVerbose(false);

    const std::vector<std::string> fingerprint = {
        "cpu: " + cpuModel(),
        "nproc: " + std::to_string(std::thread::hardware_concurrency()),
        "workers: " + std::to_string(o.jobs),
        std::string("build: ") + PERFBENCH_BUILD_TYPE + " (" +
            PERFBENCH_CXX_FLAGS + ")",
        std::string("compiler: ") + __VERSION__,
        std::string("crypto backend: ") +
            shmgpu::crypto::backendName(shmgpu::crypto::activeBackend()),
        "seed: " + std::to_string(o.seed),
        "workload: " + o.workload + (o.trace ? " (traced)" : ""),
    };
    for (const auto &l : fingerprint)
        std::printf("%s\n", l.c_str());
    std::fflush(stdout);

    DigestBook digests(loadExpected(o.expectedPath, o.workload),
                       o.seed == 0 && o.writeDigestsPath.empty());
    Spans spans;
    Context ctx;
    ctx.options = o;
    ctx.digests = &digests;
    ctx.spans = o.trace ? &spans : nullptr;

    Outcome out;
    if (o.workload == "paper_grid")
        out = runPaperGrid(ctx);
    else if (o.workload == "long_cell")
        out = runLongCell(ctx);
    else if (o.workload == "tenant_mix")
        out = runTenantMix(ctx);
    else
        out = runSecureMemory(ctx);
    digests.finish(out);

    if (!o.writeDigestsPath.empty())
        writeDigests(o.writeDigestsPath, o.workload, digests.seen());
    if (o.trace && !o.traceOut.empty()) {
        writeTrace(o.traceOut, o, fingerprint, spans);
        std::printf("spans written to %s\n", o.traceOut.c_str());
    }

    for (const auto &n : out.notes)
        std::printf("%s\n", n.c_str());
    std::printf("error_rate %.6g fraction (%llu failed of %llu attempted)\n",
                out.attempted ? static_cast<double>(out.failed) /
                                    static_cast<double>(out.attempted)
                              : 1.0,
                static_cast<unsigned long long>(out.failed),
                static_cast<unsigned long long>(out.attempted));
    for (const auto &m : out.metrics)
        std::printf("%-36s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());

    std::string line = "{\"correct\": ";
    line += out.failed == 0 && out.attempted > 0 ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(out.attempted);
    line += ", \"failed\": " + std::to_string(out.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < out.metrics.size(); ++i) {
        // JSON has no NaN or infinity; a metric that is not finite
        // is a measurement failure, reported as such.
        double v = out.metrics[i].value;
        if (!std::isfinite(v)) {
            std::printf("FAIL metric %s is not finite\n",
                        out.metrics[i].name.c_str());
            v = 0;
        }
        char num[64];
        std::snprintf(num, sizeof(num), "%.17g", v);
        line += (i ? ", \"" : "\"") + out.metrics[i].name +
                "\": {\"value\": " + num + ", \"unit\": \"" +
                out.metrics[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    return 0;
}
