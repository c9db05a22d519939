#include "bench.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>

#include "exp/perf.hh"
#include "sim/sampling.hh"

namespace perfbench
{

using namespace eve;

namespace
{

SystemConfig
kind(SystemKind k, unsigned pf = 8)
{
    SystemConfig cfg;
    cfg.kind = k;
    cfg.eve_pf = pf;
    return cfg;
}

/**
 * The kernels of each grid. Every grid keeps a streaming kernel
 * (vvadd/jacobi-2d), a compute-bound one (k-means/mmult) and sw; the
 * rest were dropped so one pass fits well inside a run. `engine`
 * adds the RiVEC kernels for the gather (streamcluster), scatter
 * (particlefilter) and masked (blackscholes) request paths.
 */
const std::vector<std::string> kCoreKernels = {"vvadd", "k-means", "sw"};
const std::vector<std::string> kEngineKernels = {
    "vvadd", "mmult", "sw", "axpy", "blackscholes", "streamcluster",
    "particlefilter"};
const std::vector<std::string> kSampledKernels = {
    "vvadd", "mmult", "jacobi-2d", "backprop", "sw"};

const std::string kScale = "full";

std::vector<BenchJob>
expand(const std::vector<SystemConfig>& systems,
       const std::vector<std::string>& kernels, bool sampled)
{
    exp::SweepSpec spec;
    spec.systems(systems);
    spec.workloads(kernels, kScale);
    if (sampled)
        spec.sampling(defaultSampling());
    std::vector<BenchJob> out;
    for (exp::Job& job : spec.jobs()) {
        BenchJob bj;
        bj.exact_key = exp::parityKey(job.config, job.workload, kScale);
        bj.key = sampled ? bj.exact_key + "|sampled" : bj.exact_key;
        bj.sampled = sampled;
        bj.job = std::move(job);
        out.push_back(std::move(bj));
    }
    return out;
}

std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

const std::vector<std::string>&
gridNames()
{
    static const std::vector<std::string> names = {"core", "engine",
                                                   "sampled"};
    return names;
}

std::vector<BenchJob>
makeGrid(const std::string& name)
{
    if (name == "core")
        return expand({kind(SystemKind::IO), kind(SystemKind::O3),
                       kind(SystemKind::O3IV)},
                      kCoreKernels, false);
    if (name == "engine") {
        std::vector<SystemConfig> systems = {kind(SystemKind::O3DV)};
        for (unsigned pf : {1u, 2u, 4u, 8u, 16u, 32u})
            systems.push_back(kind(SystemKind::O3EVE, pf));
        return expand(systems, kEngineKernels, false);
    }
    if (name == "sampled")
        return expand({kind(SystemKind::O3), kind(SystemKind::O3EVE, 8)},
                      kSampledKernels, true);
    return {};
}

Reference
loadReference(const std::string& path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "perfbench: cannot open reference '%s'\n",
                     path.c_str());
        std::exit(2);
    }
    Reference ref;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string fp, key;
        RefEntry e;
        if (!(fields >> fp >> e.cycles >> key) || fp.size() != 16) {
            std::fprintf(stderr, "perfbench: bad reference line '%s'\n",
                         line.c_str());
            std::exit(2);
        }
        e.fingerprint = std::stoull(fp, nullptr, 16);
        ref[key] = e;
    }
    return ref;
}

bool
regenerateReference(const std::string& path)
{
    // Every exact and sampled grid point, plus the exact twin of each
    // sampled point (the sampling-error baseline).
    std::map<std::string, exp::Job> jobs;
    for (const std::string& grid : gridNames()) {
        for (BenchJob& bj : makeGrid(grid)) {
            if (bj.sampled) {
                exp::Job exact = bj.job;
                exact.sampling = SamplingConfig{};
                jobs.emplace(bj.exact_key, std::move(exact));
            }
            jobs.emplace(bj.key, std::move(bj.job));
        }
    }
    std::ostringstream os;
    os << "# perfbench full-scale reference: <fnv1a64 parity "
          "fingerprint> <simulated core cycles> <key>\n"
          "# regenerate with: python3 perfbench/run.py --regen\n";
    bool ok = true;
    for (const auto& [key, job] : jobs) {
        exp::JobResult r;
        exp::runJob(job, r);
        if (r.status != exp::JobStatus::Ok) {
            std::fprintf(stderr, "perfbench: %s: status %s %s\n",
                         key.c_str(), exp::jobStatusName(r.status),
                         r.error.c_str());
            ok = false;
            continue;
        }
        char cycles[64];
        std::snprintf(cycles, sizeof(cycles), "%.17g", r.result.cycles);
        os << hex16(exp::parityFingerprint(r)) << ' ' << cycles << ' '
           << key << '\n';
        std::fprintf(stderr, "perfbench: %s %.2fs\n", key.c_str(),
                     r.wall_seconds);
    }
    if (!ok)
        return false;
    std::ofstream out(path);
    out << os.str();
    return bool(out);
}

std::string
checkJob(const BenchJob& bj, const exp::JobResult& r,
         const Reference& ref)
{
    if (r.status != exp::JobStatus::Ok)
        return std::string("status ") + exp::jobStatusName(r.status) +
               (r.error.empty() ? "" : ": " + r.error);
    if (r.result.mismatches)
        return std::to_string(r.result.mismatches) +
               " functional mismatches";
    if (r.result.sampled != bj.sampled)
        return "sampled flag differs from the job's schedule";
    auto it = ref.find(bj.key);
    if (it == ref.end())
        return "no reference fingerprint";
    const std::uint64_t fp = exp::parityFingerprint(r);
    if (fp != it->second.fingerprint)
        return "fingerprint " + hex16(fp) + " != reference " +
               hex16(it->second.fingerprint);
    return "";
}

std::vector<std::size_t>
passOrder(std::size_t n, std::uint64_t seed, unsigned pass)
{
    std::vector<std::size_t> order(n);
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + pass);
    std::shuffle(order.begin(), order.end(), rng);
    return order;
}

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

} // namespace perfbench
