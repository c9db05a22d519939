/**
 * @file
 * perfbench — the simulator's end-to-end benchmark.
 *
 *   perfbench --workload core|engine|sampled --seed N --seconds S
 *             --trace 0|1 --reference PATH
 *   perfbench --regen PATH
 *
 * Untraced (--trace 0): serial passes over the workload's grid for
 * --seconds (one whole pass at least; the last pass stops at the
 * first job that would overrun). The first pass runs in the grid's
 * order, later ones in the seed's. Every job is set up (workload
 * init() + System construction) outside its timed body, then run
 * through exp::runJob. Each execution is checked against the
 * full-scale reference. Times are the process's CPU time, which
 * leaves out time the host gave to others: a shared VM's vCPUs are
 * stolen for seconds to minutes at a time, and the kernel accounts
 * steal outside task time. The thread is not pinned, so the scheduler
 * can move it off a CPU that another process of the same machine
 * wants. The metrics describe one pass in which every grid point
 * takes the median of its executions, which rejects short slow phases
 * that the CPU clock still sees, and are scaled by the host-speed
 * probe (probeHost) to what a quiet host would take.
 *
 * Traced (--trace 1): one staged pass (trace.cc) reporting the
 * per-layer metrics.
 *
 * Either way the last stdout line is one JSON object with the keys
 * correct, attempted, failed and metrics. The exit code is non-zero
 * when any execution is incorrect.
 */

#include <malloc.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hh"
#include "driver/system.hh"
#include "exp/cache.hh"

using namespace eve;
using namespace perfbench;

namespace
{

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::string reference;
    std::string regen;
};

[[noreturn]] void
usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload core|engine|sampled "
                 "--seed N --seconds S --trace 0|1 --reference PATH\n"
                 "       perfbench --regen PATH\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char** argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++i];
        char* end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value.c_str(), &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value.c_str(), &end);
        } else if (flag == "--trace") {
            a.trace = int(std::strtol(value.c_str(), &end, 10));
        } else if (flag == "--reference") {
            a.reference = value;
        } else if (flag == "--regen") {
            a.regen = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
        if (end && *end != '\0')
            usage(("malformed value for " + flag).c_str());
    }
    return a;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** One job execution's host ns per simulated cycle, and its weight. */
struct Sample
{
    double value = 0;
    double weight = 0;
};

/**
 * Harrell-Davis estimate of the p-th quantile (0 < p < 1) of weighted
 * samples drawn from @p n groups: a Beta(p(n+1), (1-p)(n+1))-weighted
 * average over all samples in value order, each sample covering its
 * share of the cumulative weight. With few groups (core has nine grid
 * points) the one or two samples nearest p swing with a single noisy
 * job; the weighted average over their neighbours does not.
 */
double
hdQuantile(std::vector<Sample> v, double p, double n)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end(), [](const Sample& a, const Sample& b) {
        return a.value < b.value;
    });
    // Beta CDF on a fine grid by the midpoint rule, normalized so that
    // the constant B(a, b) is not needed.
    const double a = p * (n + 1), b = (1 - p) * (n + 1);
    constexpr int kCells = 1 << 14;
    std::vector<double> cdf(kCells + 1, 0.0);
    for (int k = 0; k < kCells; ++k) {
        const double t = (k + 0.5) / kCells;
        cdf[k + 1] = cdf[k] + std::exp((a - 1) * std::log(t) +
                                       (b - 1) * std::log1p(-t));
    }
    const auto betaCdf = [&](double x) {
        const double pos = std::clamp(x, 0.0, 1.0) * kCells;
        const int k = std::min(int(pos), kCells - 1);
        return (cdf[k] + (pos - k) * (cdf[k + 1] - cdf[k])) / cdf[kCells];
    };
    double total = 0;
    for (const Sample& s : v)
        total += s.weight;
    double below = 0, est = 0;
    for (const Sample& s : v) {
        est += s.value * (betaCdf((below + s.weight) / total) -
                          betaCdf(below / total));
        below += s.weight;
    }
    return est;
}

/**
 * CPU seconds this process has run. Runs are single-threaded, so this
 * is the simulation's own host time, without the time the host stole.
 */
double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/**
 * The probe loop's CPU time on a quiet 4-core Xeon VM (2.0 GHz), the
 * host the benchmark was tuned on. It only sets the scale of the
 * reported times: on such a host they read as plain CPU time.
 */
constexpr double kProbeNominalSeconds = 3.3e-3;

/**
 * CPU seconds of the host-speed probe: a fixed run of dependent
 * hashes and data-dependent branches over a 64 KiB table, which
 * misses the L1 data cache and hits L2, in code the simulator does
 * not share. Neighbours on a shared host slow this machine's CPUs by
 * up to 1.5x for seconds to minutes without any steal time showing,
 * by contending for the physical core and its caches. The probe,
 * run before every job, slows with them: over 28 short engine runs
 * its median and the jobs' CPU time correlated at 0.88-0.96, which
 * no table size from 16 KiB to 4 MiB and no pure-ALU loop matched.
 * So the run's median probe time measures the host's speed during
 * the run, and the reported times are scaled to a quiet host.
 */
double
probeHost()
{
    static std::vector<std::uint32_t> table(std::size_t(1) << 14);
    const double start = cpuNow();
    std::uint64_t h = 0x9e3779b97f4a7c15ULL, acc = 0;
    const std::size_t mask = table.size() - 1;
    for (int i = 0; i < 400000; ++i) {
        h ^= h >> 29;
        h *= 0xbf58476d1ce4e5b9ULL;
        h ^= h >> 32;
        std::uint32_t& slot = table[(h ^ acc) & mask];
        const std::uint32_t v = slot;
        if ((v ^ h) & 3)
            slot = std::uint32_t(v + h);
        else
            acc += v >> 3;
        acc += v;
    }
    table[0] ^= std::uint32_t(acc);  // keeps the loop's result live
    return cpuNow() - start;
}

/** Every timed execution of one grid point. */
struct PointRuns
{
    std::vector<double> cpu;    ///< job-body host CPU seconds
    std::vector<double> setup;  ///< set-up host CPU seconds
    double last_wall = 0;       ///< wall seconds of the last execution
    double instrs = 0;          ///< simulated; identical every execution
    double cycles = 0;
};

RunSummary
runUntraced(const std::vector<BenchJob>& grid, const Reference& ref,
            const Args& args, bool sampled_grid)
{
    RunSummary sum;
    // Reserved up front so the run's own bookkeeping never lands in
    // the middle of the heap the jobs reuse.
    std::vector<PointRuns> points(grid.size());
    for (PointRuns& pr : points) {
        pr.cpu.reserve(64);
        pr.setup.reserve(64);
    }
    std::vector<double> probes;
    probes.reserve(4096);
    probeHost();  // allocates its table before the jobs' heap grows
    double sample_error_pct_max = 0;
    unsigned passes = 0;
    double cpu_total = 0;
    const auto start = std::chrono::steady_clock::now();

    // Pass 0 runs every point; later passes skip failed points and
    // stop at the first job whose last execution would overrun.
    for (bool more = true; more; ++passes) {
        std::size_t ran = 0;
        // Pass 0 runs in the grid's own order whatever the seed. The
        // first pass grows the heap, and the order of its allocations
        // sets the run's peak memory: 21-29 MB on engine across seeds.
        // Later passes reuse that heap and run in the seed's order.
        std::vector<std::size_t> order =
            passOrder(grid.size(), args.seed, passes);
        if (passes == 0)
            std::iota(order.begin(), order.end(), std::size_t{0});
        for (std::size_t i : order) {
            const BenchJob& bj = grid[i];
            PointRuns& pr = points[i];
            if (passes > 0 && pr.cpu.empty())
                continue;
            if (passes > 0 && since(start) + pr.last_wall > args.seconds) {
                more = false;
                break;
            }
            ++ran;
            const auto wall_start = std::chrono::steady_clock::now();
            probes.push_back(probeHost());

            // Set-up, outside the timed body.
            const double setup_start = cpuNow();
            std::unique_ptr<Workload> workload = bj.job.make();
            workload->init();
            auto system = std::make_unique<System>(bj.job.config);
            const double setup = cpuNow() - setup_start;

            SimOptions opts;
            opts.sampling = bj.job.sampling;
            opts.scale_tag = bj.job.scale;
            opts.salt = exp::kSimulatorSalt;
            exp::Job body = bj.job;
            body.exec = [&](const SystemConfig&) {
                return system->run(*workload, opts);
            };
            exp::JobResult r;
            const double job_start = cpuNow();
            exp::runJob(body, r);
            const double cpu = cpuNow() - job_start;
            pr.last_wall = since(wall_start);
            cpu_total += setup + cpu;

            ++sum.attempted;
            const std::string why = checkJob(bj, r, ref);
            if (!why.empty()) {
                ++sum.failed;
                std::printf("FAIL %s: %s\n", bj.key.c_str(), why.c_str());
                continue;
            }
            pr.cpu.push_back(cpu);
            pr.setup.push_back(setup);
            pr.instrs = double(r.result.instrs);
            pr.cycles = r.result.cycles;
            if (bj.sampled) {
                const double exact = ref.at(bj.exact_key).cycles;
                sample_error_pct_max = std::max(
                    sample_error_pct_max,
                    std::abs(r.result.cycles - exact) / exact * 100.0);
            }
        }
        more = more && ran > 0;
    }

    // One pass's totals from each point's median execution, scaled to
    // a quiet host. The percentiles run over every execution, each
    // grid point weighted equally, so points that ran once more in
    // the last, partial pass do not count for more.
    const double probe = median(probes);
    const double scale = kProbeNominalSeconds / probe;
    double cpu_body = 0, cpu_setup = 0;
    double instrs = 0, cycles = 0, measured = 0;
    std::vector<Sample> job_ns_per_cycle;
    for (const PointRuns& pr : points) {
        if (pr.cpu.empty())
            continue;
        cpu_body += median(pr.cpu);
        cpu_setup += median(pr.setup);
        instrs += pr.instrs;
        cycles += pr.cycles;
        measured += 1;
        for (double c : pr.cpu)
            job_ns_per_cycle.push_back({c * scale * 1e9 / pr.cycles,
                                        1.0 / double(pr.cpu.size())});
    }
    const double body = cpu_body * scale, setup = cpu_setup * scale;
    std::printf("passes %u, job executions %zu over %.0f grid points; "
                "Harrell-Davis p50/p90 over %zu executions, each point "
                "weighted equally\n",
                passes, sum.attempted, measured, job_ns_per_cycle.size());
    std::printf("cpu_share %.4g (CPU ÷ wall seconds of the run; the "
                "rest went to the host or other processes)\n",
                cpu_total / since(start));
    std::printf("host probe %.6g ms, median of %zu; times below are CPU "
                "times x %.6g (%.3g ms nominal ÷ probe)\n",
                probe * 1e3, probes.size(), scale,
                kProbeNominalSeconds * 1e3);
    std::printf("unscaled CPU time: job bodies %.6g s, set-up %.6g s per "
                "pass\n",
                cpu_body, cpu_setup);
    std::printf("failed_frac %.6g ratio\n",
                double(sum.failed) / double(sum.attempted));
    if (sampled_grid)
        std::printf("sample_error_pct_max %.6g %% (reported, not gated)\n",
                    sample_error_pct_max);
    sum.metrics = {
        {"jobs_per_s", body > 0 ? measured / body : 0, "1/s"},
        {"sim_mips", body > 0 ? instrs / (body * 1e6) : 0, "instr/us"},
        {"host_ns_per_sim_cycle", cycles > 0 ? body * 1e9 / cycles : 0,
         "ns/cycle"},
        {"job_ns_per_cycle_p50",
         hdQuantile(job_ns_per_cycle, 0.5, measured), "ns/cycle"},
        {"job_ns_per_cycle_p90",
         hdQuantile(job_ns_per_cycle, 0.9, measured), "ns/cycle"},
        {"setup_s", setup, "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
    };
    return sum;
}

std::string
jsonNum(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char** argv)
{
    const Args args = parseArgs(argc, argv);
    // Serve every allocation from one heap that is never trimmed, so
    // a job reuses pages earlier jobs faulted in. Fresh page faults
    // cost more when the host's memory is under pressure from
    // neighbours, and would make set-up time follow the host.
    mallopt(M_MMAP_THRESHOLD, 1 << 30);
    mallopt(M_TRIM_THRESHOLD, 1 << 30);

    if (!args.regen.empty())
        return regenerateReference(args.regen) ? 0 : 1;

    const std::vector<BenchJob> grid = makeGrid(args.workload);
    if (grid.empty())
        usage(("unknown workload '" + args.workload + "'").c_str());
    if (args.reference.empty())
        usage("--reference is required");
    if (args.trace != 0 && args.trace != 1)
        usage("--trace must be 0 or 1");
    const Reference ref = loadReference(args.reference);

    const RunSummary sum =
        args.trace ? runTraced(args.workload, grid, ref, args.seed)
                   : runUntraced(grid, ref, args, args.workload == "sampled");

    std::string metrics;
    for (const Metric& m : sum.metrics) {
        std::printf("%s %.6g %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
        if (!metrics.empty())
            metrics += ", ";
        metrics += "\"" + m.name + "\": {\"value\": " + jsonNum(m.value) +
                   ", \"unit\": \"" + m.unit + "\"}";
    }
    const bool correct = sum.failed == 0 && sum.attempted > 0;
    std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false", sum.attempted, sum.failed,
                metrics.c_str());
    return correct ? 0 : 1;
}
