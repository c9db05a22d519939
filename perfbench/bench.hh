/**
 * @file
 * Shared pieces of the simulator benchmark: the three workload grids,
 * the full-scale parity reference, and small timing helpers. The
 * untraced passes live in main.cc, the staged per-layer run in
 * trace.cc.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "exp/runner.hh"
#include "exp/sweep.hh"

namespace perfbench
{

/** One grid point: the sweep job plus its reference identity. */
struct BenchJob
{
    eve::exp::Job job;
    bool sampled = false;
    std::string key;        ///< reference key of this execution
    std::string exact_key;  ///< reference key of its exact twin
};

/** Grid names, in the order BENCHMARK.json lists them. */
const std::vector<std::string>& gridNames();

/** Jobs of grid @p name ("core", "engine", "sampled"); empty if unknown. */
std::vector<BenchJob> makeGrid(const std::string& name);

/** Reference entry: parity fingerprint and simulated core cycles. */
struct RefEntry
{
    std::uint64_t fingerprint = 0;
    double cycles = 0;
};

/** Full-scale reference results keyed by BenchJob::key. */
using Reference = std::map<std::string, RefEntry>;

/** Load a reference file; exits the process on I/O or parse errors. */
Reference loadReference(const std::string& path);

/**
 * Re-simulate every grid point (and the exact twin of every sampled
 * point) and write the reference to @p path. Returns false if any job
 * is not Ok.
 */
bool regenerateReference(const std::string& path);

/**
 * Correctness of one execution against the reference: Ok status, zero
 * functional mismatches, and the reference fingerprint. Returns ""
 * when correct, else a one-line reason.
 */
std::string checkJob(const BenchJob& bj, const eve::exp::JobResult& r,
                     const Reference& ref);

/** The seed's job order for pass @p pass (a permutation of 0..n-1). */
std::vector<std::size_t> passOrder(std::size_t n, std::uint64_t seed,
                                   unsigned pass);

/** Seconds since @p start on the steady clock. */
inline double
since(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Ordered (name, value, unit) metric list for the result line. */
struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

/** Outcome of a run, traced or not. */
struct RunSummary
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;
};

/**
 * The traced run: one pass over @p grid in the seed's order, re-running
 * each job in stages through public sinks and timing each layer from
 * outside. See trace.cc.
 */
RunSummary runTraced(const std::string& grid_name,
                     const std::vector<BenchJob>& grid,
                     const Reference& ref, std::uint64_t seed);

/** Peak resident set of this process, in MB. */
double peakRssMb();

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
