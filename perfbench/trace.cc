/**
 * @file
 * The traced run: per-layer host time, measured from outside the
 * simulator. Each job of one pass is re-run in stages through public
 * sinks, so a layer's time is the difference between two stages:
 *
 *   S1  emit -> counter                       (workloads)
 *   S2  emit -> counter + Characterizer       (isa tee)
 *   S3  emit -> counter + VecMachine, verify  (isa functional)
 *   S4  emit -> counter + System::timing(), finish()
 *       on a CMP-form System whose LLC port is a timing gate, so
 *       LLC + DRAM self time is split from the core/engine time
 *
 * plus the job's real run through exp::runJob (with System
 * construction and System::run timed inside it), an L1D replay of
 * scalar core streams, and, for sampled jobs whose stream fits one
 * period, an exact run to price the sampling overhead.
 *
 * Self-check: every stage must see the full run's record count, and
 * S4's result must reproduce the reference parity fingerprint; a job
 * failing either is reported as not separable and left out of the
 * stage differences.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>

#include "bench.hh"
#include "driver/system.hh"
#include "exp/cache.hh"
#include "exp/perf.hh"
#include "isa/program.hh"

namespace perfbench
{

using namespace eve;
using Clock = std::chrono::steady_clock;

namespace
{

/** LLC-port gate: forwards every access and times it (LLC + DRAM). */
class TimedPort : public MemObject
{
  public:
    explicit TimedPort(Cache& llc) : llc(llc) {}

    Tick
    access(Addr addr, bool is_write, Tick t) override
    {
        const auto start = Clock::now();
        const Tick done = llc.access(addr, is_write, t);
        seconds += since(start);
        ++calls;
        return done;
    }

    StatGroup& stats() override { return llc.stats(); }
    void resetTiming() override { llc.resetTiming(); }

    double seconds = 0;
    std::uint64_t calls = 0;

  private:
    Cache& llc;
};

/** Replays scalar loads/stores into one L1D, serialized like IO. */
class L1dReplay : public InstrSink
{
  public:
    explicit L1dReplay(Cache& l1d) : l1d(l1d) {}

    void
    consume(const Instr& instr) override
    {
        if (instr.op == Op::SLoad || instr.op == Op::SStore) {
            now = l1d.access(instr.addr, instr.op == Op::SStore, now);
            ++accesses;
        }
    }

    std::uint64_t accesses = 0;

  private:
    Cache& l1d;
    Tick now = 0;
};

/**
 * Host cost of one timed section around nothing: the share the
 * section reports (@ref inside) and its whole wall cost (@ref total).
 * Gate time is corrected by these, so the port's self time and the
 * timing stage do not carry the timer's own cost.
 */
struct TimerCost
{
    double inside = 0;
    double total = 0;
};

TimerCost
calibrateTimer()
{
    constexpr int kSections = 200000;
    double inside = 0;
    const auto start = Clock::now();
    for (int i = 0; i < kSections; ++i) {
        const auto t0 = Clock::now();
        inside += since(t0);
    }
    return {inside / kSections, since(start) / kSections};
}

/** Host seconds to emit @p w through counter + @p extra (may be null). */
double
stage(Workload& w, std::uint32_t hw_vl, InstrSink* extra,
      std::uint64_t& records)
{
    CountingSink counter;
    TeeSink tee;
    tee.attach(&counter);
    if (extra)
        tee.attach(extra);
    const auto start = Clock::now();
    if (hw_vl == 0)
        w.emitScalar(tee);
    else
        w.emitVector(tee, hw_vl);
    const double s = since(start);
    records = counter.total;
    return s;
}

/** What System::run would report, rebuilt from the staged runs. */
RunResult
stagedResult(System& sys, const std::string& workload,
             std::uint64_t instrs, const Characterizer& ch,
             std::uint64_t mismatches)
{
    RunResult r;
    r.system = systemName(sys.config());
    r.workload = workload;
    r.instrs = instrs;
    r.vecInstrs = ch.vecInstrs;
    r.vecElemOps = ch.vecOps;
    r.mismatches = mismatches;
    TimingModel& model = sys.timing();
    MemHierarchy& mem = sys.memory();
    for (StatGroup* g : {&model.stats(), &mem.l1i().stats(),
                         &mem.l1d().stats(), &mem.l2().stats(),
                         &mem.llc().stats(), &mem.dram().stats()}) {
        for (const auto& [stat, value] : g->sorted())
            r.stats[g->name() + "." + stat] = value;
    }
    r.total_ticks = double(model.finalTick());
    r.cycles = r.total_ticks / (model.clockNs() * ticksPerNs);
    r.seconds = r.total_ticks / (ticksPerNs * 1e9);
    if (EveSystem* eve = sys.eveSystem()) {
        r.has_breakdown = true;
        r.breakdown = eve->breakdown();
        r.vmu_cache_stall_ticks = eve->vmuCacheStallTicks();
    }
    return r;
}

/** Sums a traced pass accumulates; per-layer metrics are ratios of them. */
struct Totals
{
    double init_s = 0, verify_s = 0;
    double s1 = 0, tee = 0, functional = 0;
    double records = 0, separable_records = 0;
    double vec_elem_ops = 0, vec_elem_ops_functional = 0;
    std::map<SystemKind, double> timing_s, timing_records, vec_instrs;
    double dv_vmu_lines = 0, eve_vsu_uops = 0;
    double port_s = 0, port_calls = 0;
    double replay_s = 0, replay_accesses = 0;
    std::map<std::string, double> stat;  ///< summed full-run stats
    double windows = 0, measured_instrs = 0, sampled_instrs = 0;
    double short_overhead_s = 0, sample_error_pct_max = 0;
    double build_s = 0, overhead_s = 0, run_job_s = 0, jobs = 0;
    double full_separable_s = 0, residual_s = 0;
    double not_separable = 0;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

} // namespace

RunSummary
runTraced(const std::string& grid_name, const std::vector<BenchJob>& grid,
          const Reference& ref, std::uint64_t seed)
{
    RunSummary sum;
    Totals t;
    const TimerCost timer = calibrateTimer();
    const auto pass_start = Clock::now();

    for (std::size_t i : passOrder(grid.size(), seed, 0)) {
        const BenchJob& bj = grid[i];
        const SystemConfig& cfg = bj.job.config;
        std::unique_ptr<Workload> w = bj.job.make();

        auto start = Clock::now();
        w->init();
        const double init_s = since(start);

        // The gated CMP-form system; its vector length shapes the stream.
        SharedUncore uncore(System::hierarchyParams(cfg));
        TimedPort port(uncore.llc());
        System gated(cfg, uncore, &port);
        const std::uint32_t vl = gated.hwVectorLength();

        std::uint64_t n1 = 0, n2 = 0, n3 = 0, n4 = 0, nr = 0;
        const double s1 = stage(*w, vl, nullptr, n1);
        Characterizer ch;
        const double s2 = stage(*w, vl, &ch, n2);

        double s4 = 0;
        RunResult staged;
        if (!bj.sampled) {
            start = Clock::now();
            stage(*w, vl, &gated.timing(), n4);
            gated.timing().finish();
            s4 = since(start);
        }

        double replay = 0;
        std::uint64_t replay_accesses = 0;
        if (grid_name == "core" && vl == 0) {
            MemHierarchy fresh(System::hierarchyParams(cfg));
            L1dReplay sink(fresh.l1d());
            replay = stage(*w, vl, &sink, nr);
            replay_accesses = sink.accesses;
        }

        // S3 last among the stages: the machine mutates memory.
        double s3 = s1, verify_s = 0;
        std::uint64_t mismatches = 0;
        n3 = n1;
        if (vl != 0) {
            VecMachine machine(w->memory(), vl);
            s3 = stage(*w, vl, &machine, n3);
            start = Clock::now();
            mismatches = w->verify();
            verify_s = since(start);
        }
        if (!bj.sampled)
            staged = stagedResult(gated, w->name(), n2, ch, mismatches);

        // The real run: runJob around System construction + run.
        double build_s = 0, run_s = 0;
        SimOptions opts;
        opts.sampling = bj.job.sampling;
        opts.scale_tag = bj.job.scale;
        opts.salt = exp::kSimulatorSalt;
        exp::Job body = bj.job;
        body.exec = [&](const SystemConfig& c) {
            auto t0 = Clock::now();
            System sys(c);
            build_s = since(t0);
            t0 = Clock::now();
            RunResult rr = sys.run(*w, opts);
            run_s = since(t0);
            return rr;
        };
        exp::JobResult r;
        exp::runJob(body, r);

        ++sum.attempted;
        const std::string why = checkJob(bj, r, ref);
        if (!why.empty()) {
            ++sum.failed;
            std::printf("FAIL %s: %s\n", bj.key.c_str(), why.c_str());
            continue;
        }
        const std::uint64_t n = r.result.instrs;

        // Self-check: same records everywhere, S4 reproduces the run.
        std::string not_sep;
        if (n1 != n || n2 != n || n3 != n || (replay_accesses && nr != n) ||
            (!bj.sampled && n4 != n))
            not_sep = "record counts differ between stages";
        if (!bj.sampled) {
            exp::JobResult sr = r;
            sr.result = staged;
            if (exp::parityFingerprint(sr) !=
                ref.at(bj.exact_key).fingerprint)
                not_sep = "staged S4 result differs from the reference";
        }

        t.jobs += 1;
        t.init_s += init_s;
        t.verify_s += verify_s;
        t.records += double(n);
        t.s1 += s1;
        t.build_s += build_s;
        t.overhead_s += r.wall_seconds - build_s - run_s;
        t.run_job_s += r.wall_seconds;
        for (const auto& [k, v] : r.result.stats)
            t.stat[k] += v;
        t.vec_elem_ops += double(r.result.vecElemOps);
        if (!not_sep.empty()) {
            t.not_separable += 1;
            std::printf("not separable %s: %s\n", bj.key.c_str(),
                        not_sep.c_str());
        } else {
            t.separable_records += double(n);
            t.tee += s2 - s1;
            if (vl != 0) {
                t.functional += s3 - s1;
                t.vec_elem_ops_functional += double(r.result.vecElemOps);
            }
            if (replay_accesses) {
                t.replay_s += replay - s1;
                t.replay_accesses += double(replay_accesses);
            }
            if (!bj.sampled) {
                const double calls = double(port.calls);
                const double port_s = port.seconds - calls * timer.inside;
                const double timing =
                    s4 - s1 - port_s - calls * timer.total;
                t.timing_s[cfg.kind] += timing;
                t.timing_records[cfg.kind] += double(n);
                t.vec_instrs[cfg.kind] += double(r.result.vecInstrs);
                if (cfg.kind == SystemKind::O3DV)
                    t.dv_vmu_lines += r.result.stat("dv.vmu_lines");
                if (cfg.kind == SystemKind::O3EVE)
                    t.eve_vsu_uops += r.result.stat("eve.vsu_uops");
                t.port_s += port_s;
                t.port_calls += calls;
                t.full_separable_s += run_s;
                t.residual_s += run_s - s2 - s3 - s4 + 2 * s1 +
                                calls * timer.total;
            }
        }

        if (bj.sampled) {
            t.windows += double(r.result.sample_windows);
            t.measured_instrs += double(r.result.sampled_measured_instrs);
            t.sampled_instrs += double(n);
            const double exact = ref.at(bj.exact_key).cycles;
            t.sample_error_pct_max =
                std::max(t.sample_error_pct_max,
                         std::abs(r.result.cycles - exact) / exact * 100);
            if (r.result.sample_windows <= 1) {
                System sys(cfg);
                start = Clock::now();
                sys.run(*w);
                t.short_overhead_s += run_s - since(start);
            }
        }
    }
    const double pass_s = since(pass_start);

    auto per = [](double s, double n) { return ratio(s * 1e9, n); };
    auto stat_rate = [&](const std::string& level) {
        return ratio(t.stat[level + ".misses"],
                     t.stat[level + ".reads"] + t.stat[level + ".writes"]);
    };
    std::printf("traced jobs %.0f, not separable %.0f, pass %.3f s, "
                "timer section %.1f ns (%.1f ns reported)\n",
                t.jobs, t.not_separable, pass_s, timer.total * 1e9,
                timer.inside * 1e9);
    std::printf("residual: full run - (S1 + tee + functional + timing) = "
                "%.6g s of %.6g s\n",
                t.residual_s, t.full_separable_s);
    sum.metrics = {
        {"workloads.init_s", t.init_s, "s"},
        {"workloads.emit_ns_per_record", per(t.s1, t.records), "ns"},
        {"workloads.records", t.records, "count"},
        {"isa.tee_ns_per_record", per(t.tee, t.separable_records), "ns"},
        {"isa.functional_ns_per_elem_op",
         per(t.functional, t.vec_elem_ops_functional), "ns"},
        {"isa.vec_elem_ops", t.vec_elem_ops, "count"},
        {"isa.verify_s", t.verify_s, "s"},
        {"cpu.io_ns_per_record",
         per(t.timing_s[SystemKind::IO], t.timing_records[SystemKind::IO]),
         "ns"},
        {"cpu.o3_ns_per_record",
         per(t.timing_s[SystemKind::O3], t.timing_records[SystemKind::O3]),
         "ns"},
        {"vector.iv_ns_per_vec_instr",
         per(t.timing_s[SystemKind::O3IV], t.vec_instrs[SystemKind::O3IV]),
         "ns"},
        {"vector.dv_ns_per_vmu_line",
         per(t.timing_s[SystemKind::O3DV], t.dv_vmu_lines), "ns"},
        {"core.eve_ns_per_vec_instr",
         per(t.timing_s[SystemKind::O3EVE],
             t.vec_instrs[SystemKind::O3EVE]),
         "ns"},
        {"core.eve_ns_per_vsu_uop",
         per(t.timing_s[SystemKind::O3EVE], t.eve_vsu_uops), "ns"},
        {"mem.llc_port_calls", t.port_calls, "count"},
        {"mem.llc_port_ns_per_call", per(t.port_s, t.port_calls), "ns"},
        {"mem.l1d_replay_ns_per_access",
         per(t.replay_s, t.replay_accesses), "ns"},
        {"mem.l1d.miss_rate", stat_rate("l1d"), "ratio"},
        {"mem.l2.miss_rate", stat_rate("l2"), "ratio"},
        {"mem.llc.miss_rate", stat_rate("llc"), "ratio"},
        {"mem.l1d.mshr_merges", t.stat["l1d.mshr_merges"], "count"},
        {"sim.sample_windows", t.windows, "count"},
        {"sim.measured_frac", ratio(t.measured_instrs, t.sampled_instrs),
         "ratio"},
        {"sim.short_stream_overhead_s", t.short_overhead_s, "s"},
        {"sim.sample_error_pct_max", t.sample_error_pct_max, "%"},
        {"driver.build_ms", ratio(t.build_s * 1e3, t.jobs), "ms"},
        {"exp.job_overhead_ms", ratio(t.overhead_s * 1e3, t.jobs), "ms"},
        {"trace.overhead_pct",
         ratio((pass_s - t.run_job_s) * 100, t.run_job_s), "%"},
        {"trace.residual_pct",
         ratio(t.residual_s * 100, t.full_separable_s), "%"},
        {"trace.not_separable", t.not_separable, "count"},
        {"trace.jobs", t.jobs, "count"},
    };
    return sum;
}

} // namespace perfbench
