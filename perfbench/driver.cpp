/**
 * @file
 * The benchmark driver: runs one workload of the reproduction in this
 * process and times every call it makes into the library's public layer
 * functions from the outside.
 *
 *   perfbench_driver --workload matrix-cold|traces-cold|zoo-warm
 *                    --cache DIR [--seed N] [--jobs J]
 *                    [--spans FILE] [--setup-only]
 *
 * Set-up (registry construction, cache preparation, and for zoo-warm
 * filling the trace cache) is timed apart from the timed phase. The
 * seed only permutes the order in which cells reach the pool, so every
 * result line is identical for every seed.
 *
 * Output on stdout is one flat JSON object per line: "result" lines
 * (group, key, value) that run.py checks against expected values,
 * "error" lines for operations that threw, "phase" and "count" lines,
 * and a closing "summary" line. With --spans, every span (name, id,
 * parent, cell, start and end in ns) is kept in memory and written to
 * FILE at exit.
 */
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include "characterize/characterize.h"
#include "compiler/inline.h"
#include "compiler/layout.h"
#include "exec/pool.h"
#include "harness/experiments.h"
#include "harness/runner.h"
#include "obs/json.h"
#include "predict/heuristic_predictor.h"
#include "predict/profile_predictor.h"
#include "predict/zoo/scheduler.h"
#include "predict/zoo/zoo.h"
#include "support/binio.h"
#include "trace/trace.h"
#include "vm/machine.h"
#include "workloads/workload.h"

using namespace ifprob;
namespace fs = std::filesystem;

namespace {

using Clock = std::chrono::steady_clock;
const Clock::time_point kStart = Clock::now();

int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - kStart)
        .count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    auto secs = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return secs(ru.ru_utime) + secs(ru.ru_stime);
}

/** Spans kept in memory, written out once at exit. Disabled logs
 *  record nothing and hand out id 0. */
class SpanLog
{
  public:
    struct Span
    {
        std::string name;
        int64_t parent = 0;
        int64_t cell = -1;
        int64_t start_ns = 0;
        int64_t end_ns = 0;
    };

    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    int64_t
    open(std::string name, int64_t parent, int64_t cell)
    {
        if (!enabled_)
            return 0;
        std::lock_guard<std::mutex> lock(mu_);
        spans_.push_back(Span{std::move(name), parent, cell, nowNs(), 0});
        return static_cast<int64_t>(spans_.size());
    }

    void
    close(int64_t id)
    {
        if (id == 0)
            return;
        const int64_t end = nowNs();
        std::lock_guard<std::mutex> lock(mu_);
        spans_[static_cast<size_t>(id - 1)].end_ns = end;
    }

    void
    write(const std::string &path) const
    {
        std::ofstream out(path);
        std::lock_guard<std::mutex> lock(mu_);
        for (size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            out << obs::JsonObject()
                       .field("name", s.name)
                       .field("id", static_cast<int64_t>(i + 1))
                       .field("parent", s.parent)
                       .field("cell", s.cell)
                       .field("start_ns", s.start_ns)
                       .field("end_ns", s.end_ns)
                       .str()
                << '\n';
        }
    }

  private:
    bool enabled_;
    mutable std::mutex mu_;
    std::vector<Span> spans_;
};

/** RAII span around one call into a layer. */
class Scope
{
  public:
    Scope(SpanLog &log, std::string name, int64_t parent, int64_t cell)
        : log_(log), id_(log.open(std::move(name), parent, cell))
    {
    }
    ~Scope() { log_.close(id_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    int64_t id() const { return id_; }

  private:
    SpanLog &log_;
    int64_t id_;
};

/** Checked outputs, grouped by cell; printed sorted, so the output
 *  does not depend on the order the pool ran the cells in. */
class Results
{
  public:
    void
    put(const std::string &group, const std::string &key,
        const std::string &value)
    {
        std::lock_guard<std::mutex> lock(mu_);
        values_[group][key] = value;
    }

    void
    put(const std::string &group, const std::string &key, int64_t value)
    {
        put(group, key, std::to_string(value));
    }

    /** Run @p fn; a throw is recorded as a failure of @p group. */
    template <typename Fn>
    void
    guard(const std::string &group, const std::string &op, Fn &&fn)
    {
        try {
            fn();
        } catch (const std::exception &e) {
            std::lock_guard<std::mutex> lock(mu_);
            errors_.push_back({group, op, e.what()});
        }
    }

    void
    print() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        for (const auto &[group, keys] : values_) {
            for (const auto &[key, value] : keys) {
                std::printf("%s\n", obs::JsonObject()
                                        .field("kind", "result")
                                        .field("group", group)
                                        .field("key", key)
                                        .field("value", value)
                                        .str()
                                        .c_str());
            }
        }
        for (const auto &e : errors_) {
            std::printf("%s\n", obs::JsonObject()
                                    .field("kind", "error")
                                    .field("group", e[0])
                                    .field("op", e[1])
                                    .field("what", e[2])
                                    .str()
                                    .c_str());
        }
    }

  private:
    mutable std::mutex mu_;
    std::map<std::string, std::map<std::string, std::string>> values_;
    std::vector<std::array<std::string, 3>> errors_;
};

/** FNV-1a digest of a sequence of values, for row-heavy outputs. */
class Digest
{
  public:
    Digest &
    add(std::string_view s)
    {
        static constexpr unsigned char kSeparator = 0xff;
        h_ = binio::fnv1a(h_, s.data(), s.size());
        h_ = binio::fnv1a(h_, &kSeparator, 1);
        return *this;
    }
    Digest &add(int64_t v) { return add(std::to_string(v)); }
    /** Nine significant digits: enough to catch a wrong answer, short
     *  of the last bits a reordered sum may move. */
    Digest &
    add(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.9g", v);
        return add(std::string_view(buf));
    }
    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%016llx",
                      static_cast<unsigned long long>(h_));
        return buf;
    }

  private:
    uint64_t h_ = binio::kFnv1aOffset;
};

/** One (workload, dataset) pair; id is its index in registry order. */
struct Cell
{
    int64_t id = 0;
    std::string workload;
    std::string dataset;
    std::string group() const { return workload + "/" + dataset; }
};

std::vector<Cell>
matrix()
{
    std::vector<Cell> cells;
    for (const predict::zoo::Cell &c : predict::zoo::allCells()) {
        cells.push_back(
            Cell{static_cast<int64_t>(cells.size()), c.workload, c.dataset});
    }
    return cells;
}

std::vector<Cell>
primaries(const std::vector<Cell> &all)
{
    std::vector<Cell> out;
    for (const Cell &c : all) {
        if (out.empty() || out.back().workload != c.workload)
            out.push_back(c);
    }
    return out;
}

struct Options
{
    std::string workload;
    std::string cache;
    std::string spans;
    uint64_t seed = 1;
    int jobs = 4;
    bool setup_only = false;
};

class Driver
{
  public:
    explicit Driver(const Options &o)
        : opt_(o), log_(!o.spans.empty()), rng_(o.seed)
    {
    }

    int run();

  private:
    /** Apply @p fn to every cell on the pool, in seed-permuted order. */
    template <typename Fn>
    void
    forEach(std::vector<Cell> cells, Fn &&fn)
    {
        std::shuffle(cells.begin(), cells.end(), rng_);
        exec::parallelFor(exec::globalPool(), cells.size(),
                          [&](size_t i) { fn(cells[i]); });
    }

    /** Time one phase: wall and process CPU, plus a root span. */
    template <typename Fn>
    void
    phase(const std::string &name, Fn &&fn)
    {
        const double cpu0 = cpuSeconds();
        const int64_t t0 = nowNs();
        {
            Scope span(log_, "phase." + name, 0, -1);
            phase_span_ = span.id();
            fn();
        }
        const double wall = static_cast<double>(nowNs() - t0) * 1e-9;
        const double cpu = cpuSeconds() - cpu0;
        phases_.push_back({name, wall, cpu});
        wall_s_ += wall;
        cpu_s_ += cpu;
    }

    void setup();
    void compilePhase(harness::Runner &runner);
    void matrixCold(harness::Runner &runner);
    void tracesCold(harness::Runner &runner);
    void zooWarm(harness::Runner &runner);
    void recordOrLoad(harness::Runner &runner, const std::string &span_name);
    void characterizePhase(harness::Runner &runner);
    void variants(harness::Runner &runner, const Cell &cell);
    void emitStats(const std::string &group, const std::string &prefix,
                   const vm::RunStats &s);
    void count(const std::string &name, double value);
    void summary(double setup_s);

    struct Phase
    {
        std::string name;
        double wall_s;
        double cpu_s;
    };

    Options opt_;
    SpanLog log_;
    std::mt19937_64 rng_;
    Results results_;
    std::vector<Cell> cells_;
    std::vector<Phase> phases_;
    std::mutex counts_mu_;
    std::map<std::string, double> counts_;
    int64_t phase_span_ = 0;
    double wall_s_ = 0.0;
    double cpu_s_ = 0.0;
};

vm::RunLimits
limits()
{
    vm::RunLimits l;
    l.max_instructions = 4'000'000'000ll;
    return l;
}

void
Driver::count(const std::string &name, double value)
{
    std::lock_guard<std::mutex> lock(counts_mu_);
    counts_[name] += value;
}

void
Driver::emitStats(const std::string &group, const std::string &prefix,
                  const vm::RunStats &s)
{
    results_.put(group, prefix + "instructions", s.instructions);
    results_.put(group, prefix + "cond_branches", s.cond_branches);
    results_.put(group, prefix + "taken_branches", s.taken_branches);
    results_.put(group, prefix + "jumps", s.jumps);
    results_.put(group, prefix + "direct_calls", s.direct_calls);
    results_.put(group, prefix + "indirect_calls", s.indirect_calls);
    results_.put(group, prefix + "direct_returns", s.direct_returns);
    results_.put(group, prefix + "indirect_returns", s.indirect_returns);
    results_.put(group, prefix + "selects", s.selects);
    results_.put(group, prefix + "exit_code", s.exit_code);
    Digest sites;
    for (const vm::BranchCounts &b : s.branches)
        sites.add(b.executed).add(b.taken);
    results_.put(group, prefix + "sites", sites.hex());
}

void
Driver::setup()
{
    {
        Scope span(log_, "workloads.build", 0, -1);
        cells_ = matrix();
    }
    if (opt_.workload != "zoo-warm")
        fs::remove_all(opt_.cache);
    fs::create_directories(opt_.cache);
    setenv("IFPROB_CACHE", opt_.cache.c_str(), 1);
    if (opt_.workload != "zoo-warm")
        return;
    // Fill the trace cache if it is empty or stale; a warm cache only
    // costs the load. This Runner (and its traces) is gone before the
    // timed phase starts.
    harness::Runner fill;
    forEach(cells_, [&](const Cell &c) {
        results_.guard("setup", "traceOf", [&] {
            fill.traceOf(c.workload, c.dataset);
        });
    });
}

void
Driver::compilePhase(harness::Runner &runner)
{
    phase("compile", [&] {
        forEach(primaries(cells_), [&](const Cell &c) {
            results_.guard(c.workload, "compile", [&] {
                Scope span(log_, "compiler.compile", phase_span_, c.id);
                const isa::Program &p = runner.program(c.workload);
                results_.put(c.workload, "program.branch_sites",
                             static_cast<int64_t>(p.branch_sites.size()));
            });
        });
    });
}

void
Driver::variants(harness::Runner &runner, const Cell &c)
{
    const std::string group = c.group();
    Scope cell_span(log_, "variant.cell", phase_span_, c.id);
    const isa::Program &base = runner.program(c.workload);
    const std::string &input = [&]() -> const std::string & {
        for (const auto &d : workloads::get(c.workload).datasets) {
            if (d.name == c.dataset)
                return d.input;
        }
        throw std::runtime_error("no dataset " + c.dataset);
    }();
    const profile::ProfileDb db = [&] {
        Scope span(log_, "analysis.profile", cell_span.id(), c.id);
        return harness::profileOf(runner, c.workload, c.dataset);
    }();

    auto run_variant = [&](const std::string &prefix,
                           const isa::Program &program) {
        Scope span(log_, "vm.variant_run", cell_span.id(), c.id);
        vm::Machine machine(program);
        vm::RunResult r = machine.run(input, limits());
        emitStats(group, prefix, r.stats);
        results_.put(group, prefix + "output",
                     Digest().add(r.output).hex());
    };

    isa::Program inlined = base;
    {
        Scope span(log_, "compiler.variant", cell_span.id(), c.id);
        results_.put(group, "inline.call_sites",
                     static_cast<int64_t>(inlineProgram(inlined)));
    }
    run_variant("inline.", inlined);

    isa::Program feedback = base;
    {
        Scope span(log_, "compiler.variant", cell_span.id(), c.id);
        predict::ProfilePredictor predictor(db);
        results_.put(group, "layout_profile.moved",
                     static_cast<int64_t>(
                         layoutProgram(feedback, predictor, db)));
    }
    run_variant("layout_profile.", feedback);

    isa::Program heuristic = base;
    {
        Scope span(log_, "compiler.variant", cell_span.id(), c.id);
        predict::HeuristicPredictor predictor(
            base, predict::Heuristic::kBackwardTaken);
        results_.put(group, "layout_backward.moved",
                     static_cast<int64_t>(
                         layoutProgram(heuristic, predictor, db)));
    }
    run_variant("layout_backward.", heuristic);
}

void
Driver::matrixCold(harness::Runner &runner)
{
    compilePhase(runner);
    phase("execute", [&] {
        forEach(cells_, [&](const Cell &c) {
            results_.guard(c.group(), "stats", [&] {
                const vm::RunStats *s = nullptr;
                {
                    Scope span(log_, "vm.execute", phase_span_, c.id);
                    s = &runner.stats(c.workload, c.dataset);
                }
                emitStats(c.group(), "stats.", *s);
                count("vm.instructions",
                      static_cast<double>(s->instructions));
            });
        });
    });

    phase("analysis", [&] {
        // Each experiment is one library call on memoized stats; the
        // rows are checked through a digest per experiment.
        auto figure = [&](const std::string &name, auto &&call,
                          auto &&fold) {
            results_.guard("analysis/" + name, name, [&] {
                Digest d;
                size_t rows = 0;
                {
                    Scope span(log_, "analysis.figures", phase_span_, -1);
                    auto out = call();
                    rows = out.size();
                    for (const auto &row : out)
                        fold(d, row);
                }
                results_.put("analysis/" + name, "rows",
                             static_cast<int64_t>(rows));
                results_.put("analysis/" + name, "digest", d.hex());
            });
        };
        figure(
            "figure1", [&] { return harness::figure1(runner); },
            [](Digest &d, const harness::Fig1Row &r) {
                d.add(r.program).add(r.dataset).add(r.per_break).add(
                    r.per_break_with_calls);
            });
        figure(
            "figure2", [&] { return harness::figure2(runner); },
            [](Digest &d, const harness::Fig2Row &r) {
                d.add(r.program).add(r.dataset).add(r.self_per_break).add(
                    r.others_per_break);
            });
        figure(
            "figure3", [&] { return harness::figure3(runner); },
            [](Digest &d, const harness::Fig3Row &r) {
                d.add(r.program).add(r.dataset).add(r.best_pct).add(
                     r.worst_pct)
                    .add(r.best_predictor)
                    .add(r.worst_predictor);
            });
        figure(
            "percent_taken", [&] { return harness::percentTaken(runner); },
            [](Digest &d, const harness::TakenRow &r) {
                d.add(r.program).add(r.dataset).add(r.percent_taken);
            });
        figure(
            "heuristics", [&] { return harness::heuristics(runner); },
            [](Digest &d, const harness::HeuristicRow &r) {
                d.add(r.program).add(r.dataset).add(r.self_per_break)
                    .add(r.others_per_break)
                    .add(r.backward_taken_per_break)
                    .add(r.opcode_rules_per_break)
                    .add(r.always_taken_per_break);
            });
        figure(
            "combine", [&] { return harness::combineAblation(runner); },
            [](Digest &d, const harness::CombineRow &r) {
                d.add(r.program).add(r.dataset).add(r.scaled_per_break)
                    .add(r.unscaled_per_break)
                    .add(r.polling_per_break);
            });
        figure(
            "coverage", [&] { return harness::coverageStudy(runner); },
            [](Digest &d, const harness::CoverageRow &r) {
                d.add(r.program).add(r.target).add(r.predictor)
                    .add(r.coverage_gap_pct)
                    .add(r.disagreement_pct)
                    .add(r.quality_pct);
            });
    });

    phase("table1", [&] {
        results_.guard("analysis/table1", "table1", [&] {
            std::vector<harness::Table1Row> rows;
            {
                Scope span(log_, "analysis.table1", phase_span_, -1);
                rows = harness::table1();
            }
            for (const auto &r : rows) {
                results_.put("analysis/table1", r.program,
                             Digest().add(r.dead_fraction).hex());
            }
        });
    });

    phase("variants", [&] {
        forEach(primaries(cells_), [&](const Cell &c) {
            results_.guard(c.group(), "variants",
                           [&] { variants(runner, c); });
        });
    });
}

void
Driver::recordOrLoad(harness::Runner &runner, const std::string &span_name)
{
    forEach(cells_, [&](const Cell &c) {
        results_.guard(c.group(), span_name, [&] {
            const trace::Trace *t = nullptr;
            {
                Scope span(log_, span_name, phase_span_, c.id);
                t = &runner.traceOf(c.workload, c.dataset);
            }
            const std::string g = c.group();
            results_.put(g, "trace.events", t->events);
            results_.put(g, "trace.branch_events", t->branch_events);
            results_.put(g, "trace.break_events", t->break_events);
            emitStats(g, "trace.stats.", t->stats);
            count("trace.events", static_cast<double>(t->events));
            count("trace.bytes", static_cast<double>(t->byteSize()));
        });
    });
}

void
Driver::characterizePhase(harness::Runner &runner)
{
    phase("characterize", [&] {
        results_.guard("characterize", "characterizeAll", [&] {
            std::vector<characterize::WorkloadReport> reports;
            {
                Scope span(log_, "characterize", phase_span_, -1);
                reports = characterize::characterizeAll(runner);
            }
            for (const auto &r : reports) {
                const std::string &g = r.workload;
                results_.put(g, "characterize.executed_sites",
                             static_cast<int64_t>(r.executed_sites));
                results_.put(g, "characterize.instructions", r.instructions);
                results_.put(g, "characterize.branches", r.branches);
                results_.put(g, "characterize.taken", r.taken);
                results_.put(g, "characterize.best_static_loss",
                             r.best_static_loss);
                results_.put(g, "characterize.pooled_static_loss",
                             r.pooled_static_loss);
                Digest shape;
                shape.add(r.mean_h0).add(r.mean_h1).add(
                    r.stable_branch_pct).add(r.full_coverage_pct);
                for (const auto &h : r.hard)
                    shape.add(static_cast<int64_t>(h.site_id)).add(h.loss);
                results_.put(g, "characterize.shape", shape.hex());
                count("characterize.sites",
                      static_cast<double>(r.executed_sites));
                for (const auto &f : r.dataset_fingerprints) {
                    const std::string cg = r.workload + "/" + f.dataset;
                    results_.put(cg, "characterize.branches", f.branches);
                    results_.put(cg, "characterize.instructions",
                                 f.instructions);
                    results_.put(cg, "characterize.sites",
                                 static_cast<int64_t>(f.sites.size()));
                }
            }
        });
    });
}

void
Driver::tracesCold(harness::Runner &runner)
{
    compilePhase(runner);
    phase("record", [&] { recordOrLoad(runner, "trace.record"); });
    characterizePhase(runner);
}

/** Decode-only observer: counts events, opts out of instruction
 *  counts so the decoder skips materializing them. */
class CountingObserver final : public vm::BranchObserver
{
  public:
    void onBranch(int, bool, int64_t) override { ++events, ++branches; }
    void onUnavoidableBreak(int64_t) override { ++events; }
    bool wantsInstructionCounts() const override { return false; }
    void
    onBatch(const vm::EventBlock &block) override
    {
        events += block.size;
        branches += block.branch_count;
    }
    int64_t events = 0;
    int64_t branches = 0;
};

void
Driver::zooWarm(harness::Runner &runner)
{
    compilePhase(runner);
    phase("load", [&] { recordOrLoad(runner, "trace.load"); });

    phase("replay", [&] {
        forEach(cells_, [&](const Cell &c) {
            results_.guard(c.group(), "replay", [&] {
                const trace::Trace &t = runner.traceOf(c.workload,
                                                       c.dataset);
                CountingObserver counter;
                {
                    Scope span(log_, "trace.replay", phase_span_, c.id);
                    trace::replay(t, counter);
                }
                results_.put(c.group(), "replay.events", counter.events);
                results_.put(c.group(), "replay.branch_events",
                             counter.branches);
                count("replay.events", static_cast<double>(counter.events));
            });
        });
    });

    phase("tournament", [&] {
        const auto &zoo = predict::zoo::defaultZoo();
        forEach(cells_, [&](const Cell &c) {
            results_.guard(c.group(), "tournament", [&] {
                // One cell per call, on an inline pool, so each cell's
                // time is measured from outside the library.
                exec::Pool inline_pool(1);
                std::vector<predict::zoo::CellScores> scores;
                {
                    Scope span(log_, "predict.cell", phase_span_, c.id);
                    scores = predict::zoo::runTournament(
                        runner, {{c.workload, c.dataset}}, zoo,
                        &inline_pool);
                }
                const predict::zoo::CellScores &s = scores.at(0);
                results_.put(c.group(), "zoo.branch_events",
                             s.branch_events);
                for (size_t p = 0; p < zoo.size(); ++p) {
                    const std::string k = "zoo." + zoo[p].name + ".";
                    results_.put(c.group(), k + "branches", s.branches[p]);
                    results_.put(c.group(), k + "mispredicts",
                                 s.mispredicts[p]);
                }
                count("predict.events",
                      static_cast<double>(s.branch_events) *
                          static_cast<double>(zoo.size()));
            });
        });
    });

    characterizePhase(runner);
}

/** Resident memory the process holds for live data, in MB: free heap
 *  pages go back to the OS first, so allocator fragmentation (which
 *  depends on the order the pool ran cells in) is not counted. */
double
retainedMegabytes()
{
    malloc_trim(0);
    std::ifstream statm("/proc/self/statm");
    long long size = 0, resident = 0;
    statm >> size >> resident;
    return static_cast<double>(resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) * 1e-6;
}

double
directoryMegabytes(const std::string &dir)
{
    uintmax_t bytes = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec)) {
        if (e.is_regular_file(ec))
            bytes += e.file_size(ec);
    }
    return static_cast<double>(bytes) * 1e-6;
}

void
Driver::summary(double setup_s)
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("%s\n",
                obs::JsonObject()
                    .field("kind", "summary")
                    .field("workload", opt_.workload)
                    .field("jobs", static_cast<int64_t>(opt_.jobs))
                    .field("setup_s", setup_s)
                    .field("wall_s", wall_s_)
                    .field("cpu_s", cpu_s_)
                    .field("peak_rss_mb",
                           static_cast<double>(ru.ru_maxrss) * 1024e-6)
                    .field("retained_mb", retainedMegabytes())
                    .field("cache_mb", directoryMegabytes(opt_.cache))
                    .str()
                    .c_str());
}

int
Driver::run()
{
    exec::setPlannedJobs(opt_.jobs);
    const int64_t t0 = nowNs();
    try {
        setup();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: set-up failed: %s\n", e.what());
        return 1;
    }
    const double setup_s = static_cast<double>(nowNs() - t0) * 1e-9;
    if (opt_.setup_only) {
        results_.print();
        summary(setup_s);
        return 0;
    }

    harness::Runner runner;
    if (opt_.workload == "matrix-cold")
        matrixCold(runner);
    else if (opt_.workload == "traces-cold")
        tracesCold(runner);
    else
        zooWarm(runner);

    const harness::CacheStats cs = runner.cacheStats();
    count("harness.cache_hits", static_cast<double>(cs.hits));
    count("harness.cache_misses", static_cast<double>(cs.misses));
    count("harness.bytes_written", static_cast<double>(cs.bytes_written));
    count("harness.trace_hits", static_cast<double>(cs.trace_hits));
    count("harness.trace_misses", static_cast<double>(cs.trace_misses));
    count("harness.trace_bytes_read",
          static_cast<double>(cs.trace_bytes_read));
    count("harness.trace_bytes_written",
          static_cast<double>(cs.trace_bytes_written));

    results_.print();
    for (const Phase &p : phases_) {
        std::printf("%s\n", obs::JsonObject()
                                .field("kind", "phase")
                                .field("name", p.name)
                                .field("wall_s", p.wall_s)
                                .field("cpu_s", p.cpu_s)
                                .str()
                                .c_str());
    }
    for (const auto &[name, value] : counts_) {
        std::printf("%s\n", obs::JsonObject()
                                .field("kind", "count")
                                .field("name", name)
                                .field("value", value)
                                .str()
                                .c_str());
    }
    summary(setup_s);
    if (!opt_.spans.empty())
        log_.write(opt_.spans);
    return 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_driver --workload "
                 "matrix-cold|traces-cold|zoo-warm --cache DIR "
                 "[--seed N] [--jobs J] [--spans FILE] [--setup-only]\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::optional<std::string> {
            if (i + 1 >= argc)
                return std::nullopt;
            return std::string(argv[++i]);
        };
        std::optional<std::string> v;
        if (arg == "--setup-only") {
            opt.setup_only = true;
            continue;
        }
        if (!(v = value()))
            return usage();
        if (arg == "--workload")
            opt.workload = *v;
        else if (arg == "--cache")
            opt.cache = *v;
        else if (arg == "--spans")
            opt.spans = *v;
        else if (arg == "--seed")
            opt.seed = std::stoull(*v);
        else if (arg == "--jobs")
            opt.jobs = std::max(1, std::stoi(*v));
        else
            return usage();
    }
    if (opt.cache.empty() ||
        (opt.workload != "matrix-cold" && opt.workload != "traces-cold" &&
         opt.workload != "zoo-warm"))
        return usage();
    return Driver(opt).run();
}
