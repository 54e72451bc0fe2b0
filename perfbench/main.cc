/**
 * @file
 * The repo benchmark driver. One invocation runs one workload:
 *
 *   pliant_perfbench --workload <node_dense|node_overload|cluster_wide>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *                    [--out-dir <dir>]
 *
 * --trace 0 measures the end-to-end metrics with observability off:
 * repeated reps for --seconds, host-time metrics as medians over the
 * reps scaled to the reference host speed (calibrate.hh), simulated
 * metrics from the (checked, identical) outcomes.
 * --trace 1 is the separate traced run that yields the per-layer
 * metrics: traced reps with the src/obs/ registry on and the
 * benchmark's own spans recorded, interleaved with untraced reps for
 * the tracing overhead, then one replay per layer. The trace and the
 * per-span self times are written under --out-dir.
 *
 * Every rep's outcome is range-checked and digested; a rep that
 * throws, goes out of range, or differs from the run's first rep
 * counts as failed. The last stdout line is one JSON object:
 * {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
 */

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <sys/resource.h>
#include <thread>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "layers.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    int seconds = 0;
    int trace = -1;
    std::string outDir = ".";
};

bool
parseUnsigned(const char *s, std::uint64_t &out)
{
    if (*s == '\0' || *s == '-')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (errno != 0 || *end != '\0')
        return false;
    out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Args &a)
{
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string key = argv[i];
        const char *val = argv[i + 1];
        std::uint64_t v = 0;
        if (key == "--workload") {
            a.workload = val;
        } else if (key == "--seed" && parseUnsigned(val, v)) {
            a.seed = v;
            have_seed = true;
        } else if (key == "--seconds" && parseUnsigned(val, v) &&
                   v >= 1 && v <= 3600) {
            a.seconds = static_cast<int>(v);
        } else if (key == "--trace" && parseUnsigned(val, v) && v <= 1) {
            a.trace = static_cast<int>(v);
        } else if (key == "--out-dir") {
            a.outDir = val;
        } else {
            return false;
        }
    }
    return argc % 2 == 1 && have_seed && a.seconds > 0 &&
           a.trace >= 0 && !a.workload.empty();
}

/**
 * Peak RSS of a process that runs one rep of the workload and nothing
 * else, MB: the median over a few forked children, each reporting its
 * maximum resident set through wait4(). Forked before any rep runs, so
 * a child starts from the bare process image. (Later reps in one
 * process keep raising its high-water mark through allocator-arena
 * growth, by an amount that depends on how many reps fit the run.)
 * Children run as many at a time as leave every rep's `repThreads`
 * threads a core of their own.
 */
double
childPeakRssMb(const Inputs &in, unsigned repThreads)
{
    constexpr unsigned kChildren = 4;
    const unsigned cores = std::max(1U, std::thread::hardware_concurrency());
    const unsigned at_once = std::max(1U, cores / repThreads);
    std::cout.flush();
    std::cerr.flush();
    std::vector<double> peaks;
    bool ok = true;
    for (unsigned started = 0; ok && started < kChildren;) {
        std::vector<pid_t> round;
        for (; started < kChildren && round.size() < at_once; ++started) {
            const pid_t pid = fork();
            if (pid < 0) {
                ok = false;
                break;
            }
            if (pid == 0) {
                int code = 1;
                try {
                    Spans off(false);
                    code = runRep(in, RepOptions{}, off)
                                   .outcome.error.empty()
                        ? 0
                        : 1;
                } catch (...) {
                }
                _exit(code);
            }
            round.push_back(pid);
        }
        for (pid_t pid : round) {
            int status = 0;
            struct rusage ru = {};
            if (wait4(pid, &status, 0, &ru) != pid || !WIFEXITED(status) ||
                WEXITSTATUS(status) != 0)
                ok = false;
            peaks.push_back(static_cast<double>(ru.ru_maxrss) / 1024.0);
        }
    }
    if (!ok)
        throw std::runtime_error("a peak-RSS child rep failed");
    return median(peaks);
}

/** Attempt / failure accounting against the run's first outcome. */
class Checks
{
  public:
    /** Run one rep; returns false (and counts a failure) on error. */
    bool
    attempt(const Inputs &in, const RepOptions &opt, Spans &spans,
            RepResult &rep, const char *what)
    {
        ++attempted;
        try {
            rep = runRep(in, opt, spans);
        } catch (const std::exception &e) {
            return fail(what, std::string("threw: ") + e.what());
        }
        if (!rep.outcome.error.empty())
            return fail(what, rep.outcome.error);
        if (!haveRef) {
            haveRef = true;
            ref = rep.outcome;
        } else if (rep.outcome.digest != ref.digest) {
            std::ostringstream msg;
            msg << "digest " << std::hex << rep.outcome.digest
                << " differs from the first rep's " << ref.digest;
            return fail(what, msg.str());
        }
        return true;
    }

    int attempted = 0;
    int failed = 0;
    bool haveRef = false;
    Outcome ref;

  private:
    bool
    fail(const char *what, const std::string &why)
    {
        ++failed;
        std::cerr << "perfbench: " << what << " rep failed: " << why
                  << "\n";
        return false;
    }
};

/** Metrics in print order; the result line is their JSON. */
class Metrics
{
  public:
    void
    put(const std::string &name, double value, const std::string &unit)
    {
        list.push_back({name, std::isfinite(value) ? value : 0.0, unit});
    }

    void
    printTable(std::ostream &os) const
    {
        for (const Metric &m : list)
            os << "  " << m.name << " = " << m.value << " " << m.unit
               << "\n";
    }

    void
    printJson(std::ostream &os, const Checks &c) const
    {
        os << "{\"correct\": "
           << (c.failed == 0 && c.attempted > 0 ? "true" : "false")
           << ", \"attempted\": " << c.attempted
           << ", \"failed\": " << c.failed << ", \"metrics\": {";
        const auto old = os.precision(17);
        for (std::size_t i = 0; i < list.size(); ++i)
            os << (i ? ", " : "") << "\"" << list[i].name
               << "\": {\"value\": " << list[i].value
               << ", \"unit\": \"" << list[i].unit << "\"}";
        os.precision(old);
        os << "}}\n";
    }

  private:
    std::vector<Metric> list;
};

/**
 * cluster_wide extras, once per run and untimed: an obs pass whose
 * engine.ticks counter gives the ticks the engines actually ran, and
 * a pool-width-1 pass that must reproduce the width-4 digest.
 * Returns the obs pass (ticks and simulated seconds).
 */
RepResult
clusterChecks(const Inputs &in, Checks &checks, Spans &spans)
{
    RepResult counted, serial;
    RepOptions obs_pass;
    obs_pass.traced = true;
    checks.attempt(in, obs_pass, spans, counted, "obs-pass");
    RepOptions width1;
    width1.poolWidth = 1;
    checks.attempt(in, width1, spans, serial, "pool-width-1");
    return counted;
}

/** Whether a rep loop that started at `start` is done. */
bool
loopDone(double start, int seconds, std::size_t good, const Checks &c)
{
    return hostNow() - start >= seconds && (good >= 3 || c.failed > 0);
}

int
runTimed(const Args &args, Kind kind)
{
    const Inputs in = makeInputs(kind, args.seed);
    const double peak_rss_mb = childPeakRssMb(
        in, kind == Kind::ClusterWide ? RepOptions{}.poolWidth : 1);
    Spans off(false);
    Checks checks;
    RepResult rep;
    // Warm-up rep: fills caches and the allocator, and fixes the
    // digest every later rep must reproduce.
    checks.attempt(in, RepOptions{}, off, rep, "warm-up");
    RepResult counted;
    if (kind == Kind::ClusterWide)
        counted = clusterChecks(in, checks, off);

    // Timed reps. Host-time metrics are scaled by the host speed
    // measured in the same rep (calibrate.hh); the raw figures are
    // printed beside them.
    RepOptions timed;
    timed.calibrate = true;
    std::vector<double> ticks_per_s, setup_s, raw_ticks_per_s, raw_setup_s,
        speed;
    std::uint64_t ticks = 0;
    double sim_s = 0.0;
    const double start = hostNow();
    while (!loopDone(start, args.seconds, ticks_per_s.size(), checks)) {
        if (!checks.attempt(in, timed, off, rep, "timed"))
            continue;
        if (kind == Kind::ClusterWide) {
            rep.ticks = counted.ticks;
            rep.simSeconds = counted.simSeconds;
        }
        ticks = rep.ticks;
        sim_s = rep.simSeconds;
        const double raw = static_cast<double>(rep.ticks) / rep.runS;
        raw_ticks_per_s.push_back(raw);
        raw_setup_s.push_back(rep.setupS);
        speed.push_back(rep.hostSpeed);
        ticks_per_s.push_back(raw / rep.hostSpeed);
        setup_s.push_back(rep.setupS * rep.hostSpeed);
    }

    const Outcome &o = checks.ref;
    std::cout << "workload " << args.workload << " seed " << args.seed
              << ": " << ticks_per_s.size() << " timed reps, " << ticks
              << " engine ticks (" << sim_s
              << " simulated s) per rep, " << o.services << " services, "
              << o.apps << " apps, " << o.migrations
              << " migrations, digest " << std::hex << o.digest
              << std::dec << "\n"
              << "host speed vs reference: median " << median(speed)
              << " (quartiles " << quantile(speed, 0.25) << ", "
              << quantile(speed, 0.75) << "); unscaled ticks/s "
              << median(raw_ticks_per_s) << ", unscaled set-up "
              << median(raw_setup_s) << " s\n";
    Metrics m;
    m.put("ticks_per_s", median(ticks_per_s), "1/s");
    m.put("setup_s", median(setup_s), "s");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put("reps_ok_pct",
          checks.attempted
              ? 100.0 * (checks.attempted - checks.failed) /
                    checks.attempted
              : 0.0,
          "%");
    m.put("qos_met_pct", o.qosMetPct, "%");
    m.put("worst_p99_over_qos", o.worstP99OverQos, "ratio");
    m.put("quality_loss_pct", o.qualityLossPct, "%");
    m.put("app_rel_exec_time", o.appRelExecTime, "ratio");
    m.put("admitted_pct", 100.0 - o.shedPct, "%");
    m.printTable(std::cout);
    m.printJson(std::cout, checks);
    return 0;
}

double
statSum(const pliant::obs::MetricsSnapshot &snap, const char *name)
{
    const pliant::obs::MetricValue *m = snap.find(name);
    return m ? m->stat.sum() : 0.0;
}

double
counter(const pliant::obs::MetricsSnapshot &snap, const char *name)
{
    return static_cast<double>(counterOf(snap, name));
}

double
gauge(const pliant::obs::MetricsSnapshot &snap, const char *name)
{
    const pliant::obs::MetricValue *m = snap.find(name);
    return m ? m->value : 0.0;
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Write the span trace and the per-span self times under outDir. */
void
writeTraceFiles(const Args &args, const Spans &spans)
{
    const std::string base = args.outDir + "/" + args.workload;
    std::ofstream trace(base + ".trace.json");
    spans.writeChromeTrace(trace);
    std::ofstream self(base + ".selftime.json");
    self << "{";
    const auto times = spans.selfTimes();
    bool first = true;
    for (const auto &[name, st] : times) {
        self << (first ? "\n" : ",\n") << "  \"" << name
             << "\": {\"count\": " << st.count
             << ", \"total_s\": " << st.totalS
             << ", \"self_s\": " << st.selfS << "}";
        first = false;
    }
    self << "\n}\n";
    if (!trace || !self)
        throw std::runtime_error("cannot write trace files under " +
                                 args.outDir);
    std::cout << "span self times (s):\n";
    for (const auto &[name, st] : times)
        std::cout << "  " << name << ": " << st.selfS << " self, "
                  << st.totalS << " total over " << st.count << "\n";
    std::cout << "wrote " << base << ".trace.json and " << base
              << ".selftime.json\n";
}

/**
 * The traced run: traced reps (obs registry on, spans recorded,
 * per-interval steps timed) interleaved with untraced reps for the
 * overhead figure, then the layer replays at the workload's shape.
 */
int
runTraced(const Args &args, Kind kind)
{
    const Inputs in = makeInputs(kind, args.seed);
    Spans spans(true);
    Spans off(false);
    Checks checks;
    RepResult rep;
    std::vector<double> untraced_s, traced_s, steps, ctor_us, fin_us,
        epochs_ms, cluster_ctor_s;
    pliant::obs::MetricsSnapshot snap;
    std::uint64_t ticks = 0;
    double sim_s = 0.0;
    RepResult cluster_rep; ///< cluster-layer numbers at this shape
    std::vector<Metric> layers;
    Shape shape;
    shape.seed = args.seed;
    {
        Span workload(spans, "workload:" + args.workload);
        {
            Span s(spans, "untraced_rep");
            checks.attempt(in, RepOptions{}, off, rep, "warm-up");
        }
        RepOptions traced;
        traced.traced = true;
        const double start = hostNow();
        while (!loopDone(start, args.seconds, traced_s.size(), checks)) {
            {
                Span s(spans, "untraced_rep");
                if (checks.attempt(in, RepOptions{}, off, rep,
                                   "untraced"))
                    untraced_s.push_back(rep.setupS + rep.runS);
            }
            if (!checks.attempt(in, traced, spans, rep, "traced"))
                continue;
            traced_s.push_back(rep.setupS + rep.runS);
            steps.insert(steps.end(), rep.intervalStepUs.begin(),
                         rep.intervalStepUs.end());
            ctor_us.insert(ctor_us.end(), rep.engineCtorUs.begin(),
                           rep.engineCtorUs.end());
            fin_us.insert(fin_us.end(), rep.finalizeUs.begin(),
                          rep.finalizeUs.end());
            epochs_ms.insert(epochs_ms.end(), rep.epochHostMs.begin(),
                             rep.epochHostMs.end());
            cluster_ctor_s.push_back(rep.clusterCtorS);
            if (snap.empty()) {
                snap = rep.metrics;
                ticks = rep.ticks;
                sim_s = rep.simSeconds;
            }
        }

        if (kind == Kind::ClusterWide) {
            const pliant::cluster::Cluster c(
                buildClusterConfig(in, 4, false));
            shape.nodes = c.nodeCount();
            shape.node = c.nodeConfig(0);
            for (std::size_t i = 0; i < c.nodeCount(); ++i)
                if (!c.nodeConfig(i).apps.empty()) {
                    shape.node = c.nodeConfig(i);
                    break;
                }
            // Node layer of the cluster: step the first nodes one
            // decision interval at a time to the cluster's end.
            std::vector<pliant::colo::ColoConfig> nodes;
            for (std::size_t i = 0; i < 16 && i < c.nodeCount(); ++i)
                nodes.push_back(c.nodeConfig(i));
            const pliant::sim::Time end =
                static_cast<pliant::sim::Time>(
                    ticks / std::max<std::size_t>(c.nodeCount(), 1)) *
                shape.node.tick;
            steps = replayNodeSteps(nodes, end, spans, ctor_us, fin_us);
            cluster_rep.metrics = snap;
            cluster_rep.epochHostMs = epochs_ms;
            cluster_rep.clusterCtorS = median(cluster_ctor_s);
            cluster_rep.outcome = checks.ref;
        } else {
            shape.node = buildColoConfig(in, in.colos.front(), false);
            cluster_rep = runOneNodeCluster(in, spans);
        }
        shape.samplesPerTick = ratio(
            counter(snap, "engine.samples"),
            static_cast<double>(ticks) *
                static_cast<double>(shape.node.services.size()));
        layers = replayLayers(shape, spans);
    }

    Metrics m;
    for (const Metric &l : layers)
        m.put(l.name, l.value, l.unit);
    m.put("services.samples_per_tick", shape.samplesPerTick, "count");
    m.put("core.runtime.actuation_ratio",
          ratio(counter(snap, "engine.actuations"),
                counter(snap, "engine.intervals")),
          "ratio");
    m.put("admission.shed_pct", checks.ref.shedPct, "%");
    m.put("colo.interval_host_us_p50", quantile(steps, 0.5), "us");
    m.put("colo.interval_host_us_p99", quantile(steps, 0.99), "us");
    m.put("colo.interval_samples", static_cast<double>(steps.size()),
          "count");
    m.put("colo.engine_ctor_us", median(ctor_us), "us");
    m.put("colo.finalize_us", median(fin_us), "us");
    const char *phases[] = {"prelude", "tenants", "tasks", "interval"};
    double phase_total = 0.0;
    for (const char *p : phases)
        phase_total +=
            statSum(snap, ("phase." + std::string(p) + "_wall_s").c_str());
    for (const char *p : phases)
        m.put("colo.phase." + std::string(p) + "_share",
              ratio(statSum(snap, ("phase." + std::string(p) + "_wall_s")
                                      .c_str()),
                    phase_total),
              "ratio");
    m.put("cluster.ctor_ms", cluster_rep.clusterCtorS * 1e3, "ms");
    m.put("cluster.epoch_host_ms_p50",
          quantile(cluster_rep.epochHostMs, 0.5), "ms");
    m.put("cluster.epoch_host_ms_p99",
          quantile(cluster_rep.epochHostMs, 0.99), "ms");
    m.put("cluster.epoch_samples",
          static_cast<double>(cluster_rep.epochHostMs.size()), "count");
    m.put("cluster.migrations",
          static_cast<double>(cluster_rep.outcome.migrations), "count");
    m.put("driver.pool.job_wall_us",
          gauge(cluster_rep.metrics, "pool.job_wall_mean_s") * 1e6, "us");
    m.put("driver.pool.queue_depth_mean",
          gauge(cluster_rep.metrics, "pool.mean_queue_depth"), "count");
    m.put("engine.ticks_per_rep", static_cast<double>(ticks), "count");
    m.put("engine.sim_s_per_rep", sim_s, "s");
    m.put("obs.overhead_pct",
          100.0 * (ratio(median(traced_s), median(untraced_s)) - 1.0),
          "%");

    std::cout << "workload " << args.workload << " seed " << args.seed
              << " (traced): " << traced_s.size() << " traced and "
              << untraced_s.size() << " untraced reps, digest "
              << std::hex << checks.ref.digest << std::dec << "\n";
    writeTraceFiles(args, spans);
    m.printTable(std::cout);
    m.printJson(std::cout, checks);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    Kind kind = Kind::NodeDense;
    if (!parseArgs(argc, argv, args) || !parseKind(args.workload, kind)) {
        std::cerr << "usage: pliant_perfbench --workload "
                     "<node_dense|node_overload|cluster_wide> --seed <n> "
                     "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
        return 2;
    }
    try {
        return args.trace ? runTraced(args, kind) : runTimed(args, kind);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
