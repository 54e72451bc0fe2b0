#include "layers.hh"

#include <algorithm>
#include <cmath>
#include <memory>

#include "admission/admission.hh"
#include "approx/profile.hh"
#include "approx/task.hh"
#include "budget/budget.hh"
#include "cluster/placement.hh"
#include "core/actuator.hh"
#include "core/monitor.hh"
#include "core/runtime.hh"
#include "driver/pool.hh"
#include "server/interference.hh"
#include "server/partition.hh"
#include "services/interactive.hh"
#include "util/rng.hh"
#include "util/stats.hh"

namespace perfbench {

using namespace pliant;

namespace {

/** Host time each replay measures for. */
constexpr double kReplayBudgetS = 0.2;

/** Results land here so the timed calls cannot be optimized away. */
volatile double g_sink = 0.0;

/**
 * Median host seconds per operation: `batch` performs `ops`
 * operations and is repeated for the replay budget (at least 5 times).
 */
template <typename F>
double
perOp(F &&batch, double ops)
{
    std::vector<double> samples;
    const double start = hostNow();
    do {
        const double t0 = hostNow();
        batch();
        samples.push_back((hostNow() - t0) / ops);
    } while (hostNow() - start < kReplayBudgetS || samples.size() < 5);
    return median(samples);
}

/** Runtime actuator over plain per-app state (no server model). */
class StubActuator : public core::Actuator
{
  public:
    explicit StubActuator(const std::vector<std::string> &apps,
                          int max_reclaim)
        : maxReclaim(max_reclaim)
    {
        for (const std::string &name : apps) {
            const approx::AppProfile &p = approx::findProfile(name);
            std::vector<double> inacc;
            for (const approx::ApproxVariant &v : p.variants)
                inacc.push_back(v.inaccuracy);
            inaccuracy.push_back(std::move(inacc));
        }
        variant.assign(apps.size(), 0);
        reclaimed.assign(apps.size(), 0);
    }

    int taskCount() const override
    {
        return static_cast<int>(variant.size());
    }
    bool taskFinished(int) const override { return false; }
    int variantOf(int t) const override { return variant[t]; }
    int mostApproxOf(int t) const override
    {
        return static_cast<int>(inaccuracy[t].size()) - 1;
    }
    void switchVariant(int t, int v) override { variant[t] = v; }
    bool
    reclaimCore(int t) override
    {
        if (reclaimed[t] >= maxReclaim)
            return false;
        ++reclaimed[t];
        return true;
    }
    bool
    returnCore(int t) override
    {
        if (reclaimed[t] == 0)
            return false;
        --reclaimed[t];
        return true;
    }
    int reclaimedFrom(int t) const override { return reclaimed[t]; }
    double inaccuracyOf(int t) const override
    {
        return inaccuracy[t][variant[t]];
    }
    double inaccuracyAt(int t, int v) const override
    {
        return inaccuracy[t][v];
    }

  private:
    int maxReclaim;
    std::vector<std::vector<double>> inaccuracy;
    std::vector<int> variant;
    std::vector<int> reclaimed;
};

/** Per-tenant service cores and per-app cores, as the engine splits. */
struct CoreSplit
{
    int perTenant = 1;
    int perApp = 1;
};

CoreSplit
coreSplit(const colo::ColoConfig &node)
{
    const int tenants = static_cast<int>(node.services.size());
    const int apps = static_cast<int>(node.apps.size());
    CoreSplit s;
    s.perApp =
        colo::Engine::fairShare(node.spec, std::max(apps, 1), tenants);
    s.perTenant = std::max(
        1, (node.spec.usableCores() - apps * s.perApp) / tenants);
    return s;
}

std::vector<std::unique_ptr<services::InteractiveService>>
makeServices(const colo::ColoConfig &node, std::uint64_t seed)
{
    const CoreSplit split = coreSplit(node);
    std::vector<std::unique_ptr<services::InteractiveService>> out;
    for (const colo::ServiceSpec &spec : node.services) {
        services::ServiceConfig sc = services::defaultConfig(spec.kind);
        sc.name = spec.resolvedName();
        sc.fairCores = split.perTenant;
        services::WorkloadConfig wl;
        wl.loadFraction = spec.scenario.baseLoad;
        out.push_back(std::make_unique<services::InteractiveService>(
            sc, wl, seed++));
    }
    return out;
}

/** A node's apps, or one catalog app when it hosts none. */
std::vector<std::string>
appsOf(const colo::ColoConfig &node)
{
    return node.apps.empty()
        ? std::vector<std::string>{approx::catalogNames().front()}
        : node.apps;
}

std::vector<Metric>
replaySampling(const Shape &shape, Spans &spans)
{
    std::vector<Metric> out;
    const std::size_t n = static_cast<std::size_t>(
        std::max(1.0, std::round(shape.samplesPerTick)));
    util::Rng rng(shape.seed);
    std::vector<double> buf(n);
    {
        Span s(spans, "replay:util.rng.lognormal_ns");
        const int calls = 512;
        const double sec = perOp(
            [&] {
                for (int i = 0; i < calls; ++i) {
                    rng.fillLognormal(buf.data(), n, 4.0, 0.77);
                    g_sink = g_sink + buf[0];
                }
            },
            static_cast<double>(calls * n));
        out.push_back({"util.rng.lognormal_ns", sec * 1e9, "ns"});
    }
    {
        Span s(spans, "replay:util.p2.add_ns");
        std::vector<double> samples(1 << 15);
        rng.fillLognormal(samples.data(), samples.size(), 4.0, 0.77);
        util::P2Quantile sketch(0.99);
        const double sec = perOp(
            [&] {
                for (double x : samples)
                    sketch.add(x);
                g_sink = g_sink + sketch.value();
            },
            static_cast<double>(samples.size()));
        out.push_back({"util.p2.add_ns", sec * 1e9, "ns"});
    }
    return out;
}

std::vector<Metric>
replayServiceAndMonitor(const Shape &shape, Spans &spans)
{
    std::vector<Metric> out;
    const colo::ColoConfig &node = shape.node;
    {
        Span s(spans, "replay:services.tick_ns");
        auto svcs = makeServices(node, shape.seed);
        services::ServiceTickResult res;
        const int rounds = 256;
        const double sec = perOp(
            [&] {
                for (int r = 0; r < rounds; ++r)
                    for (auto &svc : svcs) {
                        svc->tick(node.tick, 1.1, res);
                        g_sink = g_sink + res.p99Us;
                    }
            },
            static_cast<double>(rounds * svcs.size()));
        out.push_back({"services.tick_ns", sec * 1e9, "ns"});
    }

    Span s(spans, "replay:core.monitor");
    const std::size_t n = static_cast<std::size_t>(
        std::max(1.0, std::round(shape.samplesPerTick)));
    const int ticks_per_interval = static_cast<int>(
        std::max<sim::Time>(1, node.decisionInterval / node.tick));
    util::Rng rng(shape.seed ^ 0x30);
    std::vector<std::vector<double>> batches(64, std::vector<double>(n));
    for (auto &b : batches)
        rng.fillLognormal(b.data(), n, 4.0, 0.77);
    core::PerformanceMonitor monitor(4096, shape.seed);
    std::vector<double> observe_ns, close_us;
    double window = 0.0;
    const double start = hostNow();
    std::size_t k = 0;
    do {
        const double t0 = hostNow();
        for (int t = 0; t < ticks_per_interval; ++t)
            monitor.observe(batches[k++ % batches.size()]);
        const double t1 = hostNow();
        window = static_cast<double>(monitor.windowSize());
        g_sink = g_sink + monitor.closeInterval().p99Us;
        const double t2 = hostNow();
        observe_ns.push_back((t1 - t0) * 1e9 /
                             static_cast<double>(ticks_per_interval * n));
        close_us.push_back((t2 - t1) * 1e6);
    } while (hostNow() - start < kReplayBudgetS || close_us.size() < 5);
    out.push_back({"core.monitor.observe_ns", median(observe_ns), "ns"});
    out.push_back({"core.monitor.close_us", median(close_us), "us"});
    out.push_back({"core.monitor.window_samples", window, "count"});
    return out;
}

std::vector<Metric>
replayServer(const Shape &shape, Spans &spans)
{
    std::vector<Metric> out;
    const colo::ColoConfig &node = shape.node;
    const CoreSplit split = coreSplit(node);
    const std::vector<std::string> apps = appsOf(node);
    std::vector<approx::ApproxTask> tasks;
    for (std::size_t i = 0; i < apps.size(); ++i)
        tasks.emplace_back(approx::findProfile(apps[i]), split.perApp,
                           shape.seed + i);
    {
        Span s(spans, "replay:server.contention_ns");
        const auto svcs = makeServices(node, shape.seed);
        std::vector<approx::PressureVector> svc_p, task_p;
        for (const auto &svc : svcs)
            svc_p.push_back(svc->currentPressure());
        for (const auto &t : tasks)
            task_p.push_back(t.currentPressure());
        const server::InterferenceModel model(node.spec);
        const server::CachePartition partition(node.spec, 0);
        // The peer list excludes the tenant itself, as in the engine.
        const std::vector<approx::PressureVector> peers(svc_p.begin() + 1,
                                                        svc_p.end());
        const int calls = 4096;
        const double sec = perOp(
            [&] {
                for (int i = 0; i < calls; ++i)
                    g_sink = g_sink +
                             model
                                 .contentionMulti(svc_p[0], peers.data(),
                                                  peers.size(),
                                                  task_p.data(),
                                                  task_p.size(), partition)
                                 .llc;
            },
            calls);
        out.push_back({"server.contention_ns", sec * 1e9, "ns"});
    }
    {
        Span s(spans, "replay:approx.task_tick_ns");
        const int calls = 1024;
        const double sec = perOp(
            [&] {
                for (int i = 0; i < calls; ++i)
                    for (std::size_t t = 0; t < tasks.size(); ++t) {
                        if (tasks[t].finished())
                            tasks[t] = approx::ApproxTask(
                                approx::findProfile(apps[t]),
                                split.perApp, shape.seed + t);
                        tasks[t].tick(node.tick);
                        g_sink = g_sink + tasks[t].progressFraction();
                    }
            },
            static_cast<double>(calls * tasks.size()));
        out.push_back({"approx.task_tick_ns", sec * 1e9, "ns"});
    }
    return out;
}

/**
 * A QoS ratio trace for the control loop: three violated intervals in
 * every twelve, slack otherwise, per tenant.
 */
std::vector<std::vector<core::ServiceReport>>
ratioTrace(const colo::ColoConfig &node, std::uint64_t seed)
{
    util::Rng rng(seed);
    std::vector<std::vector<core::ServiceReport>> trace(96);
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const bool violated = i % 12 < 3;
        for (const colo::ServiceSpec &spec : node.services) {
            core::ServiceReport r;
            r.name = spec.resolvedName();
            r.qosUs = services::defaultConfig(spec.kind).qosUs;
            const double ratio = violated ? rng.uniform(1.05, 1.4)
                                          : rng.uniform(0.4, 0.85);
            r.interval.p99Us = ratio * r.qosUs;
            trace[i].push_back(std::move(r));
        }
    }
    return trace;
}

std::vector<Metric>
replayControl(const Shape &shape, Spans &spans)
{
    std::vector<Metric> out;
    const colo::ColoConfig &node = shape.node;
    {
        Span s(spans, "replay:admission.tick_ns");
        admission::AdmissionConfig cfg = node.admission;
        cfg.enabled = true;
        const colo::ServiceSpec &spec = node.services.front();
        const services::ServiceConfig sc =
            services::defaultConfig(spec.kind);
        admission::AdmissionQueue queue(cfg, sc.saturationQps, sc.qosUs,
                                        shape.seed);
        const int ticks_per_interval = static_cast<int>(
            std::max<sim::Time>(1, node.decisionInterval / node.tick));
        const int intervals = 8;
        std::uint64_t step = 0;
        const double sec = perOp(
            [&] {
                for (int iv = 0; iv < intervals; ++iv, ++step) {
                    // Every fourth interval offers a crowd past
                    // saturation, the others the tenant's base load.
                    const double load = step % 4 == 0
                        ? 1.2
                        : spec.scenario.baseLoad;
                    for (int t = 0; t < ticks_per_interval; ++t)
                        g_sink = g_sink +
                                 queue.tick(load, 0.95, node.tick)
                                     .dispatchedLoad;
                    queue.onQosFeedback(step % 4 == 0 ? 1.3 : 0.7, -1.0);
                    g_sink = g_sink + queue.closeInterval().shedRequests;
                }
            },
            static_cast<double>(intervals * ticks_per_interval));
        out.push_back({"admission.tick_ns", sec * 1e9, "ns"});
    }
    {
        Span s(spans, "replay:core.runtime.on_interval_us");
        StubActuator act(appsOf(node), coreSplit(node).perApp - 1);
        core::RuntimeParams params;
        params.slackThreshold = node.slackThreshold;
        core::PliantRuntime runtime(act, params, shape.seed);
        const auto trace = ratioTrace(node, shape.seed);
        std::size_t k = 0;
        const int calls = 256;
        const double sec = perOp(
            [&] {
                for (int i = 0; i < calls; ++i)
                    g_sink = g_sink +
                             static_cast<double>(
                                 runtime
                                     .onInterval(trace[k++ % trace.size()])
                                     .task);
            },
            calls);
        out.push_back({"core.runtime.on_interval_us", sec * 1e6, "us"});
    }
    return out;
}

std::vector<Metric>
replayBarrier(const Shape &shape, const std::vector<std::string> &placed,
              Spans &spans)
{
    std::vector<Metric> out;
    const std::size_t n = shape.nodes;
    std::vector<approx::AppProfile> profiles;
    for (const std::string &name : placed)
        profiles.push_back(approx::findProfile(name));

    // Node statuses: one node in ten is over its QoS target.
    cluster::QosAwarePlacement policy;
    const std::vector<std::size_t> where =
        policy.initialPlacement(n, profiles);
    util::Rng rng(shape.seed ^ 0xba);
    std::vector<cluster::NodeStatus> statuses(n);
    std::vector<budget::NodeDemand> demands(n);
    for (std::size_t i = 0; i < n; ++i) {
        cluster::NodeStatus &st = statuses[i];
        st.node = i;
        st.name = "node" + std::to_string(i);
        st.worstRatio = rng.coin(0.1) ? rng.uniform(1.05, 1.3)
                                      : rng.uniform(0.4, 0.85);
        for (const colo::ServiceSpec &spec : shape.node.services) {
            core::ServiceReport r;
            r.name = spec.resolvedName();
            r.qosUs = services::defaultConfig(spec.kind).qosUs;
            r.interval.p99Us = st.worstRatio * r.qosUs;
            st.services.push_back(std::move(r));
        }
        for (std::size_t a = 0; a < placed.size(); ++a)
            if (where[a] == i)
                st.apps.push_back({placed[a], false, 0.3,
                                   0.7 * profiles[a].nominalExecSeconds});
        st.done = st.apps.empty();
        st.qualityInUse = 0.01 * static_cast<double>(st.apps.size());
        st.qualityHeadroom = 0.05 * static_cast<double>(st.apps.size());
        demands[i].name = st.name;
        demands[i].worstRatio = st.worstRatio;
        demands[i].qualityInUse = st.qualityInUse;
        demands[i].qualityHeadroom = st.qualityHeadroom;
    }
    {
        Span s(spans, "replay:cluster.rebalance_us");
        sim::Time now = 0;
        const double sec = perOp(
            [&] {
                now += 5 * sim::kSecond;
                g_sink = g_sink + static_cast<double>(
                                      policy.rebalance(statuses, now).size());
            },
            1.0);
        out.push_back({"cluster.rebalance_us", sec * 1e6, "us"});
    }
    {
        Span s(spans, "replay:budget.allocate_us");
        budget::BudgetConfig cfg;
        cfg.enabled = true;
        cfg.policy = budget::BudgetPolicy::Proportional;
        cfg.qualityBudget = 0.02 * static_cast<double>(placed.size());
        cfg.shedBudget = 1.5;
        budget::Controller controller(cfg, n);
        const double sec = perOp(
            [&] {
                g_sink = g_sink +
                         controller.allocate(demands).front().qualityCap;
            },
            1.0);
        out.push_back({"budget.allocate_us", sec * 1e6, "us"});
    }
    {
        Span s(spans, "replay:driver.pool.dispatch_us");
        driver::Pool pool(4);
        const double sec = perOp(
            [&] {
                for (std::size_t i = 0; i < n; ++i)
                    pool.submit([] { g_sink = g_sink + 1.0; });
                pool.wait();
            },
            1.0);
        out.push_back({"driver.pool.dispatch_us", sec * 1e6, "us"});
    }
    return out;
}

} // namespace

std::vector<Metric>
replayLayers(const Shape &shape, Spans &spans)
{
    std::vector<Metric> out;
    auto append = [&out](std::vector<Metric> part) {
        out.insert(out.end(), part.begin(), part.end());
    };
    append(replaySampling(shape, spans));
    append(replayServiceAndMonitor(shape, spans));
    append(replayServer(shape, spans));
    append(replayControl(shape, spans));
    append(replayBarrier(shape,
                         shape.nodes > 1 ? approx::catalogNames()
                                         : appsOf(shape.node),
                         spans));
    return out;
}

std::vector<double>
replayNodeSteps(const std::vector<colo::ColoConfig> &configs,
                sim::Time end, Spans &spans, std::vector<double> &ctorUs,
                std::vector<double> &finalizeUs)
{
    Span replay(spans, "replay:colo.node_steps");
    std::vector<double> steps;
    for (const colo::ColoConfig &cfg : configs) {
        const double t0 = hostNow();
        colo::Engine engine(cfg);
        ctorUs.push_back((hostNow() - t0) * 1e6);
        for (sim::Time until = cfg.decisionInterval; until <= end;
             until += cfg.decisionInterval) {
            const double a = hostNow();
            engine.advanceUntil(until, /*keep_services_running=*/true);
            steps.push_back((hostNow() - a) * 1e6);
        }
        const double f = hostNow();
        g_sink = g_sink + engine.finalize().steadyP99Us;
        finalizeUs.push_back((hostNow() - f) * 1e6);
    }
    return steps;
}

} // namespace perfbench
