#include "workloads.hh"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <streambuf>

#include "approx/profile.hh"
#include "budget/budget.hh"
#include "calibrate.hh"
#include "obs/trace.hh"
#include "util/rng.hh"

namespace perfbench {

using namespace pliant;

namespace {

constexpr sim::Time kS = sim::kSecond;

/**
 * Batch sizes. Each node-workload batch deals every catalog app the
 * same number of times: 24 x 2 = 48 in node_dense, 48 x 4 + 32 x 3 =
 * 288 in node_overload.
 */
constexpr int kDenseBatch = 24;
constexpr int kOverloadBatch = 80;
constexpr int kOverloadFourAppColos = 48;

constexpr int kClusterNodes = 500;
constexpr int kClusterTenantsPerNode = 4;
/** Nodes per tenant-dealing block: one per catalog app. */
constexpr int kClusterBlock = 24;

const services::ServiceKind kKinds[] = {services::ServiceKind::Memcached,
                                        services::ServiceKind::Nginx,
                                        services::ServiceKind::MongoDb};

template <typename T>
void
shuffle(util::Rng &rng, std::vector<T> &v)
{
    for (std::size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[rng.uniformInt(i)]);
}

/**
 * `n` values stratified over [lo, hi): one uniform draw in each of n
 * equal slices, shuffled. Every seed then spans the whole range
 * evenly, which keeps batch means steady from seed to seed.
 */
std::vector<double>
stratified(util::Rng &rng, std::size_t n, double lo, double hi)
{
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = lo + (hi - lo) * (static_cast<double>(i) + rng.uniform()) /
                        static_cast<double>(n);
    shuffle(rng, v);
    return v;
}

sim::Time
seconds(double s)
{
    return static_cast<sim::Time>(s * 1e3) * sim::kMillisecond;
}

/**
 * App lists of the given sizes, dealt from shuffled copies of the
 * catalog so every app appears equally often across the lists; no
 * list holds an app twice.
 */
std::vector<std::vector<std::string>>
dealApps(util::Rng &rng, const std::vector<int> &sizes)
{
    const std::vector<std::string> catalog = approx::catalogNames();
    std::vector<std::string> deck;
    std::vector<std::vector<std::string>> out;
    for (int size : sizes) {
        std::vector<std::string> hand;
        while (static_cast<int>(hand.size()) < size) {
            const auto fresh = std::find_if(
                deck.begin(), deck.end(), [&](const std::string &app) {
                    return std::find(hand.begin(), hand.end(), app) ==
                           hand.end();
                });
            if (fresh == deck.end()) {
                std::vector<std::string> more = catalog;
                shuffle(rng, more);
                deck.insert(deck.end(), more.begin(), more.end());
                continue;
            }
            hand.push_back(*fresh);
            deck.erase(fresh);
        }
        out.push_back(std::move(hand));
    }
    return out;
}

/**
 * Tenant lists for `crowds.size()` groups (colocations or nodes) of
 * `perGroup` tenants: service kinds in equal shares, base loads
 * stratified over [baseLo, baseHi), and crowds[g] tenants of group g
 * hit by a flash crowd. Crowd peaks (over [peakLo, peakHi)), start
 * times and hold times are stratified too.
 */
std::vector<std::vector<colo::ServiceSpec>>
dealTenants(util::Rng &rng, const std::vector<int> &crowds, int perGroup,
            double baseLo, double baseHi, double peakLo, double peakHi)
{
    const std::size_t n = crowds.size() * static_cast<std::size_t>(perGroup);
    std::vector<services::ServiceKind> kinds(n);
    for (std::size_t i = 0; i < n; ++i)
        kinds[i] = kKinds[i % 3];
    shuffle(rng, kinds);
    const std::vector<double> base = stratified(rng, n, baseLo, baseHi);
    int total_crowds = 0;
    for (int c : crowds)
        total_crowds += c;
    const std::vector<double> peak =
        stratified(rng, static_cast<std::size_t>(total_crowds), peakLo,
                   peakHi);
    const std::vector<double> hold = stratified(
        rng, static_cast<std::size_t>(total_crowds), 10.0, 20.0);
    const std::vector<double> at = stratified(
        rng, static_cast<std::size_t>(total_crowds), 8.0, 25.0);

    std::vector<std::vector<colo::ServiceSpec>> out;
    std::size_t k = 0;
    std::size_t c = 0;
    for (int group_crowds : crowds) {
        std::vector<colo::ServiceSpec> group;
        for (int i = 0; i < perGroup; ++i, ++k) {
            colo::ServiceSpec s;
            s.kind = kinds[k];
            s.name = services::serviceName(s.kind) + "-" + std::to_string(i);
            s.scenario = colo::Scenario::constant(base[k]);
            group.push_back(std::move(s));
        }
        std::vector<int> order(static_cast<std::size_t>(perGroup));
        for (int i = 0; i < perGroup; ++i)
            order[static_cast<std::size_t>(i)] = i;
        shuffle(rng, order);
        for (int j = 0; j < group_crowds; ++j, ++c) {
            colo::ServiceSpec &s = group[static_cast<std::size_t>(
                order[static_cast<std::size_t>(j)])];
            s.scenario = colo::Scenario::flashCrowd(
                s.scenario.baseLoad, peak[c], seconds(at[c]),
                3 * kS, seconds(hold[c]), seconds(rng.uniform(5.0, 10.0)));
        }
        out.push_back(std::move(group));
    }
    return out;
}

/** Half the colocations get one flash crowd, half get two. */
std::vector<int>
oneOrTwoCrowds(util::Rng &rng, int colos)
{
    std::vector<int> crowds(static_cast<std::size_t>(colos));
    for (int i = 0; i < colos; ++i)
        crowds[static_cast<std::size_t>(i)] = 1 + i % 2;
    shuffle(rng, crowds);
    return crowds;
}

/** Node workloads: tenants and apps dealt into one batch. */
std::vector<ColoDraw>
dealColos(util::Rng &rng, int tenants, const std::vector<int> &appCounts,
          double baseLo, double baseHi, double peakLo, double peakHi)
{
    const int colos = static_cast<int>(appCounts.size());
    const auto groups =
        dealTenants(rng, oneOrTwoCrowds(rng, colos), tenants, baseLo,
                    baseHi, peakLo, peakHi);
    const auto apps = dealApps(rng, appCounts);
    std::vector<ColoDraw> out;
    for (int i = 0; i < colos; ++i) {
        ColoDraw d;
        d.services = groups[static_cast<std::size_t>(i)];
        d.apps = apps[static_cast<std::size_t>(i)];
        d.seed = rng.next();
        out.push_back(std::move(d));
    }
    return out;
}

/** FNV-1a over the bit patterns of the outcome's values. */
class Digest
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    void
    add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
    void
    add(const std::string &s)
    {
        for (unsigned char c : s) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
        add(static_cast<std::uint64_t>(s.size()));
    }
    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** Folds ColoResults into an Outcome, range-checking every value. */
class OutcomeFold
{
  public:
    void
    add(const colo::ColoResult &r)
    {
        for (const colo::ServiceOutcome &s : r.services) {
            dig.add(s.name);
            dig.add(s.steadyP99Us);
            dig.add(s.qosMetFraction);
            dig.add(s.shedFraction);
            check(s.steadyP99Us > 0.0 && std::isfinite(s.steadyP99Us),
                  "steady p99", s.name);
            check(s.qosUs > 0.0, "QoS target", s.name);
            check(s.qosMetFraction >= 0.0 && s.qosMetFraction <= 1.0,
                  "QoS-met share", s.name);
            check(s.shedFraction >= 0.0 && s.shedFraction <= 1.0,
                  "shed share", s.name);
            ++out.services;
            qosMetSum += s.qosMetFraction;
            shedSum += s.shedFraction;
            if (s.qosUs > 0.0)
                ratios.push_back(s.steadyP99Us / s.qosUs);
        }
        for (const colo::AppOutcome &a : r.apps) {
            dig.add(a.name);
            dig.add(a.inaccuracy);
            dig.add(a.relativeExecTime);
            check(a.finished, "completion", a.name);
            check(a.inaccuracy >= 0.0 && a.inaccuracy <= 1.0,
                  "inaccuracy", a.name);
            check(a.relativeExecTime > 0.0 &&
                      std::isfinite(a.relativeExecTime),
                  "relative exec time", a.name);
            ++out.apps;
            inaccSum += a.inaccuracy;
            relSum += a.relativeExecTime;
        }
    }

    void
    addMigrations(const std::vector<cluster::MigrationEvent> &moves)
    {
        out.migrations = static_cast<int>(moves.size());
        dig.add(static_cast<std::uint64_t>(moves.size()));
        for (const cluster::MigrationEvent &m : moves) {
            dig.add(static_cast<std::uint64_t>(m.t));
            dig.add(m.app);
            dig.add(static_cast<std::uint64_t>(m.from));
            dig.add(static_cast<std::uint64_t>(m.to));
        }
    }

    Outcome
    finish()
    {
        check(out.services > 0 && out.apps > 0, "tenant/app count",
              "rep");
        const double ns = static_cast<double>(std::max<std::size_t>(
            out.services, 1));
        const double na =
            static_cast<double>(std::max<std::size_t>(out.apps, 1));
        out.qosMetPct = 100.0 * qosMetSum / ns;
        out.shedPct = 100.0 * shedSum / ns;
        out.qualityLossPct = 100.0 * inaccSum / na;
        out.appRelExecTime = relSum / na;
        // Mean over the worst tenth of services: a tail a single
        // draw cannot swing the way it swings the maximum.
        std::sort(ratios.begin(), ratios.end(), std::greater<double>());
        const std::size_t worst = (ratios.size() + 9) / 10;
        for (std::size_t i = 0; i < worst; ++i)
            out.worstP99OverQos +=
                ratios[i] / static_cast<double>(worst);
        check(std::isfinite(out.worstP99OverQos), "worst p99/QoS",
              "rep");
        out.digest = dig.value();
        return out;
    }

  private:
    void
    check(bool ok, const char *what, const std::string &who)
    {
        if (!ok && out.error.empty())
            out.error = std::string(what) + " out of range for " + who;
    }

    Outcome out;
    Digest dig;
    double qosMetSum = 0.0;
    double shedSum = 0.0;
    double inaccSum = 0.0;
    double relSum = 0.0;
    std::vector<double> ratios;
};

/**
 * Sink for the cluster's span writer in traced reps: discards the
 * trace text and timestamps every epoch-barrier span as it is
 * written. TraceWriter emits span names with one stream insertion,
 * which reaches xsputn whole because this buffer has no put area.
 */
class EpochStamps : public std::streambuf
{
  public:
    std::vector<double> beginS;

  protected:
    std::streamsize
    xsputn(const char *s, std::streamsize n) override
    {
        // "epoch" arrives twice per barrier (B, then E).
        if (n == 5 && std::memcmp(s, "epoch", 5) == 0 &&
            (++seen % 2) == 1)
            beginS.push_back(hostNow());
        return n;
    }
    int_type
    overflow(int_type c) override
    {
        return traits_type::not_eof(c);
    }

  private:
    std::uint64_t seen = 0;
};

/**
 * One node-workload rep. Set-up builds every config and constructs
 * every engine of the batch; the engines then run back to back on
 * this thread and stay alive until the rep ends, so the rep's memory
 * is the whole batch's.
 */
RepResult
runNodeRep(const Inputs &in, const RepOptions &opt, Spans &spans)
{
    RepResult rep;
    std::vector<colo::ColoConfig> cfgs;
    std::vector<std::unique_ptr<colo::Engine>> engines;
    const double t0 = hostNow();
    for (const ColoDraw &draw : in.colos) {
        {
            Span s(spans, "config_build");
            cfgs.push_back(buildColoConfig(in, draw, opt.traced));
        }
        const double tc = hostNow();
        {
            Span s(spans, "construct");
            engines.push_back(std::make_unique<colo::Engine>(cfgs.back()));
        }
        if (opt.traced)
            rep.engineCtorUs.push_back((hostNow() - tc) * 1e6);
    }
    rep.setupS = hostNow() - t0;

    OutcomeFold fold;
    double ref_s = 0.0;
    for (std::size_t i = 0; i < engines.size(); ++i) {
        colo::Engine &engine = *engines[i];
        colo::ColoResult result;
        const double r0 = hostNow();
        if (!opt.traced) {
            result = engine.run();
        } else {
            {
                Span s(spans, "advance");
                sim::Time until = 0;
                while (!engine.done()) {
                    until += cfgs[i].decisionInterval;
                    const double a = hostNow();
                    engine.advanceUntil(until);
                    rep.intervalStepUs.push_back((hostNow() - a) * 1e6);
                }
            }
            const double f = hostNow();
            {
                Span s(spans, "finalize");
                result = engine.finalize();
            }
            rep.finalizeUs.push_back((hostNow() - f) * 1e6);
            rep.metrics.merge(result.metrics);
        }
        rep.runS += hostNow() - r0;
        if (opt.calibrate)
            ref_s += referenceSlices(1, 1);
        rep.ticks += static_cast<std::uint64_t>(engine.now() / cfgs[i].tick);
        rep.simSeconds += sim::toSeconds(engine.now());
        fold.add(result);
    }
    if (opt.calibrate)
        rep.hostSpeed = static_cast<double>(engines.size()) *
                        kReferenceSliceS / ref_s;
    rep.outcome = fold.finish();
    return rep;
}

/**
 * One cluster run. `setupStart` is when config building began, so
 * set-up time covers the build and the Cluster constructor.
 */
RepResult
runBuiltCluster(const cluster::ClusterConfig &cfg, bool traced,
                double setupStart, Spans &spans)
{
    RepResult rep;
    std::unique_ptr<cluster::Cluster> c;
    const double tc = hostNow();
    {
        Span s(spans, "construct");
        c = std::make_unique<cluster::Cluster>(cfg);
    }
    const double t1 = hostNow();

    EpochStamps stamps;
    std::ostream trace_sink(&stamps);
    std::unique_ptr<obs::TraceWriter> writer;
    if (traced) {
        writer = std::make_unique<obs::TraceWriter>(trace_sink);
        c->setTraceWriter(writer.get());
    }
    cluster::ClusterResult result;
    {
        Span s(spans, "run");
        result = c->run();
    }
    const double t2 = hostNow();
    rep.setupS = t1 - setupStart;
    rep.runS = t2 - t1;

    OutcomeFold fold;
    for (const cluster::NodeResult &nr : result.nodes)
        fold.add(nr.result);
    fold.addMigrations(result.migrations);
    rep.outcome = fold.finish();

    if (traced) {
        writer.reset();
        rep.metrics = result.metrics;
        rep.ticks = counterOf(result.metrics, "engine.ticks");
        rep.simSeconds =
            static_cast<double>(rep.ticks) * sim::toSeconds(cfg.tick);
        rep.clusterCtorS = t1 - tc;
        for (std::size_t i = 1; i < stamps.beginS.size(); ++i)
            rep.epochHostMs.push_back(
                (stamps.beginS[i] - stamps.beginS[i - 1]) * 1e3);
    }
    return rep;
}

RepResult
runClusterRep(const Inputs &in, const RepOptions &opt, Spans &spans)
{
    // Two slices per pool thread on each side of the rep.
    double ref_s = 0.0;
    if (opt.calibrate)
        ref_s += referenceSlices(opt.poolWidth, 2);
    const double t0 = hostNow();
    cluster::ClusterConfig cfg;
    {
        Span s(spans, "config_build");
        cfg = buildClusterConfig(in, opt.poolWidth, opt.traced);
    }
    RepResult rep = runBuiltCluster(cfg, opt.traced, t0, spans);
    if (opt.calibrate) {
        ref_s += referenceSlices(opt.poolWidth, 2);
        rep.hostSpeed = 2.0 * kReferenceSliceS / ref_s;
    }
    return rep;
}

} // namespace

bool
parseKind(const std::string &name, Kind &kind)
{
    if (name == "node_dense")
        kind = Kind::NodeDense;
    else if (name == "node_overload")
        kind = Kind::NodeOverload;
    else if (name == "cluster_wide")
        kind = Kind::ClusterWide;
    else
        return false;
    return true;
}

Inputs
makeInputs(Kind kind, std::uint64_t seed)
{
    Inputs in;
    in.kind = kind;
    util::Rng rng(util::SplitMix64(seed).next() ^
                  (static_cast<std::uint64_t>(kind) + 1));
    switch (kind) {
    case Kind::NodeDense:
        // Loads leave Pliant room to meet QoS most of the time; the
        // flash crowds give the control loop something to do.
        in.colos = dealColos(rng, 8, std::vector<int>(kDenseBatch, 2),
                             0.30, 0.50, 0.80, 0.95);
        break;
    case Kind::NodeOverload: {
        // Crowds overshoot saturation, so admission has to shed.
        std::vector<int> apps(kOverloadBatch, 3);
        std::fill(apps.begin(), apps.begin() + kOverloadFourAppColos, 4);
        shuffle(rng, apps);
        in.colos = dealColos(rng, 2, apps, 0.40, 0.55, 1.10, 1.30);
        break;
    }
    case Kind::ClusterWide:
        // Every node carries one flash crowd near saturation, which
        // gives QoS-aware placement migrations to make. Tenants are
        // dealt per block of kClusterBlock nodes, so every block,
        // including the first one, where placement puts the apps,
        // spans the full range of loads and crowd peaks.
        for (int b = 0; b < kClusterNodes; b += kClusterBlock) {
            const int n = std::min(kClusterBlock, kClusterNodes - b);
            const auto block =
                dealTenants(rng, std::vector<int>(n, 1),
                            kClusterTenantsPerNode, 0.35, 0.55, 0.95, 1.10);
            in.nodes.insert(in.nodes.end(), block.begin(), block.end());
        }
        in.clusterSeed = rng.next();
        break;
    }
    return in;
}

colo::ColoConfig
buildColoConfig(const Inputs &in, const ColoDraw &draw, bool metrics)
{
    colo::ColoConfig cfg = colo::makeMultiServiceConfig(
        draw.services, draw.apps, core::RuntimeKind::Pliant, draw.seed);
    if (in.kind == Kind::NodeOverload) {
        cfg.admission.enabled = true;
        cfg.admission.policy = admission::AdmissionKind::QosShed;
        cfg.admission.batching = admission::BatchingKind::Adaptive;
    }
    cfg.observability.metrics = metrics;
    return cfg;
}

cluster::ClusterConfig
buildClusterConfig(const Inputs &in, unsigned poolWidth, bool metrics)
{
    cluster::ClusterConfigBuilder b;
    for (const auto &tenants : in.nodes) {
        b.node();
        for (const colo::ServiceSpec &s : tenants)
            b.service(s.name, s.kind, s.scenario);
    }
    // Quality budget: 0.3 summed inaccuracy per app. It binds (without
    // it quality loss is ~20% higher), but loosely: at 0.1 or less an
    // app's outcome turns on whether its node's slice lets it escalate
    // at all, and the 24-app mean swings 20-40% from seed to seed.
    const std::vector<std::string> apps = approx::catalogNames();
    b.apps(apps)
        .runtime(core::RuntimeKind::Pliant)
        .placement(cluster::PlacementKind::QosAware)
        .budget(budget::BudgetPolicy::Proportional,
                0.3 * static_cast<double>(apps.size()), 1.5)
        .tick(kS)
        .decisionInterval(kS)
        .epoch(5 * kS)
        .seed(in.clusterSeed)
        .threads(poolWidth)
        .observability(metrics);
    return b.build();
}

RepResult
runOneNodeCluster(const Inputs &in, Spans &spans)
{
    Span span(spans, "one_node_cluster");
    const double t0 = hostNow();
    const ColoDraw &draw = in.colos.front();
    const colo::ColoConfig node = buildColoConfig(in, draw, true);
    cluster::ClusterConfigBuilder b;
    b.node();
    for (const colo::ServiceSpec &s : draw.services)
        b.service(s.name, s.kind, s.scenario);
    b.apps(draw.apps).seed(draw.seed).threads(4).observability(true);
    if (node.admission.enabled)
        b.admission(node.admission);
    return runBuiltCluster(b.build(), true, t0, spans);
}

std::uint64_t
counterOf(const obs::MetricsSnapshot &snap, const char *name)
{
    const obs::MetricValue *m = snap.find(name);
    return m ? m->count : 0;
}

RepResult
runRep(const Inputs &in, const RepOptions &opt, Spans &spans)
{
    Span s(spans, "rep");
    return in.kind == Kind::ClusterWide ? runClusterRep(in, opt, spans)
                                        : runNodeRep(in, opt, spans);
}

} // namespace perfbench
