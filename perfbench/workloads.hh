/**
 * @file
 * The benchmark's three workloads: seed-drawn inputs, config
 * construction through the public builders, one timed repetition, and
 * the simulated outcome each repetition is checked by.
 *
 *  - node_dense:    a batch of 8-tenant + 2-app single-node
 *                   colocations under Pliant at 10 ms ticks; the
 *                   sampler, 4096-sample monitor windows and the P²
 *                   sketches do most of the work.
 *  - node_overload: a batch of 2-tenant + 3..4-app colocations whose
 *                   flash crowds overshoot saturation, behind QosShed
 *                   admission with adaptive batching; the control loop
 *                   actuates often.
 *  - cluster_wide:  one ~500-node cluster, 4 tenants per node, every
 *                   catalog app placed once, QoS-aware placement with
 *                   migrations, proportional budgets, 1 s ticks, and a
 *                   4-wide driver::Pool.
 *
 * Every knob the workload does not name stays at its default.
 */

#ifndef PLIANT_PERFBENCH_WORKLOADS_HH
#define PLIANT_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.hh"
#include "colo/engine.hh"
#include "obs/metrics.hh"
#include "spans.hh"

namespace perfbench {

enum class Kind { NodeDense, NodeOverload, ClusterWide };

/** Parse a workload name; false when unknown. */
bool parseKind(const std::string &name, Kind &kind);

/** One seed-drawn single-node colocation. */
struct ColoDraw
{
    std::vector<pliant::colo::ServiceSpec> services;
    std::vector<std::string> apps;
    std::uint64_t seed = 1;
};

/** Seed-drawn inputs of one workload; configs are built per rep. */
struct Inputs
{
    Kind kind = Kind::NodeDense;
    /** Node workloads: the batch one rep runs back to back. */
    std::vector<ColoDraw> colos;
    /** cluster_wide: the tenants of every node. */
    std::vector<std::vector<pliant::colo::ServiceSpec>> nodes;
    std::uint64_t clusterSeed = 1;
};

Inputs makeInputs(Kind kind, std::uint64_t seed);

/** Node workloads: the ColoConfig of one colocation. */
pliant::colo::ColoConfig buildColoConfig(const Inputs &in,
                                         const ColoDraw &draw,
                                         bool metrics);

/** cluster_wide: the ClusterConfig at a given driver::Pool width. */
pliant::cluster::ClusterConfig buildClusterConfig(const Inputs &in,
                                                  unsigned poolWidth,
                                                  bool metrics);

/**
 * The simulated outcome of one rep, folded over every service and
 * app it ran. `digest` hashes the bit patterns of every per-service
 * and per-app value (and the migration log), so two reps agree only
 * when their outcomes are identical.
 */
struct Outcome
{
    std::uint64_t digest = 0;
    /** First non-finite or out-of-range value; empty when none. */
    std::string error;

    std::size_t services = 0;
    std::size_t apps = 0;
    int migrations = 0;
    double qosMetPct = 0.0;      ///< mean per-service QoS-met share
    double worstP99OverQos = 0.0; ///< max steady p99 / QoS target
    double qualityLossPct = 0.0; ///< mean app inaccuracy, percent
    double appRelExecTime = 0.0; ///< mean app time vs nominal
    double shedPct = 0.0;        ///< mean per-service shed share
};

/** How a rep runs. */
struct RepOptions
{
    /**
     * Traced rep: engines record the src/obs/ metrics, node engines
     * are stepped one decision interval per advanceUntil() call with
     * each step timed, and the cluster's epoch barriers are
     * timestamped.
     */
    bool traced = false;
    /** cluster_wide only. */
    unsigned poolWidth = 4;
    /**
     * Run host-speed reference slices (calibrate.hh) outside the
     * timed windows: after each engine of a node batch, and around a
     * cluster run.
     */
    bool calibrate = false;
};

/** One rep's host timings, engine tick count and outcome. */
struct RepResult
{
    Outcome outcome;
    double setupS = 0.0; ///< config build + Engine/Cluster construction
    double runS = 0.0;   ///< run / advance + finalize
    /**
     * Engine ticks executed, counted from the engines (node
     * workloads: Engine::now() / tick; cluster: the engine.ticks
     * counter, so 0 for an untraced cluster rep).
     */
    std::uint64_t ticks = 0;
    double simSeconds = 0.0; ///< ticks x tick
    /**
     * Host speed during the rep relative to the nominal reference
     * speed (>1: faster); 1 when the rep was not calibrated.
     */
    double hostSpeed = 1.0;

    // --- traced reps only ---
    pliant::obs::MetricsSnapshot metrics;
    std::vector<double> intervalStepUs; ///< one per advanceUntil step
    std::vector<double> engineCtorUs;
    std::vector<double> finalizeUs;
    double clusterCtorS = 0.0;
    std::vector<double> epochHostMs; ///< barrier-to-barrier host time
};

RepResult runRep(const Inputs &in, const RepOptions &opt,
                 Spans &spans);

/** A counter's folded value in an obs snapshot; 0 when absent. */
std::uint64_t counterOf(const pliant::obs::MetricsSnapshot &snap,
                        const char *name);

/**
 * Node workloads: the batch's first colocation run as a traced
 * one-node cluster at pool width 4, so the cluster-layer metrics
 * exist at the node shape too.
 */
RepResult runOneNodeCluster(const Inputs &in, Spans &spans);

} // namespace perfbench

#endif // PLIANT_PERFBENCH_WORKLOADS_HH
