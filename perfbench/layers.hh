/**
 * @file
 * Layer replays for the traced run: each one times calls into one
 * module's public API with inputs shaped like the workload (tenant
 * and app count, samples per tick, ticks per decision interval, node
 * count), so a per-layer number compares across workloads. Every
 * replay is recorded as one span named `replay:<metric>`.
 */

#ifndef PLIANT_PERFBENCH_LAYERS_HH
#define PLIANT_PERFBENCH_LAYERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "colo/engine.hh"
#include "spans.hh"

namespace perfbench {

/** One named metric value with its unit. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** The workload shape the replays are fed. */
struct Shape
{
    /**
     * A representative node: its tenants, apps, tick, decision
     * interval, admission config and server spec.
     */
    pliant::colo::ColoConfig node;
    /** Nodes per placement / budget barrier (1 for node workloads). */
    std::size_t nodes = 1;
    /** Mean request samples per tenant tick, from the traced run. */
    double samplesPerTick = 8.0;
    std::uint64_t seed = 1;
};

/**
 * Replay the sampler, P² sketch, service tick, monitor, interference
 * model, approximate-task tick, admission tick, Pliant runtime
 * decision, QoS-aware rebalance, budget split and pool dispatch at
 * the given shape.
 */
std::vector<Metric> replayLayers(const Shape &shape, Spans &spans);

/**
 * Host time of each one-decision-interval advanceUntil() step of
 * engines built from `configs`, advanced in keep-services mode to
 * `end` (how cluster nodes advance). Returns every step's µs.
 */
std::vector<double>
replayNodeSteps(const std::vector<pliant::colo::ColoConfig> &configs,
                pliant::sim::Time end, Spans &spans,
                std::vector<double> &ctorUs,
                std::vector<double> &finalizeUs);

} // namespace perfbench

#endif // PLIANT_PERFBENCH_LAYERS_HH
