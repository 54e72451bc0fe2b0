/**
 * @file
 * Host-speed reference for the timed run.
 *
 * The host this benchmark runs on changes speed by ±10% or more from
 * one second to the next and from one minute to the next, while the
 * simulator's work per rep stays fixed. A reference slice is a fixed
 * amount of benchmark-owned work (xorshift draws through exp/log/sqrt,
 * then a partial sort of 4096 doubles; no simulator code, so no change
 * to src/ can speed it up) whose host time tracks the host's current
 * speed. Timed reps run slices outside their timed windows, and the
 * host-time metrics are scaled to the speed at which a slice takes
 * kReferenceSliceS.
 */

#ifndef PLIANT_PERFBENCH_CALIBRATE_HH
#define PLIANT_PERFBENCH_CALIBRATE_HH

namespace perfbench {

/**
 * Nominal host seconds of one reference slice: about its median on
 * the 4-vCPU Xeon host the bounds in BENCHMARK.json were set on.
 */
constexpr double kReferenceSliceS = 1.5e-3;

/**
 * Run `slices` reference slices on each of `threads` threads at once
 * (inline when threads is 1) and return the mean host seconds per
 * slice. A workload's reference uses as many threads as its timed
 * phase runs on, since the host's speed depends on how many cores are
 * busy.
 */
double referenceSlices(unsigned threads, int slices);

} // namespace perfbench

#endif // PLIANT_PERFBENCH_CALIBRATE_HH
