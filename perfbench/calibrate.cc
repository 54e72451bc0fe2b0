#include "calibrate.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "spans.hh"

namespace perfbench {

namespace {

volatile double g_sink = 0.0;

/** One slice; returns the host seconds it took. */
double
referenceSlice()
{
    constexpr int kRounds = 15;
    std::vector<double> buf(4096);
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const double t0 = hostNow();
    for (int r = 0; r < kRounds; ++r) {
        for (double &v : buf) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const double u =
                static_cast<double>(x >> 11) * 0x1.0p-53 + 1e-300;
            v = std::exp(0.7 * std::sqrt(-2.0 * std::log(u)));
        }
        std::nth_element(buf.begin(), buf.begin() + 4000, buf.end());
        g_sink = g_sink + buf[4000];
    }
    return hostNow() - t0;
}

} // namespace

double
referenceSlices(unsigned threads, int slices)
{
    std::vector<double> total(threads, 0.0);
    auto work = [&total, slices](unsigned t) {
        for (int s = 0; s < slices; ++s)
            total[t] += referenceSlice();
    };
    if (threads == 1) {
        work(0);
    } else {
        std::vector<std::thread> team;
        for (unsigned t = 0; t < threads; ++t)
            team.emplace_back(work, t);
        for (std::thread &th : team)
            th.join();
    }
    double sum = 0.0;
    for (double t : total)
        sum += t;
    return sum / (static_cast<double>(threads) * slices);
}

} // namespace perfbench
