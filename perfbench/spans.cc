#include "spans.hh"

#include <algorithm>
#include <ostream>

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

void
Spans::begin(const std::string &name)
{
    if (!on)
        return;
    events.push_back({true, name, hostNow() - origin});
    open.push_back(name);
}

void
Spans::end()
{
    if (!on || open.empty())
        return;
    events.push_back({false, open.back(), hostNow() - origin});
    open.pop_back();
}

std::map<std::string, SelfTime>
Spans::selfTimes() const
{
    struct Frame
    {
        std::string name;
        double start = 0.0;
        double childS = 0.0;
    };
    std::map<std::string, SelfTime> out;
    std::vector<Frame> stack;
    for (const Event &ev : events) {
        if (ev.isBegin) {
            stack.push_back({ev.name, ev.ts, 0.0});
            continue;
        }
        const Frame f = stack.back();
        stack.pop_back();
        const double dur = ev.ts - f.start;
        SelfTime &st = out[f.name];
        ++st.count;
        st.totalS += dur;
        st.selfS += dur - f.childS;
        if (!stack.empty())
            stack.back().childS += dur;
    }
    return out;
}

void
Spans::writeChromeTrace(std::ostream &os) const
{
    os << "[\n{\"name\": \"process_name\", \"ph\": \"M\", \"ts\": 0, "
          "\"pid\": 0, \"tid\": 0, \"args\": {\"name\": "
          "\"perfbench\"}}";
    const auto old = os.precision(15);
    for (const Event &ev : events)
        os << ",\n{\"name\": \"" << ev.name << "\", \"ph\": \""
           << (ev.isBegin ? 'B' : 'E') << "\", \"ts\": " << ev.ts * 1e6
           << ", \"pid\": 0, \"tid\": 0}";
    os.precision(old);
    os << "\n]\n";
}

} // namespace perfbench
