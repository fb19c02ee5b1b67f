#include "trace.h"

#include "common/log.h"
#include "stats.h"

namespace wsbench {

Tracer::Tracer() : originUs_(nowSeconds() * 1e6) {}

int
Tracer::begin(const std::string &name, std::int64_t point)
{
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : open_.back();
    s.point = point;
    s.startUs = nowSeconds() * 1e6 - originUs_;
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void
Tracer::end(int id)
{
    if (open_.empty() || open_.back() != id)
        ws::fatal("Tracer: span %d closed out of order", id);
    open_.pop_back();
    Span &s = spans_[static_cast<std::size_t>(id)];
    s.endUs = nowSeconds() * 1e6 - originUs_;
    if (s.parent >= 0)
        spans_[static_cast<std::size_t>(s.parent)].childUs +=
            s.endUs - s.startUs;
}

std::map<std::string, Tracer::LayerTime>
Tracer::layerTimes() const
{
    std::map<std::string, LayerTime> out;
    for (const Span &s : spans_) {
        LayerTime &t = out[s.name];
        ++t.calls;
        const double dur = s.endUs - s.startUs;
        t.totalMs += dur / 1e3;
        t.selfMs += (dur - s.childUs) / 1e3;
    }
    return out;
}

void
Tracer::appendChromeEvents(ws::Json &events, int tid) const
{
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        ws::Json e = ws::Json::object();
        e["name"] = s.name;
        e["cat"] = s.name.substr(0, s.name.find('.'));
        e["ph"] = "X";
        e["ts"] = s.startUs;
        e["dur"] = s.endUs - s.startUs;
        e["pid"] = 1;
        e["tid"] = tid;
        ws::Json &args = e["args"];
        args["id"] = static_cast<std::uint64_t>(i);
        args["parent"] = static_cast<std::int64_t>(s.parent);
        args["point"] = static_cast<std::int64_t>(s.point);
        events.push(std::move(e));
    }
}

} // namespace wsbench
