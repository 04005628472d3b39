#include "obs/series.h"

#include <algorithm>

namespace tiamat::obs {

TimeSeriesRecorder::TimeSeriesRecorder(transport::TimerService& queue,
                                       SeriesOptions opts)
    : queue_(queue), opts_(opts) {
  if (opts_.interval <= 0) opts_.interval = transport::kMillisecond;
  if (opts_.capacity == 0) opts_.capacity = 1;
  if (opts_.rollup_width == 0) opts_.rollup_width = 1;
  if (opts_.rollup_capacity == 0) opts_.rollup_capacity = 1;
}

TimeSeriesRecorder::~TimeSeriesRecorder() { stop(); }

void TimeSeriesRecorder::add_source(std::string label, const Registry* registry,
                                    std::function<void()> refresh) {
  Source& s = source_of(label);
  s.registry = registry;
  s.refresh = std::move(refresh);
}

void TimeSeriesRecorder::add_probe(const std::string& label, Probe p) {
  ProbeState st;
  st.probe = std::move(p);
  source_of(label).probes.push_back(std::move(st));
}

TimeSeriesRecorder::Source& TimeSeriesRecorder::source_of(
    const std::string& label) {
  for (Source& s : sources_) {
    if (s.label == label) return s;
  }
  Source s;
  s.label = label;
  sources_.push_back(std::move(s));
  return sources_.back();
}

void TimeSeriesRecorder::start() {
  if (timer_ != transport::kInvalidEvent) return;
  timer_ = queue_.schedule_after(opts_.interval, [this] {
    timer_ = transport::kInvalidEvent;
    sample_now();
    start();
  });
}

void TimeSeriesRecorder::stop() {
  if (timer_ == transport::kInvalidEvent) return;
  queue_.cancel(timer_);
  timer_ = transport::kInvalidEvent;
}

void TimeSeriesRecorder::append(SeriesData& d, std::uint64_t index, double v) {
  d.points.push_back(Point{index, v});
  if (d.points.size() <= opts_.capacity) return;
  const Point old = d.points.front();
  d.points.pop_front();
  if (d.rollups.empty() || d.rollups.back().n >= opts_.rollup_width) {
    d.rollups.push_back(
        Rollup{old.index, old.index, old.value, old.value, old.value, 1});
    if (d.rollups.size() > opts_.rollup_capacity) {
      d.rollups.pop_front();
      ++d.dropped;
    }
    return;
  }
  Rollup& r = d.rollups.back();
  r.to = old.index;
  r.min = std::min(r.min, old.value);
  r.max = std::max(r.max, old.value);
  r.sum += old.value;
  ++r.n;
}

void TimeSeriesRecorder::sample_now() {
  const transport::Time at = queue_.now();
  const std::uint64_t index = samples_++;

  ticks_.emplace_back(index, at);
  if (ticks_.size() > opts_.capacity) {
    ticks_.pop_front();
    ++ticks_dropped_;
  }

  for (Source& src : sources_) {
    if (src.refresh) src.refresh();
    if (src.registry != nullptr) {
      src.registry->for_each_counter([&](const std::string& name,
                                         const Labels& labels,
                                         const Counter& c) {
        SeriesData& d = src.series[SeriesKey{"counter", name, labels}];
        d.integral = true;
        append(d, index, static_cast<double>(c.value()));
      });
      src.registry->for_each_gauge(
          [&](const std::string& name, const Labels& labels, const Gauge& g) {
            SeriesData& d = src.series[SeriesKey{"gauge", name, labels}];
            append(d, index, g.value());
          });
      src.registry->for_each_sketch([&](const std::string& name,
                                        const Labels& labels,
                                        const QuantileSketch& s) {
        // Windowed tail latency: the p99 of just this interval's samples,
        // recovered by subtracting last tick's snapshot.
        SeriesData& d = src.series[SeriesKey{"sketch_p99", name, labels}];
        const QuantileSketch window = s.delta_since(d.prev);
        d.prev = s;
        append(d, index, window.p99());
      });
    }
    for (ProbeState& st : src.probes) {
      const double v = st.probe.value ? st.probe.value() : 0.0;
      append(st.data, index, v);
      if (v >= st.probe.threshold) {
        ++st.breaches;
        ++breaches_;
        if (st.probe.on_breach) st.probe.on_breach(v, at);
      }
    }
  }
}

json::Value TimeSeriesRecorder::series_json(const SeriesData& d) {
  json::Object o;
  json::Array points;
  for (const Point& p : d.points) {
    json::Array pair;
    pair.emplace_back(p.index);
    if (d.integral) {
      pair.emplace_back(static_cast<std::int64_t>(p.value));
    } else {
      pair.emplace_back(p.value);
    }
    points.emplace_back(std::move(pair));
  }
  o.emplace_back("points", json::Value(std::move(points)));
  if (!d.rollups.empty()) {
    json::Array rollups;
    for (const Rollup& r : d.rollups) {
      json::Array e;
      e.emplace_back(r.from);
      e.emplace_back(r.to);
      e.emplace_back(r.min);
      e.emplace_back(r.max);
      e.emplace_back(r.sum);
      e.emplace_back(r.n);
      rollups.emplace_back(std::move(e));
    }
    o.emplace_back("rollups", json::Value(std::move(rollups)));
  }
  if (d.dropped != 0) o.emplace_back("dropped", json::Value(d.dropped));
  return json::Value(std::move(o));
}

json::Value TimeSeriesRecorder::to_json() const {
  json::Object doc;
  doc.emplace_back("interval_us", json::Value(opts_.interval));
  doc.emplace_back("capacity",
                   json::Value(static_cast<std::int64_t>(opts_.capacity)));
  doc.emplace_back("rollup_width",
                   json::Value(static_cast<std::int64_t>(opts_.rollup_width)));
  doc.emplace_back("samples", json::Value(samples_));
  doc.emplace_back("breaches", json::Value(breaches_));

  json::Object ticks;
  json::Array tick_points;
  for (const auto& [index, at] : ticks_) {
    json::Array pair;
    pair.emplace_back(index);
    pair.emplace_back(at);
    tick_points.emplace_back(std::move(pair));
  }
  ticks.emplace_back("points", json::Value(std::move(tick_points)));
  if (ticks_dropped_ != 0) {
    ticks.emplace_back("dropped", json::Value(ticks_dropped_));
  }
  doc.emplace_back("ticks", json::Value(std::move(ticks)));

  json::Array sources;
  for (const Source& src : sources_) {
    json::Object s;
    s.emplace_back("source", json::Value(src.label));
    json::Array series;
    for (const auto& [key, data] : src.series) {
      json::Object e;
      e.emplace_back("kind", json::Value(std::get<0>(key)));
      e.emplace_back("name", json::Value(std::get<1>(key)));
      json::Object labels;
      for (const auto& [k, v] : std::get<2>(key)) {
        labels.emplace_back(k, json::Value(v));
      }
      e.emplace_back("labels", json::Value(std::move(labels)));
      json::Value body = series_json(data);
      for (auto& [k, v] : body.as_object()) {
        e.emplace_back(std::move(k), std::move(v));
      }
      series.emplace_back(std::move(e));
    }
    s.emplace_back("series", json::Value(std::move(series)));
    json::Array probes;
    for (const ProbeState& st : src.probes) {
      json::Object e;
      e.emplace_back("name", json::Value(st.probe.name));
      e.emplace_back("threshold", json::Value(st.probe.threshold));
      e.emplace_back("breaches", json::Value(st.breaches));
      json::Value body = series_json(st.data);
      for (auto& [k, v] : body.as_object()) {
        e.emplace_back(std::move(k), std::move(v));
      }
      probes.emplace_back(std::move(e));
    }
    s.emplace_back("probes", json::Value(std::move(probes)));
    sources.emplace_back(std::move(s));
  }
  doc.emplace_back("sources", json::Value(std::move(sources)));
  return json::Value(std::move(doc));
}

std::size_t TimeSeriesRecorder::max_series_points() const {
  std::size_t worst = ticks_.size();
  for (const Source& src : sources_) {
    for (const auto& [key, d] : src.series) {
      worst = std::max(worst, d.points.size() + d.rollups.size());
    }
    for (const ProbeState& st : src.probes) {
      worst = std::max(worst, st.data.points.size() + st.data.rollups.size());
    }
  }
  return worst;
}

}  // namespace tiamat::obs
