#ifndef LIFTING_PERFBENCH_LAYER_TRACE_HPP
#define LIFTING_PERFBENCH_LAYER_TRACE_HPP

/// Per-layer attribution taken from outside the program: every node's
/// network receive handler is replaced by the routing Experiment::make_node
/// installs (kinds below gossip::kGossipKindCount go to the node's gossip
/// engine, all other kinds to its LiFTinG agent), wrapped in a
/// steady-clock span that is bucketed by Message kind. Nothing inside the
/// library is instrumented, so a traced run executes exactly the
/// deterministic work of an untraced one; only the clock reads are added.
///
/// Joiners and rejoiners registered by make_node during the run keep the
/// library's own (unspanned) handler, so span coverage of a churn scenario
/// is below 1 and is reported as such.

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <variant>

#include "gossip/message.hpp"
#include "runtime/experiment.hpp"
#include "sim/network.hpp"

namespace lifting::perfbench {

inline constexpr std::size_t kKindCount = std::variant_size_v<gossip::Message>;

/// Log-linear histogram of span lengths in ns: exact below 16 ns, then 16
/// buckets per power of two (quantiles within 6.25% of the true value).
class SpanHistogram {
 public:
  void add(std::uint64_t ns) noexcept { ++buckets_[bucket(ns)]; }

  /// Upper edge of the bucket holding the q-quantile of `count` samples.
  [[nodiscard]] std::uint64_t quantile(double q,
                                       std::uint64_t count) const noexcept {
    if (count == 0) return 0;
    const auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < buckets_.size(); ++b) {
      seen += buckets_[b];
      if (seen > rank) return upper_edge(b);
    }
    return upper_edge(buckets_.size() - 1);
  }

 private:
  static constexpr std::size_t kSub = 16;

  static std::size_t bucket(std::uint64_t ns) noexcept {
    if (ns < kSub) return static_cast<std::size_t>(ns);
    const int msb = 63 - std::countl_zero(ns);
    return kSub + static_cast<std::size_t>(msb - 4) * kSub +
           static_cast<std::size_t>((ns >> (msb - 4)) & (kSub - 1));
  }
  static std::uint64_t upper_edge(std::size_t b) noexcept {
    if (b < kSub) return b;
    const std::size_t octave = (b - kSub) / kSub;
    const std::uint64_t sub = (b - kSub) % kSub;
    return ((kSub + sub + 1) << octave) - 1;
  }

  std::array<std::uint64_t, kSub + 60 * kSub> buckets_{};
};

/// Spans of one message kind, summed over every traced deployment.
struct KindSpans {
  std::uint64_t count = 0;
  std::uint64_t ns = 0;
  SpanHistogram hist;
};

class LayerTrace {
 public:
  LayerTrace() = default;
  LayerTrace(const LayerTrace&) = delete;
  LayerTrace& operator=(const LayerTrace&) = delete;

  /// Re-installs the receive handler of every initial node of `ex`. Call
  /// after construction (or reset) and before the first run_until; the
  /// handlers refer to this object, which must outlive the run.
  void install(runtime::Experiment& ex) {
    ex_ = &ex;
    recording_ = true;
    for (std::uint32_t i = 0; i < ex.config().nodes; ++i) {
      const NodeId id{i};
      ex.network().set_handler(
          id, [this, id](sim::Delivery<gossip::Message>& d) { on(id, d); });
    }
  }

  /// Stops recording (the handlers keep routing): wind_down() deliveries
  /// fall outside the measured run.
  void stop() noexcept { recording_ = false; }

  [[nodiscard]] const KindSpans& kind(std::size_t k) const {
    return kinds_.at(k);
  }
  [[nodiscard]] std::uint64_t spanned() const noexcept {
    std::uint64_t n = 0;
    for (const auto& k : kinds_) n += k.count;
    return n;
  }

 private:
  using Clock = std::chrono::steady_clock;

  void on(NodeId id, sim::Delivery<gossip::Message>& d) {
    const std::size_t kind = d.payload.index();
    if (!recording_) {
      route(id, kind, d);
      return;
    }
    const auto start = Clock::now();
    route(id, kind, d);
    const auto ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count());
    auto& k = kinds_[kind];
    ++k.count;
    k.ns += ns;
    k.hist.add(ns);
  }

  void route(NodeId id, std::size_t kind, sim::Delivery<gossip::Message>& d) {
    if (kind < gossip::kGossipKindCount) {
      ex_->engine(id).handle(d.from, d.payload);
    } else if (ex_->has_agents()) {
      ex_->agent(id).handle(d.from, d.payload);
    }
  }

  runtime::Experiment* ex_ = nullptr;
  bool recording_ = false;
  std::array<KindSpans, kKindCount> kinds_{};
};

}  // namespace lifting::perfbench

#endif  // LIFTING_PERFBENCH_LAYER_TRACE_HPP
