#ifndef DBREPAIR_OBS_TRACE_H_
#define DBREPAIR_OBS_TRACE_H_

#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/clock.h"
#include "obs/json.h"

namespace dbrepair::obs {

/// One completed (or still open) region of the pipeline. Spans nest:
/// `repair -> bind/locality/build{violations,fixes,setcover}/solve/apply/
/// verify`. Times are seconds on one steady clock, relative to the tracer's
/// epoch, so phase attribution never double-counts.
struct SpanNode {
  std::string name;
  double start_seconds = 0.0;
  double duration_seconds = 0.0;
  bool open = true;
  std::vector<std::unique_ptr<SpanNode>> children;
};

/// Records a tree of scoped spans. Open/close follows stack discipline on
/// the instrumented (pipeline) thread; the structure itself is mutex-guarded
/// so concurrent readers (snapshots) are safe. Worker-side work inside a
/// phase is recorded into the EventCollector's per-thread lanes and merged
/// back against this tree at snapshot time.
class Tracer {
 public:
  /// Standalone tracer with its own epoch.
  Tracer() : clock_(&own_clock_) {}

  /// Tracer stamping against a shared clock (the ObsContext wires its
  /// tracer and event collector to one TraceClock so both merge cleanly).
  explicit Tracer(TraceClock* clock)
      : clock_(clock != nullptr ? clock : &own_clock_) {}

  /// The clock this tracer stamps spans against.
  const TraceClock& clock() const { return *clock_; }

  /// Keep at most this many root spans, the most recent ones. A long-lived
  /// context (a server tenant opens one root per batch) would otherwise
  /// grow without bound. Equals a repair session's telemetry window.
  static constexpr size_t kMaxRoots = 256;

  /// Opens a span as a child of the innermost open span (or a new root,
  /// evicting the oldest root once kMaxRoots are kept).
  SpanNode* OpenSpan(std::string_view name);

  /// Closes `node` (and any deeper spans left open) and returns its
  /// duration in seconds. Idempotent per node via Span.
  double CloseSpan(SpanNode* node);

  /// Completed and open root spans, in open order. Pointers remain valid
  /// until the root is evicted or Clear().
  std::vector<const SpanNode*> roots() const;

  /// Latest duration of every '/'-separated span path recorded in an
  /// evicted root, in first-eviction order, so a snapshot still reports
  /// paths that occur only in evicted roots.
  std::vector<std::pair<std::string, double>> evicted_phases() const;

  /// Looks a span up by '/'-separated path, e.g. "repair/build/setcover".
  /// Searches every root; returns nullptr when absent.
  const SpanNode* FindSpan(std::string_view path) const;

  /// Drops all recorded spans and resets the epoch.
  void Clear();

 private:
  double Now() const { return clock_->SecondsSinceEpoch(); }

  mutable std::mutex mu_;
  TraceClock own_clock_;
  TraceClock* clock_;
  std::deque<std::unique_ptr<SpanNode>> roots_;
  std::vector<SpanNode*> stack_;
  std::vector<std::pair<std::string, double>> evicted_phases_;
};

/// RAII scope: opens a span on construction, closes it on destruction (or
/// earlier via Finish(), which returns the measured duration — the single
/// clock source for RepairStats phase times).
class Span {
 public:
  /// Opens on the calling thread's current ObsContext tracer.
  explicit Span(std::string_view name);
  Span(Tracer* tracer, std::string_view name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Closes the span now; further calls return the same duration.
  double Finish();

 private:
  Tracer* tracer_;
  SpanNode* node_;
  bool finished_ = false;
  double duration_seconds_ = 0.0;
};

/// Calls `fn(path, node)` for `root` and each descendant, parents first,
/// with the node's '/'-joined path from `root` ("repair/build/fixes").
void VisitSpanPaths(
    const SpanNode& root,
    const std::function<void(const std::string&, const SpanNode&)>& fn);

/// Indented human-readable rendering of one span tree, one line per span
/// with wall time in ms and the share of its parent. Spans still open are
/// marked "(open)" and, when `now_seconds` (on the tracer's clock) is
/// non-negative, show elapsed-so-far instead of 0.
std::string FormatSpanTree(const SpanNode& root, double now_seconds = -1.0);

/// All root span trees of `tracer`, concatenated (open spans show
/// elapsed-so-far against the tracer's clock).
std::string FormatSpanTrees(const Tracer& tracer);

/// {"name": ..., "start_s": ..., "duration_s": ..., "children": [...]}.
/// A span still open when the snapshot is taken additionally carries
/// "open": true, and its duration_s reports elapsed time up to
/// `now_seconds` (when non-negative) instead of 0.
Json SpanTreeToJson(const SpanNode& root, double now_seconds = -1.0);

/// The duration to report for `node`: its measured duration when closed,
/// elapsed time up to `now_seconds` while still open (0 when now_seconds
/// is negative, i.e. unknown).
double EffectiveDurationSeconds(const SpanNode& node, double now_seconds);

}  // namespace dbrepair::obs

#endif  // DBREPAIR_OBS_TRACE_H_
