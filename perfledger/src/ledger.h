#ifndef PERFLEDGER_LEDGER_H_
#define PERFLEDGER_LEDGER_H_

// Shared pieces of the benchmark ledger: run configuration, the metric
// ledger itself, the benchmark's own spans (written as a Chrome trace),
// sample statistics, and host/process probes. The workloads live in
// oneshot.cc, session.cc and serve.cc; main.cc dispatches on --workload.

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/database.h"

namespace perfledger {

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_path;  // the result document (--out)
  /// Measured once per run, before the workload (MeasureHostParallelism).
  double host_parallelism = 0.0;
};

/// Threads of the parallel configuration; speedups are reported at p = 4.
inline constexpr size_t kParallelThreads = 4;

/// Nanoseconds on the steady clock.
int64_t NowNs();

/// Median and percentile (q in [0, 1], linear interpolation between the
/// closest ranks). Both return 0 for an empty sample.
double Median(std::vector<double> samples);
double Percentile(std::vector<double> samples, double q);

/// One ledger entry. `kind` is "e2e" (what a user of the system sees),
/// "layer" (one layer, from the traced run), "count" (exact counts and
/// ratios that repeat for a fixed seed: the correctness fingerprint),
/// "tally" (how much work fitted into --seconds, e.g. batches run) or
/// "host". `better` is "lower", "higher" or "" (counts, tallies). A
/// non-empty `note` replaces the value, e.g. "unmeasured: host parallelism
/// < 4".
struct Metric {
  std::string kind;
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string better;
  std::string note;
};

/// Everything one run reports: metrics, the attempted/failed operation
/// tally behind error_rate, and the correctness verdict.
class Ledger {
 public:
  void Add(std::string kind, std::string name, double value,
           std::string unit, std::string better);
  void AddNote(std::string kind, std::string name, std::string note,
               std::string unit, std::string better);

  /// One operation the workload attempted (repair, batch, read, connect).
  /// Thread-safe, like every other method.
  void Attempt(bool ok);
  /// A correctness-gate mismatch: counts as a failed operation and makes
  /// the run incorrect. `what` is printed to stderr.
  void Mismatch(const std::string& what);
  /// A failed operation with a status worth printing.
  void Failure(const std::string& what);

  /// Read only after the workload's threads are joined.
  const std::vector<Metric>& metrics() const { return metrics_; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  bool correct() const { return correct_ && failed_ == 0; }

 private:
  std::mutex mu_;  // guards every member below
  std::vector<Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// The benchmark's own spans around public library calls. Recording is a
/// no-op unless Enable() ran (the traced run); spans stay in memory and
/// are written once, at exit, as Chrome trace-event JSON.
class SpanLog {
 public:
  static SpanLog& Get();

  void Enable(std::string workload);

  /// `threads` is the library thread count of the traced call; `id` the
  /// repetition, batch or request id (-1 when there is none).
  void Record(std::string_view name, int64_t start_ns, int64_t end_ns,
              size_t threads, int64_t id);

  dbrepair::Status WriteChromeTrace(const std::string& path) const;

 private:
  struct Entry {
    std::string name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t tid;
    size_t threads;
    int64_t id;
  };
  bool enabled_ = false;
  std::string workload_;
  int64_t epoch_ns_ = 0;
  mutable std::mutex mu_;
  std::vector<Entry> entries_;
};

/// Times one public call from outside: Stop() returns the elapsed
/// milliseconds and records the span. `name` must outlive the timer (pass
/// a literal).
class SpanTimer {
 public:
  SpanTimer(std::string_view name, size_t threads, int64_t id)
      : name_(name), threads_(threads), id_(id), start_ns_(NowNs()) {}

  double Stop() {
    const int64_t end_ns = NowNs();
    SpanLog::Get().Record(name_, start_ns_, end_ns, threads_, id_);
    return static_cast<double>(end_ns - start_ns_) / 1e6;
  }

 private:
  std::string_view name_;
  size_t threads_;
  int64_t id_;
  int64_t start_ns_;
};

/// Entries of a /proc directory (e.g. "/proc/self/fd", "/proc/self/task").
size_t CountDirEntries(const char* path);

/// Peak resident set of this process (VmHWM) since the last ResetPeakRss,
/// MiB. Workloads reset it before each repetition of their unit of work
/// and report the median peak, so memory left over from an earlier
/// repetition or from set-up does not decide the figure.
double PeakRssMb();
void ResetPeakRss();

/// Returns the heap's free memory to the OS (malloc_trim), so a cycle that
/// starts a fresh server or session starts from the resident set a fresh
/// process would have, not from whatever earlier cycles left cached.
void TrimHeap();

/// Usable parallelism: a CPU-bound spin run on 1 thread and then on `p`
/// threads at once; returns p * t1 / tp (p on an idle p-core host). Takes
/// about 1.5 s.
double MeasureHostParallelism(size_t p);

/// Digest of a database: FNV-1a of its io/snapshot serialisation.
dbrepair::Result<uint64_t> DatabaseDigest(const dbrepair::Database& db);

void RunOneshot(const RunConfig& config, Ledger* ledger);
void RunSession(const RunConfig& config, Ledger* ledger);
void RunServe(const RunConfig& config, Ledger* ledger);

}  // namespace perfledger

#endif  // PERFLEDGER_LEDGER_H_
