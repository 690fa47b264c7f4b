#include "ledger.h"

#include <dirent.h>
#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "io/snapshot.h"
#include "obs/json.h"

namespace perfledger {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double rank = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

void Ledger::Add(std::string kind, std::string name, double value,
                 std::string unit, std::string better) {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back(Metric{std::move(kind), std::move(name), value,
                            std::move(unit), std::move(better), ""});
}

void Ledger::AddNote(std::string kind, std::string name, std::string note,
                     std::string unit, std::string better) {
  const std::lock_guard<std::mutex> lock(mu_);
  metrics_.push_back(Metric{std::move(kind), std::move(name), 0.0,
                            std::move(unit), std::move(better),
                            std::move(note)});
}

void Ledger::Attempt(bool ok) {
  const std::lock_guard<std::mutex> lock(mu_);
  ++attempted_;
  if (!ok) ++failed_;
}

void Ledger::Mismatch(const std::string& what) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::cerr << "perfledger: correctness gate failed: " << what << "\n";
  ++attempted_;
  ++failed_;
  correct_ = false;
}

void Ledger::Failure(const std::string& what) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::cerr << "perfledger: operation failed: " << what << "\n";
  ++attempted_;
  ++failed_;
}

SpanLog& SpanLog::Get() {
  static SpanLog* log = new SpanLog();
  return *log;
}

void SpanLog::Enable(std::string workload) {
  workload_ = std::move(workload);
  epoch_ns_ = NowNs();
  enabled_ = true;
}

namespace {

// Small dense thread ids for the trace's tid field.
uint32_t ThreadIndex() {
  static std::atomic<uint32_t> next{0};
  thread_local const uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

void SpanLog::Record(std::string_view name, int64_t start_ns, int64_t end_ns,
                     size_t threads, int64_t id) {
  if (!enabled_) return;
  const uint32_t tid = ThreadIndex();
  const std::lock_guard<std::mutex> lock(mu_);
  entries_.push_back(
      Entry{std::string(name), start_ns, end_ns, tid, threads, id});
}

dbrepair::Status SpanLog::WriteChromeTrace(const std::string& path) const {
  using dbrepair::obs::Json;
  Json events = Json::MakeArray();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Entry& e : entries_) {
      Json args = Json::MakeObject();
      args.Set("workload", workload_);
      args.Set("threads", static_cast<uint64_t>(e.threads));
      if (e.id >= 0) args.Set("id", e.id);
      Json event = Json::MakeObject();
      event.Set("name", e.name);
      event.Set("cat", "perfledger");
      event.Set("ph", "X");
      event.Set("pid", 1);
      event.Set("tid", static_cast<uint64_t>(e.tid));
      event.Set("ts", static_cast<double>(e.start_ns - epoch_ns_) / 1e3);
      event.Set("dur", static_cast<double>(e.end_ns - e.start_ns) / 1e3);
      event.Set("args", std::move(args));
      events.Append(std::move(event));
    }
  }
  Json doc = Json::MakeObject();
  doc.Set("traceEvents", std::move(events));
  doc.Set("displayTimeUnit", "ms");
  std::ofstream out(path);
  out << doc.Dump() << "\n";
  if (!out) return dbrepair::Status::IoError("cannot write " + path);
  return dbrepair::Status::OK();
}

size_t CountDirEntries(const char* path) {
  DIR* dir = opendir(path);
  if (dir == nullptr) return 0;
  size_t count = 0;
  while (const dirent* entry = readdir(dir)) {
    if (entry->d_name[0] != '.') ++count;
  }
  closedir(dir);
  // For /proc/self/fd the count includes the DIR's own fd; callers only
  // compare two counts, so it cancels.
  return count;
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

void TrimHeap() { malloc_trim(0); }

void ResetPeakRss() {
  // "5" resets VmHWM to the current resident set (proc(5), clear_refs).
  std::ofstream("/proc/self/clear_refs") << "5";
}

namespace {

// A dependent integer chain the compiler cannot fold or vectorise away.
uint64_t Spin(uint64_t iterations, uint64_t seed) {
  uint64_t x = seed | 1;
  for (uint64_t i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double SpinSeconds(uint64_t iterations, size_t threads) {
  std::vector<std::thread> workers;
  std::vector<uint64_t> sinks(threads, 0);
  const int64_t start = NowNs();
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back(
        [&sinks, t, iterations] { sinks[t] = Spin(iterations, t + 1); });
  }
  for (std::thread& w : workers) w.join();
  const int64_t end = NowNs();
  uint64_t sink = 0;
  for (const uint64_t s : sinks) sink ^= s;
  if (sink == 42) std::fputc(' ', stderr);  // keep the work observable
  return static_cast<double>(end - start) / 1e9;
}

}  // namespace

double MeasureHostParallelism(size_t p) {
  // Calibrate to ~40 ms of serial work. Idle vCPUs of a shared virtual
  // host come back only after a second or two of demand, so spin on p
  // threads for ~1 s before taking the median of three 1-vs-p rounds.
  uint64_t iterations = 1 << 20;
  while (SpinSeconds(iterations, 1) < 0.04) iterations *= 2;
  SpinSeconds(iterations * 25, p);
  std::vector<double> ratios;
  for (int round = 0; round < 3; ++round) {
    const double t1 = SpinSeconds(iterations, 1);
    const double tp = SpinSeconds(iterations, p);
    ratios.push_back(static_cast<double>(p) * t1 / tp);
  }
  return Median(ratios);
}

dbrepair::Result<uint64_t> DatabaseDigest(const dbrepair::Database& db) {
  std::ostringstream out;
  DBREPAIR_RETURN_IF_ERROR(dbrepair::WriteSnapshot(db, out));
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a
  for (const char c : out.str()) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

}  // namespace perfledger
