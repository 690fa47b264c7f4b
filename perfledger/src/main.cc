// perfledger: runs one benchmark workload and writes its ledger.
//
//   perfledger --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              --out <results.json> [--trace-out <trace.json>]
//
// Prints one line per metric and writes the full result document (host
// record, attempted/failed tally, every metric with unit and direction) to
// --out. With --trace 1 the benchmark's own spans are also written to
// --trace-out as Chrome trace-event JSON. Exits 1 when a correctness gate
// failed, 2 on bad arguments, 3 on a build that must not be timed.
// run.py builds this binary and turns the result into the benchmark's
// final JSON line; see METRICS.md for the metrics.

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>

#include "ledger.h"
#include "obs/json.h"

namespace {

using perfledger::Ledger;
using perfledger::Metric;
using perfledger::RunConfig;

int Usage(const char* why) {
  std::cerr << "perfledger: " << why
            << "\nusage: perfledger --workload {oneshot-300k,"
               "session-100k,serve-4t} --seed N "
               "--seconds S --trace {0,1} --out PATH [--trace-out PATH]\n";
  return 2;
}

bool IsReleaseBuild() {
#ifdef NDEBUG
  return std::strcmp(PERFLEDGER_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--out") {
        config.out_path = value;
      } else if (flag == "--trace-out") {
        trace_out = value;
      } else {
        return Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (argc % 2 == 0) return Usage("flags take one value each");
  if (config.workload.empty() || config.out_path.empty()) {
    return Usage("--workload and --out are required");
  }
  if (!IsReleaseBuild()) {
    std::cerr << "perfledger: refusing to time a " << PERFLEDGER_BUILD_TYPE
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }

  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  config.host_parallelism =
      perfledger::MeasureHostParallelism(perfledger::kParallelThreads);
  if (config.trace) perfledger::SpanLog::Get().Enable(config.workload);

  Ledger ledger;
  if (config.workload == "oneshot-300k") {
    perfledger::RunOneshot(config, &ledger);
  } else if (config.workload == "session-100k") {
    perfledger::RunSession(config, &ledger);
  } else if (config.workload == "serve-4t") {
    perfledger::RunServe(config, &ledger);
  } else {
    return Usage(("unknown workload " + config.workload).c_str());
  }
  if (ledger.attempted() == 0) ledger.Failure("the workload attempted nothing");

  if (!config.trace) {
    ledger.Add("e2e", "error_rate",
               static_cast<double>(ledger.failed()) /
                   static_cast<double>(ledger.attempted()),
               "fraction", "lower");
  }
  ledger.Add("host", "host.parallelism", config.host_parallelism, "x",
             "higher");

  using dbrepair::obs::Json;
  Json host = Json::MakeObject();
  host.Set("nproc", static_cast<int64_t>(nproc));
  host.Set("parallelism", config.host_parallelism);
  host.Set("compiler", PERFLEDGER_COMPILER);
  host.Set("build_type", PERFLEDGER_BUILD_TYPE);
  Json metrics = Json::MakeArray();
  std::printf("perfledger %s seed=%llu seconds=%g trace=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("host nproc=%ld parallelism=%.2f compiler=\"%s\" build=%s\n",
              nproc, config.host_parallelism, PERFLEDGER_COMPILER,
              PERFLEDGER_BUILD_TYPE);
  for (const Metric& m : ledger.metrics()) {
    Json entry = Json::MakeObject();
    entry.Set("kind", m.kind);
    entry.Set("name", m.name);
    if (m.note.empty()) {
      entry.Set("value", m.value);
      std::printf("%-6s %-40s %.6g %s\n", m.kind.c_str(), m.name.c_str(),
                  m.value, m.unit.c_str());
    } else {
      entry.Set("note", m.note);
      std::printf("%-6s %-40s %s\n", m.kind.c_str(), m.name.c_str(),
                  m.note.c_str());
    }
    entry.Set("unit", m.unit);
    entry.Set("better", m.better);
    metrics.Append(std::move(entry));
  }
  std::printf("attempted=%llu failed=%llu correct=%s\n",
              static_cast<unsigned long long>(ledger.attempted()),
              static_cast<unsigned long long>(ledger.failed()),
              ledger.correct() ? "true" : "false");
  std::fflush(stdout);

  Json doc = Json::MakeObject();
  doc.Set("workload", config.workload);
  doc.Set("seed", static_cast<uint64_t>(config.seed));
  doc.Set("seconds", config.seconds);
  doc.Set("trace", config.trace);
  doc.Set("host", std::move(host));
  doc.Set("correct", ledger.correct());
  doc.Set("attempted", static_cast<uint64_t>(ledger.attempted()));
  doc.Set("failed", static_cast<uint64_t>(ledger.failed()));
  doc.Set("metrics", std::move(metrics));
  std::ofstream out(config.out_path);
  out << doc.Dump(1) << "\n";
  if (!out) {
    std::cerr << "perfledger: cannot write " << config.out_path << "\n";
    return 1;
  }
  if (config.trace && !trace_out.empty()) {
    const dbrepair::Status written =
        perfledger::SpanLog::Get().WriteChromeTrace(trace_out);
    if (!written.ok()) {
      std::cerr << "perfledger: " << written.ToString() << "\n";
      return 1;
    }
  }
  return ledger.correct() ? 0 : 1;
}
