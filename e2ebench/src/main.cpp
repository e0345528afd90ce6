// e2ebench: runs one benchmark workload and prints its result.
//
//   e2ebench --workload NAME --seed N --seconds S --trace 0|1
//            [--commit SHA] [--out-dir DIR]
//
// stdout: one `{"stamp": ...}` line (what produced the result), `# ...`
// note lines (traced runs: goodput/fer of both passes, the per-stage
// breakdown, the span file), and as its LAST line the result object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Failed checks and
// warnings go to stderr. Exit status: 0 when every check passed, 1 when one
// failed (the result still prints, with "correct": false), 2 on bad usage
// or an error before a result exists.
#include <cstdio>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>

#include "internal.h"
#include "workloads.h"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    const auto c = static_cast<unsigned char>(ch);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += ch;
    } else if (c < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += ch;
    }
  }
  return out + "\"";
}

int usage(const std::string& why) {
  std::cerr << "e2ebench: " << why << "\n"
            << "usage: e2ebench --workload NAME --seed N --seconds S --trace 0|1"
               " [--commit SHA] [--out-dir DIR]\nworkloads:";
  for (const std::string& w : e2ebench::workload_names()) std::cerr << ' ' << w;
  std::cerr << '\n';
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::string commit = "unknown";
  e2ebench::RunConfig config;
  bool have_seed = false, have_seconds = false, have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value, &used);
        have_seed = used == value.size();
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value, &used);
        have_seconds = used == value.size() && config.seconds > 0.0 && config.seconds <= 600.0;
      } else if (flag == "--trace") {
        have_trace = value == "0" || value == "1";
        config.trace = value == "1";
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--out-dir") {
        config.out_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  if (!have_seed || !have_seconds || !have_trace)
    return usage("--seed, --seconds (0 < S <= 600) and --trace 0|1 are required");
  bool known = false;
  for (const std::string& w : e2ebench::workload_names()) known = known || w == workload;
  if (!known) return usage("unknown workload '" + workload + "'");

  e2ebench::RunResult result;
  try {
    result = e2ebench::run_workload(workload, config);
  } catch (const std::exception& e) {
    std::cerr << "e2ebench: " << workload << " failed: " << e.what() << '\n';
    return 2;
  }

  std::string stamp = "{\"stamp\": {";
  bool first = true;
  for (const auto& [key, value] : e2ebench::run_stamp(workload, config, commit)) {
    stamp += (first ? "" : ", ") + json_string(key) + ": " + json_string(value);
    first = false;
  }
  std::cout << stamp << "}}\n";
  for (const auto& [key, value] : result.notes) {
    if (value.find('\n') == std::string::npos) {
      std::cout << "# " << key << ": " << value << '\n';
      continue;
    }
    std::cout << "# " << key << ":\n";
    std::istringstream lines(value);
    for (std::string l; std::getline(lines, l);) std::cout << "#   " << l << '\n';
  }
  for (const std::string& w : result.warnings) std::cerr << "warning: " << w << '\n';
  for (const std::string& e : result.errors) std::cerr << "check failed: " << e << '\n';

  std::string line = "{\"correct\": ";
  line += result.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(result.attempted);
  line += ", \"failed\": " + std::to_string(result.failed);
  line += ", \"metrics\": {";
  first = true;
  for (const e2ebench::Metric& m : result.metrics) {
    line += (first ? "" : ", ") + json_string(m.name) + ": {\"value\": " +
            e2ebench::detail::format_double(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
    first = false;
  }
  line += "}}";
  std::cout << line << std::endl;
  return result.correct ? 0 : 1;
}
