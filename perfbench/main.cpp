// The repo benchmark (README.md): one workload per run, seeded inputs,
// timed for --seconds, outputs checked, and one JSON result line printed
// last. Untraced runs print the end-to-end metrics; traced runs (--trace 1)
// print the per-layer metrics and write Perfetto files under --out-dir.
//
//   rocqr_perfbench --workload real_fp16 --seed 1 --seconds 20 --trace 0
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "perfbench/harness.hpp"

namespace {

using namespace perfbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rocqr_perfbench: " << why
            << "\nusage: rocqr_perfbench --workload real_fp16|real_fp32|"
               "paper_phantom|serve_fleet --seed N --seconds S --trace 0|1 [--out-dir DIR]"
               " [--expect-tiled X --expect-tsqr Y]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::stoull(v);
    else if (flag == "--seconds") a.seconds = std::stod(v);
    else if (flag == "--trace") a.trace = v == "1";
    else if (flag == "--out-dir") a.out_dir = v;
    else if (flag == "--expect-tiled") a.expect_tiled = v;
    else if (flag == "--expect-tsqr") a.expect_tsqr = v;
    else usage("unknown flag " + flag);
  }
  if (a.seconds <= 0) usage("--seconds must be positive");
  return a;
}

} // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parse(argc, argv);
    Result res;
    Tracer tracer(args.trace);
    if (args.workload == "real_fp16" || args.workload == "real_fp32") {
      run_real_qr(args, res, tracer, args.workload == "real_fp16");
    } else if (args.workload == "paper_phantom") {
      run_paper_phantom(args, res, tracer);
    } else if (args.workload == "serve_fleet") {
      run_serve_fleet(args, res, tracer);
    } else {
      usage("unknown workload '" + args.workload + "'");
    }
    if (args.trace) {
      run_layer_probes(res, tracer);
      std::filesystem::create_directories(args.out_dir);
      tracer.write_chrome_trace(args.out_dir + "/" + args.workload +
                                ".host.json");
    }
    res.set("peak_rss_mib", peak_rss_mib());
    std::cout << res.json(args.trace ? per_layer_metrics()
                                     : end_to_end_metrics())
              << std::endl;
    return res.correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "rocqr_perfbench: " << e.what() << "\n";
    return 3;
  }
}
