// Concurrent-frontend scaling: closed-loop producer threads (1/2/4/8) with 200µs client
// think time submitting against a live ServingFrontend, reporting sustained completion
// throughput and submit→first-token latency. One closed-loop client is latency-bound (the
// engine idles during every think interval); added producers overlap their think times and
// keep requests live for continuous batching, so throughput scales until the engine thread
// saturates — the engine core stays single-threaded (DESIGN.md §9).
//
// Flags:
//   --quick           fewer requests per producer (CI-friendly)
//   --requests <n>    requests per producer, n >= 1 (default 48, quick 16)

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench/bench_util.h"
#include "bench/frontend_bench.h"

namespace jenga {
namespace {

int Run(int per_producer) {
  PrintHeader("bench_frontend: closed-loop producer scaling (prompt 256, output 8)");
  PrintRow({{12, "producers"},
            {12, "requests"},
            {12, "wall"},
            {14, "req/s"},
            {12, "speedup"},
            {22, "first-token p50/p95"}});
  PrintRule();

  double base_rps = 0.0;
  double rps_4p = 0.0;
  for (const int producers : {1, 2, 4, 8}) {
    const FrontendLoadResult r = RunClosedLoop(producers, per_producer);
    if (producers == 1) {
      base_rps = r.requests_per_s;
    }
    if (producers == 4) {
      rps_4p = r.requests_per_s;
    }
    PrintRow({{12, FmtI(producers)},
              {12, FmtI(r.completed)},
              {12, Fmt("%.3fs", r.wall_seconds)},
              {14, Fmt("%.1f", r.requests_per_s)},
              {12, Fmt("%.2fx", base_rps > 0 ? r.requests_per_s / base_rps : 0.0)},
              {22, Fmt("%.2f/", r.first_token_p50_ms) + Fmt("%.2fms", r.first_token_p95_ms)}});
  }

  const double scaling = base_rps > 0 ? rps_4p / base_rps : 0.0;
  std::printf("\nscaling 4p/1p: %.2fx (target >= 2.0x)\n", scaling);
  return scaling >= 2.0 ? 0 : 1;
}

// Parses a whole-string decimal count in [1, INT_MAX]; false on anything else.
bool ParseCount(const char* text, int* out) {
  char* end = nullptr;
  errno = 0;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < 1 || value > INT_MAX) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

}  // namespace
}  // namespace jenga

int main(int argc, char** argv) {
  int per_producer = 48;
  bool explicit_requests = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      if (!explicit_requests) {
        per_producer = 16;
      }
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc &&
               jenga::ParseCount(argv[i + 1], &per_producer)) {
      ++i;
      explicit_requests = true;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--requests n]\n", argv[0]);
      return 2;
    }
  }
  return jenga::Run(per_producer);
}
