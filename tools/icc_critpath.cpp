// icc_critpath: offline critical-path analyzer for consensus journals.
//
// Reads a JSONL journal recorded with the causal layer (icc-journal/v2:
// harness::Cluster with ClusterOptions::obs.journal, or
// examples/icc_observe --journal), reconstructs the cross-party
// happens-before DAG, and extracts the critical path of every finalized
// round from the leader's propose to the first finalized event, decomposing
// commit latency into network / crypto / queue time (obs/causal.hpp).
//
//   icc_critpath <journal.jsonl> [--report <out.json>] [--dot <out.dot>]
//                [--dot-round <r>] [--check-hops [n]] [--quiet]
//
//   --report      write the icc-critpath/v1 JSON report
//   --dot         write a Graphviz DAG of one round, critical path in red
//   --dot-round   round to render (default: the first complete round)
//   --check-hops  structural check: every complete round must have exactly
//                 n network hops on its critical path. Without a value, n
//                 comes from the journal's protocol (icc0/icc1 → 3,
//                 icc2 → 4 — the paper's 3δ/4δ claims).
//
// Exit status: 0 ok, 1 on a causal-validation error (named on stderr) or a
// failed --check-hops, 2 on usage/I/O errors or a malformed journal (an
// empty file, non-JSON, a cut line: stderr names the line).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>

#include "obs/causal.hpp"
#include "support/json.hpp"

namespace {

namespace json = icc::support::json;

int usage() {
  std::fprintf(stderr,
               "usage: icc_critpath <journal.jsonl> [--report <out.json>] "
               "[--dot <out.dot>] [--dot-round <r>] [--check-hops [n]] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal_path, report_path, dot_path;
  uint64_t dot_round = 0;
  bool have_dot_round = false;
  bool check_hops = false;
  int expected_hops = -1;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dot") == 0 && i + 1 < argc) {
      dot_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dot-round") == 0 && i + 1 < argc) {
      dot_round = std::strtoull(argv[++i], nullptr, 10);
      have_dot_round = true;
    } else if (std::strcmp(argv[i], "--check-hops") == 0) {
      check_hops = true;
      if (i + 1 < argc && argv[i + 1][0] >= '0' && argv[i + 1][0] <= '9')
        expected_hops = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--quiet") == 0) {
      quiet = true;
    } else if (argv[i][0] == '-') {
      return usage();
    } else if (journal_path.empty()) {
      journal_path = argv[i];
    } else {
      return usage();
    }
  }
  if (journal_path.empty()) return usage();

  std::string text;
  if (!json::read_file(journal_path, &text)) {
    std::fprintf(stderr, "icc_critpath: cannot read %s\n", journal_path.c_str());
    return 2;
  }

  icc::obs::Journal::Parsed parsed = icc::obs::Journal::parse_jsonl(text);
  if (!parsed.error.empty()) {
    std::fprintf(stderr, "icc_critpath: %s: %s\n", journal_path.c_str(), parsed.error.c_str());
    return 2;
  }
  icc::obs::CausalAnalyzer analyzer(std::move(parsed));
  const icc::obs::CritPathReport& report = analyzer.report();

  if (!quiet) std::printf("%s\n", report.to_json().c_str());
  if (!report_path.empty() && !json::write_file(report_path, report.to_json() + "\n")) {
    std::fprintf(stderr, "icc_critpath: cannot write %s\n", report_path.c_str());
    return 2;
  }

  if (!report.error.empty()) {
    std::fprintf(stderr, "icc_critpath: REJECTED %s\n", report.error.c_str());
    return 1;
  }

  if (!dot_path.empty()) {
    if (!have_dot_round) {
      for (const icc::obs::RoundPath& rp : report.rounds)
        if (rp.complete) {
          dot_round = rp.round;
          have_dot_round = true;
          break;
        }
    }
    if (!have_dot_round) {
      std::fprintf(stderr, "icc_critpath: no complete round to render\n");
      return 1;
    }
    if (!json::write_file(dot_path, analyzer.to_dot(dot_round))) {
      std::fprintf(stderr, "icc_critpath: cannot write %s\n", dot_path.c_str());
      return 2;
    }
  }

  if (check_hops) {
    int expect = expected_hops >= 0
                     ? expected_hops
                     : icc::obs::CritPathReport::expected_hops(report.meta.protocol);
    if (expect < 0) {
      std::fprintf(stderr,
                   "icc_critpath: --check-hops needs a value (protocol \"%s\" has no "
                   "known hop count)\n",
                   report.meta.protocol.c_str());
      return 2;
    }
    std::string violation;
    if (!report.check_hops(expect, &violation)) {
      std::fprintf(stderr, "icc_critpath: HOP-CHECK FAILED %s\n", violation.c_str());
      return 1;
    }
    if (!quiet)
      std::fprintf(stderr, "icc_critpath: hop check ok (%llu complete rounds, %d hops)\n",
                   static_cast<unsigned long long>(report.rounds_complete), expect);
  }
  return 0;
}
