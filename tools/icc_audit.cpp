// icc_audit: offline safety auditor for consensus flight-recorder journals.
//
// Reads a JSONL journal produced by the obs::Journal (harness::Cluster with
// ClusterOptions::obs.journal, or examples/icc_observe --journal), replays
// it through obs::audit_journal, and prints a machine-readable run report.
//
//   icc_audit <journal.jsonl> [--report <out.json>] [--csv <out.csv>] [--quiet]
//
// Exit status: 0 when every invariant holds, 1 on any violation (the report
// names the invariant), 2 on usage/I/O errors or a malformed journal (an
// empty file, non-JSON, a cut line: stderr names the line). See
// obs/audit.hpp for the invariant-to-lemma mapping.
#include <cstdio>
#include <cstring>
#include <string>

#include "obs/audit.hpp"
#include "support/json.hpp"

namespace {

namespace json = icc::support::json;

int usage() {
  std::fprintf(stderr,
               "usage: icc_audit <journal.jsonl> [--report <out.json>] "
               "[--csv <out.csv>] [--quiet]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string journal_path;
  std::string report_path;
  std::string csv_path;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--report") == 0 && i + 1 < argc) {
      report_path = argv[++i];
    } else if (std::strcmp(argv[i], "--csv") == 0 && i + 1 < argc) {
      csv_path = argv[++i];
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
    std::fprintf(stderr, "icc_audit: cannot read %s\n", journal_path.c_str());
    return 2;
  }

  icc::obs::AuditReport report = icc::obs::audit_jsonl(text);
  if (!report.error.empty()) {
    std::fprintf(stderr, "icc_audit: %s: %s\n", journal_path.c_str(), report.error.c_str());
    return 2;
  }

  if (!quiet) std::printf("%s\n", report.to_json().c_str());
  if (!report_path.empty() && !json::write_file(report_path, report.to_json() + "\n")) {
    std::fprintf(stderr, "icc_audit: cannot write %s\n", report_path.c_str());
    return 2;
  }
  if (!csv_path.empty() && !json::write_file(csv_path, report.rounds_csv())) {
    std::fprintf(stderr, "icc_audit: cannot write %s\n", csv_path.c_str());
    return 2;
  }

  if (!report.ok()) {
    for (const auto& v : report.violations)
      std::fprintf(stderr, "icc_audit: VIOLATION %s round %llu: %s\n",
                   v.invariant.c_str(), static_cast<unsigned long long>(v.round),
                   v.detail.c_str());
    return 1;
  }
  return 0;
}
