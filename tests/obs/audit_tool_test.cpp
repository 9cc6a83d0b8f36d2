// End-to-end tests for the offline inspector's journal subcommands
// (`icc_inspect audit`, `icc_inspect critpath`) invoked as real
// subprocesses: the CSV time series has the documented columns and one row
// per finalized round, and the exit-code contract CI leans on (0 clean, 1
// named violation / failed hop check, 2 usage, I/O error or a malformed
// journal) is pinned. CMake injects the binary path as ICC_INSPECT_BIN.
#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "harness/cluster.hpp"
#include "obs/journal.hpp"
#include "test_paths.hpp"

namespace icc {
namespace {

using testing_paths::test_path;

const std::string kAudit = std::string(ICC_INSPECT_BIN) + " audit";
const std::string kCritpath = std::string(ICC_INSPECT_BIN) + " critpath";

std::string write_honest_journal(const std::string& path) {
  harness::ClusterOptions o;
  o.n = 16;
  o.t = 5;
  o.protocol = harness::Protocol::kIcc0;
  o.seed = 7;
  o.delta_bnd = sim::msec(300);
  o.payload_size = 256;
  o.obs.enabled = true;
  o.obs.journal = true;
  o.delay_model = [](size_t, uint64_t) {
    return std::make_unique<sim::FixedDelay>(sim::msec(10));
  };
  harness::Cluster cluster(o);
  cluster.run_for(sim::seconds(5));
  EXPECT_EQ(cluster.check_safety(), std::nullopt);
  std::string jsonl = cluster.journal_jsonl();
  std::ofstream(path, std::ios::binary | std::ios::trunc) << jsonl;
  return jsonl;
}

int run_tool(const std::string& cmd) {
  int status = std::system((cmd + " >/dev/null 2>&1").c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  return WEXITSTATUS(status);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

// Pulls an integer field out of a flat JSON report without a JSON parser.
long json_int(const std::string& json, const std::string& key) {
  size_t at = json.find("\"" + key + "\":");
  EXPECT_NE(at, std::string::npos) << key;
  if (at == std::string::npos) return -1;
  return std::strtol(json.c_str() + at + key.size() + 3, nullptr, 10);
}

/// Runs `cmd`, returning its exit status and its stderr in `*err`.
int run_tool_stderr(const std::string& cmd, const std::string& err_path, std::string* err) {
  int status = std::system((cmd + " >/dev/null 2>" + err_path).c_str());
  EXPECT_TRUE(WIFEXITED(status)) << cmd;
  *err = slurp(err_path);
  return WEXITSTATUS(status);
}

class ToolTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_ = test_path("journal.jsonl");
    jsonl_ = write_honest_journal(journal_);
    ASSERT_FALSE(jsonl_.empty());
  }

  /// Inputs that are not journals: the tool must exit 2 and name the bad
  /// line on stderr.
  void expect_malformed_inputs_exit_two(const std::string& tool) {
    // The last line cut in the middle of a field, as a crashed writer leaves it.
    const size_t last = jsonl_.rfind('\n', jsonl_.size() - 2) + 1;
    const size_t lines = static_cast<size_t>(std::count(jsonl_.begin(), jsonl_.end(), '\n'));
    const std::string cut = jsonl_.substr(0, last + (jsonl_.size() - last) / 2);
    const std::pair<std::string, std::string> cases[] = {
        {"", "line 1:"},
        {"this is not a journal\n", "line 1:"},
        {cut, "line " + std::to_string(lines) + ":"},
    };
    for (const auto& [text, line] : cases) {
      const std::string path = test_path("malformed.jsonl");
      std::ofstream(path, std::ios::binary | std::ios::trunc) << text;
      std::string err;
      EXPECT_EQ(run_tool_stderr(tool + " " + path, test_path("stderr.txt"), &err), 2)
          << text.substr(0, 40);
      EXPECT_NE(err.find(line), std::string::npos) << err;
    }
  }

  std::string journal_, jsonl_;
};

TEST_F(ToolTest, AuditCsvHasDocumentedColumnsAndOneRowPerFinalizedRound) {
  std::string report_path = test_path("report.json");
  std::string csv_path = test_path("rounds.csv");
  ASSERT_EQ(run_tool(kAudit + " " + journal_ + " --report " +
                     report_path + " --csv " + csv_path + " --quiet"),
            0);

  std::string report = slurp(report_path);
  EXPECT_NE(report.find("\"schema\":\"icc-audit/v1\""), std::string::npos);
  EXPECT_NE(report.find("\"ok\":true"), std::string::npos);
  long finalized = json_int(report, "finalized_rounds");
  ASSERT_GT(finalized, 0);

  std::string csv = slurp(csv_path);
  std::istringstream lines(csv);
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));
  EXPECT_EQ(header,
            "round,hash,propose_ts,first_share_ts,quorum_ts,finalized_ts,"
            "propose_to_final_us");
  long rows = 0;
  for (std::string line; std::getline(lines, line);) {
    if (line.empty()) continue;
    ++rows;
    // Every row is fully attributed on the honest fast path: seven fields,
    // none of them the -1 "unattributed" sentinel.
    EXPECT_EQ(std::count(line.begin(), line.end(), ','), 6) << line;
    EXPECT_EQ(line.find(",-1"), std::string::npos) << line;
  }
  EXPECT_EQ(rows, finalized);
}

TEST_F(ToolTest, AuditExitCodeContract) {
  // 1: a tampered journal (forged second finalization) names its invariant.
  std::string tampered = test_path("tampered.jsonl");
  size_t at = jsonl_.find("\"type\":\"finalized\"");
  ASSERT_NE(at, std::string::npos);
  auto parsed = obs::Journal::parse_jsonl(jsonl_);
  uint64_t round = 0;
  for (const auto& ev : parsed.events)
    if (ev.type == obs::journal_type::kFinalized) {
      round = ev.round;
      break;
    }
  std::ofstream(tampered, std::ios::binary | std::ios::trunc)
      << jsonl_
      << "{\"seq\":999999,\"type\":\"finalized\",\"ts\":999999,\"party\":0,"
         "\"round\":"
      << round << ",\"hash\":\"" << std::string(64, 'f') << "\"}\n";
  EXPECT_EQ(run_tool(kAudit + " " + tampered), 1);

  // 2: usage and I/O errors.
  EXPECT_EQ(run_tool(kAudit), 2);
  EXPECT_EQ(run_tool(kAudit + " " + test_path("missing.jsonl")), 2);
  EXPECT_EQ(run_tool(kAudit + " " + journal_ + " --bogus"), 2);
  expect_malformed_inputs_exit_two(kAudit);
}

TEST_F(ToolTest, CritpathExitCodeContract) {
  // 0: honest journal passes the derived hop check and writes its artifacts.
  std::string report_path = test_path("critpath.json");
  std::string dot_path = test_path("round.dot");
  ASSERT_EQ(run_tool(kCritpath + " " + journal_ +
                     " --check-hops --report " + report_path + " --dot " + dot_path +
                     " --quiet"),
            0);
  std::string report = slurp(report_path);
  EXPECT_NE(report.find("\"schema\":\"icc-critpath/v1\""), std::string::npos);
  EXPECT_NE(slurp(dot_path).find("digraph"), std::string::npos);

  // 1: wrong expected hop count fails the structural check.
  EXPECT_EQ(run_tool(kCritpath + " " + journal_ +
                     " --check-hops 4 --quiet"),
            1);

  // 1: a deleted recv line is rejected with a named causal error.
  std::string tampered = test_path("norecv.jsonl");
  size_t at = jsonl_.find("\"type\":\"recv\"");
  ASSERT_NE(at, std::string::npos);
  size_t bol = jsonl_.rfind('\n', at);
  bol = bol == std::string::npos ? 0 : bol + 1;
  size_t eol = jsonl_.find('\n', at);
  std::ofstream(tampered, std::ios::binary | std::ios::trunc)
      << jsonl_.substr(0, bol) << jsonl_.substr(eol + 1);
  EXPECT_EQ(run_tool(kCritpath + " " + tampered + " --quiet"), 1);

  // 2: usage and I/O errors.
  EXPECT_EQ(run_tool(kCritpath), 2);
  EXPECT_EQ(run_tool(kCritpath + " " + test_path("missing.jsonl")), 2);
  expect_malformed_inputs_exit_two(kCritpath);
}

TEST_F(ToolTest, UnknownSubcommandExitsTwo) {
  // A valid journal, so only the subcommand can be at fault.
  EXPECT_EQ(run_tool(std::string(ICC_INSPECT_BIN) + " bogus " + journal_), 2);
  EXPECT_EQ(run_tool(std::string(ICC_INSPECT_BIN)), 2);
}

}  // namespace
}  // namespace icc
