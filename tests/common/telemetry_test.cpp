// The telemetry reader (tools/telemetry.hpp) on malformed input, one table per
// format: each table's first row is well-formed and must pass, so a reader
// that rejects everything fails too.
#include "telemetry.hpp"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

namespace lpt::telemetry {
namespace {

using Rows = std::vector<std::pair<const char*, std::string>>;

template <class Read>
void expect_only_first_passes(const Rows& rows, Read read) {
  for (std::size_t i = 0; i < rows.size(); ++i) {
    SCOPED_TRACE(rows[i].first);
    EXPECT_EQ(read(rows[i].second), i == 0) << rows[i].second;
  }
}

TEST(TelemetryReader, RejectsMalformedJson) {
  expect_only_first_passes(
      {{"valid", R"( {"a": [0, -1.5e3, 2E+1, "xé\n", true, null]} )"},
       {"NaN", "NaN"},
       {"Infinity", "[Infinity]"},
       {"-inf", "-inf"},
       {"hex", "0x1F"},
       {"leading plus", "+1"},
       {"leading zero", "01"},
       {"bad \\u escape", R"("\uZZZZ")"},
       {"trailing comma", R"({"a": [1, 2,]})"},
       {"trailing content", R"({"a": 1} {"b": 2})"}},
      [](const std::string& text) {
        Json j;
        std::string err;
        return parse_json(text, &j, &err);
      });
}

TEST(TelemetryReader, RejectsMalformedPrometheus) {
  expect_only_first_passes(
      {{"valid",
        "# HELP a_total says a\n# TYPE a_total counter\na_total 12\n"
        "# TYPE g gauge\ng{k=\"0\"} -1.5e-3\ng{k=\"1\"} .5\ng{k=\"2\"} NaN\n"
        "g{k=\"3\"} +Inf\ng{k=\"4\"} -Inf\n"},
       {"no TYPE before the sample", "orphan_total 1\n"},
       {"counter without _total", "# TYPE bad counter\nbad 1\n"},
       {"duplicate series",
        "# TYPE a_total counter\na_total{w=\"0\"} 1\na_total{w=\"0\"} 2\n"},
       {"unterminated label set", "# TYPE a gauge\na{w=\"0\" 1\n"},
       {"bad value", "# TYPE a gauge\na twelve\n"},
       {"hex value", "# TYPE a gauge\na 0x1F\n"},
       {"second space before the value", "# TYPE a gauge\na  12\n"},
       {"lowercase inf", "# TYPE a gauge\na inf\n"},
       {"lowercase nan", "# TYPE a gauge\na nan\n"},
       {"Inf without a sign", "# TYPE a gauge\na Inf\n"},
       {"exponent without digits", "# TYPE a gauge\na 1e\n"}},
      [](const std::string& text) { return parse_prometheus(text).ok(); });
}

std::string folded(const std::string& recorded, const std::string& stacks) {
  return "# lpt profile v1\n# mode: piggyback\n# sample_hz: 0\n"
         "# max_depth: 4\n# invocations: " + recorded + "\n# recorded: " +
         recorded + "\n# dropped: 0\n# offcpu_waits: 0\n"
         "# offcpu_dropped: 0\n# lock_acquires: 2\n# lock_contended: 1\n"
         "# contention_chains: 0\n" + stacks;
}

TEST(TelemetryReader, RejectsMalformedFolded) {
  const std::string stacks = "ult1;p0;main;work 3\nult2;p0 2\n";
  const std::string valid = folded("5", stacks);
  std::string missing = valid;
  missing.erase(missing.find("# dropped: 0\n"), 13);
  expect_only_first_passes(
      {{"valid", valid},
       {"bad magic", "# lpt profile v2" + valid.substr(16)},
       {"header after a stack line", missing + "# dropped: 0\n"},
       {"missing header", missing},
       {"stack counts past recorded", folded("4", stacks)}},
      [](const std::string& text) { return read_profile(text).ok(); });
}

TEST(TelemetryReader, RejectsMalformedEvents) {
  const std::string valid =
      R"({"ts":1000,"type":"ult_wake","ult":9,"worker":0,"arg0":7,"arg1":8})"
      "\n"
      R"({"ts":2000,"type":"ult_dispatch","ult":9,"worker":0,"arg0":1000,"arg1":0})"
      "\n";
  expect_only_first_passes(
      {{"valid", valid},
       {"truncated line", valid + R"({"ts":3000,"type":"ult_exit","ult":9,)"},
       {"not JSON", valid + "ts=3000 type=ult_exit\n"},
       {"unsorted timestamps",
        valid + R"({"ts":1500,"type":"ult_exit","ult":9,"worker":0,"arg0":0,"arg1":0})"},
       {"unknown type",
        valid + R"({"ts":3000,"type":"ult_teleport","ult":9,"worker":0,"arg0":0,"arg1":0})"}},
      [](const std::string& text) { return read_events(text).ok(); });
}

}  // namespace
}  // namespace lpt::telemetry
