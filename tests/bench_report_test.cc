// Validates the machine-readable bench report: BenchReporter must write
// JSON that parses, carries per-stage shuffle_bytes, and whose stage
// counters sum to the reported totals.
#include "bench/bench_common.h"

#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "tests/test_json.h"

namespace sac::bench {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(BenchReportTest, WritesParsableJsonWithPerStageShuffle) {
  const std::string out_path = testing::TempDir() + "/BENCH_selftest.json";
  const std::string trace_path = testing::TempDir() + "/selftest.trace.json";

  Sac ctx;
  {
    const char* argv[] = {"bench", "--out", out_path.c_str(), "--trace",
                          trace_path.c_str()};
    BenchReporter reporter("selftest", 5, const_cast<char**>(argv));
    Row row = TimeQuery(&ctx, "selftest", "reduce", 64, 64, [&] {
      runtime::ValueVec rows;
      for (int i = 0; i < 64; ++i) {
        rows.push_back(runtime::VPair(runtime::VInt(i % 7),
                                      runtime::VInt(i)));
      }
      runtime::Dataset ds = ctx.engine().Parallelize(std::move(rows), 4);
      auto red = ctx.engine().ReduceByKey(
          ds, [](const runtime::Value& a, const runtime::Value& b) {
            return runtime::VInt(a.AsInt() + b.AsInt());
          });
      ASSERT_TRUE(red.ok());
    });
    reporter.Report(row);
    reporter.CaptureTrace(&ctx);
  }  // reporter destructor writes both files

  testjson::JsonValue doc;
  ASSERT_TRUE(testjson::ParseJson(ReadFile(out_path), &doc));
  EXPECT_EQ(doc.At("bench").str, "selftest");
  const auto& rows = doc.At("rows");
  ASSERT_TRUE(rows.is_array());
  ASSERT_EQ(rows.array.size(), 1u);
  const auto& row = rows.array[0];
  EXPECT_EQ(row.At("series").str, "reduce");
  ASSERT_TRUE(row.Has("totals"));
  ASSERT_TRUE(row.At("stages").is_array());

  // Per-stage shuffle_bytes present, nonzero on the shuffle stage, and
  // summing to the totals.
  int64_t summed = 0;
  int64_t shuffle_stage_bytes = 0;
  for (const auto& stage : row.At("stages").array) {
    ASSERT_TRUE(stage.Has("shuffle_bytes"));
    ASSERT_TRUE(stage.Has("label"));
    ASSERT_TRUE(stage.Has("task_us"));
    summed += stage.At("shuffle_bytes").Int();
    if (stage.At("kind").str == "shuffle") {
      shuffle_stage_bytes += stage.At("shuffle_bytes").Int();
    }
  }
  EXPECT_GT(shuffle_stage_bytes, 0);
  EXPECT_EQ(summed, row.At("totals").At("shuffle_bytes").Int());
  EXPECT_EQ(summed, shuffle_stage_bytes);  // narrow/source stages: zero

  // The --trace flag wrote a parsable Chrome trace with task spans.
  testjson::JsonValue trace_doc;
  ASSERT_TRUE(testjson::ParseJson(ReadFile(trace_path), &trace_doc));
  ASSERT_TRUE(trace_doc.At("traceEvents").is_array());
  EXPECT_FALSE(trace_doc.At("traceEvents").array.empty());
}

TEST(BenchReportTest, HostCpusFollowsTheAffinityMask) {
  cpu_set_t mask;
  ASSERT_EQ(sched_getaffinity(0, sizeof(mask), &mask), 0);
  EXPECT_EQ(HostCpus(), CPU_COUNT(&mask));
  // A thread pinned to one CPU -- what `taskset -c N` does to a whole
  // process -- must report one, whatever hardware_concurrency() says.
  int first = 0;
  while (!CPU_ISSET(first, &mask)) ++first;
  int pinned = -1;
  std::thread t([&] {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(first, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) pinned = HostCpus();
  });
  t.join();
  EXPECT_EQ(pinned, 1);
}

}  // namespace
}  // namespace sac::bench
