// Flag-parser tests for the c2b CLI: value/boolean/`=` forms, the
// optional-value `--progress[=N]` shape, numeric parse errors that name the
// offending flag (whole tokens only), unknown-flag rejection via finish(),
// and the hand-off of the remaining flags to the request schema.

#include "cli_args.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

namespace c2b::cli {
namespace {

/// argv helper: owns the strings, hands out mutable char* like main() gets.
class Argv {
 public:
  explicit Argv(std::vector<std::string> tokens) : tokens_(std::move(tokens)) {
    for (std::string& token : tokens_) pointers_.push_back(token.data());
  }
  int argc() const { return static_cast<int>(pointers_.size()); }
  char** argv() { return pointers_.data(); }

 private:
  std::vector<std::string> tokens_;
  std::vector<char*> pointers_;
};

TEST(CliArgsTest, ParsesValueAndEqualsForms) {
  Argv argv({"c2b", "dse", "--workload", "stencil", "--threads=4", "--area", "128"});
  Args args(argv.argc(), argv.argv(), 2);
  EXPECT_EQ(args.get("workload", std::string("?")), "stencil");
  EXPECT_EQ(args.get("threads", 0ll), 4);
  EXPECT_DOUBLE_EQ(args.get("area", 0.0), 128.0);
  EXPECT_EQ(args.get("missing", std::string("fallback")), "fallback");
  args.finish();  // everything queried -> no throw
}

TEST(CliArgsTest, BooleanFlagTakesNoValue) {
  // `--progress` is registered boolean, so it must NOT eat `--workload`.
  Argv argv({"c2b", "dse", "--progress", "--workload", "stencil"});
  Args args(argv.argc(), argv.argv(), 2, {"progress"});
  EXPECT_TRUE(args.has("progress"));
  EXPECT_EQ(args.get("workload", std::string("?")), "stencil");
}

TEST(CliArgsTest, GetOptCoversAllThreeShapes) {
  {
    Argv argv({"c2b", "dse"});
    Args args(argv.argc(), argv.argv(), 2, {"progress"});
    EXPECT_FALSE(args.get_opt("progress", 500).has_value());
  }
  {
    Argv argv({"c2b", "dse", "--progress"});
    Args args(argv.argc(), argv.argv(), 2, {"progress"});
    EXPECT_EQ(args.get_opt("progress", 500), 500);  // bare form -> default
  }
  {
    Argv argv({"c2b", "dse", "--progress=250"});
    Args args(argv.argc(), argv.argv(), 2, {"progress"});
    EXPECT_EQ(args.get_opt("progress", 500), 250);
  }
}

TEST(CliArgsTest, NumericErrorsNameTheFlag) {
  Argv argv({"c2b", "dse", "--threads=lots", "--area=wide"});
  Args args(argv.argc(), argv.argv(), 2);
  try {
    args.get("threads", 0ll);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--threads"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("lots"), std::string::npos);
  }
  try {
    args.get("area", 0.0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--area"), std::string::npos);
  }
  try {
    args.get_opt("threads", 1);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--threads"), std::string::npos);
  }
}

TEST(CliArgsTest, PartialNumericTokensAreRejectedNamingTheFlag) {
  // Every number is consumed whole or rejected: no prefix reads.
  Argv argv({"c2b", "report", "--top=10x", "--threads=2.5", "--area=3.5e", "--port", "80 ",
             "--seed=1e300", "--progress=5ms"});
  Args args(argv.argc(), argv.argv(), 2, {"progress"});
  const auto rejects = [&](const char* flag, auto query) {
    try {
      query();
      ADD_FAILURE() << "expected a usage error for --" << flag;
    } catch (const UsageError& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("--") + flag), std::string::npos)
          << error.what();
    }
  };
  rejects("top", [&] { return args.get("top", 10LL); });
  rejects("threads", [&] { return args.get("threads", 0LL); });
  rejects("area", [&] { return args.get("area", 0.0); });
  rejects("port", [&] { return args.get("port", 0LL); });
  rejects("seed", [&] { return args.get("seed", 0LL); });  // beyond 2^53
  rejects("progress", [&] { return args.get_opt("progress", 500).value_or(0); });
}

TEST(CliArgsTest, IntegersAcceptExponentForm) {
  Argv argv({"c2b", "dse", "--threads=4e0", "--poll-ms", "1e3", "--progress=2.5e2"});
  Args args(argv.argc(), argv.argv(), 2, {"progress"});
  EXPECT_EQ(args.get("threads", 0LL), 4);
  EXPECT_EQ(args.get("poll-ms", 0LL), 1000);
  EXPECT_EQ(args.get_opt("progress", 500), 250);
  args.finish();
}

TEST(CliArgsTest, RestHandsEveryUnqueriedFlagToTheRequestSchema) {
  // CLI-level flags are read first; everything else is a request key,
  // validated by the shared schema, which names the offending key.
  {
    Argv argv({"c2b", "dse", "--threads", "2", "--instructions", "1e6", "--pareto"});
    Args args(argv.argc(), argv.argv(), 2, {"pareto"});
    EXPECT_EQ(args.get("threads", 0LL), 2);
    const SweepRequest request = build_sweep_request(SweepCommand::kDse, args.rest());
    EXPECT_EQ(request.context.instructions0, 1'000'000u);
    EXPECT_TRUE(request.pareto);
    args.finish();  // rest() consumed everything
  }
  for (const char* bad : {"--instructions=2.5", "--instructions=-1", "--per-core-cap=0",
                          "--instuctions=5"}) {
    Argv argv({"c2b", "dse", bad});
    Args args(argv.argc(), argv.argv(), 2);
    const std::string key = std::string(bad).substr(2, std::string(bad).find('=') - 2);
    try {
      build_sweep_request(SweepCommand::kDse, args.rest());
      ADD_FAILURE() << "expected a request error for " << bad;
    } catch (const RequestError& error) {
      EXPECT_EQ(error.key(), key) << error.what();
    }
  }
}

TEST(CliArgsTest, FinishThrowsListingUnknownFlags) {
  Argv argv({"c2b", "dse", "--workload", "stencil", "--bogus=1", "--typo", "x"});
  Args args(argv.argc(), argv.argv(), 2);
  EXPECT_EQ(args.get("workload", std::string("?")), "stencil");
  try {
    args.finish();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown flag"), std::string::npos);
    EXPECT_NE(what.find("--bogus"), std::string::npos);
    EXPECT_NE(what.find("--typo"), std::string::npos);
  }
}

TEST(CliArgsTest, LockstepRecordsParsesAllForms) {
  // The batched-replay tuning flags on `dse`/`aps`: value, `=` form, and
  // absence (get_opt -> nullopt, caller keeps its default).
  {
    Argv argv({"c2b", "dse", "--lockstep-records", "512"});
    Args args(argv.argc(), argv.argv(), 2);
    EXPECT_EQ(args.get_opt("lockstep-records", 4096), 512);
    args.finish();
  }
  {
    Argv argv({"c2b", "aps", "--lockstep-records=1"});
    Args args(argv.argc(), argv.argv(), 2);
    EXPECT_EQ(args.get_opt("lockstep-records", 4096), 1);
  }
  {
    Argv argv({"c2b", "dse"});
    Args args(argv.argc(), argv.argv(), 2);
    EXPECT_FALSE(args.get_opt("lockstep-records", 4096).has_value());
  }
}

TEST(CliArgsTest, LockstepRecordsNumericErrorNamesTheFlag) {
  Argv argv({"c2b", "dse", "--lockstep-records=soon"});
  Args args(argv.argc(), argv.argv(), 2);
  try {
    args.get_opt("lockstep-records", 4096);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    EXPECT_NE(std::string(error.what()).find("--lockstep-records"), std::string::npos);
    EXPECT_NE(std::string(error.what()).find("soon"), std::string::npos);
  }
}

TEST(CliArgsTest, NoSimdIsBooleanAndDoesNotEatTheNextFlag) {
  // `--no-simd` is registered boolean at the CLI entry point, so a value
  // flag that follows must still get its own value.
  Argv argv({"c2b", "dse", "--no-simd", "--lockstep-records", "64"});
  Args args(argv.argc(), argv.argv(), 2, {"no-simd"});
  EXPECT_EQ(args.get("no-simd", std::string("false")), "true");
  EXPECT_EQ(args.get_opt("lockstep-records", 4096), 64);
  args.finish();
}

TEST(CliArgsTest, UnqueriedBatchFlagsAreUnknownToOtherCommands) {
  // Commands that never query the batch flags reject them via finish(),
  // naming both — the `c2b model --no-simd` typo fails loudly.
  Argv argv({"c2b", "model", "--no-simd", "--lockstep-records=64"});
  Args args(argv.argc(), argv.argv(), 2, {"no-simd"});
  try {
    args.finish();
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("unknown flag"), std::string::npos);
    EXPECT_NE(what.find("--no-simd"), std::string::npos);
    EXPECT_NE(what.find("--lockstep-records"), std::string::npos);
  }
}

TEST(CliArgsTest, BudgetFlagsParseValueAndEqualsForms) {
  // The constraint budgets on `dse`/`aps` are plain double flags; both
  // spellings must parse, and absence leaves the caller's default.
  {
    Argv argv({"c2b", "dse", "--power-budget", "4.5", "--bw-budget=120",
               "--noc-budget", "80"});
    Args args(argv.argc(), argv.argv(), 2);
    EXPECT_DOUBLE_EQ(args.get("power-budget", 0.0), 4.5);
    EXPECT_DOUBLE_EQ(args.get("bw-budget", 0.0), 120.0);
    EXPECT_DOUBLE_EQ(args.get("noc-budget", 0.0), 80.0);
    args.finish();
  }
  {
    Argv argv({"c2b", "dse"});
    Args args(argv.argc(), argv.argv(), 2);
    EXPECT_FALSE(args.has("power-budget"));
    EXPECT_DOUBLE_EQ(args.get("power-budget", 7.0), 7.0);
  }
}

TEST(CliArgsTest, BudgetFlagNumericErrorsNameTheFlag) {
  // Non-numeric budgets must throw naming the offending flag and value —
  // main() turns that into a usage error, exit 2 (the non-positive case is
  // rejected by the request schema, also exit 2).
  Argv argv({"c2b", "dse", "--power-budget=cheap", "--bw-budget", "plenty",
             "--noc-budget=wide"});
  Args args(argv.argc(), argv.argv(), 2);
  for (const char* flag : {"power-budget", "bw-budget", "noc-budget"}) {
    try {
      args.get(flag, 0.0);
      FAIL() << "expected invalid_argument for --" << flag;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(std::string("--") + flag),
                std::string::npos);
    }
  }
}

TEST(CliArgsTest, ParetoIsBooleanAndDoesNotEatTheNextFlag) {
  Argv argv({"c2b", "dse", "--pareto", "--power-budget", "4.0"});
  Args args(argv.argc(), argv.argv(), 2, {"pareto"});
  EXPECT_TRUE(args.has("pareto"));
  EXPECT_DOUBLE_EQ(args.get("power-budget", 0.0), 4.0);
  args.mark_used("pareto");
  args.finish();
}

TEST(CliArgsTest, RejectsNonFlagTokens) {
  Argv argv({"c2b", "dse", "stencil"});
  EXPECT_THROW(Args(argv.argc(), argv.argv(), 2), std::invalid_argument);
}

TEST(CliArgsTest, MissingValueThrows) {
  Argv argv({"c2b", "dse", "--workload"});
  EXPECT_THROW(Args(argv.argc(), argv.argv(), 2), std::invalid_argument);
}

}  // namespace
}  // namespace c2b::cli
