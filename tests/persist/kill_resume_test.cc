// Cross-process crash/restart and map/reduce integration tests, driving
// the real tools (tools/ckpt_ingest.cc, tools/sketch_merge.cc) as separate
// processes:
//
//  * kill/resume: a checkpointed ingestion run SIGKILLs itself mid-stream
//    (no destructors, no flushes), a second process resumes from the
//    surviving checkpoint, and the final merged sketch blob is
//    byte-identical to an uninterrupted run's -- the checkpoint/restart
//    bit-exactness contract, through a real process boundary.
//  * shard/reduce: N processes each sketch a slice of the stream and
//    serialize; a reducer process merges the blobs; the result is
//    byte-identical to a single process that saw the whole stream.
//
// The tools are found next to the test binary (ctest runs tests in the
// build directory); if they are not there the tests skip rather than fail,
// so running the test executable from an unusual cwd stays harmless.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "util/fault.h"

namespace gstream {
namespace {

std::string ToolPath(const std::string& name) {
  const std::string path = "./" + name;
  return ::access(path.c_str(), X_OK) == 0 ? path : std::string();
}

int RunCommand(const std::string& command) {
  return std::system(command.c_str());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(KillResumeTest, SigkilledRunResumesBitExact) {
  const std::string tool = ToolPath("ckpt_ingest");
  if (tool.empty()) GTEST_SKIP() << "ckpt_ingest not in cwd";

  const std::string ref_ckpt = TempPath("kr_ref.gckp");
  const std::string ref_out = TempPath("kr_ref.gskb");
  const std::string ckpt = TempPath("kr_killed.gckp");
  const std::string out = TempPath("kr_killed.gskb");
  const std::string common =
      " --shards=3 --interval=1024 --items=4000 --domain=1048576";

  // Uninterrupted reference.
  ASSERT_EQ(RunCommand(tool + " --ckpt=" + ref_ckpt + " --out=" + ref_out +
                       common + " > /dev/null"),
            0);

  // Crash run: the process SIGKILLs itself right after a mid-stream
  // checkpoint.  A shell reports death-by-SIGKILL as exit 128 + 9.
  const int crashed =
      RunCommand(tool + " --ckpt=" + ckpt + " --out=" + out +
                 " --kill-after=2048" + common + " > /dev/null 2>&1");
  ASSERT_TRUE(WIFEXITED(crashed) && WEXITSTATUS(crashed) == 128 + SIGKILL)
      << "expected the run to die by SIGKILL, status " << crashed;
  // The crash must not have produced a final output.
  EXPECT_EQ(::access(out.c_str(), F_OK), -1);

  // Resume in a fresh process from the surviving checkpoint.
  ASSERT_EQ(RunCommand(tool + " --ckpt=" + ckpt + " --out=" + out +
                       " --resume" + common + " > /dev/null"),
            0);

  const std::string reference = ReadAll(ref_out);
  ASSERT_FALSE(reference.empty());
  EXPECT_EQ(ReadAll(out), reference)
      << "resumed run's merged sketch differs from the uninterrupted run";

  for (const std::string& p : {ref_ckpt, ref_out, ckpt, out}) {
    std::remove(p.c_str());
  }
}

TEST(KillResumeTest, TornCheckpointWriteLeavesPreviousUsable) {
  // --fault arms a fault site, and GSTREAM_FAULTS=OFF compiles them out.
  if (!fault::kEnabled) GTEST_SKIP() << "built with GSTREAM_FAULTS=OFF";
  const std::string tool = ToolPath("ckpt_ingest");
  if (tool.empty()) GTEST_SKIP() << "ckpt_ingest not in cwd";

  const std::string ckpt = TempPath("kr_torn.gckp");
  const std::string out = TempPath("kr_torn.gskb");
  const std::string ref_ckpt = TempPath("kr_torn_ref.gckp");
  const std::string ref_out = TempPath("kr_torn_ref.gskb");
  const std::string common =
      " --shards=3 --interval=1024 --items=4000 --domain=1048576";

  ASSERT_EQ(RunCommand(tool + " --ckpt=" + ref_ckpt + " --out=" + ref_out +
                       common + " > /dev/null"),
            0);

  // The first checkpoint write tears mid-tmp and the feed stops there,
  // leaving no checkpoint file (only a torn .tmp).
  const int torn =
      RunCommand(tool + " --ckpt=" + ckpt + " --out=" + out +
                 " --fault=mid-tmp" + common + " > /dev/null 2>&1");
  ASSERT_TRUE(WIFEXITED(torn) && WEXITSTATUS(torn) == 1);
  EXPECT_EQ(::access(ckpt.c_str(), F_OK), -1)
      << "a torn write must never surface at the checkpoint path";

  // Resuming with no usable checkpoint starts over cleanly and still
  // produces the reference result.
  ASSERT_EQ(RunCommand(tool + " --ckpt=" + ckpt + " --out=" + out +
                       " --resume" + common + " > /dev/null 2>&1"),
            0);
  EXPECT_EQ(ReadAll(out), ReadAll(ref_out));

  for (const std::string& p :
       {ckpt, ckpt + ".tmp", out, ref_ckpt, ref_out}) {
    std::remove(p.c_str());
  }
}

TEST(KillResumeTest, CrossProcessShardReduceMatchesSingleProcess) {
  const std::string tool = ToolPath("sketch_merge");
  if (tool.empty()) GTEST_SKIP() << "sketch_merge not in cwd";

  for (const std::string type : {"count_sketch", "ams", "exact"}) {
    const std::string common = " --type=" + type + " --items=3000";
    std::string reduce_inputs;
    for (int s = 0; s < 4; ++s) {
      const std::string shard_out =
          TempPath("mr_" + type + "_s" + std::to_string(s) + ".gskb");
      ASSERT_EQ(RunCommand(tool + " --mode=shard --shard=" +
                           std::to_string(s) + " --shards=4 --out=" +
                           shard_out + common + " > /dev/null"),
                0)
          << type;
      reduce_inputs += " " + shard_out;
    }
    const std::string merged = TempPath("mr_" + type + "_merged.gskb");
    const std::string single = TempPath("mr_" + type + "_single.gskb");
    ASSERT_EQ(RunCommand(tool + " --mode=reduce --out=" + merged + common +
                         reduce_inputs + " > /dev/null"),
              0)
        << type;
    ASSERT_EQ(RunCommand(tool + " --mode=single --out=" + single + common +
                         " > /dev/null"),
              0)
        << type;
    const std::string merged_bytes = ReadAll(merged);
    ASSERT_FALSE(merged_bytes.empty()) << type;
    EXPECT_EQ(merged_bytes, ReadAll(single))
        << type << ": cross-process merge is not bit-exact";
    for (int s = 0; s < 4; ++s) {
      std::remove(TempPath("mr_" + type + "_s" + std::to_string(s) + ".gskb")
                      .c_str());
    }
    std::remove(merged.c_str());
    std::remove(single.c_str());
  }
}

TEST(KillResumeTest, ReducerDiesOnIncompatibleShardBlobs) {
  const std::string tool = ToolPath("sketch_merge");
  if (tool.empty()) GTEST_SKIP() << "sketch_merge not in cwd";

  const std::string a = TempPath("mr_incompat_a.gskb");
  const std::string b = TempPath("mr_incompat_b.gskb");
  const std::string merged = TempPath("mr_incompat_merged.gskb");
  ASSERT_EQ(RunCommand(tool + " --mode=shard --shard=0 --shards=2 --out=" +
                       a + " --seed=1 > /dev/null"),
            0);
  // Same geometry, different seed: the serialized fingerprints differ.
  ASSERT_EQ(RunCommand(tool + " --mode=shard --shard=1 --shards=2 --out=" +
                       b + " --seed=2 > /dev/null"),
            0);
  const int status =
      RunCommand(tool + " --mode=reduce --seed=1 --out=" + merged + " " + a +
                 " " + b + " 2> /dev/null");
  // DeserializeSketchOrDie aborts (SIGABRT) -- the cross-process analogue
  // of the in-memory MergeFrom fingerprint CHECK.
  ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 128 + SIGABRT)
      << "expected the reducer to abort, status " << status;
  for (const std::string& p : {a, b, merged}) std::remove(p.c_str());
}

}  // namespace
}  // namespace gstream
