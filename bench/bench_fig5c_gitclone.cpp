// Fig. 5c: latency of cloning repositories (redis / julia / nodejs).
//
// A clone's filesystem work is checking the tree out through the mount; we
// generate synthetic trees matching the repos' published shapes (file
// counts 618 / 1096 / 19912; nodejs depth 13 with hot directories).
//
//   Paper: redis x2.39, julia x2.87, nodejs x3.64 overhead.
#include <cstdio>

#include "bench_util.hpp"
#include "workloads/treegen.hpp"

namespace nexus::bench {
namespace {

// A clone is one logical transaction: with `batched` the whole checkout
// rides a single BeginBatch/CommitBatch group commit (one anchor store,
// one checkpoint), instead of the default per-operation commit.
double RunClone(Setup& setup, const workloads::TreeSpec& spec, bool batched) {
  Abort(setup.fs().Mkdir(spec.name), "mkdir");
  PhaseTimer timer(setup);
  if (batched) Abort(setup.fs().BeginBatch(), "begin batch");
  auto stats = workloads::GenerateTree(setup.fs(), spec.name, spec, setup.rng());
  Abort(stats.status(), "treegen");
  if (batched) Abort(setup.fs().CommitBatch(), "commit batch");
  return timer.Stop().total;
}

} // namespace

int Main() {
  PrintHeader("Fig. 5c: Latency (seconds) for cloning Git repositories");
  std::printf("%-10s %10s %10s %10s %10s %10s   %s\n", "repo", "openafs",
              "nexus", "overhead", "batched", "overhead",
              "(paper: redis x2.39, julia x2.87, nodejs x3.64)");

  for (const auto& spec : {workloads::RedisSpec(), workloads::JuliaSpec(),
                           workloads::NodeJsSpec()}) {
    double openafs = 0;
    {
      auto baseline = Setup::Baseline();
      openafs = RunClone(*baseline, spec, /*batched=*/false);
    }
    double nexus = 0;
    {
      auto setup = Setup::Nexus();
      nexus = RunClone(*setup, spec, /*batched=*/false);
    }
    double batched = 0;
    journal::Stats journal;
    {
      auto setup = Setup::Nexus();
      Abort(setup->nexus()->ConfigureJournal(true, 0), "configure journal");
      batched = RunClone(*setup, spec, /*batched=*/true);
      journal = setup->nexus()->Profile().journal;
    }
    std::printf("%-10s %10.2f %10.2f %9.2fx %10.2f %9.2fx   "
                "(%llu records, %llu checkpoints, %llu ops deduped)\n",
                spec.name.c_str(), openafs, nexus, nexus / openafs, batched,
                batched / openafs,
                static_cast<unsigned long long>(journal.records_committed),
                static_cast<unsigned long long>(journal.checkpoints),
                static_cast<unsigned long long>(journal.ops_deduped));
  }
  return 0;
}

} // namespace nexus::bench

int main() { return nexus::bench::Main(); }
