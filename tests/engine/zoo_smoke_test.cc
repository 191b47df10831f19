// Whole-zoo integration smoke: every model the paper evaluates must serve a small workload
// end-to-end under both memory managers, with allocator invariants intact throughout —
// mirroring the paper's "compatible with all models" claim (§7).

#include <gtest/gtest.h>

#include "src/engine/engine.h"
#include "src/model/model_zoo.h"
#include "src/workload/datasets.h"
#include "tests/audit/audit_test_util.h"

namespace jenga {
namespace {

class ZooSmokeTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ZooSmokeTest, ServesUnderBothManagers) {
  const ModelConfig model = ModelByName(GetParam());
  for (const bool jenga : {true, false}) {
    SCOPED_TRACE(jenga ? "jenga" : "homogeneous");
    EngineConfig config = jenga ? JengaProfile(model, H100()) : VllmProfile(model, H100());
    // Small, model-independent pool: big enough for the workload, small enough to exercise
    // reuse. Mamba models need room for the baseline's static reservation.
    config.pool_bytes_override = 2LL << 30;
    config.max_num_seqs_override = 8;
    config.memory_sample_every = 0;
    Engine engine(std::move(config));

    Rng rng(std::hash<std::string>{}(GetParam()));
    std::vector<Request> requests;
    if (model.vision.present) {
      MmmuProDataset dataset(model.vision.tokens_per_image, 8, 24);
      requests = GenerateBatch(dataset, 4, rng);
    } else {
      MmluProDataset dataset(8, 24);
      requests = GenerateBatch(dataset, 6, rng);
    }
    for (Request& r : requests) {
      engine.Submit(std::move(r));
    }
    engine.RunToCompletion();
    EXPECT_GT(engine.metrics().CompletedRequests(), 0);
    EXPECT_EQ(engine.metrics().FailedRequests() + engine.metrics().CompletedRequests(),
              static_cast<int64_t>(requests.size()));
    ExpectConsistent(engine.kv());
  }
}

std::vector<std::string> AllZooNames() {
  std::vector<std::string> names;
  for (const ModelConfig& model : AllZooModels()) {
    names.push_back(model.name);
  }
  return names;
}

INSTANTIATE_TEST_SUITE_P(AllModels, ZooSmokeTest, ::testing::ValuesIn(AllZooNames()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-' || c == '.') {
                               c = '_';
                             }
                           }
                           return name;
                         });

}  // namespace
}  // namespace jenga
