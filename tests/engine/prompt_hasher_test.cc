// PromptHasher: hash passes, the shared-prefix table and its bounds. Every expected chain is a
// from-scratch ChainBlockHashes over the group's stream. The whole binary arms
// JENGA_CHECK_ADMISSION, so every chain taken from the table is also checked inside the hasher.

#include "src/engine/prompt_hasher.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/core/policy_factory.h"
#include "src/engine/engine.h"
#include "src/engine/kv_manager.h"
#include "tests/engine/test_models.h"

namespace jenga {
namespace {

const bool kAuditArmed = []() {
  setenv("JENGA_CHECK_ADMISSION", "1", /*overwrite=*/1);
  return true;
}();

constexpr int kBs = 16;

// `prompt`'s chains through the table, each equal to a from-scratch chain over its group's
// stream.
void ExpectChainsFromScratch(PromptHasher& hasher, const KvSpec& spec, const Prompt& prompt,
                             int tokens_per_page = kBs) {
  const std::vector<std::vector<BlockHash>> chains = hasher.PromptChains(prompt, true);
  const Request r = MakeRequest(0, prompt, 1, 0.0);
  ASSERT_EQ(chains.size(), spec.groups.size());
  for (int g = 0; g < static_cast<int>(spec.groups.size()); ++g) {
    const KvGroupSpec& group = spec.groups[static_cast<size_t>(g)];
    const int unit = group.kind == GroupKind::kMamba ? kMambaCheckpointInterval : tokens_per_page;
    EXPECT_EQ(chains[static_cast<size_t>(g)],
              ChainBlockHashes(GroupStream(r, group.scope), unit, GroupChainSalt(g)))
        << "prompt of " << prompt.size() << " tokens, group " << g << " ("
        << GroupKindName(group.kind) << ")";
  }
}

TEST(PromptHasher, SharedPrefixChainsMatchFromScratch) {
  // One hasher sees a sequence of prompts over one 1,100-token document, shaped to hit every
  // case of the shared-prefix table; every group's chain of each must equal ChainBlockHashes
  // over the group's stream. The vision specs' image-scoped (and, with cross-attention,
  // text-scoped) passes bypass the table and still hash from scratch.
  struct Case {
    ModelConfig model;
    int images;
  };
  const std::vector<Case> cases = {{TinySlidingModel(64), 0},
                                   {TinyMambaModel(), 0},
                                   {TinyInlineVisionModel(), 3},
                                   {TinyVisionModel(), 3}};
  for (const Case& tc : cases) {
    SCOPED_TRACE(tc.model.name);
    const KvSpec spec = MakeJengaSpec(tc.model, kBs, tc.model.vision.present);
    PromptHasher hasher(spec, kBs);
    const Prompt doc = MixedPrompt(40, tc.images, 8, 1100 - 40 - tc.images * 8);
    int32_t tail_base = 50000;
    const auto serve = [&](const Prompt& prompt) { ExpectChainsFromScratch(hasher, spec, prompt); };
    const auto with_tail = [&](int64_t head_len, int64_t tail_len = 24) {
      tail_base += 100;
      return PrefixPlusTail(doc, head_len, tail_len, tail_base);
    };

    // Chain hashes the table stores for a prompt of `len` tokens.
    const auto stored_hashes = [&](int64_t len) {
      int64_t hashes = 0;
      for (const KvGroupSpec& group : spec.groups) {
        if (group.scope == GroupScope::kAllTokens || group.scope == GroupScope::kPerSequence) {
          hashes += len / (group.kind == GroupKind::kMamba ? kMambaCheckpointInterval : kBs);
        }
      }
      return hashes;
    };
    const int64_t all_token_hashes = stored_hashes(1124);

    serve(with_tail(1100));  // First sighting of the key: the slot stores the key alone.
    serve(with_tail(1100));  // Second: the slot stores the prompt, nothing is reused yet.
    const int64_t before = hasher.shared_prefix_stats().reused_tokens;
    serve(with_tail(1100));  // A distinct suffix: the whole document is reused.
    EXPECT_EQ(hasher.shared_prefix_stats().reused_tokens - before,
              all_token_hashes == 0 ? 0 : 1100);
    serve(with_tail(601));   // Divergence mid-block (and inside the second Mamba interval).
    serve(with_tail(608));   // Divergence at a block edge.
    serve(with_tail(512));   // ... and at a Mamba checkpoint edge.
    const Prompt repeated = with_tail(700);
    serve(repeated);
    serve(repeated);                      // An identical prompt.
    serve(PrefixPlusTail(repeated, 300, 0, 0));  // A strict prefix of the stored prompt.
    serve(with_tail(1100));               // The stored prompt is a strict prefix of this one.
    serve(PrefixPlusTail(doc, 10, 0, 0));  // Shorter than one block.

    // One prompt more than the set has ways, each with its own first block: the document and
    // rivals[0..ways-2] fill the set; rivals[ways-1] evicts the least recently used of them,
    // which is then re-seen twice before its chains are reused again.
    const size_t ways = PromptHasher::kSharedPrefixWays;
    std::vector<Prompt> rivals;
    for (int32_t base = 900000; rivals.size() < ways; base += 1000) {
      Prompt rival = PrefixPlusTail(doc, 0, 200, base);
      if (hasher.SharedPrefixSet(rival.tokens) == hasher.SharedPrefixSet(doc.tokens)) {
        rivals.push_back(std::move(rival));
      }
    }
    const auto reused_by = [&](const Prompt& prompt) {
      const int64_t reused = hasher.shared_prefix_stats().reused_tokens;
      serve(prompt);
      return hasher.shared_prefix_stats().reused_tokens - reused;
    };
    const int64_t doc_reuse = all_token_hashes == 0 ? 0 : 1100;
    for (size_t i = 0; i + 1 < ways; ++i) {
      serve(rivals[i]);
      serve(rivals[i]);
    }
    EXPECT_EQ(reused_by(with_tail(1100)), doc_reuse);  // Every way held: no eviction.
    for (size_t i = 1; i < ways; ++i) {
      serve(rivals[i]);  // The last one evicts rivals[0], the least recently used.
      serve(rivals[i]);
    }
    serve(rivals[0]);  // Evicts the document.
    EXPECT_EQ(reused_by(with_tail(1100)), 0);  // Evicts rivals[1].
    EXPECT_EQ(reused_by(with_tail(1100)), 0);
    EXPECT_EQ(reused_by(with_tail(1100)), doc_reuse);

    // The table lookups of a preemption sequence (KvManager.PreemptedReAdmissionReusesItsMemo
    // checks the re-admission itself, which looks nothing up).
    serve(with_tail(1100));
    serve(with_tail(1100));
    serve(with_tail(1100));

    // Only all-token groups store chains: the set holds the last 1,124-token prompt, the key
    // of rivals[0] alone, and rivals[2..ways-1] (200 tokens each).
    const PromptHasher::SharedPrefixStats stats = hasher.shared_prefix_stats();
    if (all_token_hashes == 0) {
      EXPECT_EQ(stats.entries, 0);  // Cross-attention: no pass runs over the whole prompt.
      EXPECT_EQ(stats.reused_tokens, 0);
    } else {
      const int64_t rivals_held = static_cast<int64_t>(ways) - 2;
      EXPECT_EQ(stats.entries, static_cast<int64_t>(ways));
      EXPECT_EQ(stats.stored_tokens, 1124 + rivals_held * 200);
      EXPECT_EQ(stats.stored_hashes, all_token_hashes + rivals_held * stored_hashes(200));
    }
  }
}

TEST(PromptHasher, SharedPrefixSetHoldsFourHotPrompts) {
  // Four documents whose first blocks fall in one set of the shared-prefix table, asked about in
  // turn with fresh questions (the arXiv-QA pattern). A set holds all four, so once a document
  // has been seen twice (key, then tokens) every later prompt reuses the whole document.
  const KvSpec spec = MakeJengaSpec(TinyFullModel(), kBs, false);
  PromptHasher hasher(spec, kBs);
  constexpr int64_t kDocLen = 400;
  std::vector<Prompt> docs = {TextPrompt(kDocLen, 1000)};
  for (int32_t base = 2000; docs.size() < 4; base += 1000) {
    Prompt doc = TextPrompt(kDocLen, base);
    if (hasher.SharedPrefixSet(doc.tokens) == hasher.SharedPrefixSet(docs[0].tokens)) {
      docs.push_back(std::move(doc));
    }
  }
  int32_t tail_base = 500000;
  for (int round = 0; round < 4; ++round) {
    for (size_t d = 0; d < docs.size(); ++d) {
      tail_base += 100;
      const int64_t reused = hasher.shared_prefix_stats().reused_tokens;
      ExpectChainsFromScratch(hasher, spec, PrefixPlusTail(docs[d], kDocLen, 24, tail_base));
      EXPECT_EQ(hasher.shared_prefix_stats().reused_tokens - reused, round < 2 ? 0 : kDocLen)
          << "round " << round << " document " << d;
    }
  }
  EXPECT_EQ(hasher.shared_prefix_stats().entries, 4);
}

TEST(PromptHasher, HashPassesMergeUnitsThatDivideOneAnother) {
  // Jamba-like: the attention group's 16-token blocks and the Mamba group's 512-token
  // checkpoints divide one another, so one interleaved pass hashes both. 24-token blocks do not
  // divide 512 and keep a pass of their own. Either way every chain, whether hashed from
  // scratch or resumed from a shared prefix that ends off a checkpoint edge, equals the group's
  // own from-scratch chain.
  const ModelConfig model = TinyMambaModel();
  for (const int tokens_per_page : {16, 24}) {
    SCOPED_TRACE(tokens_per_page);
    const KvSpec spec = MakeJengaSpec(model, tokens_per_page, false);
    PromptHasher hasher(spec, tokens_per_page);
    std::vector<std::vector<int>> passes;
    for (const PromptHasher::HashPass& pass : hasher.passes()) {
      passes.push_back(pass.units);
      std::sort(passes.back().begin(), passes.back().end());
    }
    std::sort(passes.begin(), passes.end());
    if (tokens_per_page == 16) {
      EXPECT_EQ(passes, (std::vector<std::vector<int>>{{16, kMambaCheckpointInterval}}));
    } else {
      EXPECT_EQ(passes, (std::vector<std::vector<int>>{{24}, {kMambaCheckpointInterval}}));
    }

    const Prompt doc = TextPrompt(1600);
    int32_t next_id = 1;
    for (const int64_t head : {1600, 1600, 1600, 1030, 600, 1536, 520, 100}) {
      SCOPED_TRACE(head);
      ExpectChainsFromScratch(hasher, spec, PrefixPlusTail(doc, head, 40, 70000 + 100 * next_id),
                              tokens_per_page);
      ++next_id;
    }
    EXPECT_GT(hasher.shared_prefix_stats().reused_tokens, 0);
  }
}

TEST(PromptHasher, SharedPrefixTableStaysBounded) {
  // 20k distinct prompts through one engine. The first 10k share no first block with any other
  // prompt, so the table holds their keys alone; in the next 10k every fifth prompt asks about
  // one of four documents, and only those prompts are ever stored.
  EngineConfig config;
  config.model = TinySlidingModel();
  config.gpu = TestGpu();
  config.jenga = true;
  const KvSpec spec = MakeJengaSpec(config.model, config.tokens_per_page, false);
  config.pool_bytes_override = spec.LcmPageBytes() * 256;
  Engine engine(config);
  constexpr int kWave = 400;
  constexpr int kPrompts = 20000;
  constexpr int kDocs = 4;
  constexpr int64_t kDocPromptLen = 64 + 8;
  for (int wave = 0; wave * kWave < kPrompts; ++wave) {
    for (int i = wave * kWave; i < (wave + 1) * kWave; ++i) {
      Prompt prompt;
      if (i >= kPrompts / 2 && i % 5 == 0) {
        prompt = SharedDocPrompt(i, kDocs, kDocPromptLen - 8, 8);
      } else {
        for (int32_t k = 0; k < 40; ++k) {
          prompt.tokens.push_back(50000000 + i * 100 + k);
        }
      }
      engine.Submit(MakeRequest(i, std::move(prompt), 2, engine.now()));
    }
    engine.RunToCompletion();
    const PromptHasher::SharedPrefixStats stats = engine.kv().hasher().shared_prefix_stats();
    ASSERT_LE(stats.entries, static_cast<int64_t>(PromptHasher::kSharedPrefixSlots));
    if ((wave + 1) * kWave <= kPrompts / 2) {
      ASSERT_EQ(stats.stored_tokens, 0) << "wave " << wave;
      ASSERT_EQ(stats.stored_hashes, 0) << "wave " << wave;
    } else {
      ASSERT_LE(stats.stored_tokens, kDocs * kDocPromptLen) << "wave " << wave;
      ASSERT_LE(stats.stored_hashes, kDocs * static_cast<int64_t>(spec.groups.size()) *
                                         (kDocPromptLen / config.tokens_per_page))
          << "wave " << wave;
    }
  }
  EXPECT_EQ(engine.metrics().CompletedRequests(), kPrompts);
  EXPECT_EQ(engine.kv().hasher().shared_prefix_stats().entries,
            static_cast<int64_t>(PromptHasher::kSharedPrefixSlots));
  EXPECT_GT(engine.kv().hasher().shared_prefix_stats().reused_tokens, 0);
}

}  // namespace
}  // namespace jenga
