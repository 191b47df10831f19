// Inference requests as the engine sees them: a (possibly multimodal) prompt, a target output
// length, and progress/metrics state maintained by the scheduler.

#ifndef JENGA_SRC_ENGINE_REQUEST_H_
#define JENGA_SRC_ENGINE_REQUEST_H_

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/core/types.h"

namespace jenga {

enum class TokenKind : uint8_t { kText = 0, kImage = 1 };

// A prompt is a token sequence with per-token modality. Image tokens arrive in runs produced
// by the vision encoder (tokens_per_image each).
struct Prompt {
  std::vector<int32_t> tokens;
  std::vector<TokenKind> kinds;  // Empty means all-text.
  int num_images = 0;

  [[nodiscard]] int64_t size() const { return static_cast<int64_t>(tokens.size()); }
  [[nodiscard]] TokenKind kind(int64_t i) const {
    return kinds.empty() ? TokenKind::kText : kinds[static_cast<size_t>(i)];
  }
  [[nodiscard]] int64_t CountImageTokens() const;
};

enum class RequestState : uint8_t { kWaiting, kRunning, kPreempted, kFinished };

class KvManager;
struct RequestKv;

// How a KvManager reaches its state for a request without an id lookup: set when the manager
// starts tracking the request (admission, swap restore), cleared when it stops (release, failed
// restore).
struct KvHandle {
  const KvManager* manager = nullptr;
  RequestKv* state = nullptr;
};

struct Request {
  RequestId id = kNoRequest;
  Prompt prompt;
  int64_t output_len = 0;
  double arrival_time = 0.0;
  // Absolute sim-time deadline; < 0 = none. When `now` passes it the engine cancels the
  // request through the same path as CancelRequest().
  double deadline = -1.0;

  RequestState state = RequestState::kWaiting;
  // Tokens generated so far, all text. They are hashed after the prompt's tokens, so decode
  // output can be prefix-cached. Prepare reserves `output_len`, so appending never reallocates.
  std::vector<int32_t> generated;
  // Prefix counts of image tokens over the prompt: image_prefix[i] = #image tokens in [0, i).
  // Empty for an all-text prompt (empty prompt.kinds), which has no image tokens to count.
  std::vector<int64_t> image_prefix;

  // Number of tokens whose KV is computed (including prefix-cache hits).
  int64_t num_computed_tokens = 0;
  int64_t num_generated = 0;
  int64_t cached_prefix_tokens = 0;
  int preemptions = 0;
  // Preempted-by-swap: KV lives in the host tier and re-admission restores it via PCIe
  // instead of recomputing (`swapped_out_tokens` = num_computed_tokens at swap-out).
  bool swapped_out = false;
  int64_t swapped_out_tokens = 0;
  // Aborted via CancelRequest (client cancel, deadline expiry, or load shed).
  bool cancelled = false;
  // Finished unsuccessfully (admission abort / shed); mirrors RequestRecord::failed so
  // pollers (ServingFrontend streams) can classify terminal states without the metrics log.
  bool failed = false;
  int vision_encoder_runs = 0;
  // Encoder runs since the last (re-)admission; reset on preemption because the cached
  // embeddings are released with the request's pages.
  int vision_encoder_runs_this_admission = 0;

  double first_scheduled_time = -1.0;
  double first_token_time = -1.0;
  double finish_time = -1.0;

  // Tick of the last step in which SpecDecodeEngine prefilled or restored the request: its
  // decode phase skips such requests by comparing ticks.
  Tick prefilled_tick = -1;

  // One handle per KvManager tracking the request; SpecDecodeEngine's [target, draft] manager
  // pair is the most any engine has. Owned by the managers.
  std::array<KvHandle, 2> kv_handles{};

  [[nodiscard]] int64_t prompt_len() const { return prompt.size(); }
  [[nodiscard]] int64_t total_len() const { return prompt.size() + num_generated; }
  [[nodiscard]] bool InPrefill() const { return num_computed_tokens < prompt_len(); }
  // Every image token is a prompt token, so positions past the prompt clamp to its end.
  [[nodiscard]] int64_t ImageTokensBefore(int64_t position) const {
    return image_prefix.empty()
               ? 0
               : image_prefix[static_cast<size_t>(std::min(position, prompt_len()))];
  }
  // Image tokens in the whole prompt.
  [[nodiscard]] int64_t ImageTokens() const {
    return image_prefix.empty() ? 0 : image_prefix.back();
  }
  [[nodiscard]] int64_t TextTokensBefore(int64_t position) const {
    return position - ImageTokensBefore(position);
  }

  // Reserves `generated` and builds image_prefix from the prompt; must be called once before
  // the request enters the scheduler.
  void Prepare();
  // Appends one generated (text) token.
  void AppendGenerated(int32_t token);
};

// Builds a request with a fresh id. `output_len` must be >= 1.
[[nodiscard]] Request MakeRequest(RequestId id, Prompt prompt, int64_t output_len,
                                  double arrival_time);

// Rebuilds a request harvested off a dead replica for re-submission to a survivor: fresh
// scheduler state, same id/prompt/output target/arrival/deadline. Progress is recomputed from
// the prompt on the new replica (the deadline stays absolute, so a revived request may still
// expire there — a legitimate terminal state, not a lost request).
[[nodiscard]] Request ReviveForReroute(const Request& dead);

}  // namespace jenga

#endif  // JENGA_SRC_ENGINE_REQUEST_H_
