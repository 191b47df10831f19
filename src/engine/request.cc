#include "src/engine/request.h"

#include "src/common/check.h"

namespace jenga {

int64_t Prompt::CountImageTokens() const {
  if (kinds.empty()) {
    return 0;
  }
  int64_t count = 0;
  for (TokenKind k : kinds) {
    if (k == TokenKind::kImage) {
      ++count;
    }
  }
  return count;
}

void Request::Prepare() {
  JENGA_CHECK_GT(output_len, 0);
  JENGA_CHECK_GT(prompt.size(), 0);
  if (!prompt.kinds.empty()) {
    JENGA_CHECK_EQ(prompt.kinds.size(), prompt.tokens.size());
  }
  generated.reserve(static_cast<size_t>(output_len));
  image_prefix.clear();
  if (prompt.kinds.empty()) {
    return;
  }
  image_prefix.assign(static_cast<size_t>(prompt.size()) + 1, 0);
  for (int64_t i = 0; i < prompt.size(); ++i) {
    image_prefix[static_cast<size_t>(i) + 1] =
        image_prefix[static_cast<size_t>(i)] + (prompt.kind(i) == TokenKind::kImage ? 1 : 0);
  }
}

void Request::AppendGenerated(int32_t token) {
  generated.push_back(token);
  num_generated += 1;
}

Request MakeRequest(RequestId id, Prompt prompt, int64_t output_len, double arrival_time) {
  Request request;
  request.id = id;
  request.prompt = std::move(prompt);
  request.output_len = output_len;
  request.arrival_time = arrival_time;
  request.Prepare();
  return request;
}

Request ReviveForReroute(const Request& dead) {
  Request revived = MakeRequest(dead.id, dead.prompt, dead.output_len, dead.arrival_time);
  revived.deadline = dead.deadline;
  return revived;
}

}  // namespace jenga
