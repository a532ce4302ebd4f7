#include "instr/das_controller.hpp"

#include <algorithm>
#include <cctype>
#include <sstream>

namespace repro::instr {

namespace {

std::vector<std::string> tokenize(const std::string& line) {
  std::istringstream is(line);
  std::vector<std::string> tokens;
  std::string token;
  while (is >> token) {
    std::transform(token.begin(), token.end(), token.begin(),
                   [](unsigned char c) {
                     return static_cast<char>(std::toupper(c));
                   });
    tokens.push_back(token);
  }
  return tokens;
}

bool parse_u64(const std::string& token, std::uint64_t& out) {
  if (token.empty()) {
    return false;
  }
  std::uint64_t value = 0;
  for (const char c : token) {
    if (c < '0' || c > '9') {
      return false;
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = value;
  return true;
}

}  // namespace

DasController::Response DasController::command(const std::string& line) {
  const auto tokens = tokenize(line);
  if (tokens.empty()) {
    return {false, "NAK EMPTY"};
  }
  const std::string& verb = tokens[0];

  if (verb == "TRIGGER") {
    if (tokens.size() != 2) {
      return {false, "NAK TRIGGER NEEDS MODE"};
    }
    if (tokens[1] == "IMMEDIATE") {
      staged_.trigger = TriggerMode::kImmediate;
    } else if (tokens[1] == "ALLACTIVE") {
      staged_.trigger = TriggerMode::kAllActive;
    } else if (tokens[1] == "TRANSITION") {
      staged_.trigger = TriggerMode::kTransitionFromFull;
    } else {
      return {false, "NAK UNKNOWN TRIGGER MODE"};
    }
    return {true, "ACK"};
  }

  if (verb == "DEPTH") {
    std::uint64_t depth = 0;
    if (tokens.size() != 2 || !parse_u64(tokens[1], depth) || depth == 0) {
      return {false, "NAK BAD DEPTH"};
    }
    staged_.buffer_depth = static_cast<std::size_t>(depth);
    return {true, "ACK"};
  }

  if (verb == "WIDTH") {
    std::uint64_t width = 0;
    if (tokens.size() != 2 || !parse_u64(tokens[1], width) || width == 0 ||
        width > kMaxTopologyCes) {
      return {false, "NAK BAD WIDTH"};
    }
    staged_.full_width = static_cast<std::uint32_t>(width);
    return {true, "ACK"};
  }

  if (verb == "ARM") {
    analyzer_.emplace(staged_);
    analyzer_->arm();
    transfer_.reset();
    return {true, "ACK ARMED"};
  }

  if (verb == "STATUS") {
    if (!analyzer_) {
      return {true, "DISARMED"};
    }
    switch (analyzer_->state()) {
      case AnalyzerState::kDisarmed:
        return {true, "DISARMED"};
      case AnalyzerState::kArmed:
        return {true, "ARMED"};
      case AnalyzerState::kCapturing:
        return {true, "CAPTURING"};
      case AnalyzerState::kComplete:
        return {true, "COMPLETE"};
    }
    return {false, "NAK"};
  }

  if (verb == "XFER") {
    if (!analyzer_ || !analyzer_->complete()) {
      return {false, "NAK NOT COMPLETE"};
    }
    transfer_ = analyzer_->transfer();
    std::ostringstream os;
    os << "ACK " << transfer_->size() << " RECORDS";
    return {true, os.str()};
  }

  if (verb == "RESET") {
    staged_ = AnalyzerConfig{};
    analyzer_.reset();
    transfer_.reset();
    return {true, "ACK"};
  }

  return {false, "NAK UNKNOWN COMMAND"};
}

bool DasController::on_sample_clock(const ProbeRecord& record) {
  if (!analyzer_) {
    return false;
  }
  return analyzer_->sample(record);
}

bool DasController::acquisition_complete() const {
  return analyzer_ && analyzer_->complete();
}

void DasController::serialize(capsule::Io& io) {
  staged_.serialize(io);

  bool has_analyzer = analyzer_.has_value();
  io.boolean(has_analyzer);
  if (has_analyzer) {
    // The analyzer's own config travels first so the load pass can
    // construct a buffer of the right capacity before walking its state.
    AnalyzerConfig cfg = analyzer_ ? analyzer_->config() : AnalyzerConfig{};
    cfg.serialize(io);
    if (io.loading()) {
      analyzer_.emplace(cfg);
    }
    analyzer_->serialize(io);
  } else if (io.loading()) {
    analyzer_.reset();
  }

  bool has_transfer = transfer_.has_value();
  io.boolean(has_transfer);
  if (has_transfer) {
    if (io.loading()) {
      transfer_.emplace();
    }
    static const std::uint64_t kRecordBytes =
        capsule::encoded_size<ProbeRecord>();
    const std::uint64_t count = io.extent(transfer_->size(), kRecordBytes);
    if (io.loading()) {
      transfer_->assign(static_cast<std::size_t>(count), ProbeRecord{});
    }
    for (ProbeRecord& record : *transfer_) {
      record.serialize(io);
    }
  } else if (io.loading()) {
    transfer_.reset();
  }
}

std::vector<ProbeRecord> DasController::take_transfer() {
  std::vector<ProbeRecord> out;
  if (transfer_) {
    out = std::move(*transfer_);
    transfer_.reset();
  }
  return out;
}

}  // namespace repro::instr
