#include "reg/register_client.h"

#include "common/check.h"

namespace wfd::reg {

std::size_t History::invoke(ProcessId client, bool is_write,
                            std::int64_t value, Time at) {
  OpRecord r;
  r.client = client;
  r.is_write = is_write;
  r.value = value;
  r.invoked = at;
  // One past the client's latest op, which is usually a few back.
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    if (it->client == client) {
      r.client_seq = it->client_seq + 1;
      break;
    }
  }
  ops_.push_back(r);
  return ops_.size() - 1;
}

void History::respond(std::size_t index, Time at, std::int64_t read_value) {
  WFD_CHECK(index < ops_.size());
  OpRecord& r = ops_[index];
  WFD_CHECK(r.responded == kNever);
  r.responded = at;
  if (!r.is_write) r.value = read_value;
}

std::size_t History::completed() const {
  std::size_t k = 0;
  for (const auto& op : ops_) {
    if (op.responded != kNever) ++k;
  }
  return k;
}

RegisterWorkloadModule::RegisterWorkloadModule(
    AbdRegisterModule<std::int64_t>* target, History* history, Options opt)
    : target_(target), history_(history), opt_(opt) {
  WFD_CHECK(target_ != nullptr && history_ != nullptr);
}

void RegisterWorkloadModule::on_tick() {
  if (in_flight_ || ops_issued_ >= opt_.num_ops) return;
  if (idle_ticks_ < opt_.think_time) {
    ++idle_ticks_;
    return;
  }
  issue_next();
}

void RegisterWorkloadModule::issue_next() {
  idle_ticks_ = 0;
  ++ops_issued_;
  in_flight_ = true;
  if (first_op_time_ == kNever) first_op_time_ = now();
  const bool is_write =
      static_cast<int>(rng().below(100)) < opt_.write_percent;
  if (is_write) {
    // Globally unique value: (client, per-client counter).
    const std::int64_t v = static_cast<std::int64_t>(
        (next_value_++ << 8) | static_cast<std::uint64_t>(self()));
    const std::size_t idx = history_->invoke(self(), true, v, now());
    target_->write(v, *this, idx);
  } else {
    const std::size_t idx = history_->invoke(self(), false, 0, now());
    target_->read(*this, idx);
  }
}

void RegisterWorkloadModule::write_done(std::uint64_t tag) {
  history_->respond(static_cast<std::size_t>(tag), now(), 0);
  last_response_time_ = now();
  in_flight_ = false;
}

void RegisterWorkloadModule::read_done(std::uint64_t tag,
                                       const std::int64_t& value) {
  history_->respond(static_cast<std::size_t>(tag), now(), value);
  last_response_time_ = now();
  in_flight_ = false;
}

}  // namespace wfd::reg
