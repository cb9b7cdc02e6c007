// Quasi-reliable point-to-point links from lossy ones — the standard
// retransmit-until-acknowledged construction (Aspnes' notes, ch. on
// message passing; ABD and every quorum protocol in the paper assume
// it). The simulator's links are reliable by construction, so lossiness
// enters only through the injected fault plan (src/inject/fault_plan.h):
// the adversary may drop or duplicate pending messages within per-link
// budgets. This module makes the paper's reliable-link assumption a
// *checked* construction under those faults:
//
//  * every outgoing payload of a wrapped module is framed as Data{seq}
//    and remembered until the matching Ack arrives;
//  * un-acked frames are re-sent every `retransmit_every` host ticks —
//    with finite loss budgets some copy eventually gets through;
//  * the receiver dedups per-sender seqs (duplicates — injected or
//    retransmitted — dispatch at most once) and re-acks every copy, so
//    a lost Ack is repaired by the next retransmission.
//
// Wrap a module by adding a QuasiReliableModule to the same host and
// calling wrapped.set_transport(&qr). The destination host must carry an
// equally-named qr module, and the wrapped (destination) module must
// exist before the first frame arrives.
#pragma once

#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "sim/module.h"

namespace wfd::broadcast {

class QuasiReliableModule : public sim::Module, public sim::ModuleTransport {
 public:
  explicit QuasiReliableModule(Time retransmit_every = 4)
      : every_(retransmit_every) {
    WFD_CHECK(every_ >= 1);
  }

  // ---- sim::ModuleTransport
  void module_send(const std::string& module, ProcessId to,
                   sim::PayloadPtr payload) override {
    const std::uint64_t seq = next_seq_++;
    pending_.push_back(Entry{seq, to, module, payload});
    send(to, sim::make_payload<Data>(seq, module, std::move(payload)));
  }

  // ---- sim::Module
  void on_message(ProcessId from, const sim::Payload& msg) override {
    if (const auto* d = sim::payload_cast<Data>(msg)) {
      // Ack every copy: the sender may be retransmitting because *our*
      // previous ack was the message that got dropped.
      send(from, sim::make_payload<Ack>(d->seq));
      if (!delivered_.insert(std::make_pair(from, d->seq)).second) return;
      sim::Module* dest = host().find_module(d->dest);
      WFD_CHECK_MSG(dest != nullptr,
                    "quasi-reliable frame for a module that does not exist");
      dest->on_message(from, *d->inner);
    } else if (const auto* a = sim::payload_cast<Ack>(msg)) {
      for (std::size_t i = 0; i < pending_.size(); ++i) {
        if (pending_[i].seq == a->seq && pending_[i].to == from) {
          pending_.erase(pending_.begin() +
                         static_cast<std::ptrdiff_t>(i));
          break;
        }
      }
    }
  }

  void on_tick() override {
    if (pending_.empty()) {
      ticks_ = 0;
      return;
    }
    if (++ticks_ < every_) return;
    ticks_ = 0;
    for (const Entry& e : pending_) {
      send(e.to, sim::make_payload<Data>(e.seq, e.module, e.inner));
      ++retransmits_;
    }
  }

  /// Un-acked frames keep the run alive: the construction's guarantee is
  /// precisely that they land eventually, so the run must not halt while
  /// one is outstanding (frames to a crashed peer pin the run to the
  /// horizon — bounded exploration, not a hang).
  [[nodiscard]] bool done() const override { return pending_.empty(); }

  /// Never a declared no-op: the tick counts toward the retransmission
  /// timer whenever frames are pending, and the frames set is written by
  /// handlers (acks, wrapped sends), so no sound inertness claim exists.
  [[nodiscard]] bool tick_noop() const override { return false; }

  /// The wrapped modules' transport pointers are re-pointed by their
  /// host (ModuleHost::clone_modules); this module borrows nothing.
  [[nodiscard]] std::unique_ptr<sim::Module> clone() const override {
    return std::make_unique<QuasiReliableModule>(*this);
  }

  [[nodiscard]] std::uint64_t retransmits() const { return retransmits_; }
  [[nodiscard]] std::size_t unacked() const { return pending_.size(); }

  void encode_state(sim::StateEncoder& enc) const override {
    enc.field("next-seq", next_seq_);
    enc.field("ticks", ticks_);
    for (const Entry& e : pending_) {
      sim::StateEncoder sub = enc.child();
      sub.field("seq", e.seq);
      sub.pid_field("to", e.to);
      sub.field("module", e.module);
      sub.push("inner");
      e.inner->encode_state(sub);
      sub.pop();
      enc.merge("pending", sub);
    }
    for (const auto& [from, seq] : delivered_) {
      sim::StateEncoder sub = enc.child();
      sub.pid_field("from", from);
      sub.field("seq", seq);
      enc.merge("delivered", sub);
    }
  }

 private:
  struct Entry {
    std::uint64_t seq;
    ProcessId to;
    std::string module;
    sim::PayloadPtr inner;
  };

  /// One framed payload. Retransmitted copies of a frame are identical,
  /// so the explorer's same-sender equal-digest rule already commutes
  /// them; commutes_with additionally declares same-(seq, dest) frames
  /// commuting when their inners commute (the receiver dedups, and the
  /// re-ack it sends is content-identical either way). Distinct frames
  /// keep the conservative default: the ack and seq bookkeeping is
  /// order-sensitive enough that no blanket claim is sound.
  struct Data final : sim::Payload {
    Data(std::uint64_t s, std::string d, sim::PayloadPtr i)
        : seq(s), dest(std::move(d)), inner(std::move(i)) {}
    std::uint64_t seq;
    std::string dest;
    sim::PayloadPtr inner;

    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("seq", seq);
      enc.field("dest", dest);
      enc.push("inner");
      inner->encode_state(enc);
      enc.pop();
    }
    [[nodiscard]] std::string_view kind() const override {
      return "qr.data";
    }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      const auto* o = sim::payload_cast<Data>(other);
      return o != nullptr && seq == o->seq && dest == o->dest &&
             inner->commutes_with(*o->inner);
    }
  };

  /// Cumulative-free acknowledgement of one frame. The handler only
  /// erases the matching pending entry (keyed by (seq, sender)) and
  /// sends nothing, so any two acks commute with each other; they stay
  /// dependent with everything else (the pending set gates both the
  /// retransmission tick and done()).
  struct Ack final : sim::Payload {
    explicit Ack(std::uint64_t s) : seq(s) {}
    std::uint64_t seq;

    void encode_state(sim::StateEncoder& enc) const override {
      enc.field("ack", seq);
    }
    [[nodiscard]] std::string_view kind() const override { return "qr.ack"; }
    [[nodiscard]] bool commutes_with(const sim::Payload& other)
        const override {
      return sim::payload_cast<Ack>(other) != nullptr;
    }
  };

  Time every_;
  Time ticks_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t retransmits_ = 0;
  std::vector<Entry> pending_;
  std::set<std::pair<ProcessId, std::uint64_t>> delivered_;
};

}  // namespace wfd::broadcast
