#include "sim/module.h"

#include <typeinfo>

#include "sim/simulator.h"

namespace wfd::sim {

ProcessId Module::self() const { return host().self(); }
int Module::n() const { return host().n(); }
Time Module::now() const { return host().now(); }
const fd::FdValue& Module::fd() const { return host().fd_sample(); }

fd::FdValue Module::detector() const {
  if (fd_source_ != nullptr) return fd_source_->fd_value();
  return fd();
}

void Module::send(ProcessId to, PayloadPtr payload) {
  if (transport_ != Hook::kNone) {
    host().module_at<ModuleTransport>(transport_).module_send(
        name_, to, std::move(payload));
    return;
  }
  host().module_out(name_, to, std::move(payload));
}

void Module::broadcast(PayloadPtr payload, bool include_self) {
  if (transport_ != Hook::kNone) {
    auto& transport = host().module_at<ModuleTransport>(transport_);
    const int count = n();
    for (ProcessId q = 0; q < count; ++q) {
      if (!include_self && q == self()) continue;
      transport.module_send(name_, q, payload);
    }
    return;
  }
  host().module_broadcast(name_, std::move(payload), include_self);
}

void Module::emit(const std::string& kind, std::int64_t value) {
  host().emit_event(kind, value);
}

Rng& Module::rng() { return host().host_rng(); }

ModuleHost& Module::host() const {
  WFD_CHECK(host_ != nullptr);
  return *host_;
}

ModuleHost::~ModuleHost() = default;

Module* ModuleHost::find_module(const std::string& module_name) const {
  const auto it = by_name_->find(module_name);
  return it == by_name_->end() ? nullptr : modules_[it->second].get();
}

void ModuleHost::attach_module(std::unique_ptr<Module> mod,
                               std::string module_name) {
  Module& ref = *mod;
  mod->host_ = this;
  mod->index_ = modules_.size();
  mod->name_ = std::move(module_name);
  if (by_name_.use_count() > 1) {
    by_name_ = std::make_shared<std::map<std::string, std::size_t>>(*by_name_);
  }
  by_name_->emplace(mod->name_, mod->index_);
  modules_.push_back(std::move(mod));
  if (started_) start_module(ref);
}

void ModuleHost::start_module(Module& m) {
  m.on_start();
  // Replay messages that arrived before the module existed.
  auto it = undelivered_.find(m.name());
  if (it != undelivered_.end()) {
    auto buffered = std::move(it->second);
    undelivered_.erase(it);
    for (const BufferedMsg& bm : buffered) {
      m.on_message(bm.from, *bm.inner);
    }
  }
}

void ModuleHost::start_modules() {
  started_ = true;
  // Snapshot: modules may add further modules while starting (those are
  // started inline by add_module since started_ is already true).
  const std::size_t initial = modules_.size();
  for (std::size_t i = 0; i < initial; ++i) start_module(*modules_[i]);
}

void ModuleHost::dispatch_module_msg(ProcessId from,
                                     const ModuleEnvelope& env) {
  if (Module* m = find_module(env.module)) {
    m->on_message(from, *env.inner);
  } else {
    undelivered_[env.module].push_back(BufferedMsg{from, env.inner});
  }
}

void ModuleHost::tick_modules() {
  // Tick by index: modules added during this sweep are ticked too, which
  // is harmless (their on_tick sees a consistent started state).
  for (std::size_t i = 0; i < modules_.size(); ++i) modules_[i]->on_tick();
}

bool ModuleHost::modules_done() const {
  for (const auto& m : modules_) {
    if (!m->done()) return false;
  }
  return true;
}

bool ModuleHost::modules_tick_noop() const {
  for (const auto& m : modules_) {
    if (!m->tick_noop()) return false;
  }
  return true;
}

void ModuleHost::encode_modules(StateEncoder& enc) const {
  enc.field("started", started_);
  for (const auto& m : modules_) {
    enc.push("module");
    enc.push(m->name());
    m->encode_state(enc);
    enc.pop();
    enc.pop();
  }
  // Messages buffered for modules that do not exist yet: a multiset per
  // target name (each buffered message merged as one field).
  for (const auto& [target, msgs] : undelivered_) {
    enc.push("undelivered");
    enc.push(target);
    for (const BufferedMsg& bm : msgs) {
      StateEncoder sub = enc.child();
      sub.pid_field("from", bm.from);
      bm.inner->encode_state(sub);
      enc.merge("msg", sub);
    }
    enc.pop();
    enc.pop();
  }
}

bool ModuleHost::copy_modules(ModuleHost& to, const CloneMap& map) const {
  to.modules_.resize(modules_.size());
  for (std::size_t i = 0; i < modules_.size(); ++i) {
    const Module& m = *modules_[i];
    // A detector source is another object's pointer with no position to
    // re-point it by.
    if (m.fd_source_ != nullptr || !m.copy_to(to.modules_[i])) return false;
    to.modules_[i]->host_ = &to;
  }
  for (const auto& copy : to.modules_) {
    if (!copy->relink(map)) return false;
  }
  to.by_name_ = by_name_;
  to.undelivered_ = undelivered_;
  to.started_ = started_;
  return true;
}

void ModularProcess::on_start(Context& ctx) {
  current_ = &ctx;
  start_modules();
  tick_modules();
  current_ = nullptr;
}

void ModularProcess::on_step(Context& ctx, const Envelope* msg) {
  current_ = &ctx;
  if (msg != nullptr && msg->payload != nullptr) {
    const auto* env = payload_cast<ModuleEnvelope>(*msg->payload);
    WFD_CHECK_MSG(env != nullptr,
                  "ModularProcess received a non-module message");
    dispatch_module_msg(msg->from, *env);
  }
  tick_modules();
  current_ = nullptr;
}

bool ModularProcess::copy_to(std::unique_ptr<Process>& slot,
                             const CloneMap& map) const {
  WFD_CHECK_MSG(typeid(*this) == typeid(ModularProcess),
                "copy_to not overridden");
  if (instrument_ != nullptr) return false;
  if (slot == nullptr || typeid(*slot) != typeid(ModularProcess)) {
    slot = std::make_unique<ModularProcess>();
  }
  return copy_modules(static_cast<ModularProcess&>(*slot), map);
}

bool ModularProcess::tick_noop() const {
  if (!modules_started()) return false;
  return modules_tick_noop();
}

void ModularProcess::encode_state(StateEncoder& enc) const {
  encode_modules(enc);
}

bool ModularProcess::done() const {
  if (!modules_started()) return false;  // Not done before the first step.
  return modules_done();
}

ProcessId ModularProcess::self() const { return ctx().self(); }
int ModularProcess::n() const { return ctx().n(); }
Time ModularProcess::now() const { return ctx().now(); }
const fd::FdValue& ModularProcess::fd_sample() const { return ctx().fd(); }

void ModularProcess::module_out(const std::string& module, ProcessId to,
                                PayloadPtr payload) {
  ctx().send(to, make_payload<ModuleEnvelope>(module, std::move(payload)));
}

void ModularProcess::module_broadcast(const std::string& module,
                                      PayloadPtr payload, bool include_self) {
  // One shared allocation for the whole broadcast, as before the seam.
  ctx().broadcast(make_payload<ModuleEnvelope>(module, std::move(payload)),
                  include_self);
}

void ModularProcess::emit_event(const std::string& kind, std::int64_t value) {
  ctx().emit(kind, value);
}

Rng& ModularProcess::host_rng() { return ctx().rng(); }

}  // namespace wfd::sim
