#include "core/commit_flood.hpp"

#include "util/serde.hpp"

namespace amac::core {

namespace {

util::Buffer encode_value(mac::Value v) {
  util::Writer w;
  w.put_uvarint(static_cast<std::uint64_t>(v));
  return std::move(w).take();
}

}  // namespace

CommitFlood::CommitFlood(bool leader, mac::Value value, bool relays)
    : leader_(leader), relays_(relays), value_(value) {
  AMAC_EXPECTS(value >= 0);
}

void CommitFlood::on_start(mac::Context& ctx) {
  if (!leader_) return;
  decided_ = true;
  ctx.decide(value_);
  relay_pending_ = true;
  relay(ctx);
}

void CommitFlood::on_receive(const mac::Packet& packet, mac::Context& ctx) {
  util::Reader r(packet.payload);
  const auto v = static_cast<mac::Value>(r.get_uvarint());
  AMAC_ENSURES(r.exhausted());
  if (!decided_) {
    decided_ = true;
    value_ = v;
    ctx.decide(v);
    relay_pending_ = relays_;  // re-flood once, so the wave crosses the graph
  }
  relay(ctx);
}

void CommitFlood::on_ack(mac::Context& ctx) { relay(ctx); }

void CommitFlood::relay(mac::Context& ctx) {
  if (!relay_pending_ || relayed_ || ctx.busy()) return;
  relayed_ = true;
  relay_pending_ = false;
  ctx.broadcast(encode_value(value_));
}

std::unique_ptr<mac::Process> CommitFlood::clone() const {
  return std::make_unique<CommitFlood>(*this);
}

void CommitFlood::digest(util::Hasher& h) const {
  h.mix_bool(leader_);
  h.mix_bool(relays_);
  h.mix_i64(value_);
  h.mix_bool(decided_);
  h.mix_bool(relay_pending_);
  h.mix_bool(relayed_);
}

void CommitFlood::protocol_stats(mac::ProtocolStats& out) const {
  if (relayed_) out.proposals += 1;  // one dissemination broadcast per node
}

}  // namespace amac::core
