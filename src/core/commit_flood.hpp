// CommitFlood: the replicated log's leased-slot fast path (src/log/).
//
// Not a consensus algorithm — a commit broadcast. The slot's value was
// already fixed by the leader's lease (itself established by a full wPAXOS
// slot, paper §4.2); what remains is disseminating one decided value to
// every node. The leader decides immediately and floods the value; every
// other node decides on first receipt and, if it is a RELAY, re-floods
// exactly once, so the value crosses any connected graph in O(D * F_ack)
// with at most one broadcast per node — the Lemma 4.2-style point:
// coordination amortizes to one dissemination wave per slot once
// leadership is stable.
//
// Relay rule. A follower only needs to re-flood if some neighbour could
// still lack the value: the abstract MAC layer delivers the leader's
// broadcast to every non-faulty neighbour before the leader's ack, so the
// leader's closed neighbourhood N[leader] is covered by that one broadcast.
// The log therefore makes follower u a relay iff u has a neighbour outside
// N[leader] (computed once per lease holder; `relays` defaults to true, the
// relay-everywhere flood). On a clique nobody relays and a slot costs one
// broadcast. Coverage on any connected graph, by induction on BFS depth d
// from the leader: depth 1 hears the leader; a node at depth d >= 2 has a
// neighbour w at depth d-1, which has that node — outside N[leader] — as a
// neighbour, so w is a relay, and w decided by induction, so w re-flooded
// to it.
//
// Leader-crash caveat. Broadcast is not atomic: a leader that crashes
// mid-broadcast may reach only some neighbours, and with relays pruned
// nobody forwards the value to the rest. The slot then stalls, and the
// log's recovery path carries the value any node decided into a forced
// wPAXOS relaunch (replicated_log.hpp), so safety never depends on relays;
// pruning only decides how fast a crash-free slot completes.
//
// Agreement/validity per slot are trivially inherited (only the leader's
// value ever enters the network); the per-slot oracle in
// verify/checker.hpp still checks them against the batch inputs.
#pragma once

#include "mac/process.hpp"

namespace amac::core {

class CommitFlood final : public mac::Process {
 public:
  /// `leader` nodes originate `value`; followers ignore their argument
  /// value and adopt the first received one, re-flooding it once iff
  /// `relays` (the leader always broadcasts).
  CommitFlood(bool leader, mac::Value value, bool relays = true);

  void on_start(mac::Context& ctx) override;
  void on_receive(const mac::Packet& packet, mac::Context& ctx) override;
  void on_ack(mac::Context& ctx) override;
  [[nodiscard]] std::unique_ptr<mac::Process> clone() const override;
  void digest(util::Hasher& h) const override;
  void protocol_stats(mac::ProtocolStats& out) const override;

  [[nodiscard]] bool has_decided() const { return decided_; }

 private:
  void relay(mac::Context& ctx);

  bool leader_;
  bool relays_;
  mac::Value value_;
  bool decided_ = false;
  bool relay_pending_ = false;
  bool relayed_ = false;
};

}  // namespace amac::core
