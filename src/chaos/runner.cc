#include "chaos/runner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "chaos/oracles.h"
#include "core/instance.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/clock.h"
#include "sim/event_queue.h"
#include "sim/network.h"
#include "sim/random.h"
#include "space/eval.h"
#include "space/handle.h"
#include "transport/sim_transport.h"
#include "tuple/pattern.h"

namespace tiamat::chaos {
namespace {

// Exactly-once is only claimable while both ends of a destructive take stay
// connected through the confirm exchange: the originator delivers on the
// first response, then retries Confirm 6 × kResponseTimeout (≈360ms) while
// the server parks the tuple for tentative_hold (750ms) before auto-
// releasing it. A partition, loss burst, offline window or crash that
// overlaps that exchange makes redelivery protocol-legal, so deliveries in
// a fault's shadow are counted (RunResult::tainted) but not ledgered.
constexpr transport::Duration kConfirmShadow = sim::milliseconds(1000);

// Keyed-vs-linear differential cadence (every Nth op-stream event).
constexpr std::uint64_t kDifferentialPeriod = 16;

// purge_recent sentinel: the fault affects every slot.
constexpr std::size_t kAllSlots = static_cast<std::size_t>(-1);

std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xffu;
    h *= 1099511628211ull;
  }
  return h;
}

core::Config fleet_config(std::size_t slot) {
  core::Config cfg;
  cfg.name = "f" + std::to_string(slot);
  cfg.lease_caps.default_ttl = sim::seconds(5);
  cfg.lease_caps.max_ttl = sim::seconds(10);
  cfg.lease_caps.default_contacts = 16;
  cfg.lease_caps.max_contacts = 32;
  return cfg;
}

struct Execution {
  const Plan& plan;
  const std::size_t fleet;
  const bool mobile;

  RunResult result;
  std::uint64_t fp = 1469598103934665603ull;  // FNV-1a offset basis

  sim::EventQueue queue;
  sim::Rng rng;
  sim::LinkModel base_model;
  sim::Network net;
  transport::SimTransport tx;
  obs::Registry registry;
  obs::FlightRecorder chaos_flight;  // fault-injection trail (kNoNode ring)

  // Restores the default (abort-on-trap) handler after the fleet is gone;
  // declared before `slots` so it outlives Instance teardown, where a
  // corrupted space may still hit audit checkpoints.
  struct HandlerGuard {
    ~HandlerGuard() { audit::set_failure_handler(nullptr); }
  } handler_guard;

  struct Slot {
    std::unique_ptr<core::Instance> inst;
    std::uint32_t incarnation = 0;
    /// Ledgered seqs delivered to the current incarnation — unwound if it
    /// crashes (redelivery after taker death is legitimate).
    std::vector<std::int64_t> held;
    bool offline = false;
    transport::Time shadow_until = 0;  ///< post-online confirm grace
  };
  std::vector<Slot> slots;
  std::map<transport::NodeId, std::size_t> node_to_slot;

  struct OpRec {
    std::size_t event_index = 0;
    std::uint32_t slot = 0;
    std::uint32_t incarnation = 0;
    bool destructive = false;
    bool granted = false;
    std::uint32_t callbacks = 0;
  };
  std::vector<OpRec> op_log;

  struct RecentTake {
    std::int64_t seq = 0;
    transport::Time at = 0;
    std::size_t taker_slot = 0;
    std::size_t source_slot = 0;
  };
  std::vector<RecentTake> recent_takes;  ///< remote takes, confirm window

  std::multiset<std::int64_t> taken;  ///< P1 ledger
  /// Per-seq delivery context, appended to exactly-once trap details.
  std::map<std::int64_t, std::vector<std::string>> delivery_log;
  std::vector<tuples::Pattern> probes;

  std::size_t current_event = 0;
  std::uint32_t burst_depth = 0;
  std::uint32_t partitions_active = 0;
  transport::Time global_shadow_until = 0;

  explicit Execution(const Plan& p)
      : plan(p),
        fleet(std::clamp<std::size_t>(p.options.instances, 2, 32)),
        mobile(p.options.profile == "mobile"),
        rng(p.seed),
        base_model{sim::milliseconds(2), 100, 300, 0.0},
        net(queue, rng, base_model),
        tx(net),
        chaos_flight(transport::kNoNode) {
    if (mobile) net.set_radio_range(120.0);
    audit::set_failure_handler(
        [this](const std::string& report) { on_trap("audit", report); });
    slots.resize(fleet);
    for (std::size_t i = 0; i < fleet; ++i) boot(i);
    build_probes();
  }

  void boot(std::size_t i) {
    transport::NodeOptions pos;
    if (mobile) {
      pos.x = static_cast<double>(i % 6) * 30.0;
      pos.y = static_cast<double>(i / 6) * 30.0;
    }
    slots[i].inst = std::make_unique<core::Instance>(tx, fleet_config(i),
                                                     nullptr, pos);
    // Thread-ring collection on the sim backend degenerates to one ring per
    // tracer (every strand runs on this thread), which makes the
    // trace-conservation oracle's final-drain equation exact per run.
    slots[i].inst->tracer().set_enabled(true);
    slots[i].inst->tracer().set_thread_rings(true);
    slots[i].offline = false;
    node_to_slot[slots[i].inst->node()] = i;
  }

  // The fixed differential probe set: the Zipf head keys, one adversarial
  // int key from the hostile collision family, an unkeyed scan and the
  // zero-arity probe.
  void build_probes() {
    const std::uint32_t keys = std::min<std::uint32_t>(4, plan.options.key_universe);
    for (std::uint32_t k = 0; k < keys; ++k) {
      probes.push_back(tuples::Pattern{
          tuples::Field("key" + std::to_string(k)), tuples::any_int()});
    }
    probes.push_back(tuples::Pattern{
        tuples::Field(std::int64_t{(0 << 16) | 0x5}), tuples::any_int()});
    probes.push_back(tuples::Pattern{tuples::any_string(), tuples::any_int()});
    probes.push_back(tuples::Pattern{});
  }

  void mix(std::uint64_t v) { fp = fnv1a_mix(fp, v); }
  void mix_str(const std::string& s) {
    for (const char c : s) fp = fnv1a_mix(fp, static_cast<std::uint8_t>(c));
  }

  void on_trap(const std::string& oracle, const std::string& detail) {
    if (result.trap) return;  // first violation wins; later ones are echoes
    Trap t;
    t.oracle = oracle;
    t.detail = detail;
    t.at = static_cast<std::uint64_t>(queue.now());
    t.event_index = current_event;
    t.flight_tails = obs::FlightRecorder::dump_all();
    result.trap = std::move(t);
  }

  void record_fault(std::size_t idx, const Event& ev,
                    transport::NodeId target) {
    chaos_flight.record(obs::TraceEvent{
        queue.now(), transport::kNoNode, transport::kNoNode,
        static_cast<std::uint64_t>(idx), obs::EventKind::kFaultInjected,
        target, static_cast<std::int64_t>(ev.kind)});
  }

  bool slot_shadowed(std::size_t i) const {
    return slots[i].offline || queue.now() < slots[i].shadow_until;
  }

  /// A connectivity fault just started: deliveries whose confirm exchange
  /// may still be in flight lose their exactly-once claim. `only_slot`
  /// restricts the purge to takes touching one endpoint (offline faults);
  /// npos purges every recent take (partitions, loss bursts).
  void purge_recent(std::size_t only_slot) {
    const transport::Time floor =
        queue.now() > kConfirmShadow ? queue.now() - kConfirmShadow : 0;
    auto it = recent_takes.begin();
    while (it != recent_takes.end()) {
      if (it->at < floor) {
        it = recent_takes.erase(it);
        continue;
      }
      const bool touched = only_slot == kAllSlots ||
                           it->taker_slot == only_slot ||
                           it->source_slot == only_slot;
      if (!touched) {
        ++it;
        continue;
      }
      if (auto l = taken.find(it->seq); l != taken.end()) taken.erase(l);
      auto& held = slots[it->taker_slot].held;
      if (auto h = std::find(held.begin(), held.end(), it->seq);
          h != held.end()) {
        held.erase(h);
      }
      ++result.tainted;
      it = recent_takes.erase(it);
    }
  }

  void on_callback(std::size_t op_index,
                   std::optional<core::ReadResult> r) {
    OpRec& rec = op_log[op_index];
    ++rec.callbacks;
    ++result.callbacks;
    if (rec.callbacks > 1) {
      on_trap("termination", "op at event " + std::to_string(rec.event_index) +
                                 " called back " +
                                 std::to_string(rec.callbacks) + " times");
      return;
    }
    mix(r ? 0xCBull : 0xEEull);
    mix(rec.event_index);
    if (!r) {
      ++result.empty;
      return;
    }
    ++result.delivered;
    if (!rec.destructive || r->tuple.arity() < 2 || !r->tuple[1].is_int() ||
        r->tuple[0].is_blob() || space::is_handle_tuple(r->tuple)) {
      // Not a ledgered shape: reads, zero-arity, the audit marker, or a
      // space-handle advertisement. Handle tuples live in every instance's
      // space from boot, so a catch-all {string,int,*,*} take can consume
      // one per node — and its field[1] is the node id, which would collide
      // with the plan's sequence numbers in the exactly-once ledger.
      return;
    }
    const std::int64_t seq = r->tuple[1].as_int();
    mix(static_cast<std::uint64_t>(seq));
    Slot& taker = slots[rec.slot];
    if (!taker.inst || taker.incarnation != rec.incarnation) return;
    const bool local = r->source == taker.inst->node();
    if (!local) {
      // Remote take: exactly-once holds only if no connectivity fault
      // shadows the confirm exchange, on either endpoint.
      const auto src = node_to_slot.find(r->source);
      const std::size_t source_slot =
          src == node_to_slot.end() ? rec.slot : src->second;
      if (queue.now() < global_shadow_until || partitions_active > 0 ||
          src == node_to_slot.end() || slot_shadowed(rec.slot) ||
          slot_shadowed(source_slot)) {
        ++result.tainted;
        return;
      }
      recent_takes.push_back(
          RecentTake{seq, queue.now(), rec.slot, source_slot});
    }
    taken.insert(seq);
    taker.held.push_back(seq);
    delivery_log[seq].push_back(
        "op event " + std::to_string(rec.event_index) + " on slot " +
        std::to_string(rec.slot) + " from node " + std::to_string(r->source) +
        (local ? " (local)" : "") + " at t=" + std::to_string(queue.now()));
  }

  void run_op(std::size_t idx, const Event& ev, std::size_t s) {
    core::Instance& inst = *slots[s].inst;
    ++result.ops;
    switch (ev.kind) {
      case EventKind::kOut:
        mix(static_cast<std::uint64_t>(inst.out(ev.tuple)));
        break;
      case EventKind::kEval: {
        space::ActiveTuple at;
        const auto cost = sim::milliseconds(std::max<std::int64_t>(ev.arg, 1));
        for (std::size_t f = 0; f < ev.tuple.arity(); ++f) {
          const tuples::Value v = ev.tuple[f];
          if (f == 0) {
            at.add(v);
          } else {
            at.add([v] { return v; }, cost);
          }
        }
        mix(static_cast<std::uint64_t>(inst.eval(std::move(at))));
        break;
      }
      default: {
        const bool destructive =
            ev.kind == EventKind::kTake || ev.kind == EventKind::kTakeNb;
        op_log.push_back(OpRec{idx, static_cast<std::uint32_t>(s),
                               slots[s].incarnation, destructive});
        const std::size_t oi = op_log.size() - 1;
        auto cb = [this, oi](std::optional<core::ReadResult> r) {
          on_callback(oi, std::move(r));
        };
        bool granted = false;
        switch (ev.kind) {
          case EventKind::kRead:
            granted = inst.rd(ev.pattern, std::move(cb));
            break;
          case EventKind::kReadNb:
            granted = inst.rdp(ev.pattern, std::move(cb));
            break;
          case EventKind::kTake:
            granted = inst.in(ev.pattern, std::move(cb));
            break;
          default:
            granted = inst.inp(ev.pattern, std::move(cb));
            break;
        }
        op_log[oi].granted = granted;
        mix(granted ? 0x6Aull : 0x4Eull);
        break;
      }
    }
    if (result.ops % kDifferentialPeriod == 0) {
      if (auto f = check_keyed_differential(inst.local_space(), probes)) {
        on_trap(f->oracle, f->detail);
      }
    }
#if TIAMAT_AUDIT_ENABLED
    inst.local_space().audit_check("chaos.step");
#endif
  }

  void run_fault(std::size_t idx, const Event& ev, std::size_t s) {
    Slot& slot = slots[s];
    const transport::NodeId target =
        slot.inst ? slot.inst->node() : transport::kNoNode;
    switch (ev.kind) {
      case EventKind::kLossBurst: {
        ++result.faults;
        record_fault(idx, ev, target);
        const auto dur = sim::milliseconds(std::max<std::int64_t>(ev.arg, 1));
        sim::LinkModel m = base_model;
        m.loss = static_cast<double>(std::clamp<std::int64_t>(ev.arg2, 0, 950)) /
                 1000.0;
        net.set_link_model(m);
        ++burst_depth;
        global_shadow_until = std::max(
            global_shadow_until, queue.now() + dur + kConfirmShadow);
        purge_recent(kAllSlots);
        queue.schedule_after(dur, [this] {
          if (burst_depth > 0 && --burst_depth == 0) {
            net.set_link_model(base_model);
          }
        });
        break;
      }
      case EventKind::kPartition: {
        ++result.faults;
        record_fault(idx, ev, target);
        const std::size_t pivot = static_cast<std::size_t>(
            std::clamp<std::int64_t>(ev.arg, 1,
                                     static_cast<std::int64_t>(fleet) - 1));
        for (std::size_t a = 0; a < pivot; ++a) {
          for (std::size_t b = pivot; b < fleet; ++b) {
            if (slots[a].inst && slots[b].inst) {
              net.set_link(slots[a].inst->node(), slots[b].inst->node(),
                           false);
            }
          }
        }
        ++partitions_active;
        purge_recent(kAllSlots);
        break;
      }
      case EventKind::kHeal:
        ++result.faults;
        record_fault(idx, ev, target);
        net.clear_all_link_overrides();
        if (partitions_active > 0) {
          partitions_active = 0;
          global_shadow_until =
              std::max(global_shadow_until, queue.now() + kConfirmShadow);
        }
        break;
      case EventKind::kCrash: {
        if (!slot.inst) {
          ++result.skipped;
          return;
        }
        ++result.faults;
        record_fault(idx, ev, target);
        purge_recent(s);
        for (const std::int64_t seq : slot.held) {
          if (auto it = taken.find(seq); it != taken.end()) taken.erase(it);
        }
        slot.held.clear();
        node_to_slot.erase(slot.inst->node());
        slot.inst.reset();  // dtor cancels ops and removes the node
        slot.offline = false;
        break;
      }
      case EventKind::kRestart:
        if (slot.inst) {
          ++result.skipped;
          return;
        }
        ++result.faults;
        boot(s);
        ++slot.incarnation;
        record_fault(idx, ev, slot.inst->node());
        break;
      case EventKind::kLeaseStorm:
        if (!slot.inst) {
          ++result.skipped;
          return;
        }
        ++result.faults;
        record_fault(idx, ev, target);
        slot.inst->leases().revoke_all();
        break;
      case EventKind::kOffline:
        if (!slot.inst || slot.offline) {
          ++result.skipped;
          return;
        }
        ++result.faults;
        record_fault(idx, ev, target);
        purge_recent(s);
        tx.set_online(target, false);
        slot.offline = true;
        break;
      case EventKind::kOnline:
        if (!slot.inst || !slot.offline) {
          ++result.skipped;
          return;
        }
        ++result.faults;
        record_fault(idx, ev, target);
        tx.set_online(target, true);
        slot.offline = false;
        slot.shadow_until = queue.now() + kConfirmShadow;
        break;
      case EventKind::kMove:
        if (!slot.inst) {
          ++result.skipped;
          return;
        }
        ++result.faults;
        record_fault(idx, ev, target);
        net.set_position(target, sim::Position{static_cast<double>(ev.arg),
                                               static_cast<double>(ev.arg2)});
        break;
      case EventKind::kInjectCorruption: {
#if TIAMAT_AUDIT_ENABLED
        if (!slot.inst) {
          ++result.skipped;
          return;
        }
        ++result.faults;
        record_fault(idx, ev, target);
        // Plant a marker tuple no generated pattern can match (blob first
        // field), then break its index bucket: the very next checkpoint
        // must trap, in this run and byte-identically in every replay.
        space::LocalTupleSpace& sp = slot.inst->local_space();
        const tuples::TupleId id =
            sp.out(tuples::Tuple{tuples::Value(tuples::Blob{0xC0, 0xDE}),
                                 tuples::Value(std::int64_t{-1})});
        if (id != tuples::kNoTuple) {
          sp.audit_index().audit_corrupt_bucket_for_test(id);
          sp.audit_check("chaos.inject_corruption");
        }
#else
        ++result.skipped;
#endif
        break;
      }
      default:
        ++result.skipped;
        break;
    }
  }

  void execute(std::size_t idx) {
    current_event = idx;
    const Event& ev = plan.events[idx];
    const std::size_t s = ev.slot % fleet;
    ++result.executed;
    mix(0xE1);
    mix(idx);
    mix(static_cast<std::uint64_t>(ev.kind));
    if (is_fault(ev.kind)) {
      run_fault(idx, ev, s);
    } else if (slots[s].inst) {
      run_op(idx, ev, s);
    } else {
      ++result.skipped;
    }
  }

  /// Drain precondition: overrides cleared, base link model restored,
  /// everyone alive back on the air — quiescence oracles assume a world
  /// where timers can actually finish their protocols.
  void heal_world() {
    net.clear_all_link_overrides();
    net.set_link_model(base_model);
    burst_depth = 0;
    partitions_active = 0;
    global_shadow_until =
        std::max(global_shadow_until, queue.now() + kConfirmShadow);
    for (Slot& slot : slots) {
      if (!slot.inst) continue;
      if (slot.offline) {
        tx.set_online(slot.inst->node(), true);
        slot.offline = false;
        slot.shadow_until = queue.now() + kConfirmShadow;
      }
    }
  }

  void end_oracles() {
    for (Slot& slot : slots) {
      if (!slot.inst) continue;
      for (const Finding& f : check_instance_quiescent(*slot.inst)) {
        on_trap(f.oracle, f.detail);
      }
      // Producers are quiet (the drain window ran to completion), so the
      // final drain must balance the ring ledgers exactly.
      obs::Tracer& tr = slot.inst->tracer();
      tr.drain();
      if (auto f = check_trace_conservation(tr.ring_pushed(),
                                            tr.ring_drained(),
                                            tr.ring_dropped(),
                                            slot.inst->name())) {
        on_trap(f->oracle, f->detail);
      }
    }
    if (auto f = check_exactly_once(taken)) {
      std::string detail = f->detail;
      for (auto it = taken.begin(); it != taken.end();
           it = taken.upper_bound(*it)) {
        if (taken.count(*it) < 2) continue;
        for (const std::string& d : delivery_log[*it]) detail += "\n  " + d;
        break;
      }
      on_trap(f->oracle, detail);
    }
    if (auto f = check_termination(result.callbacks, result.delivered,
                                   result.empty)) {
      on_trap(f->oracle, f->detail);
    }
    for (const OpRec& rec : op_log) {
      if (!rec.granted) continue;
      const Slot& slot = slots[rec.slot];
      if (!slot.inst || slot.incarnation != rec.incarnation) continue;
      if (rec.callbacks != 1) {
        on_trap("termination",
                "op at event " + std::to_string(rec.event_index) +
                    " granted but saw " + std::to_string(rec.callbacks) +
                    " callback(s) after drain");
      }
    }
  }

  void finalize() {
    for (const Slot& slot : slots) {
      mix(0x51);
      if (!slot.inst) {
        mix(0xDEAD);
        continue;
      }
      mix(slot.inst->local_space().size());
      mix(slot.inst->local_space().tentative_count());
      mix(slot.inst->serving_count());
      mix(slot.inst->open_ops());
      mix(slot.inst->leases().active());
    }
    const sim::NetStats& st = net.stats();
    mix(st.unicasts_sent);
    mix(st.multicasts_sent);
    mix(st.deliveries);
    mix(st.drops_invisible);
    mix(st.drops_loss);
    mix(st.drops_dead);
    mix(st.bytes_sent);
    for (const std::int64_t seq : taken) mix(static_cast<std::uint64_t>(seq));
    mix(result.callbacks);
    mix(result.delivered);
    mix(result.empty);
    mix(result.tainted);
    if (result.trap) mix_str(result.trap->oracle);
    result.fingerprint = fp;

    registry.counter("chaos.events").add(result.executed);
    registry.counter("chaos.faults").add(result.faults);
    registry.counter("chaos.ops").add(result.ops);
    registry.counter("chaos.skipped").add(result.skipped);
    registry.counter("chaos.traps").add(result.trap ? 1 : 0);
    registry.counter("net.drops.dead").add(st.drops_dead);
    registry.counter("net.drops.invisible").add(st.drops_invisible);
    registry.counter("net.drops.loss").add(st.drops_loss);
    result.metrics = registry.snapshot();
  }

  RunResult run() {
    for (std::size_t i = 0; i < plan.events.size(); ++i) {
      queue.schedule_at(sim::milliseconds(plan.events[i].at_ms),
                        [this, i] { execute(i); });
    }
    queue.run_until(sim::milliseconds(plan.options.horizon_ms));
    heal_world();
    queue.run_for(sim::milliseconds(plan.options.drain_ms));
    if (!result.trap) end_oracles();
    finalize();
    return std::move(result);
  }
};

}  // namespace

RunResult Runner::run() {
  Execution ex(plan_);
  return ex.run();
}

}  // namespace tiamat::chaos
