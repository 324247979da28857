// Seeded random engine programs for differential tests.
//
// A program is a list of rounds of host-API calls on one Engine: kernels
// and host / peer copies on streams spread over the devices, event records
// and event waits. Few events are shared by many calls, so events are
// re-recorded while waits on them are still queued, and some waits name
// an event not recorded yet. Each round is issued one way — per call, as
// one open transaction, or as one Submission — and the engine then
// advances to the round's end time. A program is plain data: how it is
// issued (run_program's wait lowering, or any other path a test adds) is
// up to the caller, so one program can be run several ways and the
// schedules compared.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <vector>

#include "sim/device_spec.hpp"
#include "sim/engine.hpp"
#include "sim/machine.hpp"

namespace psched::sim::test {

struct ProgramCall {
  enum class Kind { Enqueue, Record, Wait };
  Kind kind = Kind::Enqueue;
  Op op;                             ///< Enqueue: the op (stream set)
  StreamId stream = kInvalidStream;  ///< Record / Wait
  EventId event = kInvalidEvent;     ///< Record / Wait
  TimeUs host_time = 0;
};

struct ProgramRound {
  enum class Issue { PerCall, Transaction, Submission };
  Issue issue = Issue::PerCall;
  std::vector<ProgramCall> calls;  ///< host times non-decreasing
  TimeUs end_time = 0;  ///< advanced to after the calls; <= next round's
};

struct Program {
  int devices = 2;
  int streams = 6;  ///< including the default stream 0
  int events = 4;
  std::vector<ProgramRound> rounds;

  /// The roster the program runs on: NVLinked test devices.
  [[nodiscard]] Machine machine() const {
    return Machine::uniform(DeviceSpec::test_device(), devices,
                            /*nvlink_all_pairs=*/true);
  }
  /// Create the program's streams (stream s on device s % devices) and
  /// events on a fresh engine built from machine().
  void setup(Engine& eng) const {
    for (int s = 1; s < streams; ++s) {
      eng.create_stream(static_cast<DeviceId>(s % devices));
    }
    for (int e = 0; e < events; ++e) eng.create_event();
  }
};

/// A random program of `rounds` rounds from `seed`.
inline Program random_program(std::uint64_t seed, int rounds = 40) {
  std::mt19937_64 rng(seed);
  const auto uniform = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  const auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  Program p;
  TimeUs t = 0;
  for (int r = 0; r < rounds; ++r) {
    ProgramRound& round = p.rounds.emplace_back();
    round.issue = static_cast<ProgramRound::Issue>(pick(3));
    const int calls = 1 + pick(12);
    for (int c = 0; c < calls; ++c) {
      if (pick(3) == 0) t += uniform(0, 3);
      ProgramCall call;
      call.host_time = t;
      const int roll = pick(10);
      if (roll < 6) {
        Op& op = call.op;
        op.stream = static_cast<StreamId>(pick(p.streams));
        const DeviceId dev = static_cast<DeviceId>(op.stream % p.devices);
        switch (pick(4)) {
          case 0: op.kind = OpKind::CopyH2D; break;
          case 1: op.kind = OpKind::CopyD2H; break;
          case 2:
            op.kind = OpKind::CopyP2P;
            op.peer = static_cast<DeviceId>((dev + 1) % p.devices);
            break;
          default: op.kind = OpKind::Kernel; break;
        }
        op.name = op.kind == OpKind::Kernel ? "k" : "cp";
        if (op.kind == OpKind::Kernel) {
          op.work = uniform(2, 40);
          op.sm_demand = 1 + pick(4);
          op.occupancy = uniform(0.25, 1.0);
          op.bw_need = pick(2) == 0 ? 0 : uniform(0, 200);
        } else {
          op.bytes = uniform(1e4, 2e5);
          op.work = op.bytes;
        }
      } else {
        call.kind = roll < 8 ? ProgramCall::Kind::Record
                             : ProgramCall::Kind::Wait;
        call.stream = static_cast<StreamId>(pick(p.streams));
        call.event = static_cast<EventId>(pick(p.events));
      }
      round.calls.push_back(std::move(call));
    }
    t += uniform(0, 30);
    round.end_time = t;
    t += uniform(0, 5);
  }
  return p;
}

/// How run_program issues a wait call.
enum class WaitLowering {
  /// Engine::wait_event / Submission::wait_event, as written.
  AsWritten,
  /// A marker op carrying `after = {the event's gate at the wait call}`
  /// (or, for an event recorded on an idle stream, its record time as the
  /// earliest start), resolved from the program's own model of the stream
  /// tails rather than by the engine.
  MarkerAfterGate,
};

/// Run `prog` on `eng` (already set up by prog.setup) and drain it.
/// `after_step` runs after every call, round and advance (tests audit
/// there). Returns the number of op ids issued.
inline OpId run_program(Engine& eng, const Program& prog, WaitLowering lower,
                        const std::function<void()>& after_step = [] {}) {
  struct EventModel {
    OpId gate = kInvalidOp;
    TimeUs recorded_at = kTimeInfinity;
  };
  std::vector<EventModel> events(static_cast<std::size_t>(prog.events));
  std::vector<OpId> tail(static_cast<std::size_t>(prog.streams));
  OpId next_id = 1;
  for (const ProgramRound& round : prog.rounds) {
    if (round.calls.empty()) continue;
    eng.advance_to(round.calls.front().host_time);
    after_step();
    // Nothing starts or completes inside a round (no call advances the
    // engine), so a stream is busy iff it was at the round's start or an
    // op was issued on it since.
    for (int s = 0; s < prog.streams; ++s) {
      if (eng.stream_idle(s)) tail[static_cast<std::size_t>(s)] = kInvalidOp;
    }
    Submission sub;
    const bool per_call = round.issue != ProgramRound::Issue::Submission;
    if (round.issue == ProgramRound::Issue::Transaction) {
      eng.begin_transaction(round.calls.front().host_time);
    }
    const auto issue_op = [&](Op op, TimeUs t) {
      const StreamId s = op.stream;
      if (per_call) {
        EXPECT_EQ(eng.enqueue(std::move(op), t), next_id);
      } else {
        sub.enqueue(std::move(op), t);
      }
      tail[static_cast<std::size_t>(s)] = next_id++;
    };
    for (const ProgramCall& call : round.calls) {
      const auto ev = static_cast<std::size_t>(call.event);
      switch (call.kind) {
        case ProgramCall::Kind::Enqueue:
          issue_op(call.op, call.host_time);
          break;
        case ProgramCall::Kind::Record: {
          const OpId gate = tail[static_cast<std::size_t>(call.stream)];
          events[ev] = {gate, gate == kInvalidOp ? call.host_time
                                                 : kTimeInfinity};
          if (per_call) {
            eng.record_event(call.event, call.stream, call.host_time);
          } else {
            sub.record_event(call.event, call.stream, call.host_time);
          }
          break;
        }
        case ProgramCall::Kind::Wait:
          if (lower == WaitLowering::MarkerAfterGate) {
            Op marker;
            marker.kind = OpKind::Marker;
            marker.stream = call.stream;
            marker.name = "wait_event";
            if (events[ev].gate != kInvalidOp) {
              marker.after = {events[ev].gate};
            } else if (events[ev].recorded_at != kTimeInfinity) {
              marker.enqueue_time = events[ev].recorded_at;
            }
            issue_op(std::move(marker), call.host_time);
            break;
          }
          if (per_call) {
            eng.wait_event(call.stream, call.event, call.host_time);
          } else {
            sub.wait_event(call.stream, call.event, call.host_time);
          }
          tail[static_cast<std::size_t>(call.stream)] = next_id++;
          break;
      }
      if (per_call) after_step();
    }
    if (round.issue == ProgramRound::Issue::Transaction) {
      eng.commit_transaction();
    } else if (!per_call) {
      eng.ingest(sub);
    }
    after_step();
    eng.advance_to(round.end_time);
    after_step();
  }
  eng.run_all();
  after_step();
  return next_id - 1;
}

}  // namespace psched::sim::test
