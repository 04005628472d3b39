// Wire message envelope shared by Tiamat and the baseline protocols.
//
// Every protocol in this repository speaks Messages serialized through the
// tuple codec, so traffic accounting (bytes, packet counts) is uniform and
// honest across the compared systems.
//
// Layout: type (u16), op_id (u64), origin (u32), presence flags (u8), a
// varint header count, the headers, then the tuple and pattern if present;
// scalars little-endian by construction (tuple/codec.h). encode_message
// writes into one buffer of exactly encoded_size(m) bytes, allocated once:
// the payload Transport::send takes ownership of.

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "tuple/codec.h"
#include "tuple/pattern.h"
#include "tuple/tuple.h"

namespace tiamat::net {

/// Message type codes. Tiamat proper uses 1..99; each baseline protocol has
/// its own hundred-block so a stray cross-protocol packet is detectable.
enum MsgType : std::uint16_t {
  kInvalid = 0,

  // Discovery (§3.1.3)
  kProbe = 1,       ///< multicast "who is visible?"
  kProbeReply = 2,  ///< unicast "I am, contact me here"

  // Logical-space operation propagation (§2.2, §3.1.3)
  kOpRequest = 10,   ///< propagate rd/rdp/in/inp to a remote instance
  kOpResponse = 11,  ///< match found (tuple attached) or not
  kConfirm = 12,     ///< winner: make the tentative removal permanent
  kRelease = 13,     ///< loser: put the tentative tuple back
  kCancelOp = 14,    ///< originator's lease ended; drop remote waiters
  kConfirmAck = 15,  ///< serving side acknowledges a Confirm

  // Direct remote operations (§2.4)
  kRemoteOut = 20,  ///< out directed at a specific space
  kRemoteOutAck = 21,
  kRemoteEval = 22,  ///< eval (named computation) at a specific space
  kRemoteEvalAck = 23,

  // Baseline protocol blocks.
  kCentralBase = 100,
  kLimboBase = 200,
  kLimeBase = 300,
  kCoreLimeBase = 400,
  kPeersBase = 500,
};

/// Generic envelope: a type code, a correlation id, the logical originator,
/// typed scalar headers, and optional tuple/pattern payloads.
struct Message {
  std::uint16_t type = kInvalid;
  std::uint64_t op_id = 0;
  std::uint32_t origin = 0;  ///< logical source (survives multi-hop relays)
  std::vector<tuples::Value> headers;
  std::optional<tuples::Tuple> tuple;
  std::optional<tuples::Pattern> pattern;

  Message& h(tuples::Value v) {
    headers.push_back(std::move(v));
    return *this;
  }

  /// The headers as (Ts...): nullopt unless there are exactly
  /// sizeof...(Ts) of them and header i holds a Ts[i]. A handler reads its
  /// headers once, at entry, and drops a message that does not fit, so a
  /// sender's wrong-typed header can never throw.
  template <typename... Ts>
  std::optional<std::tuple<Ts...>> read() const {
    if (headers.size() != sizeof...(Ts)) return std::nullopt;
    return [this]<std::size_t... I>(std::index_sequence<I...>)
               -> std::optional<std::tuple<Ts...>> {
      if (!(headers[I].template get_if<Ts>() && ...)) return std::nullopt;
      return std::tuple<Ts...>{*headers[I].template get_if<Ts>()...};
    }(std::index_sequence_for<Ts...>{});
  }

  std::string to_string() const;
};

/// The number of bytes encode_message(m) produces.
std::size_t encoded_size(const Message& m);
tuples::Bytes encode_message(const Message& m);
std::optional<Message> decode_message(const tuples::Bytes& b);

}  // namespace tiamat::net
